"""Command-line surface: validation, dispatch, rendering, exit codes."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsionlab
from torsionlab import cli
from torsionlab.cli import execute, main, render_json, validate_spec
from torsionlab.errors import (
    SpecPredicateError,
    SpecValidationError,
    TheoremViolation,
    WorkbenchError,
)
from torsionlab.filters import closure, enumerate_gabriel_filters, is_closed, is_dense
from torsionlab.modules import free_module
from torsionlab.rings import (
    build_ring,
    ideal_from_generators,
    minimal_generators,
    principal_ideal,
    ring_catalog,
)


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def report_schema() -> dict:
    text = (
        resources.files("torsionlab.schemas")
        .joinpath("workbench-report.v1.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def check_report(report: dict) -> None:
    jsonschema.Draft202012Validator(report_schema()).validate(report)


# -- execute -------------------------------------------------------------------


def test_execute_partition_example():
    doc = {
        "task": "partition",
        "ring": {"zmod": 12},
        "filter": {"mult_set": [1, 3, 9]},
    }
    report, code = execute(doc)
    assert code == 0
    assert report["results"]["K"] == ["(2)"]
    assert report["results"]["Z"] == ["(3)"]
    assert report["results"]["C"] == ["(2)"]
    check_report(report)


def test_execute_census_example():
    report, code = execute({"task": "census", "ring": {"zmod": 12}})
    assert code == 0
    assert report["results"]["gabriel_filters"] == 4
    check_report(report)


def test_execute_enumerate():
    report, code = execute({"task": "enumerate", "ring": {"zmod": 12}})
    assert code == 0
    assert report["results"]["ideal_count"] == 6
    assert sorted(report["results"]["spectrum"]) == ["(2)", "(3)"]
    # factor by (4) is the size-4 local piece, factor by (3) the size-3 one
    assert report["results"]["local_factors"] == ["Z/12/(4)", "Z/12/(3)"]
    check_report(report)


def test_execute_closure():
    doc = {
        "task": "closure",
        "ring": {"zmod": 12},
        "filter": {"mult_set": [1, 3, 9]},
        "params": {"ideal_gens": [6]},
    }
    report, code = execute(doc)
    assert code == 0
    assert report["results"]["closure"] == "(2)"
    assert report["results"]["closure_elements"] == [0, 2, 4, 6, 8, 10]
    assert not report["results"]["is_closed"]
    check_report(report)


def test_closure_task_matches_module_closure():
    # the closure task reads the ideal lattice; the element-level closure of
    # the ideal as a submodule of A must give the same report fields
    cases = 0
    for term in ring_catalog(12):
        ring = build_ring(term)
        carrier = free_module(ring, 1)
        principals = {principal_ideal(ring, x).elements: x for x in range(ring.size)}
        for sigma in enumerate_gabriel_filters(ring):
            seeds = [list(minimal_generators(b)) for b in sigma.basis]
            for sub, x in principals.items():
                doc = {
                    "task": "closure",
                    "ring": term,
                    "filter": {"seeds": seeds},
                    "params": {"ideal_gens": [x]},
                }
                results = execute(doc)[0]["results"]
                closed = closure(carrier, sub, sigma)
                assert results["filter"] == sigma.label
                assert results["closure"] == ideal_from_generators(ring, sorted(closed)).label
                assert results["closure_elements"] == sorted(closed)
                assert results["is_closed"] == is_closed(carrier, sub, sigma)
                assert results["is_dense"] == is_dense(carrier, sub, sigma)
                cases += 1
    assert cases == 442


def test_execute_certify():
    doc = {
        "task": "certify",
        "ring": {"zmod": 12},
        "filter": {"mult_set": [1, 3, 9]},
        "params": {"ideal_gens": [2]},
    }
    report, code = execute(doc)
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["generators"] == [2]
    assert cert["h"] == "(1)"
    assert report["results"]["verified"] is True
    check_report(report)


def test_execute_suite_single():
    doc = {"task": "suite", "ring": {"zmod": 6}, "filter": "trivial"}
    report, code = execute(doc)
    assert code == 0
    assert report["results"]["all_passed"] is True
    check_report(report)


def test_execute_monomial_saturate():
    doc = {
        "task": "monomial-decide",
        "params": {
            "op": "saturate",
            "mult_set": {"s": {"vars": {"2": 1}}},
            "ideal": {"gens": [{"vars": {"1": 2, "2": 1}}, {"vars": {"1": 1, "2": 3}}]},
        },
    }
    report, code = execute(doc)
    assert code == 0
    assert report["results"]["saturation"] == "<x1>"
    check_report(report)


def test_execute_monomial_cohen():
    doc = {
        "task": "monomial-decide",
        "params": {
            "op": "cohen",
            "mult_set": {"s": {"vars": {"1": 1}}},
            "primes": [
                {"finite": [1]},
                {"finite": [2]},
                {"tail": {"start": 2}},
            ],
        },
    }
    report, code = execute(doc)
    assert code == 0  # informative without --expect-pass
    results = report["results"]
    assert results["verdict"] == "not-totally-noetherian"
    assert results["consistent"] is True
    assert results["cross_check"]["verdict"] == "refuted"
    check_report(report)


def test_execute_rejects_unknown_fields():
    from torsionlab.errors import SpecValidationError

    with pytest.raises(SpecValidationError):
        execute({"task": "census", "ring": {"zmod": 12}, "bogus": 1})
    with pytest.raises(SpecValidationError):
        execute({"task": "census", "ring": {"zmod": 12}, "params": {"extra": 2}})
    with pytest.raises(SpecValidationError):
        execute({"task": "partition", "ring": {"zmod": 12}})  # missing filter


# -- main() and exit codes -------------------------------------------------------


def test_main_partition_text(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"ring": {"zmod": 12}, "filter": {"mult_set": [1, 3, 9]}},
    )
    assert main(["partition", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "K: (2)" in out and "Z: (3)" in out


def test_main_task_mismatch(tmp_path, capsys):
    spec = write_spec(tmp_path, {"task": "census", "ring": {"zmod": 12}})
    assert main(["partition", "--spec", spec]) == 2
    assert "declares task" in capsys.readouterr().err


def test_main_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"ring": {', encoding="utf-8")
    assert main(["census", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_main_missing_file(capsys):
    assert main(["census", "--spec", "/nonexistent/x.json"]) == 2


def test_main_expect_pass_on_refuted(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "params": {
                "op": "decide",
                "mult_set": {"s": {"vars": {"1": 1}}},
                "ideal": {"families": [{"base": {"vars": {}}, "start": 2}]},
            }
        },
    )
    assert main(["monomial", "--spec", spec]) == 0
    assert main(["monomial", "--spec", spec, "--expect-pass"]) == 1


@pytest.mark.parametrize(
    "command, doc",
    [
        ("closure", {"ring": {"zmod": 6}, "filter": "lambda", "params": {"ideal_gens": [7]}}),
        ("partition", {"ring": {"zmod": 6},
                       "filter": {"prime_complement": {"ideal_gens": [6]}}}),
        ("partition", {"ring": {"zmod": 6}, "filter": {"seeds": [[2], [8]]}}),
        ("partition", {"ring": {"zmod": 6}, "filter": {"mult_set": [1, 9]}}),
        ("monomial", {"params": {"op": "cohen", "mult_set": {"s": {"vars": {"1": 1}}},
                                 "primes": [{"finite": []}]}}),
    ],
)
def test_main_out_of_range_input_exits_2(tmp_path, capsys, command, doc):
    # the schema admits these; the ring or the pattern rejects them
    assert main([command, "--spec", write_spec(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "is not an element of Z/6" in err or "pattern must be nonempty" in err


@pytest.mark.parametrize("error", [KeyError, TheoremViolation], ids=lambda e: e.__name__)
def test_main_internal_error_is_not_input_error(tmp_path, monkeypatch, capsys, error):
    def broken(ring, sigma):
        raise error("internal")

    monkeypatch.setattr("torsionlab.cli.theorem_suite", broken)
    spec = write_spec(tmp_path, {"ring": {"zmod": 4}, "filter": "lambda"})
    with pytest.raises(error, match="internal"):
        main(["suite", "--spec", spec])
    assert "invalid input" not in capsys.readouterr().err


def test_main_cap_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, {"ring": {"zmod": 20}})
    assert main(["census", "--spec", spec, "--cap", "16"]) == 2
    assert "cap" in capsys.readouterr().err


def test_main_json_format(tmp_path, capsys):
    spec = write_spec(tmp_path, {"ring": {"zmod": 12}, "format": "json"})
    assert main(["census", "--spec", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["gabriel_filters"] == 4
    assert report["timing_ms"] is None
    check_report(report)


def test_json_reports_are_byte_identical():
    doc = {"task": "suite", "ring": {"zmod": 12}, "filter": {"seeds": [[4]]}}
    first, _ = execute(doc)
    second, _ = execute(doc)
    assert render_json(first) == render_json(second)


def test_json_report_round_trips():
    doc = {"task": "census", "ring": {"zmod": 30}}
    report, _ = execute(doc)
    assert json.loads(render_json(report)) == report


def dumps(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF))  # surrogates too
_SCALARS = (
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, 1.0, -0.0, 1e16, 0.1])
    | st.integers() | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats() | _TEXT
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON)
@example({"b": [], "a": {}, "c": ()})
@example({"t": True, "f": False, "n": None, "0": 0, "1": 1, "x": [1.0, -0.0, 1e16, 0.1]})
@example({"\u00e9\x00\ud800": ["\U0001f600\x1f\udfff", "\\\"/"]})
def test_render_json_matches_json_dumps(value):
    assert render_json(value) == dumps(value)


_RING_TASKS = ("enumerate", "partition", "closure", "certify", "suite", "census")
_INVALID = [
    {"task": "census", "ring": {"zmod": 12}, "params": {"depth": 1}},
    {"task": "partition", "ring": {"zmod": 12}},
    {"task": "enumerate", "ring": {"zmod": 300}},
    {"task": "enumerate", "ring": {"product": [{"zmod": 16}, {"zmod": 17}]}},
    {"task": "enumerate", "ring": {"polyquot": {"p": 4, "f": [0, 1]}}},
    {"task": "enumerate", "ring": {"polyquot": {"p": 3, "f": [1, 2]}}},
    {"task": "enumerate", "ring": {"squarezero": {"p": 2, "k": 8}}},
    {"task": "partition", "ring": {"zmod": 12}, "filter": {"mult_set": [0, 2]}},
    {"task": "closure", "ring": {"zmod": 12}, "filter": "lambda", "params": {"ideal_gens": [12]}},
    {"task": "census", "ring": {"zmod": True}},
    {"task": "census", "ring": {"zmod": 1.5}},
    {"task": "nope"},
    {"task": "monomial-decide", "params": {"op": "decide", "mult_set": {"s": {"vars": {"1": 1}}},
     "ideal": {"families": [{"base": {"vars": {"2": 1}}, "start": 2}]}}},
]


def interactive_specs() -> list[dict]:
    """Every ring task on every catalog ring of size <= 12 under the lambda,
    trivial and improper filters, two specs that echo schema integers given
    as floats, then documents the workbench must reject."""
    docs = []
    for term in ring_catalog(12):
        size = build_ring(term).size
        for task in _RING_TASKS:
            filters = (None,) if task in ("enumerate", "census") else ("lambda", "trivial", "improper")
            for sigma in filters:
                doc = {"task": task, "ring": term, "format": "json"}
                if sigma:
                    doc["filter"] = sigma
                if task in ("closure", "certify"):
                    doc["params"] = {"ideal_gens": [size // 2]}
                docs.append(doc)
    docs.append({"task": "closure", "ring": {"zmod": 12}, "filter": "lambda",
                 "params": {"ideal_gens": [2.0]}, "format": "json"})
    docs.append({"task": "census", "ring": {"polyquot": {"p": 2, "f": [1, 1, 1.0]}},
                 "format": "json"})
    return docs + _INVALID


@pytest.fixture(scope="module")
def interactive_outcomes() -> list:
    """The report of each interactive spec, or the error that rejected it."""
    out = []
    for doc in interactive_specs():
        try:
            out.append(execute(doc)[0])
        except WorkbenchError as exc:
            out.append(exc)
    return out


def test_task_reports_render_as_json_dumps(interactive_outcomes):
    reports = [r for r in interactive_outcomes if isinstance(r, dict)]
    reports += [execute({"task": "monomial-decide", "params": p})[0]
                for p in _MONOMIAL_PARAMS if p.get("ideal") is not _IDEAL]  # _IDEAL is rejected
    assert {r["task"] for r in reports} == set(_RING_TASKS) | {"monomial-decide"}
    for report in reports:
        assert render_json(report) == dumps(report)


def test_interactive_reports_are_pinned(interactive_outcomes):
    # Byte-identity gate for rendered reports and rejection texts; the
    # digest was re-taken when the checks that cannot fail on a finite
    # carrier left the suite: every non-suite entry stayed byte-identical,
    # and every suite report equalled the old one with those entries dropped.
    data = "".join(
        f"error {type(r).__name__}: {r}\n" if isinstance(r, Exception) else render_json(r)
        for r in interactive_outcomes
    ).encode("utf-8")
    assert len(data) == 394474
    assert hashlib.sha256(data).hexdigest() == (
        "656e499ed6d02b260ae49c4f7926ca9b421b157f7b60811bc949c24001111135"
    )


_WIDE_RING = {"squarezero": {"p": 2, "k": 6}}  # size 128, 2,826 ideals


@pytest.mark.parametrize(
    "doc, length, digest",
    [
        ({"task": "census", "ring": _WIDE_RING, "format": "json"},
         587, "f641ffda79a940fa47eb48548a6dc22eb9ee031009ad94bd72324feb93cb0532"),
        ({"task": "closure", "ring": _WIDE_RING, "filter": "improper",
          "params": {"ideal_gens": [1]}, "format": "json"},
         1905, "bc793cc784f305ed5aa28323d065f8fe2e262a2a1075e6e7a21fb5c7e46d6fef"),
    ],
    ids=["census", "improper-closure"],
)
def test_wide_ring_reports_are_pinned(doc, length, digest):
    # the digests were taken while every up-set was still tested against
    # all five filter axioms, when each of these specs took over 30 s
    data = render_json(execute(doc)[0]).encode("utf-8")
    assert len(data) == length
    assert hashlib.sha256(data).hexdigest() == digest


def _as_floats(x):
    """x with every int that is not a bool written as a float."""
    if isinstance(x, dict):
        return {k: _as_floats(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_as_floats(v) for v in x]
    return float(x) if type(x) is int else x


_INT_SPECS = [
    {"task": "enumerate", "ring": {"zmod": 12}},
    {"task": "suite", "params": {"sweep_max_size": 4}},
    {"task": "closure", "ring": {"zmod": 12}, "filter": {"mult_set": [1, 5]},
     "params": {"ideal_gens": [2]}},
    {"task": "census", "ring": {"product": [{"squarezero": {"p": 2, "k": 2}}, {"zmod": 3}]}},
    {"task": "partition", "ring": {"polyquot": {"p": 3, "f": [1, 0, 1]}},
     "filter": {"prime_complement": {"ideal_gens": [0]}}},
    {"task": "certify", "ring": {"zmod": 18}, "filter": {"seeds": [[3], [2]]},
     "params": {"ideal_gens": [6]}},
    {"task": "monomial-decide", "params": {
        "op": "decide", "mult_set": {"s": {"vars": {"1": 1}}},
        "ideal": {"gens": [{"vars": {"1": 2, "2": 1}}],
                  "families": [{"base": {"vars": {"1": 1}}, "start": 3, "step": 2, "e": 1}]}}},
    {"task": "monomial-decide", "params": {
        "op": "cohen", "mult_set": {"s": {"vars": {"1": 1}}},
        "primes": [{"finite": [1, 4]}, {"tail": {"start": 2, "step": 3}}]}},
]


@pytest.mark.parametrize("doc", _INT_SPECS, ids=[d["task"] for d in _INT_SPECS])
def test_integers_given_as_floats_run_as_ints(doc):
    # the schema takes 1.0 as an integer; the task must read it as 1 and
    # the report echo the document as given
    floated = _as_floats(doc)
    assert repr(floated) != repr(doc)
    report, code = execute(floated)
    expected, expected_code = execute(doc)
    assert code == expected_code
    assert report["results"] == expected["results"]
    assert report["counterexamples"] == expected["counterexamples"]
    assert repr(report["spec_echo"]) == repr(floated)
    check_report(report)


# -- spec validation: compiled predicate, jsonschema wording ---------------------

_RINGS = [
    {"zmod": 12},
    {"product": [{"zmod": 2}, {"product": [{"zmod": 3}, {"zmod": 2}]}]},
    {"polyquot": {"p": 2, "f": [1, 1, 1]}},
    {"squarezero": {"p": 3, "k": 2}},
]
_FILTERS = [
    "lambda",
    "trivial",
    "improper",
    {"mult_set": [1, 3, 9]},
    {"prime_complement": {"ideal_gens": [2]}},
    {"seeds": [[4], [6, 2]]},
]
_IDEAL = {
    "gens": [{"vars": {"1": 2, "2": 1}}, {"vars": {"10": 3}}],
    "families": [{"base": {"vars": {"1": 1}}, "start": 2, "step": 2, "e": 1}],
}
_MONOMIAL_PARAMS = [
    {"op": "decide", "mult_set": {"s": {"vars": {"1": 1}}}, "ideal": _IDEAL},
    {"op": "saturate", "mult_set": {"s": {"vars": {"2": 1}}}, "ideal": {"gens": []}},
    {"op": "in_filter", "mult_set": {"s": {"vars": {"3": 2}}}, "ideal": _IDEAL},
    {"op": "cohen", "mult_set": {"s": {"vars": {"1": 1}}},
     "primes": [{"finite": [1, 4]}, {"tail": {"start": 2, "step": 3}}]},
    {"op": "almost_jansian", "mult_set": {"s": {"vars": {"1": 1, "2": 2}}}},
]


def fixture_specs() -> list[dict]:
    """Valid specs for all seven tasks, every ring constructor, every filter
    form and all five monomial ops."""
    docs = [{"task": "suite", "params": {"sweep_max_size": 10}, "schema": "workbench-spec.v1"}]
    docs += [{"task": "monomial-decide", "params": p, "format": "json"} for p in _MONOMIAL_PARAMS]
    for ring in _RINGS:
        docs += [{"task": "enumerate", "ring": ring}, {"task": "census", "ring": ring, "params": {}}]
        for sigma in _FILTERS:
            docs += [
                {"task": "partition", "ring": ring, "filter": sigma, "format": "text"},
                {"task": "closure", "ring": ring, "filter": sigma, "params": {"ideal_gens": [2]}},
                {"task": "certify", "ring": ring, "filter": sigma, "params": {"ideal_gens": []}},
                {"task": "suite", "ring": ring, "filter": sigma},
            ]
    return docs


_REPLACEMENTS = [True, 1.0, 1.5, 0, -1, None, "x", [], {}, 2, 5, "json"]


def mutate(rng: random.Random, doc: dict) -> dict:
    """A copy of doc with one object or array inside it changed: a value
    replaced, a key deleted or added, or an array item appended or popped."""
    doc = copy.deepcopy(doc)
    nodes = [doc]
    for node in nodes:  # every object and array, doc included
        nodes += [c for c in (node.values() if isinstance(node, dict) else node)
                  if isinstance(c, (dict, list))]
    node = rng.choice(nodes)
    value = copy.deepcopy(rng.choice(_REPLACEMENTS))
    op = rng.choice(("replace", "remove", "grow")) if node else "grow"
    if op == "replace":
        node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))] = value
    elif op == "remove" and isinstance(node, dict):
        del node[rng.choice(list(node))]
    elif op == "remove":
        node.pop()
    elif isinstance(node, dict):
        node[rng.choice(("bogus", "7"))] = value
    else:
        node.append(copy.deepcopy(node[0]) if node else value)
    return doc


def test_compiled_predicate_agrees_with_jsonschema():
    validator = jsonschema.Draft202012Validator(cli._spec_schema())
    predicate = cli._spec_predicate()
    rng = random.Random(2011)
    fixtures = fixture_specs()
    corpus = list(fixtures)
    while len(corpus) < 5000:
        doc = mutate(rng, rng.choice(fixtures))
        corpus.append(mutate(rng, doc) if rng.random() < 0.2 else doc)
    verdicts = [validator.is_valid(doc) for doc in corpus]
    disagree = [doc for doc, ok in zip(corpus, verdicts) if predicate(doc) != ok]
    assert not disagree, disagree[:3]
    assert all(verdicts[: len(fixtures)])
    # the schema is strict, so most mutations are rejected
    assert verdicts.count(True) >= 750 and verdicts.count(False) >= 3000, verdicts.count(True)


@pytest.mark.parametrize(
    "schema, instances",
    [
        ({"type": "integer"}, [1, 1.0, 1.5, True, "1", None]),
        ({"minimum": 2, "maximum": 3}, [2, 3, 1, 4, 2.5, True, "x", [], None]),
        ({"enum": ["a", "b"]}, ["a", "c", ["a"], {"a": 1}, 0, None]),
        ({"const": "a"}, ["a", "b", ["a"], True]),
        ({"oneOf": [{"minimum": 2}, {"maximum": 5}]}, [1, 3, 6, "x"]),
        ({"properties": {"a": {"type": "integer"}}, "patternProperties": {"^a": {"minimum": 2}},
          "additionalProperties": False}, [{"a": 2}, {"a": 1}, {"ab": 1}, {"ab": 2}, {"b": 0}, 3]),
        ({"minItems": 1, "maxItems": 2, "items": {"type": "array"}}, [[], [[]], [[], [], []], [1], {}]),
        ({"if": {"required": ["a"]}, "then": {"maxProperties": 1}}, [{}, {"a": 1}, {"a": 1, "b": 2}, {"b": 1, "c": 2}]),
        ({"allOf": [{"type": "object"}, {"minProperties": 1}]}, [{}, {"a": 1}, []]),
    ],
)
def test_compiled_keywords_match_jsonschema(schema, instances):
    # edge cases the shipped schema cannot show: bounds without a type and
    # overlapping oneOf branches
    predicate = cli._compile_schema(schema)
    validator = jsonschema.Draft202012Validator(schema)
    assert [predicate(x) for x in instances] == [validator.is_valid(x) for x in instances]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"task": "census", "ring": {"zmod": 12}, "bogus": 1},
         "$: Additional properties are not allowed ('bogus' was unexpected)"),
        ({"task": "census", "ring": {"zmod": 12}, "params": {"extra": 2}},
         "$.params: {'extra': 2} is expected to be empty"),
        ({"task": "partition", "ring": {"zmod": 12}},
         "$: 'filter' is a required property"),
        ({"task": "partition", "ring": {"zmod": 12}, "filter": {"mult_set": [1], "seeds": [[2]]}},
         "$.filter: {'mult_set': [1], 'seeds': [[2]]} is not valid under any of the given schemas"),
        ({"task": "partition", "ring": {"zmod": 12}, "filter": "lambd"},
         "$.filter: 'lambd' is not valid under any of the given schemas"),
        ({"task": "census", "ring": {"zmod": 12}, "colour": "red"},
         "$: Additional properties are not allowed ('colour' was unexpected)"),
        ({"task": "suite", "params": {"sweep_max_size": 17}},
         "$: {'task': 'suite', 'params': {'sweep_max_size': 17}} is not valid under any of "
         "the given schemas"),
        ({"task": "census", "ring": {"zmod": True}},
         "$.ring.zmod: True is not of type 'integer'"),
        ({"task": "closure", "ring": {"zmod": 12}, "filter": "lambda",
          "params": {"ideal_gens": [True]}},
         "$.params.ideal_gens[0]: True is not of type 'integer'"),
        ({"task": "monomial-decide",
          "params": {"op": "decide", "mult_set": {"s": {"vars": {"0": 1}}}}},
         "$.params.mult_set.s.vars: '0' does not match any of the regexes: '^[1-9][0-9]*$'"),
        ({"task": "nope"},
         "$.task: 'nope' is not one of ['enumerate', 'partition', 'closure', 'certify', "
         "'suite', 'census', 'monomial-decide']"),
    ],
)
def test_rejection_texts_are_pinned(doc, message):
    with pytest.raises(SpecValidationError) as info:
        validate_spec(doc)
    assert str(info.value) == f"spec validation failed at {message}"


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "properties": {"name": {"pattern": "^a"}}},
        {"$defs": {"day": {"format": "date"}}, "items": {"$ref": "#/$defs/day"}},
        {"else": True},
        {"type": "string"},
        {"type": ["integer", "null"]},
        {"enum": ["text", 1]},
        {"properties": {"flag": {"const": True}}},
        {"$ref": "other-schema.json#/$defs/ring"},
        {"$ref": "#/properties/task"},
    ],
)
def test_schema_drift_is_an_internal_error(schema):
    with pytest.raises(SpecPredicateError) as info:
        cli._compile_schema(schema)
    assert not isinstance(info.value, WorkbenchError)


def test_predicate_schema_disagreement_is_not_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_spec_predicate", lambda: lambda doc: False)
    spec = write_spec(tmp_path, {"ring": {"zmod": 12}})
    with pytest.raises(SpecPredicateError):
        main(["census", "--spec", spec])
    assert "error:" not in capsys.readouterr().err


def test_valid_spec_does_not_import_jsonschema():
    script = textwrap.dedent(
        """
        import sys
        from torsionlab.cli import validate_spec
        from torsionlab.errors import SpecValidationError
        validate_spec({"task": "census", "ring": {"zmod": 12}})
        assert "jsonschema" not in sys.modules
        try:
            validate_spec({"task": "census", "ring": {"zmod": True}})
        except SpecValidationError as exc:
            print(exc)
        """
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(torsionlab.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "spec validation failed at $.ring.zmod: True is not of type 'integer'\n"
