"""Command-line surface: validation, dispatch, rendering, exit codes."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from torsionlab.cli import execute, main, render_json
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


def test_main_internal_error_is_not_input_error(tmp_path, monkeypatch, capsys):
    def broken(ring, sigma):
        raise KeyError("internal")

    monkeypatch.setattr("torsionlab.cli.theorem_suite", broken)
    spec = write_spec(tmp_path, {"ring": {"zmod": 4}, "filter": "lambda"})
    with pytest.raises(KeyError, match="internal"):
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
