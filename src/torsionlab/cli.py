"""Command line: run workbench tasks from a declarative spec file.

Subcommands map one-to-one onto tasks (`inspect` runs the `enumerate`
task, `monomial` runs `monomial-decide`).  The spec file is a single JSON
document validated strictly against the shipped schema; unknown fields are
rejected.  Validation has a fast path and an error path.  The schema file
is compiled once per process into a plain predicate, which decides
validity; an accepted document returns at once, without importing
jsonschema.  Two schema shapes compile to lookups instead of trial runs:
the ``if`` clauses on ``task`` and on ``params.op`` to a dict by value,
and the type-disjoint ``oneOf`` of the ``filter`` grammar to a dispatch
by type.  A rejected document goes to jsonschema's Draft 2020-12
validator, imported and built on first need, and its first error by
instance path words the rejection, so the schema file stays the only
grammar and jsonschema the only author of an error text.  Reports render
as text or JSON; the JSON form is byte-identical
across runs for a fixed spec and tool version, so timing is reported only
in text mode.  It is the bytes of ``json.dumps(report, sort_keys=True,
indent=2)``, written by a small recursive writer (``render_json``).

Exit codes: 0 on success, 1 on a theorem-suite counterexample or, under
--expect-pass, on any refuted or exhausted decision, 2 on input errors
(a :class:`WorkbenchError`).  Any other exception is a bug and propagates
with its traceback; so does a schema the predicate compiler cannot follow,
or a document the predicate rejects and jsonschema accepts
(:class:`SpecPredicateError`).
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import re
import sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .errors import InvalidArgument, SpecPredicateError, SpecValidationError, WorkbenchError
from .filters import (
    GabrielFilter,
    enumerate_gabriel_filters,
    filter_from_mult_set,
    filter_from_prime,
    gabriel_closure,
    ideal_closure,
    improper_filter,
    lambda_filter,
    spec_partition,
    trivial_filter,
)
from .modules import FREE_CARRIER_CAP, free_module
from .monomial import (
    DecisionBudget,
    Monomial,
    MonomialIdeal,
    PrincipalMultSet,
    TailFamily,
    VariablePattern,
    almost_jansian_principal,
    cohen_scan,
    in_filter,
    s_finite_decide,
    saturation,
)
from .noether import theorem_suite, tfg_certificate, verify_certificate
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    build_ring,
    enumerate_ideals,
    ideal_from_generators,
    local_decomposition,
    prime_spectrum,
    ring_catalog,
)

# the largest variable index a spec may name: saturate and cohen peel tail
# families up to the largest variable named, in time and memory linear in it
VARIABLE_CAP = 2**15

TASK_BY_COMMAND = {
    "inspect": "enumerate",
    "partition": "partition",
    "closure": "closure",
    "certify": "certify",
    "suite": "suite",
    "census": "census",
    "monomial": "monomial-decide",
}


@functools.cache
def _spec_schema() -> dict:
    text = (
        resources.files("torsionlab.schemas")
        .joinpath("workbench-spec.v1.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


_ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}
_APPLICATORS = {"properties", "patternProperties", "additionalProperties", "items",
                "$ref", "allOf", "oneOf", "if", "then"}
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    # as in jsonschema's Draft 2020-12: 1.0 is an integer and True is not
    "integer": lambda x: type(x) is int or not isinstance(x, bool)
    and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}
# the Python types of the JSON type a oneOf branch requires by type, enum or const
_PY_TYPES = {"object": (dict,), "array": (list,), "integer": (int, float), "string": (str,)}


def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


def _of_type(name):
    if not isinstance(name, str) or name not in _TYPES:
        raise SpecPredicateError(f"spec schema type not supported: {name!r}")
    return _TYPES[name]


def _one_of_strings(key: str, values: list):
    # jsonschema compares strings by ==, and a string to a non-string as unequal
    if not all(isinstance(v, str) for v in values):
        raise SpecPredicateError(f"spec schema {key} is not all strings: {values!r}")
    values = frozenset(values)
    return lambda x: isinstance(x, str) and x in values


# keyword -> check of one instance, each ignoring the types it does not apply to
_KEYWORD_CHECKS = {
    "type": _of_type,
    "enum": lambda vs: _one_of_strings("enum", vs),
    "const": lambda v: _one_of_strings("const", [v]),
    "minimum": lambda m: lambda x: x >= m if type(x) is int else not _is_number(x) or x >= m,
    "maximum": lambda m: lambda x: x <= m if type(x) is int else not _is_number(x) or x <= m,
    "required": lambda ks: lambda x, ks=frozenset(ks): not isinstance(x, dict) or x.keys() >= ks,
    "minProperties": lambda n: lambda x: not isinstance(x, dict) or len(x) >= n,
    "maxProperties": lambda n: lambda x: not isinstance(x, dict) or len(x) <= n,
    "minItems": lambda n: lambda x: not isinstance(x, list) or len(x) >= n,
    "maxItems": lambda n: lambda x: not isinstance(x, list) or len(x) <= n,
}


def _every(checks: list):
    """The predicate that holds where every one of the checks holds."""
    if len(checks) == 1:
        return checks[0]

    def every(x) -> bool:
        for check in checks:
            if not check(x):
                return False
        return True

    return every


def _selector(clause):
    """(key, values) when clause is an ``if``/``then`` whose ``if`` tests one
    property against a string ``const`` or ``enum``, with or without
    ``required`` of that property; else None."""
    cond = clause.get("if") if isinstance(clause, dict) and clause.keys() <= {"if", "then"} else {}
    tests = cond.get("properties") if isinstance(cond, dict) else None
    if not isinstance(tests, dict) or len(tests) != 1:
        return None
    (key, test), = tests.items()
    single = isinstance(test, dict) and len(test) == 1
    values = test.get("enum", [test.get("const")]) if single else ()
    shapes = ({"properties": tests}, {"properties": tests, "required": [key]})
    if cond in shapes and isinstance(values, list) and all(isinstance(v, str) for v in values):
        return key, values
    return None


def _compile_schema(root: dict):
    """Compile a JSON Schema into a predicate that agrees with jsonschema's
    ``Draft202012Validator(root).is_valid``.  Only the keywords the spec
    schema uses are known; any other keyword or type, a non-string ``enum``
    or ``const`` value, or a ``$ref`` that is not a local ``$defs`` entry
    raises SpecPredicateError, so a schema edit is never silently ignored.
    An ``allOf`` of ``if`` clauses on one property's string values (``task``,
    ``op``) looks up the ``then`` checks a value selects, and a ``oneOf`` of
    branches requiring distinct types (``filter``) runs one branch by type."""
    defs: dict = {}

    def ref(pointer: str):
        name = pointer.removeprefix("#/$defs/")
        if name == pointer or name not in root.get("$defs", {}):
            raise SpecPredicateError(f"spec schema $ref {pointer!r} is not a local $defs entry")
        return lambda x: defs[name](x)  # read on call: ring refers to itself

    def compile_(node):
        if isinstance(node, bool):
            return lambda x: node
        unknown = node.keys() - _ANNOTATIONS - _APPLICATORS - _KEYWORD_CHECKS.keys()
        if unknown:
            raise SpecPredicateError(f"spec schema keywords not supported: {sorted(unknown)}")
        checks = [_KEYWORD_CHECKS[k](v) for k, v in node.items() if k in _KEYWORD_CHECKS]
        props = {k: compile_(v) for k, v in node.get("properties", {}).items()}
        pats = [(re.compile(p).search, compile_(v))
                for p, v in node.get("patternProperties", {}).items()]
        extra = compile_(node.get("additionalProperties", True))

        def members(x) -> bool:
            # a member meets its property and every pattern it matches, or else extra
            for k, v in (x.items() if isinstance(x, dict) else ()):
                hits = [check for search, check in pats if search(k)]
                if k in props:
                    hits.append(props[k])
                for check in hits or (extra,):
                    if not check(v):
                        return False
            return True

        def named(x) -> bool:
            # without patterns, a member meets its property, or else extra
            for k, v in (x.items() if isinstance(x, dict) else ()):
                if not props.get(k, extra)(v):
                    return False
            return True

        if props or pats or "additionalProperties" in node:
            checks.append(members if pats else named)
        if "items" in node:
            item = compile_(node["items"])
            checks.append(lambda x: not isinstance(x, list) or all(map(item, x)))
        if "$ref" in node:
            checks.append(ref(node["$ref"]))
        if "allOf" in node:
            checks.append(dispatch_if(node["allOf"], _every([compile_(t) for t in node["allOf"]])))
        if "oneOf" in node:
            branches = [compile_(t) for t in node["oneOf"]]
            kinds = [t.get("type", "string" if "enum" in t or "const" in t else None)
                     if isinstance(t, dict) else None for t in node["oneOf"]]
            by_type = {} if None in kinds or len(set(kinds)) < len(kinds) else {
                py: branch for kind, branch in zip(kinds, branches) for py in _PY_TYPES[kind]}
            # with distinct types only the instance's branch can hold; a bool or subclass is counted
            checks.append(lambda x: by_type[type(x)](x) if type(x) in by_type
                          else sum(branch(x) for branch in branches) == 1)
        if "if" in node:
            cond, then = compile_(node["if"]), compile_(node.get("then", True))
            checks.append(lambda x: not cond(x) or then(x))
        return _every(checks)

    def dispatch_if(clauses: list, every):
        # every, as a lookup when each clause is an if on one key's string values
        selectors = [_selector(c) for c in clauses]
        if None in selectors or len({key for key, _ in selectors}) != 1:
            return every
        key, thens = selectors[0][0], [compile_(c.get("then", True)) for c in clauses]
        selected = {v: _every([t for (_, vs), t in zip(selectors, thens) if v in vs])
                    for _, vs in selectors for v in vs}

        def dispatch(x) -> bool:
            # on a missing key or a non-object an if holds vacuously, and on a
            # non-string value it fails, so the clauses run as written
            v = x.get(key) if isinstance(x, dict) else None
            if not isinstance(v, str):
                return every(x)
            return v not in selected or selected[v](x)

        return dispatch

    predicate = compile_(root)
    defs.update((name, compile_(node)) for name, node in root.get("$defs", {}).items())
    return predicate


@functools.cache
def _spec_predicate():
    return _compile_schema(_spec_schema())


@functools.cache
def _spec_validator():
    import jsonschema  # only a rejection needs its wording

    return jsonschema.Draft202012Validator(_spec_schema())


def load_spec(path: str) -> dict:
    """Parse the spec file; JSON errors surface with line and column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise SpecValidationError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(
            f"spec file {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SpecValidationError(f"cannot read spec file {path}: {exc}") from exc


def validate_spec(doc: dict) -> None:
    """Accept a document the compiled predicate accepts; word a rejection
    with jsonschema's first error by instance path."""
    try:
        if _spec_predicate()(doc):
            return
        errors = sorted(_spec_validator().iter_errors(doc), key=lambda e: list(e.absolute_path))
    except RecursionError as exc:
        raise SpecValidationError("spec validation failed: the document nests too deeply") from exc
    if not errors:
        raise SpecPredicateError("the compiled spec predicate rejects a document the schema accepts")
    first = errors[0]
    raise SpecValidationError(f"spec validation failed at {first.json_path}: {first.message}")


def build_filter(ring: FiniteRing, spec) -> GabrielFilter:
    if spec == "lambda":
        return lambda_filter(ring)
    if spec == "trivial":
        return trivial_filter(ring)
    if spec == "improper":
        return improper_filter(ring)
    if "mult_set" in spec:
        return filter_from_mult_set(ring, spec["mult_set"])
    if "prime_complement" in spec:
        prime = ideal_from_generators(ring, spec["prime_complement"]["ideal_gens"])
        return filter_from_prime(ring, prime)
    seeds = [ideal_from_generators(ring, gens) for gens in spec["seeds"]]
    return gabriel_closure(ring, seeds)


def _variable(v: int | str) -> int:
    """A variable index of the spec, as an int, if it is at most VARIABLE_CAP;
    a decimal key is measured before it is converted."""
    if len(str(v)) > len(str(VARIABLE_CAP)) or int(v) > VARIABLE_CAP:
        raise InvalidArgument(f"variable index {v} exceeds the cap {VARIABLE_CAP}")
    return int(v)


def _parse_monomial(doc: dict) -> Monomial:
    return Monomial.from_mapping({_variable(v): e for v, e in doc["vars"].items()})


def _parse_monomial_ideal(doc: dict) -> MonomialIdeal:
    gens = [_parse_monomial(g) for g in doc.get("gens", [])]
    families = [
        TailFamily(
            _parse_monomial(f["base"]),
            _variable(f["start"]),
            f.get("step", 1),
            f.get("e", 1),
        )
        for f in doc.get("families", [])
    ]
    ideal = MonomialIdeal(tuple(gens), tuple(families))
    ideal.validate()
    return ideal


def _parse_pattern(doc: dict) -> VariablePattern:
    tail = doc.get("tail")
    return VariablePattern(
        finite=frozenset(map(_variable, doc.get("finite", []))),
        tail_start=_variable(tail["start"]) if tail else None,
        tail_step=tail.get("step", 1) if tail else 1,
    )


# ---------------------------------------------------------------------------
# Task runners: each returns (results dict, counterexamples list)
# ---------------------------------------------------------------------------


def _run_enumerate(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    ring = build_ring(doc["ring"], cap)
    results = {
        "kind": "enumerate",
        "ring": ring.label,
        "size": ring.size,
        "ideal_count": len(enumerate_ideals(ring)),
        "ideals": [i.label for i in enumerate_ideals(ring)],
        "spectrum": [p.label for p in prime_spectrum(ring)],
        "local_factors": [factor.label for factor, _ in local_decomposition(ring)],
    }
    return results, []


def _run_partition(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    ring = build_ring(doc["ring"], cap)
    sigma = build_filter(ring, doc["filter"])
    part = spec_partition(sigma)
    results = {
        "kind": "partition",
        "ring": ring.label,
        "filter": sigma.label,
        "K": [p.label for p in part.K],
        "Z": [p.label for p in part.Z],
        "C": [p.label for p in part.C],
    }
    return results, []


def _run_closure(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    ring = build_ring(doc["ring"], cap)
    sigma = build_filter(ring, doc["filter"])
    ideal = ideal_from_generators(ring, doc["params"]["ideal_gens"])
    closed = ideal_closure(ideal, sigma)
    results = {
        "kind": "closure",
        "ring": ring.label,
        "filter": sigma.label,
        "ideal": ideal.label,
        "closure": closed.label,
        "closure_elements": sorted(closed.elements),
        "is_closed": closed == ideal,
        "is_dense": len(closed) == ring.size,
    }
    return results, []


def _run_certify(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    ring = build_ring(doc["ring"], cap)
    sigma = build_filter(ring, doc["filter"])
    ideal = ideal_from_generators(ring, doc["params"]["ideal_gens"])
    carrier = free_module(ring, 1)
    sub = frozenset(ideal.elements)
    cert = tfg_certificate(carrier, sub, sigma)
    verified, reason = verify_certificate(carrier, sub, sigma, cert)
    results = {
        "kind": "certify",
        "ring": ring.label,
        "filter": sigma.label,
        "ideal": ideal.label,
        "certificate": {
            "kind": cert.kind,
            "generators": list(cert.subobject_generators),
            "generator_labels": [
                carrier.elem_label(g) for g in cert.subobject_generators
            ],
            "h": cert.filter_ideal.label,
        },
        "verified": verified,
    }
    counterexamples = [] if verified else [f"certificate failed: {reason}"]
    return results, counterexamples


def _run_suite(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    params = doc.get("params", {})
    if "sweep_max_size" in params:
        # a ring at a time, so a sweep holds the lattices of one ring only
        rings = (build_ring(term, cap) for term in ring_catalog(params["sweep_max_size"]))
        groups = ((ring, enumerate_gabriel_filters(ring)) for ring in rings)
    else:
        ring = build_ring(doc["ring"], cap)
        groups = [(ring, [build_filter(ring, doc["filter"])])]
    reports = []
    counterexamples = []
    for ring, filters in groups:
        for sigma in filters:
            report = theorem_suite(ring, sigma)
            reports.append(report.to_dict())
            for result in report.results:
                if not result.passed:
                    counterexamples.append(
                        f"{ring.label} / {sigma.label} / {result.name}: {result.counterexample}"
                    )
    results = {
        "kind": "suite",
        "all_passed": not counterexamples,
        "reports": reports,
    }
    return results, counterexamples


def _run_census(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    ring = build_ring(doc["ring"], cap)
    filters = enumerate_gabriel_filters(ring)
    results = {
        "kind": "census",
        "ring": ring.label,
        "gabriel_filters": len(filters),
        "filters": [
            {"basis": [b.label for b in f.basis], "members": len(f.member_indices())}
            for f in filters
        ],
    }
    return results, []


def _run_monomial(doc: dict, cap: int, budget: DecisionBudget) -> tuple[dict, list]:
    params = doc["params"]
    op = params["op"]
    mult = PrincipalMultSet(_parse_monomial(params["mult_set"]["s"]))
    results: dict = {"kind": "monomial-decide", "op": op, "mult_set": mult.label}
    counterexamples: list[str] = []
    if op in ("decide", "saturate", "in_filter"):
        ideal = _parse_monomial_ideal(params["ideal"])
        results["ideal"] = ideal.label
        if op == "decide":
            decision = s_finite_decide(ideal, mult, budget)
            results["verdict"] = decision.verdict
            results["power"] = decision.power
            results["prefix"] = [p.label for p in decision.prefix]
            results["reason"] = decision.reason
            if decision.verdict != "certified":
                counterexamples.append(
                    f"decision {decision.verdict}: {decision.reason or 'budget exceeded'}"
                )
        elif op == "saturate":
            results["saturation"] = saturation(ideal, mult).label
        else:
            found, power = in_filter(ideal, mult)
            results["found"] = found
            results["power"] = power
    elif op == "cohen":
        patterns = [_parse_pattern(p) for p in params["primes"]]
        report = cohen_scan(mult, patterns, budget)
        results["entries"] = [
            {
                "pattern": e.pattern.label,
                "side": e.side,
                "verdict": e.decision.verdict if e.decision else None,
            }
            for e in report.entries
        ]
        results["verdict"] = report.verdict
        results["cross_check"] = (
            {
                "ideal": report.cross_check[0].label,
                "verdict": report.cross_check[1].verdict,
            }
            if report.cross_check
            else None
        )
        results["consistent"] = report.consistent
        if report.verdict == "not-totally-noetherian":
            counterexamples.extend(
                f"K-prime {p.label} is {d.verdict}" for p, d in report.uncertified
            )
    else:  # almost_jansian
        outcome = almost_jansian_principal(mult)
        results["holds"] = outcome.holds
        results["witness"] = outcome.witness.label if outcome.witness else None
        if not outcome.holds:
            counterexamples.append(
                f"stabilized powers of {results['witness']} leave the filter"
            )
    return results, counterexamples


_RUNNERS = {
    "enumerate": _run_enumerate,
    "partition": _run_partition,
    "closure": _run_closure,
    "certify": _run_certify,
    "suite": _run_suite,
    "census": _run_census,
    "monomial-decide": _run_monomial,
}


def _schema_ints(x):
    """x with every integral float made an int; x itself, and each subtree,
    when it holds none, so a document written with ints is not copied."""
    if not isinstance(x, (dict, list)):
        return int(x) if isinstance(x, float) and x.is_integer() else x
    out = x
    for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
        if type(v) is not str and type(v) is not int and (w := _schema_ints(v)) is not v:
            if out is x:
                out = x.copy()
            out[k] = w
    return out


def execute(doc: dict, cap: int = DEFAULT_SIZE_CAP, budget: DecisionBudget = DecisionBudget(),
            expect_pass: bool = False) -> tuple[dict, int]:
    """Validate and run one document, integral floats read as ints; returns (report, exit code)."""
    validate_spec(doc)
    results, counterexamples = _RUNNERS[doc["task"]](_schema_ints(doc), cap, budget)
    report = {
        "schema": "workbench-report.v1",
        "version": __version__,
        "task": doc["task"],
        "spec_echo": doc,
        "results": results,
        "counterexamples": counterexamples,
        "timing_ms": None,
    }
    code = 0
    if doc["task"] == "suite" and counterexamples:
        code = 1
    elif expect_pass and counterexamples:
        code = 1
    return report, code


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``indent`` makes json.dumps run its pure-Python encoder; this writer
    walks the report once and escapes strings with json's C routine."""
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(x, newline: str, out: list) -> None:
    """Append the JSON of x to out; newline breaks a line at x's indent."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None or x is True or x is False:
        out.append(_JSON_CONSTANTS[x])
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        text = float.__repr__(x)
        out.append(_JSON_NONFINITE.get(text, text))
    elif isinstance(x, (dict, list, tuple)):
        pairs = isinstance(x, dict)
        if not x:
            out.append("{}" if pairs else "[]")
            return
        inner = newline + "  "
        sep = ("{" if pairs else "[") + inner
        for item in sorted(x) if pairs else x:
            out.append(sep)
            if pairs:
                out.append(_quote(item))
                out.append(": ")
                item = x[item]
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + ("}" if pairs else "]"))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def render_text(report: dict, elapsed_ms: float) -> str:
    lines = [f"task: {report['task']}  (tool {report['version']})"]
    results = report["results"]
    kind = results["kind"]
    if kind == "enumerate":
        lines.append(f"ring: {results['ring']} (size {results['size']})")
        lines.append(f"ideals ({results['ideal_count']}): " + ", ".join(results["ideals"]))
        lines.append("spectrum: " + ", ".join(results["spectrum"]))
        lines.append("local factors: " + " x ".join(results["local_factors"]))
    elif kind == "partition":
        lines.append(f"ring: {results['ring']}   filter: {results['filter']}")
        lines.append("K: " + (", ".join(results["K"]) or "(empty)"))
        lines.append("Z: " + (", ".join(results["Z"]) or "(empty)"))
        lines.append("C: " + (", ".join(results["C"]) or "(empty)"))
    elif kind == "closure":
        lines.append(f"ring: {results['ring']}   filter: {results['filter']}")
        lines.append(f"closure({results['ideal']}) = {results['closure']}")
        lines.append(
            f"closed: {results['is_closed']}   dense: {results['is_dense']}"
        )
    elif kind == "certify":
        cert = results["certificate"]
        lines.append(f"ring: {results['ring']}   filter: {results['filter']}")
        lines.append(
            f"certificate for {results['ideal']}: H = <"
            + ",".join(cert["generator_labels"])
            + f">, h = {cert['h']}"
        )
        lines.append(f"verified: {results['verified']}")
    elif kind == "suite":
        lines.append(f"all_passed: {results['all_passed']}")
        for rep in results["reports"]:
            lines.append(f"- {rep['ring']} / {rep['filter']}: "
                         + ("pass" if rep["all_passed"] else "FAIL"))
            for theorem in rep["theorems"]:
                mark = "ok " if theorem["passed"] else "FAIL"
                lines.append(
                    f"    [{mark}] {theorem['name']} "
                    f"({theorem['instances_checked']} instances)"
                )
    elif kind == "census":
        lines.append(f"ring: {results['ring']}")
        lines.append(f"gabriel_filters: {results['gabriel_filters']}")
        for f in results["filters"]:
            lines.append(f"- basis {','.join(f['basis'])}: {f['members']} members")
    else:
        for key in sorted(results):
            if key != "kind":
                lines.append(f"{key}: {results[key]}")
    if report["counterexamples"]:
        lines.append("counterexamples:")
        lines.extend(f"- {c}" for c in report["counterexamples"])
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    return "\n".join(lines) + "\n"


def non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def size_cap(text: str) -> int:
    """A carrier size cap from 1 to ``FREE_CARRIER_CAP``.  The cap is
    checked before a modulus is tested for primality, so an unbounded cap
    would let a huge prime modulus through to trial division."""
    cap = int(text)
    if not 1 <= cap <= FREE_CARRIER_CAP:
        raise argparse.ArgumentTypeError(f"must be from 1 to {FREE_CARRIER_CAP}, got {text}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Exact workbench for torsion filters on finite rings "
        "and monomial finiteness decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in TASK_BY_COMMAND:
        p = sub.add_parser(command, help=f"run the {TASK_BY_COMMAND[command]} task")
        p.add_argument("--spec", required=True, help="path to the spec JSON file")
        p.add_argument("--format", choices=["text", "json"], default=None)
        p.add_argument("--cap", type=size_cap, default=DEFAULT_SIZE_CAP,
                       help=f"carrier size cap, 1 to {FREE_CARRIER_CAP} (default %(default)s)")
        p.add_argument("--budget", type=non_negative_int, default=8,
                       help="max certified power for monomial decisions")
        p.add_argument("--expect-pass", action="store_true",
                       help="exit 1 on refuted or exhausted decisions")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        doc = load_spec(args.spec)
        task = TASK_BY_COMMAND[args.command]
        if not isinstance(doc, dict):
            raise SpecValidationError("spec file must contain a JSON object")
        if "task" in doc and doc["task"] != task:
            raise SpecValidationError(
                f"spec file declares task {doc['task']!r} but the "
                f"{args.command!r} subcommand runs {task!r}"
            )
        doc = {**doc, "task": task}
        budget = DecisionBudget(max_power=args.budget)
        report, code = execute(
            doc, cap=args.cap, budget=budget, expect_pass=args.expect_pass
        )
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = args.format or report["spec_echo"].get("format") or "text"
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if fmt == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report, elapsed_ms))
    return code


if __name__ == "__main__":
    sys.exit(main())
