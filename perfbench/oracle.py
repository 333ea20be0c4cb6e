"""Correctness checks for benchmark reports.

Every report is validated against the shipped report schema.  Where an
answer follows from the spec alone, the report is compared with it: ring
facts from the constructor term (see ``specgen.ring_facts``), the filter
forms whose closures are known, the monomial goldens of acceptance criteria
7 and 8, and, for generated monomial ideals, a brute-force membership
oracle written from the definitions.  A check returns a list of problems;
an empty list means the report is correct.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import jsonschema

Mono = dict  # variable -> exponent, exponents >= 1

# Membership of s^n * m stops changing once n exceeds every exponent in play;
# generated exponents stay below 4, so this bound is safe.
_MAX_POWER = 16


def _mono(doc: dict) -> Mono:
    return {int(v): e for v, e in doc["vars"].items()}


def _mul(a: Mono, b: Mono) -> Mono:
    out = dict(a)
    for v, e in b.items():
        out[v] = out.get(v, 0) + e
    return out


def _power(m: Mono, n: int) -> Mono:
    return {v: e * n for v, e in m.items()} if n else {}


def _divides(a: Mono, b: Mono) -> bool:
    return all(b.get(v, 0) >= e for v, e in a.items())


class MonomialIdealOracle:
    """Finite generators plus tail families ``base * x_v^e`` for v = start,
    start+step, ...; membership straight from the definition."""

    def __init__(self, gens: list[Mono], families: list[tuple[Mono, int, int, int]]):
        self.gens = gens
        self.families = families

    @classmethod
    def from_spec(cls, doc: dict) -> "MonomialIdealOracle":
        families = [
            (_mono(f["base"]), f["start"], f.get("step", 1), f.get("e", 1))
            for f in doc.get("families", [])
        ]
        return cls([_mono(g) for g in doc.get("gens", [])], families)

    def member(self, m: Mono) -> bool:
        if any(_divides(g, m) for g in self.gens):
            return True
        for base, start, step, e in self.families:
            for v in m:
                if v >= start and (v - start) % step == 0 and _divides(_mul(base, {v: e}), m):
                    return True
        return False

    def least_power(self, m: Mono, s: Mono) -> int | None:
        """Least n with s^n * m in the ideal, or None."""
        for n in range(_MAX_POWER + 1):
            if self.member(_mul(m, _power(s, n))):
                return n
        return None


_MONO_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
_FAMILY_RE = re.compile(r"^(?:(.+)\*)?x\[(\d+)\+(\d+)k\](?:\^(\d+))?$")


def _parse_mono_label(text: str) -> Mono:
    if text == "1":
        return {}
    out = {}
    for part in text.split("*"):
        match = _MONO_RE.fullmatch(part)
        if not match:
            raise ValueError(f"unparsable monomial {text!r}")
        out[int(match.group(1))] = int(match.group(2) or 1)
    return out


def parse_ideal_label(label: str) -> MonomialIdealOracle:
    """Read back a report's ideal label, such as ``<x1,x2*x[5+2k]^2>``."""
    if label == "<0>":
        return MonomialIdealOracle([], [])
    gens, families = [], []
    for part in label[1:-1].split(","):
        fam = _FAMILY_RE.match(part)
        if fam:
            base = _parse_mono_label(fam.group(1)) if fam.group(1) else {}
            families.append((base, int(fam.group(2)), int(fam.group(3)), int(fam.group(4) or 1)))
        else:
            gens.append(_parse_mono_label(part))
    return MonomialIdealOracle(gens, families)


def _pattern_has(pattern: dict, v: int) -> bool:
    if v in pattern.get("finite", []):
        return True
    tail = pattern.get("tail")
    return tail is not None and v >= tail["start"] and (v - tail["start"]) % tail.get("step", 1) == 0


def _decide_expectation(ideal: MonomialIdealOracle, s: Mono, max_power: int) -> tuple[str, int | None]:
    """One power of s compresses the ideal into a finite part iff, for every
    family, some s^n * base already lies in the ideal: far enough out, the
    family variable appears in no finite generator."""
    power = 0
    for base, _, _, _ in ideal.families:
        need = ideal.least_power(base, s)
        if need is None:
            return "refuted", None
        power = max(power, need)
    if power > max_power:
        return "exhausted", None
    return "certified", power


def check_monomial(spec: dict, results: dict, golden: dict | None, max_power: int = 8) -> list[str]:
    params = spec["params"]
    op = params["op"]
    s = _mono(params["mult_set"]["s"])
    problems = []

    def expect(key, value):
        if results.get(key) != value:
            problems.append(f"{op}: {key} = {results.get(key)!r}, expected {value!r}")

    if op in ("decide", "saturate", "in_filter"):
        ideal = MonomialIdealOracle.from_spec(params["ideal"])
    if op == "decide":
        verdict, power = _decide_expectation(ideal, s, max_power)
        expect("verdict", verdict)
        if verdict == "certified":
            expect("power", power)
    elif op == "in_filter":
        power = ideal.least_power({}, s)
        expect("found", power is not None)
        expect("power", power)
    elif op == "saturate":
        saturated = parse_ideal_label(results["saturation"])
        probes = [g for g in ideal.gens] + [b for b, *_ in ideal.families] + saturated.gens
        probes += [b for b, *_ in saturated.families]
        top = max([v for m in probes for v in m] + list(s) + [f[1] for f in ideal.families] + [1])
        probes += [{v: 1} for v in range(1, top + 3)] + [_mul(p, {top + 1: 1}) for p in probes]
        for probe in probes:
            if saturated.member(probe) != (ideal.least_power(probe, s) is not None):
                problems.append(f"saturate: membership of {probe} disagrees with the definition")
                break
    elif op == "cohen":
        sides, verdicts = [], []
        for pattern in params["primes"]:
            side = "Z" if any(_pattern_has(pattern, v) for v in s) else "K"
            sides.append(side)
            # a K-prime misses every variable of s: only a tail can escape
            verdicts.append(None if side == "Z" else ("refuted" if "tail" in pattern else "certified"))
        got = [(e["side"], e["verdict"]) for e in results.get("entries", [])]
        if got != list(zip(sides, verdicts)):
            problems.append(f"cohen: entries {got}, expected {list(zip(sides, verdicts))}")
        if "refuted" in verdicts:
            expect("verdict", "not-totally-noetherian")
            expect("consistent", True)
            if (results.get("cross_check") or {}).get("verdict") != "refuted":
                problems.append("cohen: cross-check ideal is not refuted")
        elif "K" not in sides:
            expect("verdict", "vacuous-pass")
        else:
            expect("verdict", "all-k-primes-certified")
    else:  # almost_jansian holds only for the unit monomial
        expect("holds", not s)
    if golden:
        for key, value in golden.items():
            if key == "sides":
                got = [e["side"] for e in results.get("entries", [])]
                if got != value:
                    problems.append(f"golden: sides {got}, expected {value}")
            elif key == "cross_check_verdict":
                if (results.get("cross_check") or {}).get("verdict") != value:
                    problems.append("golden: cross-check verdict differs")
            else:
                expect(key, value)
    return problems


def _check_ring_report(expect: dict, results: dict) -> list[str]:
    facts, task = expect["facts"], expect["check"]
    problems = []
    if task == "enumerate":
        if results["ideal_count"] != facts["ideals"] or len(results["ideals"]) != facts["ideals"]:
            problems.append(f"ideal count {results['ideal_count']}, expected {facts['ideals']}")
        if results["size"] != facts["size"]:
            problems.append(f"size {results['size']}, expected {facts['size']}")
        # every prime of a finite ring is maximal: one per local factor
        if len(results["spectrum"]) != facts["local"] or len(results["local_factors"]) != facts["local"]:
            problems.append("spectrum or local factors do not match the local factor count")
    elif task == "census":
        expected = 2 ** facts["local"]
        if results["gabriel_filters"] != expected or len(results["filters"]) != expected:
            problems.append(f"census {results['gabriel_filters']}, expected {expected}")
    elif task == "partition":
        k, z, c = results["K"], results["Z"], results["C"]
        if len(k) + len(z) != facts["local"] or sorted(c) != sorted(k):
            problems.append("partition does not split the maximal spectrum")
        # on a finite ring no proper ideal is faithful, so lambda is trivial
        if expect["filter"] in ("trivial", "lambda") and z:
            problems.append("trivial filter put a prime on the filter side")
        if expect["filter"] == "improper" and k:
            problems.append("improper filter left a prime on the torsionfree side")
    elif task == "closure":
        dense = len(results["closure_elements"]) == facts["size"]
        if results["is_dense"] != dense:
            problems.append("is_dense disagrees with the closure")
        if results["is_closed"] != (results["closure"] == results["ideal"]):
            problems.append("is_closed disagrees with the closure")
        if expect["filter"] in ("trivial", "lambda") and not results["is_closed"]:
            problems.append("closure under the trivial filter moved the ideal")
        if expect["filter"] == "improper" and not dense:
            problems.append("closure under the improper filter is not everything")
    elif task == "certify":
        if results["verified"] is not True:
            problems.append("certificate not verified")
    return problems


class Checker:
    """Checks one executed spec; holds the report-schema validator."""

    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, spec_text: str, expect: dict, report: dict | None, code: int | None,
              error: BaseException | None) -> list[str]:
        if expect["check"] == "reject":
            name = type(error).__name__ if error is not None else None
            if name != expect["error"]:
                return [f"expected {expect['error']}, got {name or 'a report'}"]
            return []
        if error is not None:
            return [f"raised {type(error).__name__}: {error}"]
        problems = [
            f"schema: {e.message} at {e.json_path}"
            for e in self.validator.iter_errors(report)
        ][:3]
        results = report["results"]
        if expect["check"] == "suite":
            if code != 0 or results.get("all_passed") is not True:
                problems.append(f"suite did not pass (exit {code})")
            if len(results.get("reports", [])) != expect["reports"]:
                problems.append(f"{len(results.get('reports', []))} suite reports, "
                                f"expected {expect['reports']}")
        elif expect["check"] == "monomial":
            problems += check_monomial(json.loads(spec_text), results, expect.get("golden"))
        else:
            problems += _check_ring_report(expect, results)
        return problems
