"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible under pytest -s and in
failure output).  All expected values are either independent-oracle
recomputations or frozen constants checked against those oracles.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import torsionlab
from torsionlab import noether
from torsionlab.filters import (
    enumerate_gabriel_filters,
    meet_decomposition_check,
    spec_partition,
    torsion_class_report,
    trivial_filter,
)
from torsionlab.modules import SubmoduleLattice, free_module, submodule_lattice
from torsionlab.monomial import (
    Monomial,
    MonomialIdeal,
    PrincipalMultSet,
    TailFamily,
    VariablePattern,
    cohen_scan,
    member,
    monomial_ideal,
    s_finite_decide,
    saturation,
    scale,
)
from torsionlab.noether import closure_colon_witness, sigma_principal_status, theorem_suite
from torsionlab.rings import build_ring, enumerate_ideals, ring_catalog, square_zero, zmod

from .helpers import gabriel_filters_by_subset_scan
from .test_monomial import member_oracle, mono, truncate


def announce(number: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def sweep12():
    """Theorem-suite reports for every Gabriel filter on every catalog ring
    of size <= 12; shared by the criteria that quantify over this sweep."""
    reports = []
    for term in ring_catalog(12):
        ring = build_ring(term)
        for sigma in enumerate_gabriel_filters(ring):
            reports.append((ring, sigma, theorem_suite(ring, sigma)))
    return reports


def theorem(reports, name):
    out = []
    for ring, sigma, report in reports:
        matches = [r for r in report.results if r.name == name]
        assert matches, f"theorem {name} missing from suite"
        out.append((ring, sigma, matches[0]))
    return out


def test_criterion_1_gabriel_census():
    expected = {4: 2, 6: 4, 8: 2, 12: 4, 30: 8}  # 2^(distinct prime divisors)
    ok = True
    for n, count in expected.items():
        ring = zmod(n)
        ours = enumerate_gabriel_filters(ring)
        oracle = gabriel_filters_by_subset_scan(ring, list(enumerate_ideals(ring)))
        got = {frozenset(a.elements for a in f.members) for f in ours}
        ok = ok and len(ours) == count == len(oracle) and got == set(oracle)
    announce(1, ok, "Gabriel filter census matches 2^omega(n) and the subset-scan oracle")


def test_criterion_2_torsion_class_axioms():
    ok = True
    checked = 0
    for term in ring_catalog(16):
        ring = build_ring(term)
        filters = enumerate_gabriel_filters(ring)
        for rank in (1, 2):
            report = torsion_class_report(free_module(ring, rank), filters)
            for per_filter in report.values():
                for name, entry in per_filter.items():
                    checked += 1
                    if not entry["passed"]:
                        ok = False
    announce(2, ok, f"torsion/torsionfree class axioms hold exhaustively ({checked} checks, size<=16)")


def test_criterion_3_meet_decomposition():
    ok = True
    checked = 0
    for term in ring_catalog(16):
        ring = build_ring(term)
        for sigma in enumerate_gabriel_filters(ring):
            checked += 1
            if not meet_decomposition_check(sigma):
                ok = False
    announce(3, ok, f"meet decomposition over K-primes holds for all {checked} filters (size<=16)")


def test_criterion_4_closure_colon_witness():
    ok = True
    checked = 0
    for term in ring_catalog(12):
        ring = build_ring(term)
        carriers = [free_module(ring, 1), free_module(ring, 2)]
        lattices = [submodule_lattice(m) for m in carriers]
        for sigma in enumerate_gabriel_filters(ring):
            for module, lattice in zip(carriers, lattices):
                for sub in lattice.submodules:
                    closure_colon_witness(module, sub, sigma)  # raises on failure
                    checked += 1
    announce(4, ok, f"closure-colon witnesses found for all {checked} submodules (size<=12)")


def maximality_verdict(reports) -> tuple[bool, int]:
    """Whether upper-closed-families-have-maximal and unique-maximal pass in
    every report, and the instances they checked."""
    ok = True
    checked = 0
    for name in ("upper-closed-families-have-maximal", "unique-maximal"):
        for _, _, result in theorem(reports, name):
            checked += result.instances_checked
            if not result.passed:
                ok = False
    return ok, checked


def test_criterion_5_maximality_triangle(sweep12):
    ok, checked = maximality_verdict(sweep12)
    announce(
        5, ok,
        f"upper closures are closed with maxima, one exactly at the closure ({checked} instances)",
    )


@pytest.mark.parametrize("row, col", [(0, 1), (1, 2)])
def test_criterion_5_fails_on_planted_colon(monkeypatch, row, col):
    # A = Z/6 under the trivial filter, on a private lattice whose colon
    # (N_row : N_col) is planted as A: (0 : (3)) = A breaks the closedness of
    # an upper closure, ((3) : (2)) = A the uniqueness of a maximal element
    ring = zmod(6)
    sigma = trivial_filter(ring)
    lat = SubmoduleLattice(free_module(ring, 1))
    cm = lat.colon_matrix()
    cm[row] = cm[row][:col] + (lat.ring_lattice.top,) + cm[row][col + 1:]
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    ok, checked = maximality_verdict([(ring, sigma, theorem_suite(ring, sigma))])
    assert checked > 0 and not ok


def test_criterion_6_quotient_transfer(sweep12):
    ok = True
    checked = 0
    for _, _, result in theorem(sweep12, "totally-torsion-quotient-transfer"):
        checked += result.instances_checked
        if not result.passed:
            ok = False
    announce(6, ok, f"stability transfer through totally torsion quotients ({checked} instances)")


def test_sweep12_reports_are_pinned(sweep12):
    # Byte-identity gate: the size <= 12 suite reports must not change under
    # a refactor or an optimization. The digest was re-taken each time checks
    # left the suite, lately finite-type and closure-colon-witness, after the
    # new reports were shown equal to the old ones with those entries dropped.
    blob = json.dumps([report.to_dict() for _, _, report in sweep12], sort_keys=True)
    data = blob.encode("utf-8")
    assert len(data) == 98930
    assert hashlib.sha256(data).hexdigest() == (
        "4532d4e1fe091c8a572797b5fe9119a609992e50536b190ecc312b83cbc43fd9"
    )


def test_criterion_7_monomial_goldens():
    s1 = PrincipalMultSet(mono(x1=1))
    everything = MonomialIdeal(families=(TailFamily(Monomial.one(), 1, 1, 1),))
    first = s_finite_decide(everything, s1)
    ok = (
        first.verdict == "certified"
        and first.power == 1
        and first.prefix == (mono(x1=1),)
    )
    # oracle: x1 * (every truncated generator) is divisible by the prefix
    scaled = scale(everything, mono(x1=1))
    ok = ok and all(
        member_oracle(monomial_ideal(first.prefix), g) for g in truncate(scaled, 24)
    )

    shifted = MonomialIdeal(families=(TailFamily(Monomial.one(), 2, 1, 1),))
    second = s_finite_decide(shifted, s1)
    ok = ok and second.verdict == "refuted"
    # oracle: against any finite prefix (truncated at variable 10), the
    # instance x1^n * x12 lies in the scaled ideal but escapes the prefix
    prefix = monomial_ideal(truncate(shifted, 10))
    for n in range(6):
        witness = mono(x12=1).mul(mono(x1=1).power(n))
        ok = ok and member_oracle(scale(shifted, mono(x1=1).power(n)), witness)
        ok = ok and not member_oracle(prefix, witness)

    sat = saturation(monomial_ideal([mono(x1=2, x2=1), mono(x1=1, x2=3)]),
                     PrincipalMultSet(mono(x2=1)))
    ok = ok and sat == monomial_ideal([mono(x1=1)])
    probes = [mono(x1=1), mono(x1=1, x3=2), mono(x2=4), mono(x3=1), Monomial.one()]
    for probe in probes:
        oracle = any(
            member_oracle(
                monomial_ideal([mono(x1=2, x2=1), mono(x1=1, x2=3)]),
                probe.mul(mono(x2=1).power(n)),
            )
            for n in range(12)
        )
        ok = ok and member(sat, probe) == oracle
    announce(7, ok, "golden monomial decisions match the truncated brute-force oracle")


def test_criterion_8_cohen_consistency():
    s1 = PrincipalMultSet(mono(x1=1))
    report = cohen_scan(
        s1,
        [
            VariablePattern(finite=frozenset({1})),
            VariablePattern(finite=frozenset({2})),
            VariablePattern(tail_start=2),
        ],
    )
    ok = report.verdict == "not-totally-noetherian"
    ok = ok and [e.side for e in report.entries] == ["Z", "K", "K"]
    ok = ok and report.entries[2].decision.verdict == "refuted"
    # the cross-check ideal is refuted and genuinely non-prime
    non_prime, decision = report.cross_check
    ok = ok and decision.verdict == "refuted"
    ok = ok and member(non_prime, mono(x2=2)) and not member(non_prime, mono(x2=1))
    announce(8, ok, "refuted K-prime agrees with an independently refuted non-prime ideal")


def test_criterion_9_kaplansky_square_zero():
    ring = square_zero(2, 2)
    ok = True
    filters = enumerate_gabriel_filters(ring)
    ok = ok and len(filters) == 2  # local ring: trivial and improper only
    for sigma in filters:
        pir_side = all(
            sigma_principal_status(ideal, sigma).totally_principal is not None
            for ideal in enumerate_ideals(ring)
        )
        prime_side = all(
            sigma_principal_status(p, sigma).totally_principal is not None
            for p in spec_partition(sigma).K
        )
        ok = ok and pir_side == prime_side
        # the maximal ideal (x, y) needs two generators, so the trivial
        # filter must fail both sides; the improper filter passes both
        if len(sigma.members) == 1:
            ok = ok and not pir_side and not prime_side
        else:
            ok = ok and pir_side and prime_side
    announce(9, ok, "totally-principal biconditional holds on F2[x,y]/(x,y)^2, both sides computed")


def test_criterion_10_suite_determinism(tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps({"task": "suite", "params": {"sweep_max_size": 12}, "format": "json"}),
        encoding="utf-8",
    )
    # The children get a fresh environment, so hand them the directory this
    # process imported torsionlab from: they then run the code under test,
    # whether it is installed or taken from a plain checkout.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(torsionlab.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH", "")) if p
    )
    # both children run at once; each is waited for before any assertion
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "torsionlab.cli", "suite", "--spec", str(spec)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        for seed in ("1", "2")
    ]
    results = [proc.communicate() for proc in procs]
    outputs = []
    for proc, (stdout, stderr) in zip(procs, results):
        assert proc.returncode == 0, stderr.decode()
        outputs.append(stdout)
    report = json.loads(outputs[0])
    ok = outputs[0] == outputs[1]
    ok = ok and report["results"]["all_passed"] is True
    ok = ok and len(report["results"]["reports"]) >= 50
    announce(10, ok, "suite sweep (size<=12) renders byte-identical JSON across hash seeds")
