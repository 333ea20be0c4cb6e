"""Certificates, maximality machinery, theorem suites."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import weakref
from itertools import product

import pytest

from torsionlab import noether
from torsionlab.errors import (
    InvalidArgument,
    NotASubmodule,
    PreconditionFailed,
    TheoremViolation,
)
from torsionlab.filters import (
    enumerate_gabriel_filters,
    filter_from_mult_set,
    filter_from_prime,
    improper_filter,
    trivial_filter,
)
from torsionlab.modules import SubmoduleLattice, free_module, submodule_lattice
from torsionlab.noether import (
    Certificate,
    closure_colon_witness,
    quotient_transfer_check,
    sigma_principal_status,
    tfg_certificate,
    theorem_suite,
    upper_closure,
    verify_certificate,
)
from torsionlab.rings import (
    Ideal,
    RingMap,
    _bits,
    build_ring,
    enumerate_ideals,
    ideal_from_generators,
    ideal_lattice,
    local_decomposition,
    prime_spectrum,
    ring_catalog,
    square_zero,
    zmod,
)

from .helpers import (
    alarm,
    candidates_by_range_scan,
    canonical_certificates_by_scan,
    certificate_by_index_scan,
    certificate_check_by_scan,
    sigma_principal_by_scan,
    transfers_by_pair_scan,
)


@pytest.fixture(scope="module")
def z12():
    return zmod(12)


@pytest.fixture(scope="module")
def sigma39(z12):
    return filter_from_mult_set(z12, [1, 3, 9])


def ideal_of(ring, *gens):
    return ideal_from_generators(ring, list(gens))


# -- certificates -------------------------------------------------------------


def test_tfg_certificate_examples(z12, sigma39):
    m = free_module(z12, 1)
    cert = tfg_certificate(m, frozenset({0, 2, 4, 6, 8, 10}), sigma39)
    assert cert.subobject_generators == (2,)
    assert cert.filter_ideal.elements == frozenset(range(12))  # tie-break prefers (1)

    cert = tfg_certificate(m, frozenset({0}), sigma39)
    assert cert.subobject_generators == ()
    assert cert.filter_ideal.elements == frozenset(range(12))

    cert = tfg_certificate(m, frozenset(range(12)), sigma39)
    assert cert.subobject_generators == (1,)
    assert cert.filter_ideal.elements == frozenset(range(12))


def test_tfg_certificate_deterministic(z12, sigma39):
    m = free_module(z12, 1)
    a = tfg_certificate(m, frozenset({0, 2, 4, 6, 8, 10}), sigma39)
    b = tfg_certificate(m, frozenset({0, 2, 4, 6, 8, 10}), sigma39)
    assert a == b


def test_verify_certificate(z12, sigma39):
    m = free_module(z12, 1)
    n = frozenset({0, 2, 4, 6, 8, 10})
    cert = tfg_certificate(m, n, sigma39)
    assert verify_certificate(m, n, sigma39, cert) == (True, None)

    good = Certificate("totally_fg", (6,), ideal_of(z12, 3))
    assert verify_certificate(m, n, sigma39, good) == (True, None)

    bad = Certificate("totally_fg", (6,), ideal_of(z12, 1))
    ok, reason = verify_certificate(m, n, sigma39, bad)
    assert not ok and reason == "N*h not contained in H"

    outside = Certificate("totally_fg", (6,), ideal_of(z12, 6))
    ok, reason = verify_certificate(m, n, sigma39, outside)
    assert not ok and reason == "h not in filter"

    not_inside = Certificate("totally_fg", (3,), ideal_of(z12, 3))
    ok, reason = verify_certificate(m, n, sigma39, not_inside)
    assert not ok and reason == "H not contained in N"


def test_every_certificate_verifies(z12):
    m = free_module(z12, 1)
    lat = submodule_lattice(m)
    for sigma in enumerate_gabriel_filters(z12):
        for sub in lat.submodules:
            cert = tfg_certificate(m, sub, sigma)
            assert verify_certificate(m, sub, sigma, cert) == (True, None)


def _checked_certificate(module, tables, sigma, key) -> tuple:
    """The pairwise oracle's (ok, reason) for the certificate (H, h) of N_S,
    key = (H, h, S), once verify_certificate is asserted to give the same,
    and _reverify too, which on A^2 words every failure one way."""
    lat = tables.lat
    h_idx, colon_idx, s_idx = key
    sub, h = lat.sets[s_idx], lat.ring_lattice.ideals[colon_idx]
    gens = lat.min_gens(h_idx)
    member_sets = {a.elements for a in sigma.members}
    expected = certificate_check_by_scan(module, sub, member_sets, gens, h.elements)
    cert = Certificate("totally_fg", gens, h)
    assert verify_certificate(module, sub, sigma, cert) == expected
    worded = expected if module.rank == 1 or expected[0] else (False, "generator containment failed")
    assert noether._reverify(module, tables, sigma, key) == worded
    return expected


def test_certificate_checks_match_the_pairwise_oracle():
    # verify_certificate reads N*h <= H off whole orbit rows (the ring's
    # multiplication rows on A), and _reverify on A^2 off spans and scalar
    # rows kept in the lattice's tables; both must give the verdict of the
    # element-level oracle on every canonical certificate of A and A^2 under
    # every filter of the catalog rings up to size 10
    for term in ring_catalog(10):
        ring = build_ring(term)
        filters = enumerate_gabriel_filters(ring)
        for rank in (1, 2):
            module = free_module(ring, rank)
            tables = noether._lattice_tables(submodule_lattice(module))
            for sigma in filters:
                members = sigma.member_indices()
                for s_idx in range(tables.lat.n):
                    key = (*noether._tfg_certificate(tables, s_idx, members), s_idx)
                    assert _checked_certificate(module, tables, sigma, key) == (True, None)


def test_planted_certificates_fail_as_the_pairwise_oracle_says():
    # each canonical certificate (H, h) of N, with h replaced by every ideal
    # (outside the filter, or too large for N*h <= H) and with H replaced by
    # every sub-object (not inside N), on A and A^2 of the catalog rings up
    # to size 6 under every filter: verify_certificate and _reverify agree
    # with the oracle, and every failure reason occurs
    reasons = set()
    for term in ring_catalog(6):
        ring = build_ring(term)
        for rank in (1, 2):
            module = free_module(ring, rank)
            tables = noether._lattice_tables(submodule_lattice(module))
            lat = tables.lat
            for sigma in enumerate_gabriel_filters(ring):
                members = sigma.member_indices()
                for s_idx in range(lat.n):
                    h_idx, colon_idx = noether._tfg_certificate(tables, s_idx, members)
                    keys = [(h_idx, c, s_idx) for c in range(lat.ring_lattice.n)]
                    keys += [(h, colon_idx, s_idx) for h in range(lat.n)]
                    for key in keys:
                        reasons.add(_checked_certificate(module, tables, sigma, key)[1])
    assert reasons == {
        None, "h not in filter", "H not contained in N", "N*h not contained in H"}


# -- closure-colon witness ------------------------------------------------------


def test_closure_colon_witness_examples(z12, sigma39):
    m = free_module(z12, 1)
    h = closure_colon_witness(m, frozenset({0, 6}), sigma39)
    assert h.elements == frozenset({0, 3, 6, 9})

    h = closure_colon_witness(m, frozenset(range(12)), sigma39)
    assert h.elements == frozenset(range(12))

    h = closure_colon_witness(m, frozenset({0, 4, 8}), sigma39)
    assert h.elements == frozenset(range(12))


def test_closure_colon_witness_equals_closure(z12, sigma39):
    from torsionlab.filters import closure

    m = free_module(z12, 1)
    sub = frozenset({0, 6})
    h = closure_colon_witness(m, sub, sigma39)
    quotient = frozenset(
        x for x in m.all_indices()
        if all(m.scalar(a, x) in sub for a in h.elements)
    )
    assert quotient == closure(m, sub, sigma39)


def test_closure_colon_witness_rejects_non_submodules(z12, sigma39):
    # the lattice index rejects the input; the error stays NotASubmodule
    for rank in (1, 2):
        m = free_module(z12, rank)
        with pytest.raises(NotASubmodule) as caught:
            closure_colon_witness(m, frozenset({0, 5}), sigma39)
        assert not isinstance(caught.value, InvalidArgument)


# -- maximality ------------------------------------------------------------------


def test_upper_closure_examples(z12, sigma39):
    m = free_module(z12, 1)
    got = upper_closure(m, [frozenset({0, 6})], sigma39)
    assert set(got) == {
        frozenset({0}),
        frozenset({0, 6}),
        frozenset({0, 4, 8}),
        frozenset({0, 2, 4, 6, 8, 10}),
    }
    everything = upper_closure(m, [frozenset(m.all_indices())], sigma39)
    assert len(everything) == submodule_lattice(m).n
    # idempotence
    again = upper_closure(m, list(got), sigma39)
    assert set(again) == set(got)


# -- quotient transfer ---------------------------------------------------------------


def test_quotient_transfer_examples(z12, sigma39):
    m = free_module(z12, 1)
    assert quotient_transfer_check(m, frozenset({0, 4, 8}), sigma39)
    assert quotient_transfer_check(m, frozenset({0}), sigma39)
    with pytest.raises(PreconditionFailed):
        quotient_transfer_check(m, frozenset({0, 6}), sigma39)


def test_quotient_transfer_all_torsion_submodules(z12):
    m = free_module(z12, 2)
    lat = submodule_lattice(m)
    for sigma in enumerate_gabriel_filters(z12):
        for sub in lat.submodules:
            # ann(T), by a scan of the scalar action
            ann = frozenset(a for a in range(12) if all(m.scalar(a, e) == m.zero for e in sub))
            if Ideal(z12, ann) in sigma.members:
                assert quotient_transfer_check(m, sub, sigma)


# -- principal status ------------------------------------------------------------------


def test_sigma_principal_status_square_zero():
    ring = square_zero(2, 2)
    maximal = ideal_from_generators(ring, [2, 4])  # (x, y)
    status = sigma_principal_status(maximal, trivial_filter(ring))
    assert not status.sigma_principal
    assert status.totally_principal is None

    status = sigma_principal_status(maximal, improper_filter(ring))
    assert status.sigma_principal
    assert status.totally_principal is not None


def test_sigma_principal_status_principal(z12, sigma39):
    i2 = ideal_of(z12, 2)
    status = sigma_principal_status(i2, trivial_filter(z12))
    assert status.sigma_principal and status.witness == 2
    cert = status.totally_principal
    assert cert is not None and cert.subobject_generators == (2,)

    status = sigma_principal_status(i2, sigma39)
    assert status.sigma_principal


# -- theorem suite -----------------------------------------------------------------------


def test_theorem_suite_z12(z12):
    for sigma in enumerate_gabriel_filters(z12):
        report = theorem_suite(z12, sigma)
        failures = [r for r in report.results if not r.passed]
        assert not failures, failures
        assert all(r.instances_checked > 0 for r in report.results)


def test_theorem_suite_z6_jansian():
    z6 = zmod(6)
    sigma = filter_from_mult_set(z6, [1, 3])
    report = theorem_suite(z6, sigma)
    assert report.all_passed


def test_theorem_suite_field_trivial():
    f5 = zmod(5)
    report = theorem_suite(f5, trivial_filter(f5))
    assert report.all_passed


def test_suite_report_dict_shape(z12):
    sigma = trivial_filter(z12)
    d = theorem_suite(z12, sigma).to_dict()
    assert d["ring"] == "Z/12"
    assert d["all_passed"] is True
    assert [t["name"] for t in d["theorems"]] == [
        "certificates-verify",
        "totally-fg-quotient-images",
        "upper-closed-families-have-maximal",
        "unique-maximal",
        "totally-torsion-quotient-transfer",
        "kaplansky-prime-criterion",
        "kaplansky-noetherian-corollary",
        "meet-decomposition",
        "almost-jansian",
        "induced-filters",
    ]


def _planted_transfer(monkeypatch, row: int, col: int, value: int) -> bool:
    """Run quotient_transfer_check on A = Z/6 with T = (3) and the filter of
    ideals outside the prime (3), after setting one colon-matrix entry.

    The corrupted matrix belongs to a private lattice that the check is
    handed through a monkeypatched ``submodule_lattice``; the cached lattice
    of A stays intact.
    """
    ring = zmod(6)
    module = free_module(ring, 1)
    sigma = filter_from_prime(ring, ideal_from_generators(ring, [3]))
    t_sub = frozenset({0, 3})
    lat = SubmoduleLattice(module)
    monkeypatch.setattr(noether, "submodule_lattice", lambda m: lat)
    assert quotient_transfer_check(module, t_sub, sigma)
    _plant(lat, row, col, value)
    ring._cache.pop("suite_tables")  # the baseline's tables read the entry unplanted
    return quotient_transfer_check(module, t_sub, sigma)


def _plant(lat, row: int, col: int, value: int) -> None:
    """Set one entry of the lattice's colon matrix."""
    cm = lat.colon_matrix()
    cm[row] = cm[row][:col] + (value,) + cm[row][col + 1:]


def test_quotient_transfer_catches_planted_defects(monkeypatch):
    ring = zmod(6)
    lat = submodule_lattice(free_module(ring, 1))
    rl = lat.ring_lattice
    zero, top, t_idx = lat.zero, lat.top, lat.idx(frozenset({0, 3}))
    assert rl.zero not in filter_from_prime(
        ring, ideal_from_generators(ring, [3])
    ).member_indices()
    # forward: the pair (0, T) has h = (0 : T) = (2) in the filter; its image
    # pair is (T, T), whose colon is planted as the zero ideal, outside it
    assert lat.pair_colon(zero, t_idx) == rl.idx(ideal_from_generators(ring, [2]))
    assert not _planted_transfer(monkeypatch, t_idx, t_idx, rl.zero)
    # backward: the pair (0, 0) has image pair (T, T) with h_bar = A in the
    # filter, and h_bar*ann(T) = (2) must lie in h, planted as the zero ideal
    assert lat.pair_colon(t_idx, t_idx) == rl.top == top
    assert not _planted_transfer(monkeypatch, zero, zero, rl.zero)


def test_certificates_and_principal_status_match_scans():
    """tfg_certificate and sigma_principal_status against element-level
    scans, for every submodule of A and A^2, every ideal and every Gabriel
    filter of the catalog rings up to size 8."""
    for term in ring_catalog(8):
        ring = build_ring(term)
        filters = enumerate_gabriel_filters(ring)
        member_sets = [{m.elements for m in f.members} for f in filters]
        for rank in (1, 2):
            module = free_module(ring, rank)
            subs = submodule_lattice(module).submodules
            for n_set in subs:
                expected = canonical_certificates_by_scan(module, n_set, subs, member_sets)
                for sigma, (gens, h) in zip(filters, expected):
                    cert = tfg_certificate(module, n_set, sigma)
                    got = (cert.subobject_generators, cert.filter_ideal.elements)
                    assert got == (gens, h), (ring.label, rank, sorted(n_set), sigma.label)
        for ideal in enumerate_ideals(ring):
            for sigma, members in zip(filters, member_sets):
                status = sigma_principal_status(ideal, sigma)
                cert = status.totally_principal
                got = (
                    status.witness,
                    cert and (cert.subobject_generators[0], cert.filter_ideal.elements),
                )
                assert got == sigma_principal_by_scan(ring, ideal.elements, members)
                assert status.sigma_principal == (status.witness is not None)


def _planted_suite_report(monkeypatch, ring, sigma, lat) -> noether.SuiteReport:
    """theorem_suite's report, with a private rank-1 lattice of the ring
    handed to the suite through a monkeypatched ``submodule_lattice``."""
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    ring._cache.pop("suite_tables", None)  # a baseline run's tables predate a plant
    return theorem_suite(ring, sigma)


def _planted_suite(monkeypatch, ring, sigma, lat) -> dict:
    """The pass flags of _planted_suite_report."""
    return {r.name: r.passed for r in _planted_suite_report(monkeypatch, ring, sigma, lat).results}


def test_certificate_checks_catch_planted_colon(monkeypatch):
    # A = Z/6 under the filter of ideals outside (3); planting (0 : A) = A
    # makes H = 0 the canonical certificate of A, which does not re-verify,
    # and the image pair ((3), A) of (0, A) under A -> A/(3) leaves the filter
    ring = zmod(6)
    sigma = filter_from_prime(ring, ideal_from_generators(ring, [3]))
    lat = SubmoduleLattice(free_module(ring, 1))
    assert all(_planted_suite(monkeypatch, ring, sigma, lat).values())
    _plant(lat, lat.zero, lat.top, lat.ring_lattice.top)
    passed = _planted_suite(monkeypatch, ring, sigma, lat)
    assert not passed["certificates-verify"]
    assert not passed["totally-fg-quotient-images"]


def test_kaplansky_checks_catch_planted_colon(monkeypatch):
    # a fresh Z/4, so the corrupted ideal lattice stays private to this test;
    # planting (0 : 0) = (0) makes the zero ideal not totally principal under
    # the trivial filter, while the one K-prime (2) still is
    ring = zmod(4)
    sigma = trivial_filter(ring)
    lat = SubmoduleLattice(free_module(ring, 1))
    assert all(_planted_suite(monkeypatch, ring, sigma, lat).values())
    rl = ideal_lattice(ring)
    _plant(rl, rl.zero, rl.zero, rl.zero)
    passed = _planted_suite(monkeypatch, ring, sigma, lat)
    assert not passed["kaplansky-prime-criterion"]
    assert not passed["kaplansky-noetherian-corollary"]


@pytest.mark.parametrize(
    "row, col, name",
    [(0, 1, "upper-closed-families-have-maximal"), (1, 2, "unique-maximal")],
)
def test_maximality_checks_catch_planted_colon(monkeypatch, row, col, name):
    # A = Z/6, whose submodules 0, (3), (2), A have indices 0 to 3, under the
    # trivial filter; planting (N_row : N_col) = A puts N_col into the upper
    # closure of N_row.  (0 : (3)) = A leaves the upper closure {0, (2)} of
    # (2) not closed, as the one of its member 0 now holds (3); ((3) : (2)) = A
    # gives the upper closure {0, (3), (2)} of (3) two maximal elements,
    # though it holds the closure (3)
    ring = zmod(6)
    sigma = trivial_filter(ring)
    lat = SubmoduleLattice(free_module(ring, 1))
    assert all(_planted_suite(monkeypatch, ring, sigma, lat).values())
    _plant(lat, row, col, lat.ring_lattice.top)
    assert not _planted_suite(monkeypatch, ring, sigma, lat)[name]


def test_planted_suite_failure_exits_1(monkeypatch):
    # the unique-maximal plant above, run as a suite spec: the failure is a
    # counterexample and exit code 1
    from torsionlab import cli

    ring = zmod(6)
    lat = SubmoduleLattice(free_module(ring, 1))
    _plant(lat, 1, 2, lat.ring_lattice.top)
    monkeypatch.setattr(cli, "build_ring", lambda term, cap: ring)
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    report, code = cli.execute({"task": "suite", "ring": {"zmod": 6}, "filter": "trivial"})
    assert code == 1
    assert report["counterexamples"] == ["Z/6 / filter<(1)> / unique-maximal: Z/6: N=1"]


def test_missing_certificate_fails_certificates_verify(monkeypatch):
    # A = Z/6 under the trivial filter; planting (0 : 0) as the zero ideal
    # leaves the submodule 0 without a colon (H : 0) in the filter, so it has
    # no certificate: the suite reports a failed certificates-verify with
    # exit 1, and the public tfg_certificate raises.  The upper closure of 0
    # loses 0 itself, so upper-closed-families-have-maximal fails too
    from torsionlab import cli

    ring = zmod(6)
    lat = SubmoduleLattice(free_module(ring, 1))
    _plant(lat, lat.zero, lat.zero, lat.ring_lattice.zero)
    monkeypatch.setattr(cli, "build_ring", lambda term, cap: ring)
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    report, code = cli.execute({"task": "suite", "ring": {"zmod": 6}, "filter": "trivial"})
    assert code == 1
    assert report["counterexamples"] == [
        "Z/6 / filter<(1)> / certificates-verify: Z/6: S=0: no certificate",
        "Z/6 / filter<(1)> / upper-closed-families-have-maximal: Z/6: N=0",
    ]
    with pytest.raises(TheoremViolation, match="no certificate for submodule 0 of Z/6"):
        tfg_certificate(free_module(ring, 1), frozenset({0}), trivial_filter(ring))


def test_induced_filters_catch_planted_preimage(monkeypatch):
    # on Z/6 under the filter of ideals outside (3), a preimage that is
    # always the whole ring makes every ideal of the target a member, while
    # the images of the filter's members are (1) and (2) under the identity
    # map: induced_filter raises, and the suite reports it with exit 1
    from torsionlab import cli

    monkeypatch.setattr(
        RingMap, "preimage_ideal",
        lambda self, j: Ideal(self.source, frozenset(range(self.source.size))),
    )
    doc = {"task": "suite", "ring": {"zmod": 6},
           "filter": {"prime_complement": {"ideal_gens": [3]}}}
    report, code = cli.execute(doc)
    assert code == 1
    theorems = report["results"]["reports"][0]["theorems"]
    failed = [t for t in theorems if not t["passed"]]
    assert [t["name"] for t in failed] == ["induced-filters"]
    assert failed[0]["instances_checked"] == 3  # the identity and two local factors
    assert failed[0]["counterexample"] == (
        "extended-ideal description failed along identity map to Z/6"
    )


def _plant_sum(lat) -> None:
    """On the lattice of A = Z/6, set the sum (3) + 0 to (2)."""
    t_idx, two = lat.idx(frozenset({0, 3})), lat.idx(frozenset({0, 2, 4}))
    sm = lat.sum_matrix()
    assert sm[t_idx][lat.zero] == t_idx
    sm[t_idx] = sm[t_idx][:lat.zero] + (two,) + sm[t_idx][lat.zero + 1:]


def test_quotient_checks_catch_planted_sum(monkeypatch):
    # A = Z/6 under the filter of ideals outside (3); planting (3) + 0 = (2)
    # moves the image of S = (3) under N = 0 to (2), where the certificate
    # H = 0 of S has colon (0 : (2)) = (3) outside the filter; and for
    # T = (3) it gives the pair (0, (2)), whose colon is h = (3), the image
    # pair ((2), A) with colon (2) in the filter, but (2)*ann(T) = (2) is not
    # inside h
    ring = zmod(6)
    sigma = filter_from_prime(ring, ideal_from_generators(ring, [3]))
    lat = SubmoduleLattice(free_module(ring, 1))
    assert all(_planted_suite(monkeypatch, ring, sigma, lat).values())
    _plant_sum(lat)
    passed = _planted_suite(monkeypatch, ring, sigma, lat)
    assert not passed["totally-fg-quotient-images"]
    assert not passed["totally-torsion-quotient-transfer"]


def test_many_t_transfer_matches_single_t_check(monkeypatch):
    """One set of tables read for every totally torsion T gives the verdicts
    of quotient_transfer_check one T at a time, each on fresh tables: on A
    and A^2 of the catalog rings up to size 8 under every Gabriel filter,
    and on a lattice with a planted sum, where some T fail."""

    def single_check(module, t_sub, sigma):
        module.ring._cache.pop("suite_tables", None)  # fresh tables for each call
        return quotient_transfer_check(module, t_sub, sigma)

    for term in ring_catalog(8):
        ring = build_ring(term)
        for rank in (1, 2):
            module = free_module(ring, rank)
            lat = submodule_lattice(module)
            tables = noether._LatticeTables(lat)
            for sigma in enumerate_gabriel_filters(ring):
                members = sigma.member_indices()
                torsion = [t for t in range(lat.n) if lat.pair_colon(lat.zero, t) in members]
                single = [single_check(module, lat.sets[t], sigma) for t in torsion]
                assert [tables.transfers[t] for t in torsion] == single
    ring = zmod(6)
    module = free_module(ring, 1)
    sigma = filter_from_prime(ring, ideal_from_generators(ring, [3]))
    lat = SubmoduleLattice(module)
    monkeypatch.setattr(noether, "submodule_lattice", lambda m: lat)
    _plant_sum(lat)
    torsion = [lat.zero, lat.idx(frozenset({0, 3}))]
    single = [single_check(module, lat.sets[t], sigma) for t in torsion]
    assert single == [True, False]
    tables = noether._LatticeTables(lat)
    assert [tables.transfers[t] for t in torsion] == single


def test_ranked_candidates_match_index_scan():
    """The first candidate of the ranked table whose colon is a member is
    the canonical certificate that one scan of every H <= N picks: for every
    sub-object of A and A^2 of the catalog rings up to size 10 under every
    Gabriel filter, on the tables the ring keeps for all of its filters, as
    a sweep reads them, and on fresh tables per call."""
    for term in ring_catalog(10):
        ring = build_ring(term)
        filters = [sigma.member_indices() for sigma in enumerate_gabriel_filters(ring)]
        for rank in (1, 2):
            lat = submodule_lattice(free_module(ring, rank))
            shared = noether._lattice_tables(lat)
            for members in filters:
                for n_idx in range(lat.n):
                    expected = certificate_by_index_scan(lat, n_idx, members)
                    assert expected is not None
                    assert noether._tfg_certificate(shared, n_idx, members) == expected
                    fresh = noether._LatticeTables(lat)
                    assert noether._tfg_certificate(fresh, n_idx, members) == expected


# -- one planted defect per theorem ----------------------------------------------


def _outside_3(ring):
    return filter_from_prime(ring, ideal_of(ring, 3))


def _plant_ring_sum(monkeypatch, ring, lat):
    """On the ideal lattice of Z/6, set the sum 0 + (2) to (3)."""
    rl = ideal_lattice(ring)
    two, three = rl.idx(ideal_of(ring, 2)), rl.idx(ideal_of(ring, 3))
    sm = rl.sum_matrix()
    sm[rl.zero] = sm[rl.zero][:two] + (three,) + sm[rl.zero][two + 1:]


def _plant_up_mask(monkeypatch, ring, lat):
    """On the ideal lattice of Z/6, drop (1) from the up-set of (2), the
    least member of the filter outside (3)."""
    rl = ideal_lattice(ring)
    rl.up_masks()[rl.idx(ideal_of(ring, 2))] &= ~(1 << rl.top)


def _plant_spectrum(monkeypatch, ring, lat):
    """Drop the prime (3) from the spectrum of Z/6."""
    three = ideal_of(ring, 3)
    ring._cache["spectrum"] = tuple(p for p in prime_spectrum(ring) if p != three)


def _plant_product(monkeypatch, ring, lat):
    """On the ideal lattice of Z/6, set (2)*(2), the square of the least
    member of the filter outside (3), to 0."""
    rl = ideal_lattice(ring)
    b = rl.idx(ideal_of(ring, 2))
    rl._prod[b, b] = rl.zero


def _plant_zero_colon(monkeypatch, ring, lat):
    """On the ideal lattice, set (0 : 0) to the zero ideal."""
    rl = ideal_lattice(ring)
    _plant(rl, rl.zero, rl.zero, rl.zero)


def _plant_preimage(monkeypatch, ring, lat):
    """Make every ring-map preimage the whole source ring."""
    monkeypatch.setattr(
        RingMap, "preimage_ideal",
        lambda self, j: Ideal(self.source, frozenset(range(self.source.size))),
    )


# theorem -> (n of the ring Z/n, its filter, plant(monkeypatch, ring, lat)),
# lat being the private lattice of A handed to the suite; the plants of the
# tests above and two more
_PLANTS = {
    "certificates-verify": (6, _outside_3, lambda mp, ring, lat: _plant(
        lat, lat.zero, lat.top, lat.ring_lattice.top)),
    "totally-fg-quotient-images": (6, _outside_3, lambda mp, ring, lat: _plant_sum(lat)),
    "upper-closed-families-have-maximal": (6, trivial_filter, lambda mp, ring, lat: _plant(
        lat, 0, 1, lat.ring_lattice.top)),
    "unique-maximal": (6, trivial_filter, lambda mp, ring, lat: _plant(
        lat, 1, 2, lat.ring_lattice.top)),
    "totally-torsion-quotient-transfer": (6, _outside_3, lambda mp, ring, lat: _plant_sum(lat)),
    "kaplansky-prime-criterion": (4, trivial_filter, _plant_zero_colon),
    "kaplansky-noetherian-corollary": (4, trivial_filter, _plant_zero_colon),
    "meet-decomposition": (6, _outside_3, _plant_spectrum),
    "almost-jansian": (6, _outside_3, _plant_product),
    "induced-filters": (6, _outside_3, _plant_preimage),
}


def _failed_suite_spec(monkeypatch, ring, sigma) -> tuple[int, set]:
    """Exit code and failed theorems of a suite spec run on ring and sigma."""
    from torsionlab import cli

    monkeypatch.setattr(cli, "build_ring", lambda term, cap: ring)
    monkeypatch.setattr(cli, "build_filter", lambda ring, spec: sigma)
    report, code = cli.execute({"task": "suite", "ring": ring.term, "filter": "trivial"})
    theorems = report["results"]["reports"][0]["theorems"]
    return code, {t["name"] for t in theorems if not t["passed"]}


@pytest.mark.parametrize("name", noether._THEOREM_ORDER)
def test_each_theorem_fails_on_its_planted_defect(monkeypatch, name):
    # the plant goes into a fresh ring after its filter is built; the suite
    # spec then runs on that ring and filter, and the theorem's failure is a
    # counterexample with exit 1, never a traceback
    assert _PLANTS.keys() == set(noether._THEOREM_ORDER)
    n, make_filter, plant = _PLANTS[name]
    ring = zmod(n)
    sigma = make_filter(ring)
    lat = SubmoduleLattice(free_module(ring, 1))
    plant(monkeypatch, ring, lat)
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    code, failed = _failed_suite_spec(monkeypatch, ring, sigma)
    assert code == 1
    assert name in failed


@pytest.mark.parametrize(
    "plant, expected",
    [
        (_plant_ring_sum, {"totally-fg-quotient-images", "totally-torsion-quotient-transfer"}),
        (_plant_up_mask, {"unique-maximal", "totally-torsion-quotient-transfer"}),
    ],
    ids=["ring-sum", "up-mask"],
)
def test_plants_of_retired_theorems_fail_the_suite(monkeypatch, plant, expected):
    # the plants that failed finite-type and closure-colon-witness, on the
    # ideal lattice of a fresh Z/6, which is also the lattice of A: with both
    # checks gone from the suite, other theorems still fail with exit 1
    ring = zmod(6)
    sigma = _outside_3(ring)
    plant(monkeypatch, ring, ideal_lattice(ring))
    code, failed = _failed_suite_spec(monkeypatch, ring, sigma)
    assert code == 1
    assert failed == expected


def test_growing_power_fails_almost_jansian(monkeypatch):
    # on a fresh Z/6, (3)*(3) planted as (1) makes the powers of (3) cycle
    # (3), (1), (3), ...; the power iteration must raise instead of looping,
    # and under the improper filter the suite reports almost-jansian failed;
    # the alarm turns a hang into a failure
    ring = zmod(6)
    sigma = improper_filter(ring)
    rl = ideal_lattice(ring)
    three = rl.idx(ideal_of(ring, 3))
    rl._prod[three, three] = rl.top

    with alarm(5, "the powers of (3)"):
        lat = SubmoduleLattice(free_module(ring, 1))
        assert not _planted_suite(monkeypatch, ring, sigma, lat)["almost-jansian"]


def _flip_up_mask_bit(lat, i: int, j: int) -> None:
    """Flip bit j of the up-set mask of sub-object i."""
    lat.up_masks()[i] ^= 1 << j


def _up_mask_flip_reports(monkeypatch) -> list[dict]:
    """The reports of every single up-mask bit flip on a private lattice of
    A = Z/6 or Z/4, under every filter: 82 runs."""
    reports = []
    for n in (6, 4):
        ring = zmod(n)
        for sigma in enumerate_gabriel_filters(ring):
            size = ideal_lattice(ring).n
            for i in range(size):
                for j in range(size):
                    lat = SubmoduleLattice(free_module(ring, 1))
                    _flip_up_mask_bit(lat, i, j)
                    report = _planted_suite_report(monkeypatch, ring, sigma, lat)
                    reports.append(report.to_dict())
    return reports


def _plant_colon_row(rl, i: int, x: int, value: int) -> None:
    """Set entry x of the colon row of ideal i, (N_i : x), to value."""
    row = rl.colon_row(i)
    rl._colon_rows[i] = row[:x] + (value,) + row[x + 1:]


def _colon_row_plant_reports() -> list[dict]:
    """The reports of every single colon-row entry (N_i : x) of the ideal
    lattice of a fresh Z/6 or Z/4, set to each other ideal index once the
    filter is built, under every filter: 336 runs."""
    reports = []
    for n in (6, 4):
        probe = ideal_lattice(zmod(n))
        for k in range(len(enumerate_gabriel_filters(probe.ring))):
            for i, x, value in product(range(probe.n), range(n), range(probe.n)):
                if value == probe.colon_row(i)[x]:
                    continue
                ring = zmod(n)
                sigma = enumerate_gabriel_filters(ring)[k]
                _plant_colon_row(ideal_lattice(ring), i, x, value)
                reports.append(theorem_suite(ring, sigma).to_dict())
    return reports


@pytest.fixture(scope="module")
def plant_scans() -> dict[str, list[dict]]:
    """Every report of three plant scans, run once for the tests that count
    and pin them: the colon-row plants, the up-mask flips and the suites of
    _PLANTS; the alarms turn a hang into a failure."""
    scans = {}
    with alarm(30, "the colon-row plants"):
        scans["colon-row"] = _colon_row_plant_reports()
    with pytest.MonkeyPatch.context() as mp, alarm(30, "the up-mask flips"):
        scans["up-mask"] = _up_mask_flip_reports(mp)
    scans["plants"] = []
    for name in _PLANTS:
        with pytest.MonkeyPatch.context() as mp:
            scans["plants"].append(_planted_report(mp, name))
    return scans


def _failed_and_passed(reports: list[dict]) -> tuple[int, int]:
    failed = sum(not report["all_passed"] for report in reports)
    return failed, len(reports) - failed


def test_carrier_violations_fail_a_theorem(plant_scans):
    # every up-mask flip: a TheoremViolation the flip raises in the carrier
    # checks fails a theorem instead of leaving theorem_suite (62 runs
    # escaped before)
    assert _failed_and_passed(plant_scans["up-mask"]) == (80, 2)


def test_colon_row_plants_fail_a_theorem(plant_scans):
    # every colon-row plant: a violation the plant raises in the ring-level
    # checks fails a theorem instead of leaving theorem_suite (159 runs
    # escaped before, 152 with TheoremViolation and 7 with ValueError)
    assert _failed_and_passed(plant_scans["colon-row"]) == (199, 137)


# taken before the suite's per-theorem tallies and per-lattice tables were regrouped
PLANT_SCAN_SHA256 = "f477677976dbe424c1b7f0d7633ed1df6c84b3f395cda2898d6badbad63f3fce"


def test_plant_scan_reports_are_pinned(plant_scans):
    # the full report of every run of the three scans, instance counts and
    # counterexamples included: a change that keeps every pass flag but
    # drops the instances checked before a violation moves the digest
    assert [len(reports) for reports in plant_scans.values()] == [336, 82, 10]
    data = json.dumps(plant_scans).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == PLANT_SCAN_SHA256


def _failed_results(ring, sigma) -> dict:
    """The failed theorems of theorem_suite(ring, sigma), with counterexamples."""
    return {r.name: r.counterexample for r in theorem_suite(ring, sigma).results if not r.passed}


def test_principal_status_violation_fails_both_kaplansky_theorems():
    # on a fresh Z/6 under the trivial filter, ((0) : 0) planted as (0)
    # leaves the closure of (0) without 0, so the sigma-principal statuses
    # that both Kaplansky theorems read raise; both fail with the violation
    ring = zmod(6)
    sigma = trivial_filter(ring)
    rl = ideal_lattice(ring)
    _plant_colon_row(rl, rl.zero, 0, rl.zero)
    failed = _failed_results(ring, sigma)
    violation = "closure of sub-object 0 is not an ideal of Z/6: the member indices [3] are not a filter"
    assert failed["kaplansky-prime-criterion"] == violation
    assert failed["kaplansky-noetherian-corollary"] == violation


def test_closure_inside_its_prime_fails_kaplansky_prime_criterion():
    # on a fresh Z/6 under the trivial filter, ((3) : 3) planted as (0)
    # makes the closure of the prime (3) the zero ideal, strictly inside it;
    # the spectrum partition names 3 as the witness instead of raising on
    # an empty difference
    ring = zmod(6)
    sigma = trivial_filter(ring)
    rl = ideal_lattice(ring)
    _plant_colon_row(rl, rl.idx(ideal_of(ring, 3)), 3, rl.zero)
    assert _failed_results(ring, sigma)["kaplansky-prime-criterion"] == (
        "prime (3) outside the filter but its closure differs from it,"
        " so Z/6/(3) is not torsionfree (witness 3)"
    )


def test_carrier_violation_exits_1(monkeypatch):
    # Z/6 under filter<(0)>, bit 1 flipped in the up-mask of 0 on a private
    # lattice of A: the greedy generators stall while the certificates of A
    # are sought, which fails certificates-verify with exit 1
    from torsionlab import cli

    ring = zmod(6)
    sigma = improper_filter(ring)
    assert sigma.label == "filter<(0)>"
    lat = SubmoduleLattice(free_module(ring, 1))
    _flip_up_mask_bit(lat, lat.zero, 1)
    monkeypatch.setattr(cli, "build_ring", lambda term, cap: ring)
    monkeypatch.setattr(cli, "build_filter", lambda ring, spec: sigma)
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    report, code = cli.execute({"task": "suite", "ring": {"zmod": 6}, "filter": "trivial"})
    assert code == 1
    failed = [t for t in report["results"]["reports"][0]["theorems"] if not t["passed"]]
    assert [t["name"] for t in failed] == ["certificates-verify"]
    assert failed[0]["counterexample"] == (
        "greedy generators of a submodule of Z/6 stall: sub-object 3 does not grow toward 1"
    )


# -- tables kept on the ring for all of its filters ----------------------------------------


def _one_pass_and_fresh_reports(monkeypatch, ring, plant) -> tuple[list, list]:
    """Every filter's report from one pass over ring's filters, with a private
    rank-1 lattice planted by plant, and from a fresh ring and planted lattice
    per filter."""

    def reports(ring, filters):
        lat = SubmoduleLattice(free_module(ring, 1))
        plant(lat)
        monkeypatch.setattr(
            noether, "submodule_lattice",
            lambda m: lat if m.ring is ring and m.rank == 1 else submodule_lattice(m),
        )
        return [theorem_suite(ring, sigma).to_dict() for sigma in filters]

    one_pass = reports(ring, enumerate_gabriel_filters(ring))
    fresh = []
    for k in range(len(one_pass)):
        ring = zmod(ring.size)
        fresh.extend(reports(ring, enumerate_gabriel_filters(ring)[k:k + 1]))
    return one_pass, fresh


@pytest.mark.parametrize("plant", ["colon", "sum"])
def test_ring_tables_match_fresh_rings_on_planted_lattices(monkeypatch, plant):
    # the planted defects of the certificate and quotient tests above, on
    # A = Z/6: with the ring's tables read by all four filters, each filter's
    # report, failures included, equals its report on a fresh ring
    def planted(lat):
        if plant == "colon":
            _plant(lat, lat.zero, lat.top, lat.ring_lattice.top)
        else:
            _plant_sum(lat)

    one_pass, fresh = _one_pass_and_fresh_reports(monkeypatch, zmod(6), planted)
    assert one_pass == fresh
    failing = [i for i, report in enumerate(one_pass) if not report["all_passed"]]
    assert failing and failing[-1] > 0  # a filter after the first sees the defect


def test_ring_reuses_its_tables_and_frees_them():
    # a second round of the suite and the public predicates on one ring reads
    # the two sets of tables the first round built; dropping the ring frees them
    ring = zmod(12)
    sigma = filter_from_mult_set(ring, [1, 3, 9])
    a, a2 = free_module(ring, 1), free_module(ring, 2)
    rounds = []
    for _ in range(2):
        theorem_suite(ring, sigma)
        tfg_certificate(a2, submodule_lattice(a2).sets[-1], sigma)
        upper_closure(a, [frozenset({0, 6})], sigma)
        quotient_transfer_check(a, frozenset({0, 4, 8}), sigma)
        rounds.append(list(ring._cache["suite_tables"].values()))
    first, second = rounds
    assert len(first) == 2  # the lattices of A and A^2
    assert all(x is y for x, y in zip(first, second))
    held = [weakref.ref(tables) for tables in first]
    del ring, sigma, a, a2, rounds, first, second
    gc.collect()
    assert [ref() for ref in held] == [None, None]


def _live_tables() -> dict:
    gc.collect()
    return {id(obj): obj for obj in gc.get_objects() if isinstance(obj, noether._LatticeTables)}


def test_sweep_reports_equal_lone_calls():
    from torsionlab import cli

    before = _live_tables()  # those of rings other tests still hold
    report, code = cli.execute({"task": "suite", "params": {"sweep_max_size": 8}})
    assert _live_tables().keys() == before.keys()
    assert code == 0
    lone = []
    for term in ring_catalog(8):
        ring = build_ring(term)
        filters = enumerate_gabriel_filters(ring)
        lone.extend(theorem_suite(ring, sigma).to_dict() for sigma in filters)
    assert report["results"]["reports"] == lone


# -- product-ring tables read from the local factors --------------------------------------


def _no_factor_view(mp) -> None:
    """Make every _LatticeTables built from now on run the direct loops."""
    mp.setattr(noether._LatticeTables, "factor_view", None)


def test_factor_view_is_taken_and_agrees_with_direct_loops(monkeypatch):
    # on A and A^2 of every catalog ring with two or more local factors, the
    # factor view exists, so a silent fallback fails here, and the verdicts
    # and image masks it gives equal those of the direct loops
    rings = [build_ring(term) for term in ring_catalog(12)]
    lattices = [
        submodule_lattice(free_module(ring, rank))
        for ring in rings if len(local_decomposition(ring)) > 1
        for rank in (1, 2)
    ]
    assert len(lattices) == 24
    with_view = []
    for lat in lattices:
        tables = noether._LatticeTables(lat)
        assert tables.factor_view is not None, lat.kind
        with_view.append(tables)
    _no_factor_view(monkeypatch)
    for lat, tables in zip(lattices, with_view):
        direct = noether._LatticeTables(lat)
        assert direct.factor_view is None
        for t_idx in range(lat.n):
            assert tables.transfers[t_idx] == direct.transfers[t_idx], (lat.kind, t_idx)
        for pair in lat.inclusion_pairs():
            assert tables.quotient_images[pair] == direct.quotient_images[pair], (lat.kind, pair)


def _planted_report(mp, name: str) -> dict:
    """theorem_suite's report on a fresh Z/n after the named plant: a plant
    of _PLANTS goes into a private rank-1 lattice handed to the suite, a
    retired theorem's plant into the ring's own ideal lattice."""
    n, make_filter, plant = _ROUTE_PLANTS[name]
    ring = zmod(n)
    sigma = make_filter(ring)
    if name in _PLANTS:
        lat = SubmoduleLattice(free_module(ring, 1))
        real = noether.submodule_lattice
        mp.setattr(
            noether, "submodule_lattice",
            lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
        )
    else:
        lat = ideal_lattice(ring)
    plant(mp, ring, lat)
    return theorem_suite(ring, sigma).to_dict()


_ROUTE_PLANTS = {
    **_PLANTS,
    "retired-ring-sum": (6, _outside_3, _plant_ring_sum),
    "retired-up-mask": (6, _outside_3, _plant_up_mask),
}


@pytest.mark.parametrize("name", _ROUTE_PLANTS)
def test_plants_give_one_report_with_and_without_factor_view(monkeypatch, name):
    # every planted defect of the suite tests gives the same report, failures
    # and counterexamples included, whether or not product-ring tables may be
    # read from the factors; the spectrum plant makes local_decomposition
    # raise, which must leave the direct loops to run every transfer check
    with monkeypatch.context() as mp:
        with_view = _planted_report(mp, name)
    with monkeypatch.context() as mp:
        _no_factor_view(mp)
        direct = _planted_report(mp, name)
    assert not with_view["all_passed"]
    assert with_view == direct
    if name == "meet-decomposition":
        transfer = with_view["theorems"][noether._THEOREM_ORDER.index(
            "totally-torsion-quotient-transfer")]
        assert transfer["instances_checked"] == 7


@pytest.mark.parametrize("term, failing_expected", [
    ({"zmod": 6}, 193), ({"product": [{"zmod": 2}, {"zmod": 4}]}, 148),
], ids=["Z/6", "Z/2 x Z/4"])
def test_a2_plants_give_one_report_with_and_without_factor_view(
    monkeypatch, term, failing_expected
):
    # a seeded sample of 400 single-entry colon-matrix and sum-matrix plants
    # on the A^2 lattice, each under a seeded filter: the check rejects every
    # one, and the suite report is the same on both routes, so the factor
    # check hides no plant; failing_expected counts the reports with a failed
    # theorem.  Each plant is undone after its runs, and the A^2 tables, the
    # only ones that read the planted entry, are dropped before each run
    ring = build_ring(term)
    lat = submodule_lattice(free_module(ring, 2))
    filters = enumerate_gabriel_filters(ring)
    rng = random.Random(7)
    plants = []
    while len(plants) < 400:
        kind = rng.choice(("colon", "sum"))
        row, col = rng.randrange(lat.n), rng.randrange(lat.n)
        if kind == "colon":
            value, old = rng.randrange(lat.ring_lattice.n), lat.pair_colon(row, col)
        else:
            value, old = rng.randrange(lat.n), lat.sum(row, col)
        if value != old:
            plants.append((kind, row, col, value, rng.choice(filters)))

    def report(sigma) -> tuple[dict, bool]:
        """The suite report, and whether the A^2 tables took the factor view."""
        ring._cache.get("suite_tables", {}).pop(lat, None)
        result = theorem_suite(ring, sigma).to_dict()
        return result, noether._lattice_tables(lat).factor_view is not None

    for sigma in filters:  # unplanted, every report passes and the view is taken
        result, taken = report(sigma)
        assert result["all_passed"] and taken
    failing = 0
    with alarm(60, "the A^2 plant scan"):
        for kind, row, col, value, sigma in plants:
            rows = lat.colon_matrix() if kind == "colon" else lat.sum_matrix()
            original = rows[row]
            rows[row] = original[:col] + (value,) + original[col + 1:]
            with_view, taken = report(sigma)
            with monkeypatch.context() as mp:
                _no_factor_view(mp)
                direct, _ = report(sigma)
            rows[row] = original
            assert not taken and with_view == direct, (kind, row, col, value)
            failing += not with_view["all_passed"]
    assert failing == failing_expected


# -- regrouped tables against the scans they replace ------------------------------------


def _planted_a_lattices() -> list:
    """Private lattices of A = Z/6, one per planted sum or colon entry of
    the tests above."""
    lattices = []
    for plant in (
        _plant_sum,
        lambda lat: _plant(lat, lat.zero, lat.top, lat.ring_lattice.top),
        lambda lat: _plant(lat, 0, 1, lat.ring_lattice.top),
        lambda lat: _plant(lat, 1, 2, lat.ring_lattice.top),
        lambda lat: _plant(lat, 1, 1, lat.ring_lattice.zero),  # (T : T) for T = (3)
        lambda lat: _plant(lat, lat.zero, lat.zero, lat.ring_lattice.zero),
    ):
        lat = SubmoduleLattice(free_module(zmod(6), 1))
        plant(lat)
        lattices.append(lat)
    return lattices


def test_grouped_tables_match_pair_and_range_scans(monkeypatch):
    # the transfer loop over colon groups and the candidates read from the
    # below table give what one inclusion pair at a time and one up-mask test
    # per index give: for every T and N of A and A^2 over the catalog rings
    # up to size 10, with the factor view bypassed so that product rings run
    # the direct loop too, and on the planted lattices, where some T fail
    _no_factor_view(monkeypatch)
    lattices = [
        submodule_lattice(free_module(build_ring(term), rank))
        for term in ring_catalog(10) for rank in (1, 2)
    ]
    planted = _planted_a_lattices()
    verdicts = []
    for lat in lattices + planted:
        tables = noether._LatticeTables(lat)
        cm = lat.colon_matrix()
        for idx in range(lat.n):
            passing = tables.passing[cm[lat.zero][idx]]
            assert tables.transfers[idx] == transfers_by_pair_scan(lat, passing, idx), (lat.kind, idx)
            assert tables.candidates[idx] == candidates_by_range_scan(lat, idx), (lat.kind, idx)
            verdicts.append(tables.transfers[idx])
    assert not all(verdicts[-sum(lat.n for lat in planted):])  # a planted T fails


def test_shared_maxima_match_the_lattice_on_every_suite_mask():
    # the maxima a ring's tables keep for all of its filters, one entry per
    # upper-closure mask, are the lattice's maximal elements of that mask,
    # after the suites of every filter of the catalog rings up to size 10
    for term in ring_catalog(10):
        ring = build_ring(term)
        filters = enumerate_gabriel_filters(ring)
        for sigma in filters:
            assert theorem_suite(ring, sigma).all_passed
        for rank in (1, 2):
            lat = submodule_lattice(free_module(ring, rank))
            tables = noether._lattice_tables(lat)
            upper = {
                noether._upper_closure(tables, (n,), sigma.member_indices())
                for sigma in filters for n in range(lat.n)
            }
            assert tables.maxima.keys() == upper
            for fam in upper:
                assert tables.maxima[fam] == lat.maximal(_bits(fam))
