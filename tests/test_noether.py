"""Certificates, maximality machinery, theorem suites."""

from __future__ import annotations

import gc

import pytest

from torsionlab import noether
from torsionlab.errors import InvalidArgument, NotAscending, NotASubmodule, PreconditionFailed
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
    chain_stability,
    closure_colon_witness,
    quotient_transfer_check,
    sigma_maximal,
    sigma_principal_status,
    tfg_certificate,
    theorem_suite,
    unique_maximal_check,
    upper_closure,
    verify_certificate,
)
from torsionlab.rings import (
    Ideal,
    RingMap,
    build_ring,
    enumerate_ideals,
    ideal_from_generators,
    ideal_lattice,
    ring_catalog,
    square_zero,
    zmod,
)

from .helpers import canonical_certificates_by_scan, sigma_principal_by_scan


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


def test_sigma_maximal_examples(z12, sigma39):
    m = free_module(z12, 1)
    fam = [frozenset({0}), frozenset({0, 6})]
    out = sigma_maximal(m, fam, sigma39)
    assert len(out) == 1
    sub, h = out[0]
    assert sub == frozenset({0, 6})
    assert h.elements == frozenset(range(12))

    out = sigma_maximal(m, [frozenset({0, 6})], sigma39)
    assert out[0][1].elements == frozenset(range(12))

    lat = submodule_lattice(m)
    out = sigma_maximal(m, list(lat.submodules), improper_filter(z12))
    assert len(out) == lat.n  # every member qualifies under the improper filter


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


def test_unique_maximal_check(z12, sigma39):
    m = free_module(z12, 1)
    assert unique_maximal_check(m, frozenset({0, 6}), sigma39)
    assert unique_maximal_check(m, frozenset({0, 4, 8}), sigma39)
    lat = submodule_lattice(m)
    for sigma in enumerate_gabriel_filters(z12):
        for sub in lat.submodules:
            assert unique_maximal_check(m, sub, sigma)


# -- chains ------------------------------------------------------------------------


def test_chain_stability_examples(z12, sigma39):
    m = free_module(z12, 1)
    i2 = frozenset({0, 2, 4, 6, 8, 10})
    const = chain_stability(m, [i2, i2, i2], sigma39)
    assert const.stable_index == 1
    assert const.h.elements == frozenset(range(12))

    chain = [frozenset({0}), frozenset({0, 6}), i2, i2]
    got = chain_stability(m, chain, trivial_filter(z12))
    assert got.stable_index == 3
    assert got.h.elements == frozenset(range(12))

    got = chain_stability(m, [frozenset({0, 4, 8}), i2], sigma39)
    assert got.stable_index == 2
    assert got.h.elements == frozenset(range(12))

    with pytest.raises(NotAscending):
        chain_stability(m, [i2, frozenset({0})], sigma39)


# -- quotient transfer ---------------------------------------------------------------


def test_totally_torsion_certificate(z12, sigma39):
    from torsionlab.noether import totally_torsion_certificate

    m = free_module(z12, 1)
    cert = totally_torsion_certificate(m, frozenset({0, 4, 8}), sigma39)
    assert cert.kind == "totally_torsion"
    assert cert.subobject_generators == ()
    assert cert.filter_ideal.elements == frozenset({0, 3, 6, 9})
    assert verify_certificate(m, frozenset({0, 4, 8}), sigma39, cert) == (True, None)
    with pytest.raises(PreconditionFailed):
        totally_torsion_certificate(m, frozenset({0, 6}), sigma39)


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
        from torsionlab.modules import element_annihilator

        for sub in lat.submodules:
            ann = frozenset(range(12))
            for e in sub:
                ann = ann & element_annihilator(m, e).elements
            from torsionlab.rings import Ideal

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
        "finite-type",
        "closure-colon-witness",
        "upper-closed-families-have-maximal",
        "unique-maximal",
        "totally-torsion-quotient-transfer",
        "kaplansky-prime-criterion",
        "kaplansky-noetherian-corollary",
        "meet-decomposition",
        "almost-jansian",
        "induced-filters",
    ]


def test_is_upper_closed_fixpoint(z12, sigma39):
    from torsionlab.noether import is_upper_closed

    m = free_module(z12, 1)
    fam = upper_closure(m, [frozenset({0, 6})], sigma39)
    assert is_upper_closed(m, fam, sigma39)
    assert not is_upper_closed(m, [frozenset({0, 6})], sigma39)


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


def _planted_suite(monkeypatch, ring, sigma, lat) -> dict:
    """theorem_suite's pass flags, with a private rank-1 lattice of the ring
    handed to the suite through a monkeypatched ``submodule_lattice``."""
    real = noether.submodule_lattice
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else real(m),
    )
    return {r.name: r.passed for r in theorem_suite(ring, sigma).results}


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
    """_quotient_transfer over every totally torsion T at once gives the
    verdicts of quotient_transfer_check one T at a time: on A and A^2 of the
    catalog rings up to size 8 under every Gabriel filter, and on a lattice
    with a planted sum, where some T fail."""
    for term in ring_catalog(8):
        ring = build_ring(term)
        for rank in (1, 2):
            module = free_module(ring, rank)
            lat = submodule_lattice(module)
            for sigma in enumerate_gabriel_filters(ring):
                members = sigma.member_indices()
                torsion = [t for t in range(lat.n) if lat.pair_colon(lat.zero, t) in members]
                single = [quotient_transfer_check(module, lat.sets[t], sigma) for t in torsion]
                assert noether._quotient_transfer(lat, torsion, members) == single
    ring = zmod(6)
    module = free_module(ring, 1)
    sigma = filter_from_prime(ring, ideal_from_generators(ring, [3]))
    lat = SubmoduleLattice(module)
    monkeypatch.setattr(noether, "submodule_lattice", lambda m: lat)
    _plant_sum(lat)
    torsion = [lat.zero, lat.idx(frozenset({0, 3}))]
    single = [quotient_transfer_check(module, lat.sets[t], sigma) for t in torsion]
    assert single == [True, False]
    assert noether._quotient_transfer(lat, torsion, sigma.member_indices()) == single


# -- tables shared across the filters of a ring -------------------------------------------


def _lone_and_shared_reports(monkeypatch, ring, lat) -> tuple[list, list]:
    """Every filter's report from lone theorem_suite calls and from one pass
    inside shared_suite_tables, with a private rank-1 lattice of the ring."""
    monkeypatch.setattr(
        noether, "submodule_lattice",
        lambda m: lat if m.ring is ring and m.rank == 1 else submodule_lattice(m),
    )
    filters = enumerate_gabriel_filters(ring)
    lone = [theorem_suite(ring, sigma).to_dict() for sigma in filters]
    with noether.shared_suite_tables(ring):
        shared = [theorem_suite(ring, sigma).to_dict() for sigma in filters]
    return lone, shared


@pytest.mark.parametrize("plant", ["colon", "sum"])
def test_shared_tables_match_lone_calls_on_planted_lattices(monkeypatch, plant):
    # the planted defects of the certificate and quotient tests above, on
    # A = Z/6: with tables shared across the four filters, each filter's
    # report, failures included, equals its lone-call report
    ring = zmod(6)
    lat = SubmoduleLattice(free_module(ring, 1))
    if plant == "colon":
        _plant(lat, lat.zero, lat.top, lat.ring_lattice.top)
    else:
        _plant_sum(lat)
    lone, shared = _lone_and_shared_reports(monkeypatch, ring, lat)
    assert shared == lone
    failing = [i for i, report in enumerate(lone) if not report["all_passed"]]
    assert failing and failing[-1] > 0  # a filter after the first sees the defect


def test_lone_suite_call_leaves_no_tables():
    ring = zmod(12)
    sigma = filter_from_mult_set(ring, [1, 3, 9])
    theorem_suite(ring, sigma)
    assert noether._SHARED_TABLES not in ring._cache
    with noether.shared_suite_tables(ring):
        theorem_suite(ring, sigma)
        assert len(ring._cache[noether._SHARED_TABLES]) == 2  # the lattices of A and A^2
    assert noether._SHARED_TABLES not in ring._cache
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, noether._LatticeTables)]


def test_sweep_reports_equal_lone_calls():
    from torsionlab import cli

    report, code = cli.execute({"task": "suite", "params": {"sweep_max_size": 8}})
    assert code == 0
    lone = []
    for term in ring_catalog(8):
        ring = build_ring(term)
        filters = enumerate_gabriel_filters(ring)
        lone.extend(theorem_suite(ring, sigma).to_dict() for sigma in filters)
    assert report["results"]["reports"] == lone
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, noether._LatticeTables)]
