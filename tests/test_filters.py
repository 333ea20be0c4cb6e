"""Gabriel filters, torsion radicals, closures, partitions."""

from __future__ import annotations

import dataclasses
from itertools import combinations, combinations_with_replacement

import pytest

from torsionlab import filters
from torsionlab.errors import (
    NotMultiplicativelyClosed,
    NotPrime,
    RingMismatch,
    TheoremViolation,
    UnsupportedMap,
)
from torsionlab.filters import (
    GabrielFilter,
    closure,
    enumerate_gabriel_filters,
    filter_from_mult_set,
    filter_from_prime,
    gabriel_check,
    gabriel_closure,
    ideal_closure,
    improper_filter,
    induced_filter,
    is_closed,
    is_dense,
    jansian_status,
    lambda_filter,
    meet_decomposition_check,
    spec_partition,
    torsion_class_report,
    torsion_submodule,
    trivial_filter,
)
from torsionlab.modules import free_module, submodule_lattice
from torsionlab.rings import (
    Ideal,
    build_ring,
    enumerate_ideals,
    ideal_from_generators,
    ideal_lattice,
    identity_map,
    local_decomposition,
    localize_at_prime,
    quotient_ring,
    ring_catalog,
    unit_ideal,
    zmod,
)

from .helpers import (
    basis_by_pairwise_scan,
    gabriel_filters_by_subset_scan,
    gabriel_filters_by_upset_check,
    subquotient,
)


@pytest.fixture(scope="module")
def z12():
    return zmod(12)


def ideal_of(ring, *gens):
    return ideal_from_generators(ring, list(gens))


def members_of(sigma):
    return {a.elements for a in sigma.members}


# -- axioms and construction ---------------------------------------------------


def test_gabriel_check_passes(z12):
    members = [ideal_of(z12, 3), unit_ideal(z12)]
    assert gabriel_check(z12, members) == []


def test_gabriel_check_condition_violation(z12):
    members = [ideal_of(z12, 6), ideal_of(z12, 2), ideal_of(z12, 3), unit_ideal(z12)]
    report = gabriel_check(z12, members)
    assert report, "expected a violation"
    condition = [v for v in report if v.axiom == "gabriel-condition"]
    witnessed = {
        (dict(v.witnesses)["absent"].elements, dict(v.witnesses)["via"].elements)
        for v in condition
    }
    # (0) is forced by a=(6) since ((0):0)=(1) and ((0):6)=(2) are both members
    assert (frozenset({0}), frozenset({0, 6})) in witnessed


def test_gabriel_check_trivial(z12):
    assert gabriel_check(z12, [unit_ideal(z12)]) == []


def test_gabriel_check_upward_violation(z12):
    report = gabriel_check(z12, [ideal_of(z12, 3)])
    assert any(v.axiom in ("upward-closure", "missing-unit-ideal") for v in report)


def test_gabriel_closure_examples(z12):
    got = gabriel_closure(z12, [ideal_of(z12, 4)])
    assert members_of(got) == {
        frozenset({0, 4, 8}), frozenset({0, 2, 4, 6, 8, 10}), frozenset(range(12)),
    }
    full = gabriel_closure(z12, [ideal_of(z12, 6)])
    assert len(full.members) == 6
    assert members_of(gabriel_closure(z12, [])) == {frozenset(range(12))}


@pytest.fixture(scope="module")
def catalog12_scans():
    """(ring, every Gabriel filter by the raw subset scan) per size <= 12 catalog ring."""
    out = []
    for term in ring_catalog(12):
        ring = build_ring(term)
        out.append((ring, gabriel_filters_by_subset_scan(ring, list(enumerate_ideals(ring)))))
    return out


def test_gabriel_closure_matches_subset_scan(catalog12_scans):
    # every seed pair of every size <= 12 catalog ring: the closure is the
    # least filter containing both seeds among all filters the raw subset
    # scan finds
    cases = 0
    for ring, scanned in catalog12_scans:
        ideals = enumerate_ideals(ring)
        for a, b in combinations_with_replacement(ideals, 2):
            over = [f for f in scanned if a.elements in f and b.elements in f]
            least = min(over, key=len)
            assert all(least <= f for f in over)
            assert members_of(gabriel_closure(ring, [a, b])) == least, (ring.label, a, b)
            cases += 1
    assert cases == 320


def test_filter_from_mult_set(z12):
    got = filter_from_mult_set(z12, [1, 3, 9])
    assert members_of(got) == {frozenset({0, 3, 6, 9}), frozenset(range(12))}
    # 5 is a unit: only the unit ideal meets {1,5}
    assert members_of(filter_from_mult_set(z12, [1, 5])) == {frozenset(range(12))}
    assert members_of(filter_from_mult_set(z12, [1])) == {frozenset(range(12))}
    with pytest.raises(NotMultiplicativelyClosed):
        filter_from_mult_set(z12, [1, 2])
    with pytest.raises(NotMultiplicativelyClosed):
        filter_from_mult_set(z12, [3, 9])


def test_filter_from_mult_set_matches_closure_of_principals(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    seeded = gabriel_closure(z12, [ideal_of(z12, s) for s in (1, 3, 9)])
    assert sigma.members == seeded.members


def test_mult_set_filter_basis_is_principal(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    for b in sigma.basis:
        assert any(b.elements == ideal_of(z12, s).elements for s in (1, 3, 9))


def test_lambda_filter(z12):
    assert members_of(lambda_filter(z12)) == {frozenset(range(12))}
    f5 = zmod(5)
    assert len(lambda_filter(f5).members) == 1
    z4 = zmod(4)
    assert members_of(lambda_filter(z4)) == {frozenset(range(4))}


def test_filter_from_prime(z12):
    got = filter_from_prime(z12, ideal_of(z12, 2))
    assert members_of(got) == {frozenset({0, 3, 6, 9}), frozenset(range(12))}
    got3 = filter_from_prime(z12, ideal_of(z12, 3))
    assert members_of(got3) == {
        frozenset({0, 4, 8}), frozenset({0, 2, 4, 6, 8, 10}), frozenset(range(12)),
    }
    f5 = zmod(5)
    assert len(filter_from_prime(f5, ideal_from_generators(f5, [])).members) == 1
    with pytest.raises(NotPrime):
        filter_from_prime(z12, ideal_of(z12, 6))


def test_enumerate_gabriel_filters_counts(z12):
    assert len(enumerate_gabriel_filters(z12)) == 4
    assert len(enumerate_gabriel_filters(zmod(8))) == 2
    assert len(enumerate_gabriel_filters(zmod(30))) == 8


@pytest.mark.parametrize("n", [4, 6, 12])
def test_enumerate_matches_subset_scan(n):
    ring = zmod(n)
    scan = gabriel_filters_by_subset_scan(ring, list(enumerate_ideals(ring)))
    ours = {frozenset(a.elements for a in f.members) for f in enumerate_gabriel_filters(ring)}
    assert ours == set(scan)


def test_census_matches_subset_scan_on_catalog(catalog12_scans):
    for ring, scanned in catalog12_scans:
        census = [frozenset(members_of(f)) for f in enumerate_gabriel_filters(ring)]
        assert len(census) == len(scanned) and set(census) == set(scanned), ring.label


def test_census_matches_upset_axiom_check():
    # the census by idempotent least members against the up-sets that pass
    # all five axioms, over every size <= 16 catalog ring
    filters_seen = 0
    for term in ring_catalog(16):
        ring = build_ring(term)
        census = [frozenset(members_of(f)) for f in enumerate_gabriel_filters(ring)]
        checked = gabriel_filters_by_upset_check(ring)
        assert len(census) == len(checked) and set(census) == set(checked), ring.label
        filters_seen += len(census)
    assert filters_seen == 130


def _small_member_sets():
    """Every member set of every size <= 16 catalog ring with at most 12 ideals."""
    for term in ring_catalog(16):
        ring = build_ring(term)
        ideals = enumerate_ideals(ring)
        if len(ideals) > 12:
            continue
        for k in range(len(ideals) + 1):
            for members in combinations(ideals, k):
                yield ring, members


def test_least_member_rule_agrees_with_gabriel_check():
    # _checked_filter accepts a member set iff gabriel_check reports nothing
    sets_seen = accepted = 0
    for ring, members in _small_member_sets():
        gabriel = gabriel_check(ring, members) == []
        try:
            filters._checked_filter(ring, members, "probe")
        except TheoremViolation:
            assert not gabriel, (ring.label, members)
        else:
            assert gabriel, (ring.label, members)
            accepted += 1
        sets_seen += 1
    assert sets_seen == 6216
    assert accepted > 0


def _catalog_filters() -> list[GabrielFilter]:
    """Every Gabriel filter of every ring of the size <= 16 catalog."""
    found = [f for term in ring_catalog(16) for f in enumerate_gabriel_filters(build_ring(term))]
    assert len(found) == 130
    return found


def test_basis_matches_pairwise_scan():
    # on every filter of the size <= 16 catalog
    for sigma in _catalog_filters():
        assert sigma.basis == basis_by_pairwise_scan(sigma.members), sigma


def test_members_read_off_the_least_member():
    # a filter is kept as its least member b alone; its members are the
    # ideals whose elements contain b's, in Ideal.sort_key order
    for sigma in _catalog_filters():
        assert [f.name for f in dataclasses.fields(sigma)] == ["ring", "least"]
        lat = ideal_lattice(sigma.ring)
        least = lat.sets[sigma.least]
        oracle = [a for a in enumerate_ideals(sigma.ring) if least <= a.elements]
        assert sigma.members == frozenset(oracle), sigma
        assert sigma.sorted_members() == tuple(sorted(oracle, key=Ideal.sort_key)), sigma
        assert sigma.member_indices() == {i for i, s in enumerate(lat.sets) if least <= s}
        assert sigma.basis == (lat.ideals[sigma.least],)


@pytest.mark.parametrize(
    "n, gens, axiom",
    [(12, [(3,)], "upward-closure"), (4, [(2,), (1,)], "gabriel-condition")],
)
def test_checked_filter_words_rejection_by_gabriel_check(n, gens, axiom):
    ring = zmod(n)
    members = [ideal_of(ring, *g) for g in gens]
    report = gabriel_check(ring, members)
    assert axiom in {v.axiom for v in report}
    expected = f"probe produced a non-Gabriel filter on Z/{n}: " + "; ".join(
        v.describe() for v in report
    )
    with pytest.raises(TheoremViolation) as caught:
        filters._checked_filter(ring, members, "probe")
    assert str(caught.value) == expected


def test_checked_filter_rejects_when_no_axiom_is_reported(monkeypatch):
    # the rule and the axioms disagreeing is a bug, not an accepted filter
    z4 = zmod(4)
    monkeypatch.setattr(filters, "gabriel_check", lambda ring, members: [])
    with pytest.raises(TheoremViolation, match="least member is not idempotent"):
        filters._checked_filter(z4, [ideal_of(z4, 2), unit_ideal(z4)], "probe")


def test_every_constructed_filter_passes_check(z12):
    for sigma in enumerate_gabriel_filters(z12):
        assert gabriel_check(z12, sigma.members) == []


# -- torsion radical and closure -----------------------------------------------


def test_torsion_submodule(z12):
    m = free_module(z12, 1)
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    assert torsion_submodule(m, sigma) == frozenset({0, 4, 8})
    assert torsion_submodule(m, trivial_filter(z12)) == frozenset({0})
    assert torsion_submodule(m, improper_filter(z12)) == frozenset(m.all_indices())


def test_torsion_submodule_is_closure_of_zero():
    # the element-level radical against the lattice engine's closure of 0,
    # which is the torsion submodule by definition, on A and A^2 of the
    # catalog rings up to size 12 under every Gabriel filter
    for term in ring_catalog(12):
        ring = build_ring(term)
        for rank in (1, 2):
            m = free_module(ring, rank)
            lat = submodule_lattice(m)
            for sigma in enumerate_gabriel_filters(ring):
                closed = lat.sets[lat.closure(lat.zero, sigma.member_indices())]
                assert torsion_submodule(m, sigma) == closed, (ring.label, rank, sigma.label)


def test_torsion_ring_mismatch(z12):
    with pytest.raises(RingMismatch):
        torsion_submodule(free_module(z12, 1), trivial_filter(zmod(6)))


def test_closure_examples(z12):
    m = free_module(z12, 1)
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    assert closure(m, frozenset({0, 6}), sigma) == frozenset({0, 2, 4, 6, 8, 10})
    everything = frozenset(m.all_indices())
    assert closure(m, everything, sigma) == everything
    assert closure(m, frozenset({0, 4, 8}), sigma) == frozenset({0, 4, 8})
    assert is_closed(m, frozenset({0, 4, 8}), sigma)
    assert not is_closed(m, frozenset({0, 6}), sigma)
    assert is_dense(m, frozenset({0, 2, 4, 6, 8, 10}), improper_filter(z12))


def test_closure_laws(z12):
    m = free_module(z12, 1)
    from torsionlab.modules import submodule_lattice

    lat = submodule_lattice(m)
    for sigma in enumerate_gabriel_filters(z12):
        closures = {s: closure(m, s, sigma) for s in lat.submodules}
        for s, cl in closures.items():
            assert s <= cl
            assert closures[cl] == cl
        for s in lat.submodules:
            for t in lat.submodules:
                if s <= t:
                    assert closures[s] <= closures[t]


def test_ideal_closure(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    assert ideal_closure(ideal_of(z12, 6), sigma).elements == frozenset({0, 2, 4, 6, 8, 10})


# -- spectrum partition ----------------------------------------------------------


def test_spec_partition(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    part = spec_partition(sigma)
    assert [p.elements for p in part.K] == [frozenset({0, 2, 4, 6, 8, 10})]
    assert [p.elements for p in part.Z] == [frozenset({0, 3, 6, 9})]
    assert [p.elements for p in part.C] == [frozenset({0, 2, 4, 6, 8, 10})]

    part = spec_partition(trivial_filter(z12))
    assert len(part.K) == 2 and not part.Z

    part = spec_partition(improper_filter(z12))
    assert len(part.Z) == 2 and not part.K and not part.C


def test_meet_decomposition(z12):
    for sigma in enumerate_gabriel_filters(z12):
        assert meet_decomposition_check(sigma)


# -- jansian detection -----------------------------------------------------------


def test_jansian_status_z6():
    z6 = zmod(6)
    sigma = filter_from_mult_set(z6, [1, 3])
    status = jansian_status(sigma)
    assert status.is_jansian
    assert status.idempotent_basis_ideal.elements == frozenset({0, 3})
    assert status.is_almost_jansian


def test_jansian_status_z12(z12):
    sigma = gabriel_closure(z12, [ideal_of(z12, 4)])
    status = jansian_status(sigma)
    assert status.is_jansian
    assert status.idempotent_basis_ideal.elements == frozenset({0, 4, 8})
    assert status.is_almost_jansian


def test_every_finite_filter_almost_jansian(z12):
    for ring in (z12, zmod(8), zmod(30)):
        for sigma in enumerate_gabriel_filters(ring):
            assert jansian_status(sigma).is_almost_jansian


# -- induced filters --------------------------------------------------------------


def test_induced_filter_quotient(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    quotient, proj = quotient_ring(z12, ideal_of(z12, 6))
    induced = induced_filter(proj, sigma)
    got = {frozenset(quotient.elem_label(x) for x in a.elements) for a in induced.members}
    # members downstairs: the images of (3) and (1)
    assert len(induced.members) == 2
    preimages = {proj.preimage_ideal(a).elements for a in induced.members}
    assert preimages == {frozenset({0, 3, 6, 9}), frozenset(range(12))}
    assert got  # labels render


def test_induced_filter_localization(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    factor, proj = localize_at_prime(z12, ideal_of(z12, 2))
    induced = induced_filter(proj, sigma)
    assert len(induced.members) == 1  # only the unit ideal downstairs


def test_induced_filter_identity(z12):
    sigma = filter_from_mult_set(z12, [1, 3, 9])
    induced = induced_filter(identity_map(z12), sigma)
    assert induced.members == sigma.members


def test_induced_filter_rejects_non_surjection(z12):
    from torsionlab.rings import RingMap

    bad = RingMap(z12, z12, tuple([0] * 12))
    sigma = trivial_filter(z12)
    with pytest.raises(UnsupportedMap):
        induced_filter(bad, sigma)


def test_induced_filters_along_local_decomposition(z12):
    for sigma in enumerate_gabriel_filters(z12):
        for factor, proj in local_decomposition(z12):
            induced = induced_filter(proj, sigma)
            assert gabriel_check(factor, induced.members) == []


# -- torsion class axioms ----------------------------------------------------------


@pytest.mark.parametrize("n", [6, 12])
def test_torsion_class_axioms(n):
    ring = zmod(n)
    filters = enumerate_gabriel_filters(ring)
    for rank in (1, 2):
        report = torsion_class_report(free_module(ring, rank), filters)
        for per_filter in report.values():
            for name, entry in per_filter.items():
                assert entry["passed"], (name, entry)
                assert entry["instances"] > 0


def test_closed_submodule_lattice_laws(z12):
    # meets of closed submodules are closed; joins are closures of sums
    from torsionlab.modules import submodule_lattice

    m = free_module(z12, 1)
    lat = submodule_lattice(m)
    for sigma in enumerate_gabriel_filters(z12):
        closed_subs = [s for s in lat.submodules if closure(m, s, sigma) == s]
        for a in closed_subs:
            for b in closed_subs:
                meet = a & b
                assert closure(m, meet, sigma) == meet
                join_base = lat.submodules[lat.sum(lat.idx(a), lat.idx(b))]
                join = closure(m, join_base, sigma)
                assert join in closed_subs or closure(m, join, sigma) == join


def test_radical_quotient_is_torsionfree(z12):
    m = free_module(z12, 1)
    for sigma in enumerate_gabriel_filters(z12):
        radical = torsion_submodule(m, sigma)
        quotient = subquotient(m, range(12), radical, f"Z/12 / t(Z/12) under {sigma.label}")
        assert torsion_submodule(quotient, sigma) == frozenset({quotient.zero})
