"""Ring kernel: constructions, ideal arithmetic, spectra, local factors."""

from __future__ import annotations

import pytest

from torsionlab.errors import (
    InvalidArgument,
    InvalidModulus,
    NonMonicPolynomial,
    NotPrime,
    RingMismatch,
    SizeCapExceeded,
)
from torsionlab.filters import trivial_filter
from torsionlab.modules import free_module
from torsionlab.noether import tfg_certificate
from torsionlab.rings import (
    Ideal,
    annihilator,
    build_ring,
    colon,
    colon_element,
    enumerate_ideals,
    ideal_from_generators,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    identity_map,
    local_decomposition,
    localize_at_prime,
    minimal_generators,
    poly_quotient,
    prime_spectrum,
    principal_ideal,
    product_ring,
    quotient_ring,
    ring_axiom_report,
    ring_catalog,
    square_zero,
    unit_ideal,
    zero_ideal,
    zmod,
)

from .helpers import (
    additive_closure_by_scan,
    all_ideals_by_subset_scan,
    colon_by_scan,
    ideal_by_linear_combinations,
)


@pytest.fixture(scope="module")
def z12():
    return zmod(12)


def ideal_of(ring, *gens):
    return ideal_from_generators(ring, list(gens))


# -- construction ------------------------------------------------------------


def test_zmod_size():
    assert zmod(12).size == 12


def test_product_size_and_tables():
    r = product_ring(zmod(2), zmod(2))
    assert r.size == 4
    # componentwise: (1,0)+(0,1) = (1,1), (1,0)*(0,1) = (0,0)
    a, b = 1 * 2 + 0, 0 * 2 + 1
    assert r.add(a, b) == 3
    assert r.mul(a, b) == 0


def test_poly_quotient_nilpotent():
    # F2[x]/(x^2): 4 elements, x*x = 0
    r = poly_quotient(2, [0, 0, 1])
    assert r.size == 4
    x = 2  # digits (0,1)
    assert r.mul(x, x) == 0
    assert r.mul(x, r.one) == x


def test_square_zero_ring():
    r = square_zero(2, 2)
    assert r.size == 8
    x, y = 2, 4
    assert r.mul(x, x) == 0
    assert r.mul(x, y) == 0
    assert r.mul(y, y) == 0
    assert r.add(x, y) == 6


def test_build_ring_grammar():
    assert build_ring({"zmod": 12}).size == 12
    assert build_ring({"product": [{"zmod": 2}, {"zmod": 2}]}).size == 4
    assert build_ring({"polyquot": {"p": 2, "f": [0, 0, 1]}}).size == 4
    assert build_ring({"squarezero": {"p": 2, "k": 2}}).size == 8


def test_construction_errors():
    with pytest.raises(InvalidModulus):
        zmod(1)
    with pytest.raises(SizeCapExceeded):
        zmod(300)
    with pytest.raises(SizeCapExceeded):
        zmod(20, cap=16)
    with pytest.raises(NonMonicPolynomial):
        poly_quotient(2, [1, 2])  # leading coeff 0 mod 2
    with pytest.raises(NonMonicPolynomial):
        poly_quotient(2, [1])
    with pytest.raises(InvalidModulus):
        poly_quotient(4, [0, 0, 1])
    with pytest.raises(ValueError):
        build_ring({"nonsense": 1})


@pytest.mark.parametrize("term", ring_catalog(12))
def test_ring_axioms_hold(term):
    assert ring_axiom_report(build_ring(term)) == []


# -- ideal arithmetic --------------------------------------------------------


def test_ideal_from_generators_oracle(z12):
    # oracle: all linear combinations r*4
    assert ideal_by_linear_combinations(z12, [4]) == frozenset({0, 4, 8})
    assert ideal_of(z12, 4).elements == frozenset({0, 4, 8})

    assert ideal_of(z12).elements == frozenset({0})

    combos = ideal_by_linear_combinations(z12, [4, 6])
    assert combos == frozenset({0, 2, 4, 6, 8, 10})
    assert ideal_of(z12, 4, 6).elements == combos


def test_ideal_sum_product_intersect(z12):
    i4, i6 = ideal_of(z12, 4), ideal_of(z12, 6)
    assert ideal_sum(i4, i6).elements == ideal_of(z12, 2).elements
    i3 = ideal_of(z12, 3)
    assert ideal_product(i3, i4).elements == frozenset({0})
    i2 = ideal_of(z12, 2)
    assert ideal_intersect(i2, i3).elements == frozenset({0, 6})


def test_ring_mismatch_raises(z12):
    other = zmod(6)
    with pytest.raises(RingMismatch):
        ideal_sum(ideal_of(z12, 2), ideal_of(other, 2))


def test_colon_examples(z12):
    i6, i3 = ideal_of(z12, 6), ideal_of(z12, 3)
    # oracle recomputation
    assert colon_by_scan(z12, i6.elements, i3.elements) == frozenset({0, 2, 4, 6, 8, 10})
    assert colon(i6, i3).elements == frozenset({0, 2, 4, 6, 8, 10})

    assert colon(zero_ideal(z12), unit_ideal(z12)).elements == frozenset({0})

    i4 = ideal_of(z12, 4)
    assert colon_by_scan(z12, frozenset({0}), i4.elements) == frozenset({0, 3, 6, 9})
    assert annihilator(i4).elements == frozenset({0, 3, 6, 9})
    assert colon_element(zero_ideal(z12), 4).elements == frozenset({0, 3, 6, 9})


def test_enumerate_ideals_z12_against_scan(z12):
    ideals = enumerate_ideals(z12)
    assert len(ideals) == 6
    assert {i.elements for i in ideals} == all_ideals_by_subset_scan(z12)
    # sorted by cardinality then lexicographic
    cards = [len(i.elements) for i in ideals]
    assert cards == sorted(cards)


def test_enumerate_ideals_klein_and_field():
    r = product_ring(zmod(2), zmod(2))
    assert len(enumerate_ideals(r)) == 4
    f5 = zmod(5)
    assert len(enumerate_ideals(f5)) == 2


def test_minimal_generators(z12):
    assert minimal_generators(ideal_of(z12, 2)) == (2,)
    assert minimal_generators(zero_ideal(z12)) == ()
    r = square_zero(2, 2)
    m = ideal_from_generators(r, [2, 4])  # (x, y): needs two generators
    assert len(minimal_generators(m)) == 2


def test_ideal_labels(z12):
    assert ideal_of(z12, 4).label == "(4)"
    assert zero_ideal(z12).label == "(0)"
    assert unit_ideal(z12).label == "(1)"


# -- spectrum ----------------------------------------------------------------


def test_spectrum_z12(z12):
    primes = {p.elements for p in prime_spectrum(z12)}
    assert primes == {ideal_of(z12, 2).elements, ideal_of(z12, 3).elements}


def test_spectrum_poly_and_field():
    r = poly_quotient(2, [0, 0, 1])
    primes = prime_spectrum(r)
    assert len(primes) == 1
    assert primes[0].elements == ideal_from_generators(r, [2]).elements  # (x)
    f5 = zmod(5)
    assert [p.elements for p in prime_spectrum(f5)] == [frozenset({0})]


def test_primes_have_no_zero_divisors(z12):
    for p in prime_spectrum(z12):
        outside = [a for a in z12.elements() if a not in p.elements]
        assert all(z12.mul(a, b) not in p.elements for a in outside for b in outside)


# -- quotients, maps, local decomposition ------------------------------------


def test_quotient_ring_z12_mod_6(z12):
    q, proj = quotient_ring(z12, ideal_of(z12, 6))
    assert q.size == 6
    assert ring_axiom_report(q) == []
    assert proj.is_surjective_hom()


def test_identity_map_is_hom(z12):
    assert identity_map(z12).is_surjective_hom()


def test_local_decomposition_z12(z12):
    factors = local_decomposition(z12)
    assert [f.size for f, _ in factors] == [4, 3]
    total = 1
    for f, proj in factors:
        total *= f.size
        assert proj.is_surjective_hom()
    assert total == z12.size


def test_local_decomposition_already_local():
    z8 = zmod(8)
    factors = local_decomposition(z8)
    assert len(factors) == 1
    assert factors[0][0] is z8


def test_local_decomposition_z6():
    z6 = zmod(6)
    assert [f.size for f, _ in local_decomposition(z6)] == [2, 3]


def test_local_decomposition_is_isomorphism(z12):
    # combined map r -> (f1(r), f2(r)) is bijective and a homomorphism
    factors = local_decomposition(z12)
    images = {tuple(proj.mapping[x] for _, proj in factors) for x in z12.elements()}
    assert len(images) == z12.size


def test_localize_at_prime(z12):
    p2 = ideal_of(z12, 2)
    factor, _ = localize_at_prime(z12, p2)
    assert factor.size == 4
    p3 = ideal_of(z12, 3)
    factor3, _ = localize_at_prime(z12, p3)
    assert factor3.size == 3
    with pytest.raises(NotPrime):
        localize_at_prime(z12, ideal_of(z12, 6))


# -- lattice closure invariants ----------------------------------------------


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_ideal_list_closed_under_arithmetic(n):
    r = zmod(n)
    ideals = enumerate_ideals(r)
    sets = {i.elements for i in ideals}
    for i in ideals:
        for j in ideals:
            si, sj = i.elements, j.elements
            assert ideal_sum(i, j).elements == additive_closure_by_scan(r, si | sj)
            assert ideal_product(i, j).elements in sets
            assert ideal_intersect(i, j).elements == si & sj
            assert colon(i, j).elements == colon_by_scan(r, si, sj)


@pytest.mark.parametrize("term", ring_catalog(8), ids=lambda t: build_ring(t).label)
def test_colons_match_scan_on_catalog(term):
    # colon, colon_element, annihilator and principal_ideal read the ideal
    # lattice's tables; the oracles multiply out every pair of elements
    r = build_ring(term)
    ideals = enumerate_ideals(r)
    zero = frozenset({r.zero})
    for x in range(r.size):
        assert principal_ideal(r, x).elements == ideal_by_linear_combinations(r, [x])
    for i in ideals:
        assert annihilator(i).elements == colon_by_scan(r, zero, i.elements)
        for b in range(r.size):
            assert colon_element(i, b).elements == colon_by_scan(r, i.elements, frozenset({b}))
        for j in ideals:
            assert colon(i, j).elements == colon_by_scan(r, i.elements, j.elements)


def test_principal_ideal_cached(z12):
    assert principal_ideal(z12, 4) is principal_ideal(z12, 4)


def test_ring_catalog_sizes():
    terms = ring_catalog(12)
    rings = [build_ring(t) for t in terms]
    assert all(r.size <= 12 for r in rings)
    assert {"zmod": 12} in terms
    assert {"squarezero": {"p": 2, "k": 2}} in terms
    # catalog is deterministic
    assert terms == ring_catalog(12)


def test_non_subobject_operand_is_invalid_argument():
    ring = zmod(6)
    bad = Ideal(ring, frozenset({1}))
    for op in (colon, ideal_sum, ideal_intersect, ideal_product):
        with pytest.raises(InvalidArgument, match=r"^\[1\] is not an ideal of Z/6$"):
            op(bad, unit_ideal(ring))
        with pytest.raises(InvalidArgument, match=r"^\[1\] is not an ideal of Z/6$"):
            op(unit_ideal(ring), bad)
    with pytest.raises(InvalidArgument, match=r"^\[0, 1\] is not a submodule of Z/6$"):
        tfg_certificate(free_module(ring, 1), frozenset({0, 1}), trivial_filter(ring))
