"""Ring kernel: constructions, ideal arithmetic, spectra, local factors."""

from __future__ import annotations

import pytest

from torsionlab import rings
from torsionlab.errors import (
    InvalidArgument,
    InvalidModulus,
    NonMonicPolynomial,
    NotPrime,
    RingMismatch,
    SizeCapExceeded,
    TheoremViolation,
)
from torsionlab.filters import trivial_filter
from torsionlab.modules import free_module, submodule_lattice
from torsionlab.noether import tfg_certificate
from torsionlab.rings import (
    Ideal,
    RingMap,
    SubobjectLattice,
    annihilator,
    build_ring,
    colon,
    colon_element,
    enumerate_ideals,
    ideal_from_generators,
    ideal_intersect,
    ideal_lattice,
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
    alarm,
    all_ideals_by_subset_scan,
    colon_by_scan,
    ideal_by_linear_combinations,
    is_surjective_hom_by_entries,
    join_closure_unpruned,
    primes_by_zero_divisor_scan,
    quotient_by_entries,
    ring_by_entries,
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


# rings at or near the size cap of 256
_CAP_RINGS = [
    {"polyquot": {"p": 2, "f": [0] * 8 + [1]}},
    {"polyquot": {"p": 3, "f": [1, 2, 0, 0, 0, 1]}},
    {"polyquot": {"p": 5, "f": [2, 0, 1]}},
    {"product": [{"zmod": 16}, {"zmod": 16}]},
    {"product": [{"polyquot": {"p": 2, "f": [0, 0, 0, 1]}}, {"zmod": 12}]},
    {"squarezero": {"p": 2, "k": 7}},
]


@pytest.mark.parametrize("term", ring_catalog(16) + _CAP_RINGS, ids=str)
def test_ring_tables_match_entrywise_oracle(term):
    # the constructors compose whole rows; the oracle fills one entry at a
    # time by digit vectors, divmod and polynomial convolution
    ring, oracle = build_ring(term), ring_by_entries(term)
    assert ring._add == oracle._add
    assert ring._mul == oracle._mul
    assert ring._neg == [next(b for b in range(ring.size) if ring.add(a, b) == 0)
                         for a in range(ring.size)]
    assert (ring.one, ring.label) == (oracle.one, oracle.label)
    assert [ring.elem_label(a) for a in range(ring.size)] == [
        oracle.elem_label(a) for a in range(ring.size)
    ]


@pytest.mark.parametrize("term", ring_catalog(16), ids=str)
def test_quotient_tables_match_entrywise_oracle(term):
    ring = build_ring(term)
    for ideal in enumerate_ideals(ring):
        quotient, proj = quotient_ring(ring, ideal)
        add, mul, mapping = quotient_by_entries(ring, ideal.elements)
        assert (quotient._add, quotient._mul, list(proj.mapping)) == (add, mul, mapping)
        assert quotient.one == mapping[ring.one]


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
    with pytest.raises(InvalidModulus):  # a modulus within the cap is tested for primality first
        square_zero(16, 1, cap=16)
    with pytest.raises(SizeCapExceeded, match="of size 169 exceeds cap 16"):
        poly_quotient(13, [0, 0, 1], cap=16)
    with pytest.raises(ValueError):
        build_ring({"nonsense": 1})


@pytest.mark.parametrize(
    "build, shape", [(poly_quotient, [0, 1]), (square_zero, 1)], ids=["polyquot", "squarezero"]
)
def test_modulus_past_the_cap_is_rejected_before_trial_division(build, shape):
    # the ring has at least p elements; trial division of the prime 2^61 - 1
    # would take about 1.5e9 steps, and the alarm turns that hang into a failure
    with alarm(5, f"{build.__name__} on 2^61 - 1"):
        with pytest.raises(SizeCapExceeded, match="at least 2305843009213693951 elements"):
            build(2**61 - 1, shape)
    with pytest.raises(SizeCapExceeded):
        build(18, shape, cap=16)  # not prime, yet past the cap


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

    # on every catalog ring, for no, one or two generators, the result is the
    # lattice's own Ideal and holds exactly the linear combinations
    for ring in map(build_ring, ring_catalog(12)):
        ideals = enumerate_ideals(ring)
        elems = range(ring.size)
        for gens in [[]] + [[x] for x in elems] + [[x, y] for x in elems for y in elems if x < y]:
            got = ideal_from_generators(ring, gens)
            assert any(got is ideal for ideal in ideals)
            assert got.elements == ideal_by_linear_combinations(ring, gens)

    # the first generator outside the ring is the one named
    with pytest.raises(InvalidArgument, match="^12 is not an element of Z/12$"):
        ideal_from_generators(z12, [4, 12, -1])


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


def test_spectrum_matches_zero_divisor_scan():
    # the primes are read off as the maximal proper ideals; the scan tests
    # every proper ideal for zero divisors outside it, on each catalog ring
    # and on each of its local factors
    for term in ring_catalog(16):
        ring = build_ring(term)
        for r in [ring] + [factor for factor, _ in local_decomposition(ring)]:
            assert [p.elements for p in prime_spectrum(r)] == primes_by_zero_divisor_scan(r)


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


def test_surjective_hom_rows_match_entrywise_check():
    for term in ring_catalog(12):
        ring = build_ring(term)
        for ring_map in [identity_map(ring)] + [proj for _, proj in local_decomposition(ring)]:
            assert ring_map.is_surjective_hom() is is_surjective_hom_by_entries(ring_map) is True
    # one wrong entry: Z/12 -> Z/4 sending 5 to 2 instead of 1
    _, proj = local_decomposition(zmod(12))[0]
    wrong = RingMap(proj.source, proj.target, proj.mapping[:5] + (2,) + proj.mapping[6:])
    assert wrong.is_surjective_hom() is is_surjective_hom_by_entries(wrong) is False
    # the diagonal Z/2 -> Z/2 x Z/2, a -> (a, a), is a ring map but not onto
    z2 = zmod(2)
    diagonal = RingMap(z2, product_ring(z2, z2), (0, 3))
    assert diagonal.is_surjective_hom() is is_surjective_hom_by_entries(diagonal) is False


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


def test_enumeration_matches_unpruned_join_closure():
    # the engine splits by idempotents and skips sums it already formed; the
    # oracle sums every sub-object found with every cyclic one, on the whole
    # carrier
    lattices = [
        submodule_lattice(free_module(build_ring(term), rank))
        for term in ring_catalog(16) for rank in (1, 2)
    ]
    lattices.append(ideal_lattice(square_zero(2, 6)))
    for lat in lattices:
        unpruned = join_closure_unpruned(lat, range(lat.size))
        assert len(lat.sets) == len(unpruned) and set(lat.sets) == unpruned


def test_join_closure_matches_unpruned():
    # the closure itself on the whole carrier, with no idempotent split:
    # nested sums and skipped sums give the sub-objects the oracle finds
    lattices = [ideal_lattice(build_ring(term)) for term in ring_catalog(12)]
    lattices += [submodule_lattice(free_module(build_ring(term), 2)) for term in ring_catalog(8)]
    lattices.append(ideal_lattice(square_zero(2, 6)))
    assert len(lattices[-1].sets) == 2826
    for lat in lattices:
        scope = range(lat.size)
        assert lat._join_closure(scope) == join_closure_unpruned(lat, scope), lat.kind


def test_join_closure_skips_known_sums(monkeypatch):
    # sums formed inside _join_closure while A and A^2 of ring_catalog(10)
    # are built: 4,871 without the skip, 1,577 with it, and 1,138 once a
    # cyclic C holding U is taken as U + C with no sum formed
    calls = [0]
    inside = [False]
    subgroup_sum, join_closure = rings._subgroup_sum, SubobjectLattice._join_closure

    def counted_sum(*args):
        calls[0] += inside[0]
        return subgroup_sum(*args)

    def counted_closure(self, scope):
        inside[0] = True
        try:
            return join_closure(self, scope)
        finally:
            inside[0] = False

    monkeypatch.setattr(rings, "_subgroup_sum", counted_sum)
    monkeypatch.setattr(SubobjectLattice, "_join_closure", counted_closure)
    for ring in map(build_ring, ring_catalog(10)):
        for rank in (1, 2):
            submodule_lattice(free_module(ring, rank))
    assert 0 < calls[0] <= 1138


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


@pytest.mark.parametrize("b", [-1, 6])
def test_colon_element_rejects_non_elements(b):
    # neither wraps around to (0 : 5) nor escapes as a bare IndexError
    with pytest.raises(InvalidArgument, match=rf"^{b} is not an element of Z/6$"):
        colon_element(zero_ideal(zmod(6)), b)


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
    # A over itself reads the ring's ideal lattice, so its operands are ideals
    with pytest.raises(InvalidArgument, match=r"^\[0, 1\] is not an ideal of Z/6$"):
        tfg_certificate(free_module(ring, 1), frozenset({0, 1}), trivial_filter(ring))
    with pytest.raises(InvalidArgument, match=r"^\[0, 1\] is not a submodule of Z/6\^2$"):
        tfg_certificate(free_module(ring, 2), frozenset({0, 1}), trivial_filter(ring))


def test_closure_under_a_non_filter_is_theorem_violation():
    # Z/6 has the ideals 0, (3), (2), (1) at indices 0 to 3; the member set
    # {(3)} is no filter, and the x with (0 : x) = (3) are 2 and 4, which
    # miss 0: the closure of 0 is no ideal, an internal fault, not bad input
    lat = ideal_lattice(zmod(6))
    with pytest.raises(
        TheoremViolation,
        match=r"^closure of sub-object 0 is not an ideal of Z/6: the member indices \[1\] ",
    ):
        lat.closure(lat.zero, frozenset({1}))
