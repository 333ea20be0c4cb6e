"""Module carriers and submodule lattices."""

from __future__ import annotations

import re
import signal

import pytest

from torsionlab.errors import InvalidArgument, NotASubmodule, TheoremViolation
from torsionlab.filters import closure, enumerate_gabriel_filters, lambda_filter
from torsionlab.modules import (
    FiniteModule,
    SubmoduleLattice,
    free_module,
    is_submodule,
    span,
    submodule_lattice,
)
from torsionlab.noether import upper_closure
from torsionlab.rings import (
    SubobjectLattice,
    _subgroup_sum,
    build_ring,
    enumerate_ideals,
    ideal_lattice,
    local_decomposition,
    minimal_generators,
    product_ring,
    ring_catalog,
    zmod,
)

from .helpers import (
    addition_table,
    additive_closure_by_scan,
    closure_by_scan,
    cosets_by_scan,
    generator_count_by_nakayama,
    greedy_generators_by_scan,
    maximal_by_scan,
    module_sum_by_scan,
    pair_colon_by_scan,
    scalar_table,
    subquotient,
)


@pytest.fixture(scope="module")
def z12():
    return zmod(12)


def test_free_rank_one_matches_ring(z12):
    m = free_module(z12, 1)
    assert m.size == 12
    # coset of (x,) gets index x because cosets sort by representative
    assert m.add_elem(4, 9) == 1
    assert m.scalar(3, 5) == 3


def test_free_rank_two_arithmetic(z12):
    m = free_module(z12, 2)
    assert m.size == 144
    i = m._coset_of[(1, 2)]
    j = m._coset_of[(3, 4)]
    assert m.reps[m.add_elem(i, j)] == (4, 6)
    assert m.reps[m.scalar(2, i)] == (2, 4)


def test_span(z12):
    m = free_module(z12, 1)
    assert span(m, [4]) == frozenset({0, 4, 8})
    assert span(m, []) == frozenset({0})
    assert span(m, [4, 6]) == frozenset({0, 2, 4, 6, 8, 10})


@pytest.mark.parametrize("x", [-1, 4])
def test_element_arguments_are_range_checked(x):
    # a negative index must not wrap around to the last element, and a
    # rejected one must leave no orbit row behind; A's orbit rows are the
    # ring's multiplication table, so the module is A^2 over Z/2, of size 4,
    # whose rows are built on first read
    m = free_module(zmod(2), 2)
    with pytest.raises(InvalidArgument, match=rf"^{x} is not an element of {re.escape(m.label)}$"):
        span(m, [x])
    assert not m.orbit_rows


def test_lattice_rank_one_matches_ideals():
    # The rank-1 coset index is the element index, so the ideal lattice (ring
    # tables) and a lattice of A built explicitly on rows of element
    # arithmetic (module.add_elem and module.scalar, one call per entry) must
    # agree index for index on every operation of the shared engine.
    for term in ring_catalog(12):
        ring = build_ring(term)
        rl = ideal_lattice(ring)
        a = free_module(ring, 1)
        orbit = [list(col) for col in zip(*scalar_table(a))]  # orbit[x][b] = b*x
        lat = SubobjectLattice(ring, a.size, addition_table(a), orbit, rl, "a submodule of A")
        assert lat.submodules == rl.sets
        assert [i.elements for i in enumerate_ideals(ring)] == list(rl.sets)
        n = rl.n
        assert [lat.upset(i) for i in range(n)] == [rl.upset(i) for i in range(n)]
        assert lat.inclusion_pairs() == rl.inclusion_pairs()
        assert lat.covers() == rl.covers()
        for i in range(n):
            assert lat.colon_row(i) == rl.colon_row(i)
            assert lat.min_gens(i) == rl.min_gens(i) == minimal_generators(rl.ideals[i])
            for j in range(n):
                assert lat.pair_colon(i, j) == rl.pair_colon(i, j)
                assert lat.sum(i, j) == rl.sum(i, j)
                assert lat.prod(i, j) == rl.prod(i, j)
                si, sj = rl.sets[i], rl.sets[j]
                assert rl.sets[rl.sum(i, j)] == additive_closure_by_scan(ring, si | sj)
                products = {ring.mul(a, b) for a in si for b in sj}
                assert rl.sets[rl.prod(i, j)] == additive_closure_by_scan(ring, products)
        families = [list(range(n)), [i for i in range(n) if i != rl.top]]
        families += [[j for j in range(n) if not rl.leq(i, j)] for i in range(n)]
        for fam in families:
            assert lat.maximal(fam) == rl.maximal(fam)
            by_scan = maximal_by_scan([rl.sets[i] for i in fam])
            assert [rl.sets[i] for i in rl.maximal(fam)] == by_scan
        for sigma in enumerate_gabriel_filters(ring):
            members = sigma.member_indices()
            member_sets = {a.elements for a in sigma.members}
            for i in range(n):
                assert lat.closure(i, members) == rl.closure(i, members)
                by_scan = closure_by_scan(ring, rl.sets[i], member_sets)
                assert rl.sets[rl.closure(i, members)] == by_scan
    assert submodule_lattice(free_module(zmod(12), 1)).n == 6


def test_lattice_of_a_is_the_ideal_lattice():
    # A over itself has its ideals as submodules, so its lattice is the
    # ring's one ideal lattice; A^2 and a rank-1 module that is not the
    # cached A keep lattices of their own
    for term in ring_catalog(16):
        ring = build_ring(term)
        assert submodule_lattice(free_module(ring, 1)) is ideal_lattice(ring)
        assert type(submodule_lattice(free_module(ring, 2))) is SubmoduleLattice
    ring = zmod(6)
    other = subquotient(free_module(ring, 1), range(6), {0}, "Z/6")
    assert type(submodule_lattice(other)) is SubmoduleLattice
    assert submodule_lattice(other).sets == ideal_lattice(ring).sets


def test_reports_build_one_coset_lattice_per_ring(monkeypatch):
    # a sweep builds a coset-row lattice for A^2 only: one per ring, and one
    # per local factor of a ring with two or more, whose A^2 lattice the
    # quotient-transfer tables read; a certificate on A builds none
    from torsionlab import cli

    factor_counts = [len(local_decomposition(build_ring(term))) for term in ring_catalog(10)]
    expected = sum(1 + (k if k > 1 else 0) for k in factor_counts)

    built = []
    init = SubmoduleLattice.__init__

    def counted(self, module):
        built.append(module.label)
        init(self, module)

    monkeypatch.setattr(SubmoduleLattice, "__init__", counted)
    report, code = cli.execute({"task": "suite", "params": {"sweep_max_size": 10}})
    assert code == 0 and len(built) == expected == 39
    assert all(label.endswith("^2") for label in built)
    built.clear()
    _, code = cli.execute({
        "task": "certify", "ring": {"zmod": 12}, "filter": {"mult_set": [1, 3, 9]},
        "params": {"ideal_gens": [4]},
    })
    assert code == 0 and built == []


def test_sweep_builds_no_rows_for_nested_sums(monkeypatch):
    # of the 3,280 sums the size <= 10 sweep forms, 1,427 have one operand
    # inside the other, and such a sum is that operand, returned with no
    # row read; reading a row per coset representative for them built 784
    # of the A^2 lattices' addition rows, 1,234 in all
    from torsionlab import cli

    built = [0]
    init = FiniteModule.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.rank == 2:
            build = self.add_rows._build

            def counted_build(w):
                built[0] += 1
                return build(w)

            self.add_rows._build = counted_build

    monkeypatch.setattr(FiniteModule, "__init__", counted_init)
    report, code = cli.execute({"task": "suite", "params": {"sweep_max_size": 10}})
    assert code == 0 and built[0] == 450


def test_subgroup_sum_matches_scan():
    # every pair of submodules of A and A^2, nested or not
    for term in ring_catalog(6):
        ring = build_ring(term)
        for rank in (1, 2):
            module = free_module(ring, rank)
            subs = submodule_lattice(module).sets
            for s in subs:
                for t in subs:
                    assert _subgroup_sum(module.add_rows, s, t) == module_sum_by_scan(module, s, t)


def test_nested_subgroup_sum_is_the_larger_operand():
    # U <= C makes U + C = C, and C itself comes back with no row read: the
    # empty table raises KeyError on any read
    for term in ring_catalog(8):
        ring = build_ring(term)
        for rank in (1, 2):
            lat = submodule_lattice(free_module(ring, rank))
            for i, j in lat.inclusion_pairs():
                u, c = lat.sets[i], lat.sets[j]
                assert _subgroup_sum({}, u, c) is c and _subgroup_sum({}, c, u) is c
    # a span's first cyclic submodule is summed onto (0), so it reads no row
    module = free_module(zmod(6), 2)
    assert span(module, [5]) == frozenset(module.orbit_rows[5])
    assert not module.add_rows


def test_free_module_cosets_match_scan():
    # relations {0} make each vector its own coset, so a free module skips
    # the coset scan; a quotient by a nonzero submodule still runs it
    for term in ring_catalog(10):
        ring = build_ring(term)
        for rank in (1, 2):
            m = free_module(ring, rank)
            expected = cosets_by_scan(ring, m.carrier_u, m.carrier_v)
            assert (m.reps, m._coset_of, m.elements) == expected, (m.label, rank)
    ring = zmod(8)
    a2 = free_module(ring, 2)
    quo = subquotient(a2, range(a2.size), {0, a2.scalar(4, 1)}, "A^2/4e")
    assert quo.size == 32
    assert (quo.reps, quo._coset_of, quo.elements) == cosets_by_scan(
        ring, quo.carrier_u, quo.carrier_v
    )


def test_direct_construction_checks_its_carriers():
    ring = zmod(4)
    zero, two = frozenset({(0,)}), frozenset({(0,), (2,)})
    with pytest.raises(NotASubmodule, match=r"^carrier is not a submodule of A\^1$"):
        FiniteModule(ring, 1, frozenset({(0,), (1,)}), zero, "M")
    everything = frozenset((x,) for x in range(4))
    with pytest.raises(NotASubmodule, match=r"^relations are not contained in the carrier$"):
        FiniteModule(ring, 1, two, everything, "M")
    assert FiniteModule(ring, 1, two, zero, "M").size == 2


def test_colon_matrix_matches_scan():
    # Every entry of the colon matrix, and pair_colon, against a raw scan of
    # a*y over all a and all y in N_j; then upper closures (each single
    # submodule, all of them, every other one) against a scan of every
    # submodule H for some (N : H) in the filter.
    for term in ring_catalog(10):
        ring = build_ring(term)
        rl = ideal_lattice(ring)
        filters = enumerate_gabriel_filters(ring)
        for rank in (1, 2):
            module = free_module(ring, rank)
            lat = submodule_lattice(module)
            cm = lat.colon_matrix()
            scan = {}
            for i, si in enumerate(lat.sets):
                for j, sj in enumerate(lat.sets):
                    scan[i, j] = pair_colon_by_scan(module, si, sj)
                    assert rl.sets[cm[i][j]] == scan[i, j]
                    assert lat.pair_colon(i, j) == cm[i][j]
            for sigma in filters:
                member_sets = {a.elements for a in sigma.members}
                families = [[i] for i in range(lat.n)]
                families += [list(range(lat.n)), list(range(0, lat.n, 2))]
                for fam in families:
                    by_scan = tuple(
                        sj for j, sj in enumerate(lat.sets)
                        if any(scan[i, j] in member_sets for i in fam)
                    )
                    assert upper_closure(module, [lat.sets[i] for i in fam], sigma) == by_scan


def test_rank_two_sums_and_maxima_match_scans():
    # Every entry of the sum matrix of A^2 against the sums a + b by
    # add_elem, and the mask-based maximal against a subset scan, on the
    # families of test_lattice_rank_one_matches_ideals (which checks A).
    for term in ring_catalog(10):
        ring = build_ring(term)
        module = free_module(ring, 2)
        lat = submodule_lattice(module)
        sm = lat.sum_matrix()
        for i, si in enumerate(lat.sets):
            for j in range(i, lat.n):
                assert lat.sets[sm[i][j]] == module_sum_by_scan(module, si, lat.sets[j])
                assert sm[j][i] == sm[i][j] == lat.sum(i, j)
        n = lat.n
        families = [list(range(n)), [i for i in range(n) if i != lat.top]]
        families += [[j for j in range(n) if not lat.leq(i, j)] for i in range(n)]
        for fam in families:
            by_scan = maximal_by_scan([lat.sets[i] for i in fam])
            assert [lat.sets[i] for i in lat.maximal(fam)] == by_scan


@pytest.mark.parametrize("rank", [1, 2])
def test_mask_engine_matches_element_scans(rank):
    # The engine's mask arithmetic against element sets: each colon row
    # entry (N_i : x) against a scan of a*x, each meet against the set
    # intersection, each order bit against set inclusion, each closure
    # against the x whose scanned colon is a filter member, and the greedy
    # generators against spans built by add_elem and scalar.
    for term in ring_catalog(10):
        ring = build_ring(term)
        module = free_module(ring, rank)
        lat = submodule_lattice(module)
        rl, sets, up = lat.ring_lattice, lat.sets, lat.up_masks()
        elems = range(module.size)
        colons = [
            [frozenset(a for a, row in enumerate(scalar_table(module)) if row[x] in s)
             for x in elems]
            for s in sets
        ]
        for i, si in enumerate(sets):
            assert [rl.sets[c] for c in lat.colon_row(i)] == colons[i]
            assert lat.min_gens(i) == greedy_generators_by_scan(module, si)
            assert lat.upset(i) == tuple(j for j, sj in enumerate(sets) if si <= sj)
            for j, sj in enumerate(sets):
                assert sets[lat.inter(i, j)] == si & sj
                assert lat.leq(i, j) == bool(up[i] >> j & 1) == (si <= sj)
        for sigma in enumerate_gabriel_filters(ring):
            members = sigma.member_indices()
            member_sets = {a.elements for a in sigma.members}
            for i in range(lat.n):
                by_scan = frozenset(x for x in elems if colons[i][x] in member_sets)
                assert sets[lat.closure(i, members)] == by_scan


def test_greedy_gens_raise_when_the_join_stalls():
    # planted: the cyclic index and mask of every x are taken from the last
    # sub-object holding x (the whole carrier) instead of the first, so the
    # first greedy step overshoots N_1 and the next join cannot grow; the
    # guard must raise instead of looping, and the alarm turns a hang into a
    # failure
    lat = SubmoduleLattice(free_module(zmod(6), 1))
    lat.cyclic = [
        next(i for i in reversed(range(lat.n)) if lat.masks[i] >> x & 1) for x in range(lat.size)
    ]
    lat.cyclic_masks = [lat.masks[i] for i in lat.cyclic]

    def hang(signum, frame):
        raise TimeoutError("greedy generators did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(TheoremViolation, match="stall"):
            lat.min_gens(1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_greedy_gens_raise_when_no_element_is_left():
    # planted: the whole carrier A = Z/6 leaves the up-set of 0, so the join
    # 0 + A finds no common upper bound and every element then counts as
    # reached; the guard must raise, not return -1 as a generator, which a
    # certificate check once reported as bad input (exit 2)
    lat = SubmoduleLattice(free_module(zmod(6), 1))
    lat.up_masks()[lat.zero] ^= 1 << lat.top
    with pytest.raises(TheoremViolation, match="stall"):
        lat.min_gens(lat.top)


@pytest.mark.parametrize("rank", [1, 2])
def test_min_gens_count_is_nakayama_rank(rank):
    # the greedy generator count is the least one, mu(N), for every
    # submodule N of A and A^2 over the size <= 16 catalog
    for term in ring_catalog(16):
        ring = build_ring(term)
        ideals = [i.elements for i in enumerate_ideals(ring)]
        maximal_ideals = maximal_by_scan([s for s in ideals if len(s) < ring.size])
        module = free_module(ring, rank)
        lat = submodule_lattice(module)
        for i, sub in enumerate(lat.sets):
            mu = generator_count_by_nakayama(module, sub, maximal_ideals)
            assert len(lat.min_gens(i)) == mu, (ring.label, rank, sorted(sub))


def test_rows_match_element_arithmetic():
    # The lattice engine reads addition rows add[w][x] (x + w) and orbit rows
    # orbit[x][a] (a*x); every entry must equal the coset of the sum or
    # multiple of the representatives, taken coordinate by coordinate with
    # the ring's own add and mul.
    for term in ring_catalog(8):
        ring = build_ring(term)
        rl = ideal_lattice(ring)
        assert rl._add is ring._add and rl._orbit is ring._mul
        a1, a2 = free_module(ring, 1), free_module(ring, 2)
        assert a1.add_rows is ring._add and a1.orbit_rows is ring._mul
        lat = submodule_lattice(a2)
        assert lat._add is a2.add_rows and lat._orbit is a2.orbit_rows
        mid = lat.submodules[lat.n // 2]
        assert 0 < lat.n // 2 < lat.top
        quo = subquotient(a2, range(a2.size), mid, "A^2/N")
        modules = [free_module(ring, 0), a1, a2, quo, subquotient(a2, mid, {0}, "N")]
        proper = [i for i in enumerate_ideals(ring) if 1 < len(i.elements) < ring.size]
        if proper:
            modules.append(subquotient(a1, proper[0].elements, {0}, proper[0].label))
        for m in modules:
            for w in range(m.size):
                expected = [
                    m._coset_of[tuple(map(ring.add, m.reps[x], m.reps[w]))]
                    for x in range(m.size)
                ]
                assert m.add_rows[w] == expected, (m.label, w)
            for x in range(m.size):
                expected = [
                    m._coset_of[tuple(ring.mul(a, c) for c in m.reps[x])]
                    for a in range(ring.size)
                ]
                assert m.orbit_rows[x] == expected, (m.label, x)


def test_element_level_code_builds_no_rows():
    ring = build_ring({"zmod": 8})
    m = free_module(ring, 2)
    quo = subquotient(m, range(m.size), {0, m.scalar(4, 1)}, "A^2/4e")
    for module in (m, quo):
        for sub in (frozenset({0}), frozenset(range(module.size))):
            assert is_submodule(module, sub)
            closure(module, sub, lambda_filter(ring))
        module.add_elem(1, 2), module.scalar(3, 1)
        assert not module.add_rows and not module.orbit_rows
        assert not module._code_of


@pytest.mark.parametrize("rank", [1, 2])
def test_lattice_splits_over_local_factors(rank):
    # Chinese remainder theorem: over a ring with local factors A_1..A_r, a
    # submodule of A^rank is determined by its coordinatewise images in the
    # A_f^rank, and every tuple of submodules of the factors arises.  The
    # factor lattices are local, so this checks the idempotent split of the
    # enumeration against the plain join closure.
    carriers = 0
    for term in ring_catalog(12):
        ring = build_ring(term)
        factors = local_decomposition(ring)
        if len(factors) < 2:
            continue
        carriers += 1
        module = free_module(ring, rank)
        lat = submodule_lattice(module)
        keys = []
        product = 1
        for factor, proj in factors:
            target = free_module(factor, rank)
            flat = submodule_lattice(target)
            index_of = {rep: i for i, rep in enumerate(target.reps)}
            image = [
                index_of[tuple(proj.mapping[x] for x in rep)] for rep in module.reps
            ]
            keys.append(
                [flat.index[frozenset(image[x] for x in sub)] for sub in lat.submodules]
            )
            product *= flat.n
        # injective, and as many submodules as tuples: a bijection
        assert len(set(zip(*keys))) == lat.n == product
    assert carriers == 12


def test_lattice_rank_one_product_ring():
    r = product_ring(zmod(2), zmod(2))
    lat = submodule_lattice(free_module(r, 1))
    assert lat.n == 4


def test_lattice_all_closed(z12):
    m = free_module(z12, 2)
    lat = submodule_lattice(m)
    for s in lat.submodules:
        assert is_submodule(m, s)


def test_lattice_contains_random_spans(z12):
    # every span of a small generating set must appear in the lattice
    m = free_module(z12, 2)
    lat = submodule_lattice(m)
    gens_list = [(1,), (5, 17), (30, 77), (m.size - 1,), (13, 26, 39)]
    for gens in gens_list:
        assert span(m, gens) in lat.index


def test_pair_colon(z12):
    m = free_module(z12, 1)
    lat = submodule_lattice(m)
    rl = lat.ring_lattice
    i6 = lat.idx(frozenset({0, 6}))
    i2 = lat.idx(frozenset({0, 2, 4, 6, 8, 10}))
    got = rl.ideals[lat.pair_colon(i6, i2)]
    assert got.elements == frozenset({0, 3, 6, 9})


def test_min_gens(z12):
    m = free_module(z12, 2)
    lat = submodule_lattice(m)
    full = lat.top
    assert len(lat.min_gens(full)) == 2
    assert lat.min_gens(lat.zero) == ()


def test_mult_by_ideal(z12):
    m = free_module(z12, 1)
    lat = submodule_lattice(m)
    rl = lat.ring_lattice
    i2 = lat.idx(frozenset({0, 2, 4, 6, 8, 10}))
    i3 = rl.index[frozenset({0, 3, 6, 9})]
    assert lat.submodules[lat.prod(i2, i3)] == frozenset({0, 6})


def test_inclusion_pairs_and_chains(z12):
    lat = submodule_lattice(free_module(z12, 1))
    pairs = lat.inclusion_pairs()
    assert (lat.zero, lat.top) in pairs
    assert all(lat.leq(i, j) for i, j in pairs)
    chains = lat.maximal_chains()
    assert all(c[0] == lat.zero and c[-1] == lat.top for c in chains)
    # Z/12 ideal lattice routes: (0)<(6)<(3)<(1), (0)<(6)<(2)<(1), (0)<(4)<(2)<(1)
    assert len(chains) == 3


def test_module_axioms_on_cosets(z12):
    # scalar action laws on coset arithmetic, exhaustively on a subquotient
    m = subquotient(free_module(z12, 1), range(12), {0, 6}, "Z/12 / (6)")
    ring = m.ring
    for a in ring.elements():
        for b in ring.elements():
            for x in m.all_indices():
                assert m.scalar(a, m.scalar(b, x)) == m.scalar(ring.mul(a, b), x)
                assert m.scalar(ring.add(a, b), x) == m.add_elem(
                    m.scalar(a, x), m.scalar(b, x)
                )
    for x in m.all_indices():
        assert m.scalar(ring.one, x) == x
        for y in m.all_indices():
            assert m.add_elem(x, y) == m.add_elem(y, x)
