"""Independent oracles used to pin expected values in the test suite.

Everything here recomputes results by brute force, in a style deliberately
different from the library code paths it checks: linear-combination sweeps
instead of closure algorithms, raw subset scans instead of lattice logic.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from functools import lru_cache
from itertools import product as iproduct

from torsionlab.filters import gabriel_check
from torsionlab.modules import FiniteModule
from torsionlab.rings import (
    FiniteRing,
    Ideal,
    RingMap,
    _digits,
    _poly_label,
    _subgroup_sum,
    enumerate_ideals,
)


def ideal_by_linear_combinations(ring: FiniteRing, gens: list[int]) -> frozenset:
    """All sums sum_i r_i*g_i over every coefficient tuple."""
    if not gens:
        return frozenset({ring.zero})
    out = set()
    for coeffs in iproduct(range(ring.size), repeat=len(gens)):
        acc = ring.zero
        for r, g in zip(coeffs, gens):
            acc = ring.add(acc, ring.mul(r, g))
        out.add(acc)
    return frozenset(out)


def join_closure_unpruned(lat, scope) -> set[frozenset]:
    """Every sub-object of the lattice's carrier generated inside scope: each
    one found is summed with every cyclic sub-object it does not contain,
    until no sum is new.  No sum is skipped."""
    cyclics = list(dict.fromkeys(frozenset(lat._orbit[x]) for x in sorted(scope)))
    zero = frozenset({0})
    found = {zero}
    work = [zero]
    while work:
        u = work.pop()
        for c in cyclics:
            if c <= u:
                continue
            v = _subgroup_sum(lat._add, u, c)
            if v not in found:
                found.add(v)
                work.append(v)
    return found


def is_surjective_hom_by_entries(ring_map: RingMap) -> bool:
    """Unital, additive and multiplicative on every pair (a, b), one add and
    one mul call per side, and onto the target."""
    src, tgt, f = ring_map.source, ring_map.target, ring_map.mapping
    if f[src.one] != tgt.one:
        return False
    for a in range(src.size):
        for b in range(src.size):
            if f[src.add(a, b)] != tgt.add(f[a], f[b]):
                return False
            if f[src.mul(a, b)] != tgt.mul(f[a], f[b]):
                return False
    return len(set(f)) == tgt.size


def is_ideal_scan(ring: FiniteRing, elems: frozenset) -> bool:
    if ring.zero not in elems:
        return False
    return all(
        ring.add(a, b) in elems for a in elems for b in elems
    ) and all(ring.mul(r, a) in elems for a in elems for r in range(ring.size))


def all_ideals_by_subset_scan(ring: FiniteRing) -> set[frozenset]:
    """Every ideal, found by testing all 2^n element subsets.  Tiny rings only."""
    assert ring.size <= 12, "subset scan is exponential"
    elems = list(range(ring.size))
    out = set()
    for mask in range(1 << ring.size):
        subset = frozenset(e for e in elems if mask & (1 << e))
        if ring.zero in subset and is_ideal_scan(ring, subset):
            out.add(subset)
    return out


def primes_by_zero_divisor_scan(ring: FiniteRing) -> list[frozenset]:
    """The proper ideals with no product of two outside elements inside, in
    enumeration order."""
    out = []
    for ideal in enumerate_ideals(ring):
        outside = [a for a in range(ring.size) if a not in ideal.elements]
        if outside and all(ring.mul(a, b) not in ideal for a in outside for b in outside):
            out.append(ideal.elements)
    return out


def colon_by_scan(ring: FiniteRing, i: frozenset, j: frozenset) -> frozenset:
    return frozenset(
        a for a in range(ring.size) if all(ring.mul(a, b) in i for b in j)
    )


def gabriel_filters_by_subset_scan(ring: FiniteRing, ideals: list[Ideal]) -> list[frozenset]:
    """All Gabriel filters, by checking the four axioms on every ideal subset.

    Returns each filter as a frozenset of ideal element-sets.  Exponential in
    the number of ideals; used only as the census oracle.  Element colons
    (b : x) are precomputed once so the subset loop is pure set lookups.
    """
    sets = [i.elements for i in ideals]
    n = len(sets)
    unit = frozenset(range(ring.size))
    colon_table = {
        (b, x): colon_by_scan(ring, b, frozenset({x}))
        for b in sets
        for x in range(ring.size)
    }
    out = []
    for mask in range(1, 1 << n):
        members = [sets[k] for k in range(n) if mask & (1 << k)]
        member_set = set(members)
        if unit not in member_set:
            continue
        ok = all(
            t in member_set
            for s in members
            for t in sets
            if s <= t
        )
        if ok:
            ok = all(s & t in member_set for s in members for t in members)
        if ok:
            for b in sets:
                if b in member_set:
                    continue
                for a in members:
                    if all(colon_table[(b, x)] in member_set for x in a):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(frozenset(member_set))
    return out


def gabriel_filters_by_upset_check(ring: FiniteRing) -> list[frozenset]:
    """The up-set of each ideal that passes every axiom of gabriel_check.

    Returns each filter as a frozenset of ideal element-sets.  Every filter
    on a finite ring is the up-set of its least member, so this is the
    census by the axioms, with no use of idempotence.
    """
    ideals = enumerate_ideals(ring)
    out = []
    for b in ideals:
        up = [a for a in ideals if b.elements <= a.elements]
        if not gabriel_check(ring, up):
            out.append(frozenset(a.elements for a in up))
    return out


def basis_by_pairwise_scan(members) -> tuple:
    """The members properly containing no other member, in Ideal.sort_key order."""
    out = [a for a in members if not any(b.elements < a.elements for b in members)]
    return tuple(sorted(out, key=Ideal.sort_key))


def closure_by_scan(ring: FiniteRing, ideal: frozenset, member_sets: set) -> frozenset:
    """Every x whose colon (ideal : x) is a filter member, by raw table scans."""
    return frozenset(
        x for x in range(ring.size)
        if colon_by_scan(ring, ideal, frozenset({x})) in member_sets
    )


def maximal_by_scan(family: list[frozenset]) -> list[frozenset]:
    """Members of the family properly contained in no other member."""
    return [s for s in family if not any(s < t for t in family)]


def additive_closure_by_scan(ring: FiniteRing, seed: set) -> frozenset:
    """Add pairs of elements until nothing new appears."""
    out = set(seed) | {ring.zero}
    while True:
        more = {ring.add(a, b) for a in out for b in out} - out
        if not more:
            return frozenset(out)
        out |= more


def subquotient(free, u, v, label: str):
    """U/V for submodules V <= U of a free module, given as its element
    indices, built by the public constructor, which checks both carriers."""
    carrier_u, carrier_v = (frozenset(free.reps[i] for i in s) for s in (u, v))
    return FiniteModule(free.ring, free.rank, carrier_u, carrier_v, label)


def cosets_by_scan(ring: FiniteRing, carrier_u, carrier_v) -> tuple:
    """(reps, coset_of, elements) of U/V: every coset v + V, added entry by
    entry with ring.add, in the order of its least vector."""
    cosets = {
        frozenset(tuple(map(ring.add, vec, w)) for w in carrier_v) for vec in carrier_u
    }
    elements = tuple(sorted(cosets, key=min))
    coset_of = {vec: i for i, coset in enumerate(elements) for vec in coset}
    return tuple(map(min, elements)), coset_of, elements


@lru_cache(maxsize=4)
def addition_table(module) -> list[list[int]]:
    """add[x][y] = module.add_elem(x, y), one call per entry."""
    elems = range(module.size)
    return [[module.add_elem(x, y) for y in elems] for x in elems]


@lru_cache(maxsize=4)
def scalar_table(module) -> list[list[int]]:
    """scal[a][y] = module.scalar(a, y), one call per entry."""
    return [[module.scalar(a, y) for y in range(module.size)] for a in range(module.ring.size)]


def module_sum_by_scan(module, n_i: frozenset, n_j: frozenset) -> frozenset:
    """N_i + N_j, the additive closure of N_i and N_j, by module.add_elem.

    Both are additive subgroups, so the closure is the set of sums a + b.
    """
    add = addition_table(module)
    return frozenset(add[a][b] for a in n_i for b in n_j)


def pair_colon_by_scan(module, n_i: frozenset, n_j: frozenset) -> frozenset:
    """{a : a*y in N_i for every y in N_j}, by module.scalar on every pair."""
    return frozenset(
        a for a, row in enumerate(scalar_table(module))
        if n_i.issuperset(map(row.__getitem__, n_j))
    )


def generator_count_by_nakayama(module, sub: frozenset, maximal_ideals: list) -> int:
    """mu(N), the least number of generators of N, by Nakayama's lemma.

    mu(N) is the largest, over the maximal ideals m, of log_{|A/m|} |N| / |mN|.
    mN is the additive group generated by the products a*y, a in m and y in
    N, grown one generator at a time by its multiples, on tables of
    module.add_elem and module.scalar.
    """
    add, scal = addition_table(module), scalar_table(module)
    mu = 0
    for m in maximal_ideals:
        m_n = {module.zero}
        for g in {scal[a][y] for a in m for y in sub}:
            multiples = [g]
            while multiples[-1] != module.zero:
                multiples.append(add[multiples[-1]][g])
            m_n |= {add[c][x] for c in m_n for x in multiples}
        q, ratio = module.ring.size // len(m), len(sub) // len(m_n)
        k = 0
        while q**k < ratio:
            k += 1
        assert q**k == ratio, "N/mN is not a vector space over A/m"
        mu = max(mu, k)
    return mu


def greedy_generators_by_scan(module, target: frozenset) -> tuple:
    """Greedy generators of a submodule: each step adds the element x whose
    span cur + Ax is largest, the smallest such x on ties.  Spans are the
    sumsets {c + a*x}, formed by module.add_elem and module.scalar."""
    add, scal = addition_table(module), scalar_table(module)
    gens: list[int] = []
    cur = frozenset({module.zero})
    while cur != target:
        grown = {
            x: frozenset(add[c][row[x]] for c in cur for row in scal)
            for x in sorted(target - cur)
        }
        best = max(grown, key=lambda x: (len(grown[x]), -x))
        gens.append(best)
        cur = grown[best]
    return tuple(gens)


def canonical_certificates_by_scan(
    module, n_set: frozenset, submodules, member_sets: list
) -> list[tuple[tuple, frozenset]]:
    """The canonical certificate (generators of H, h) of N under each filter.

    Every submodule H of the list with H <= N as element sets is a
    candidate, with h = (H : N) by scalar scans.  Per filter, given as a set
    of member element sets, the candidate with h a member that minimizes
    (generator count, -|h|, sorted h, generators) wins.
    """
    candidates = []
    for h_set in submodules:
        if h_set <= n_set:
            gens = greedy_generators_by_scan(module, h_set)
            colon = pair_colon_by_scan(module, h_set, n_set)
            candidates.append((len(gens), -len(colon), tuple(sorted(colon)), gens, colon))
    out = []
    for members in member_sets:
        best = min(c for c in candidates if c[4] in members)
        out.append((best[3], best[4]))
    return out


def certificate_check_by_scan(
    module, sub: frozenset, member_sets, gens: tuple, h: frozenset
) -> tuple[bool, str | None]:
    """(ok, reason) for the certificate (H, h) of N, H spanned by gens, as
    verify_certificate words the first condition that fails: h is a filter
    member, given as a set of member element sets; H <= N; N*h <= H, by
    module.scalar on every pair (a, n).  H is grown from 0 by adding the
    multiples a*g of the generators, on tables of module.add_elem and
    module.scalar."""
    if h not in member_sets:
        return False, "h not in filter"
    add, scal = addition_table(module), scalar_table(module)
    multiples = {row[g] for row in scal for g in gens}
    h_span, work = {module.zero}, [module.zero]
    while work:
        row = add[work.pop()]
        for m in multiples:
            if row[m] not in h_span:
                h_span.add(row[m])
                work.append(row[m])
    if not h_span <= sub:
        return False, "H not contained in N"
    if any(scal[a][n] not in h_span for n in sub for a in h):
        return False, "N*h not contained in H"
    return True, None


def certificate_by_index_scan(lat, n_idx: int, members) -> tuple[int, int] | None:
    """(H, (H : N)) for the canonical certificate of N_n, or None, by one
    scan of every H <= N_n under the filter given by its member indices:
    the least (generator count, -|colon|, colon, generators, H) among the H
    whose colon is a member."""
    cm = lat.colon_matrix()
    up = lat.up_masks()
    best_key = None
    for h_idx in range(n_idx + 1):
        if not up[h_idx] >> n_idx & 1:
            continue
        colon_idx = cm[h_idx][n_idx]
        if colon_idx not in members:
            continue
        gens = lat.min_gens(h_idx)
        key = (len(gens), -len(lat.ring_lattice.sets[colon_idx]), colon_idx, gens, h_idx)
        if best_key is None or key < best_key:
            best_key = key
    return None if best_key is None else (best_key[-1], best_key[2])


def sigma_principal_by_scan(ring, ideal: frozenset, members: set) -> tuple:
    """(witness, certificate) as sigma_principal_status reports them, by scans.

    The witness is the least a in I with closure(aA) = closure(I); the
    certificate is (a, (aA : I)) for the least a in I whose colon is a filter
    member.  Either is None when no element qualifies.
    """
    target = closure_by_scan(ring, ideal, members)
    witness = certificate = None
    for a in sorted(ideal):
        principal = ideal_by_linear_combinations(ring, [a])
        if witness is None and closure_by_scan(ring, principal, members) == target:
            witness = a
        colon = colon_by_scan(ring, principal, ideal)
        if certificate is None and colon in members:
            certificate = (a, colon)
    return witness, certificate


# -- ring tables, one entry at a time --------------------------------------------


def _undigits(vec, p: int) -> int:
    acc = 0
    for c in reversed(vec):
        acc = acc * p + c
    return acc


def zmod_by_entries(n: int) -> FiniteRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(n, add, mul, 1 % n, f"Z/{n}")


def product_by_entries(left: FiniteRing, right: FiniteRing) -> FiniteRing:
    """Componentwise product, index l * right.size + r, every entry unpacked
    with divmod and combined by the factors' add and mul."""
    rs = right.size
    size = left.size * rs
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a in range(size):
        la, ra = divmod(a, rs)
        for b in range(size):
            lb, rb = divmod(b, rs)
            add[a][b] = left.add(la, lb) * rs + right.add(ra, rb)
            mul[a][b] = left.mul(la, lb) * rs + right.mul(ra, rb)
    labels = [f"({left.elem_label(a // rs)},{right.elem_label(a % rs)})" for a in range(size)]
    return FiniteRing(size, add, mul, left.one * rs + right.one,
                      f"{left.label} x {right.label}", elem_labels=labels)


def poly_quotient_by_convolution(p: int, coeffs: list[int]) -> FiniteRing:
    """F_p[x]/(f): each product is the convolution of two coefficient
    vectors, reduced by the table of x^k mod f."""
    coeffs = [c % p for c in coeffs]
    d = len(coeffs) - 1
    size = p**d
    reps = [[1] + [0] * (d - 1)]  # x^k mod f for k < 2d-1
    for _ in range(2 * d - 2):
        shifted = [0] + reps[-1]
        top = shifted.pop()
        reps.append([(shifted[j] - top * coeffs[j]) % p for j in range(d)])
    vecs = [_digits(i, p, d) for i in range(size)]
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            add[a][b] = _undigits([(x + y) % p for x, y in zip(va, vb)], p)
            conv = [0] * (2 * d - 1)
            for i, ca in enumerate(va):
                if ca:
                    for j, cb in enumerate(vb):
                        if cb:
                            conv[i + j] = (conv[i + j] + ca * cb) % p
            acc = [0] * d
            for k, ck in enumerate(conv):
                if ck:
                    acc = [(acc[j] + ck * reps[k][j]) % p for j in range(d)]
            mul[a][b] = _undigits(acc, p)
    return FiniteRing(size, add, mul, 1, f"F{p}[x]/({_poly_label(coeffs)})",
                      elem_labels=[_poly_label(v) for v in vecs])


def square_zero_by_entries(p: int, k: int) -> FiniteRing:
    """F_p[x_1..x_k]/(x_i*x_j): (a0 + n)(b0 + m) = a0*b0 + a0*m + b0*n, digit by digit."""
    size = p ** (k + 1)
    vecs = [_digits(i, p, k + 1) for i in range(size)]
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            add[a][b] = _undigits([(x + y) % p for x, y in zip(va, vb)], p)
            prod = [va[0] * vb[0] % p] + [
                (va[0] * vb[j] + va[j] * vb[0]) % p for j in range(1, k + 1)
            ]
            mul[a][b] = _undigits(prod, p)
    names = [("x", "y", "z")[j] if j < 3 else f"x{j + 1}" for j in range(k)]
    labels = [
        "+".join(([str(v[0])] if v[0] else [])
                 + [("" if c == 1 else str(c)) + n for c, n in zip(v[1:], names) if c])
        or "0"
        for v in vecs
    ]
    var_list = ",".join(names)
    return FiniteRing(size, add, mul, 1, f"F{p}[{var_list}]/({var_list})^2", elem_labels=labels)


def ring_by_entries(term: dict) -> FiniteRing:
    """The ring of a constructor term, its tables filled entry by entry."""
    (kind, arg), = term.items()
    if kind == "zmod":
        return zmod_by_entries(arg)
    if kind == "product":
        return product_by_entries(ring_by_entries(arg[0]), ring_by_entries(arg[1]))
    if kind == "polyquot":
        return poly_quotient_by_convolution(arg["p"], arg["f"])
    return square_zero_by_entries(arg["p"], arg["k"])


def quotient_by_entries(ring: FiniteRing, ideal: frozenset) -> tuple[list, list, list]:
    """(add, mul, projection) of ring/ideal: cosets numbered by least member
    in order, each table entry the coset of ring.add or ring.mul on the
    least members."""
    cosets = sorted({min(ring.add(x, v) for v in ideal) for x in range(ring.size)})
    number = {r: i for i, r in enumerate(cosets)}
    proj = [number[min(ring.add(x, v) for v in ideal)] for x in range(ring.size)]
    add = [[proj[ring.add(a, b)] for b in cosets] for a in cosets]
    mul = [[proj[ring.mul(a, b)] for b in cosets] for a in cosets]
    return add, mul, proj


@contextmanager
def alarm(seconds: int, what: str):
    """Turn a hang of the block into a TimeoutError after the given seconds."""

    def hang(signum, frame):
        raise TimeoutError(f"{what} did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
