"""Independent oracles used to pin expected values in the test suite.

Everything here recomputes results by brute force, in a style deliberately
different from the library code paths it checks: linear-combination sweeps
instead of closure algorithms, raw subset scans instead of lattice logic.
"""

from __future__ import annotations

from itertools import product as iproduct

from torsionlab.rings import FiniteRing, Ideal


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


def pair_colon_by_scan(module, n_i: frozenset, n_j: frozenset) -> frozenset:
    """{a : a*y in N_i for every y in N_j}, by module.scalar on every pair."""
    return frozenset(
        a for a in range(module.ring.size)
        if all(module.scalar(a, y) in n_i for y in n_j)
    )


def greedy_generators_by_scan(module, target: frozenset) -> tuple:
    """Greedy generators of a submodule: each step adds the element x whose
    span cur + Ax is largest, the smallest such x on ties.  Spans are the
    sumsets {c + a*x}, formed by module.add_elem and module.scalar."""
    gens: list[int] = []
    cur = frozenset({module.zero})
    while cur != target:
        grown = {
            x: frozenset(
                module.add_elem(c, module.scalar(a, x))
                for c in cur for a in range(module.ring.size)
            )
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
