"""Gabriel filters and hereditary torsion machinery on finite rings.

A filter is kept as the ring-lattice index of its least member.  On a
finite ring a set F of ideals is a Gabriel filter iff F = up(b), the
ideals containing its least member b, and b*b = b.  Every filter is the
up-set of its least member (it is closed under finite intersections), and
up(b) is closed upward and under intersections.  If b*b != b, c = b*b is
not in up(b) yet (c : x) contains b for every x in b: the Gabriel
condition fails.  If b*b = b, a contains b and every (c : x), x in a,
contains b, then c contains b*a, which contains b*b = b; so c is in
up(b), as is every a*a'.  Constructors decide by this rule; a member set
that fails it is a bug and raises :class:`TheoremViolation`, worded by
:func:`gabriel_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Sequence

from .errors import (
    NotASubmodule,
    NotMultiplicativelyClosed,
    NotPrime,
    RingMismatch,
    TheoremViolation,
    UnsupportedMap,
)
from .modules import (
    FiniteModule,
    is_submodule,
    submodule_lattice,
)
from .rings import (
    FiniteRing,
    Ideal,
    IdealLattice,
    RingMap,
    _check_element,
    enumerate_ideals,
    ideal_lattice,
    ideal_product,
    prime_spectrum,
    unit_ideal,
)


@dataclass(frozen=True)
class GabrielFilter:
    """A Gabriel filter: the ideal set of a hereditary torsion theory, the
    up-set of its least member, an idempotent ideal with lattice index least."""

    ring: FiniteRing
    least: int

    def __contains__(self, ideal: Ideal) -> bool:
        return ideal in self.members

    @cached_property
    def members(self) -> frozenset:
        """The member ideals, built on first read."""
        return frozenset(self.sorted_members())

    @property
    def basis(self) -> tuple[Ideal, ...]:
        """The minimal members under inclusion: the least member alone."""
        return (ideal_lattice(self.ring).ideals[self.least],)

    @property
    def label(self) -> str:
        return "filter<" + ",".join(b.label for b in self.basis) + ">"

    def sorted_members(self) -> tuple[Ideal, ...]:
        """The members in lattice order, which is Ideal.sort_key order."""
        lat = ideal_lattice(self.ring)
        return tuple(lat.ideals[j] for j in lat.upset(self.least))

    def member_indices(self) -> frozenset:
        """The members as indices into the ideal lattice of the ring."""
        return frozenset(ideal_lattice(self.ring).upset(self.least))

    def __repr__(self) -> str:
        return f"GabrielFilter({self.ring.label}, {self.label})"


@dataclass(frozen=True)
class Violation:
    """A failed filter axiom with concrete witness ideals."""

    axiom: str
    witnesses: tuple

    def describe(self) -> str:
        parts = ", ".join(f"{name}={ideal.label}" for name, ideal in self.witnesses)
        return f"{self.axiom}: {parts}" if parts else self.axiom


def gabriel_check(ring: FiniteRing, members: Iterable[Ideal]) -> list[Violation]:
    """All axiom violations of a candidate filter; empty iff Gabriel.

    Checks, in order: non-emptiness, presence of the unit ideal, upward
    closure, closure under finite intersections, the Gabriel condition, and
    (derived, must follow from the others) closure under ideal products.
    The axioms are stated once, in :func:`_violations`.  Constructors decide
    by the least-member rule of the module docstring and call this only to
    word a rejection.
    """
    lat = ideal_lattice(ring)
    return list(_violations(lat, frozenset(lat.idx(a) for a in members)))


def _violations(lat: IdealLattice, member_idx: frozenset) -> Iterator[Violation]:
    """The filter axioms on ring-lattice indices, violations in check order."""
    if not member_idx:
        yield Violation("empty-filter", ())
        return
    if lat.top not in member_idx:
        yield Violation("missing-unit-ideal", ())
    ordered = sorted(member_idx)
    for i in ordered:
        for j in lat.upset(i):
            if j not in member_idx:
                yield Violation(
                    "upward-closure",
                    (("member", lat.ideals[i]), ("superset", lat.ideals[j])),
                )
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            k = lat.inter(i, j)
            if k not in member_idx:
                yield Violation(
                    "intersection-closure",
                    (("left", lat.ideals[i]), ("right", lat.ideals[j]),
                     ("intersection", lat.ideals[k])),
                )
    for b in range(lat.n):
        if b in member_idx:
            continue
        row = lat.colon_row(b)
        for a in ordered:
            if all(row[x] in member_idx for x in lat.ideals[a].elements):
                yield Violation(
                    "gabriel-condition",
                    (("absent", lat.ideals[b]), ("via", lat.ideals[a])),
                )
                break
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            k = lat.prod(i, j)
            if k not in member_idx:
                yield Violation(
                    "product-closure",
                    (("left", lat.ideals[i]), ("right", lat.ideals[j]),
                     ("product", lat.ideals[k])),
                )


def _checked_filter(ring: FiniteRing, members: Iterable[Ideal], what: str) -> GabrielFilter:
    """The filter with these members, decided by the least-member rule."""
    members = frozenset(members)
    lat = ideal_lattice(ring)
    member_idx = frozenset(lat.idx(a) for a in members)
    b = min(member_idx, default=None)
    if b is None or member_idx != frozenset(lat.upset(b)) or lat.prod(b, b) != b:
        report = gabriel_check(ring, members)
        raise TheoremViolation(
            f"{what} produced a non-Gabriel filter on {ring.label}: "
            + ("; ".join(v.describe() for v in report)
               or "no axiom fails, yet the least member is not idempotent")
        )
    return GabrielFilter(ring, b)


def gabriel_closure(ring: FiniteRing, seeds: Iterable[Ideal]) -> GabrielFilter:
    """Least Gabriel filter containing the seeds.

    A Gabriel filter is up(b) for an idempotent b (module docstring), and
    it contains the seeds iff b <= their meet.  Idempotents are closed
    under sums, as (b + c)*(b + c) contains b*b + c*c = b + c, so the answer
    is up(b) for the largest idempotent b <= the meet.  A proper sub-ideal
    has a smaller lattice index, so the scan runs down from the meet's index
    and stops at the first b <= meet with b*b = b.
    """
    lat = ideal_lattice(ring)
    meet = reduce(lat.inter, (lat.idx(a) for a in seeds), lat.top)
    b = next(b for b in range(meet, -1, -1) if lat.leq(b, meet) and lat.prod(b, b) == b)
    return GabrielFilter(ring, b)


def filter_from_mult_set(ring: FiniteRing, mult_set: Iterable[int]) -> GabrielFilter:
    """The filter {a : a meets the multiplicatively closed set}."""
    sigma = sorted(set(mult_set))
    for s in sigma:
        _check_element(ring, s)
    if ring.one not in sigma:
        raise NotMultiplicativelyClosed("the set does not contain 1")
    for s in sigma:
        for t in sigma:
            if ring.mul(s, t) not in sigma:
                raise NotMultiplicativelyClosed(
                    f"witness pair ({ring.elem_label(s)},{ring.elem_label(t)}): "
                    f"product {ring.elem_label(ring.mul(s, t))} missing"
                )
    members = [a for a in enumerate_ideals(ring) if a.elements & set(sigma)]
    return _checked_filter(ring, members, "filter_from_mult_set")


def lambda_filter(ring: FiniteRing) -> GabrielFilter:
    """The filter of ideals with zero annihilator (the dense ideals)."""
    lat = ideal_lattice(ring)
    members = [
        a for i, a in enumerate(lat.ideals) if lat.pair_colon(lat.zero, i) == lat.zero
    ]
    return _checked_filter(ring, members, "lambda_filter")


def filter_from_prime(ring: FiniteRing, p: Ideal) -> GabrielFilter:
    """The filter {a : a not contained in p}, for a prime ideal p."""
    if p not in prime_spectrum(ring):
        raise NotPrime(f"{p.label} is not prime in {ring.label}")
    members = [a for a in enumerate_ideals(ring) if not a.elements <= p.elements]
    return _checked_filter(ring, members, "filter_from_prime")


def trivial_filter(ring: FiniteRing) -> GabrielFilter:
    return _checked_filter(ring, [unit_ideal(ring)], "trivial_filter")


def improper_filter(ring: FiniteRing) -> GabrielFilter:
    return _checked_filter(ring, enumerate_ideals(ring), "improper_filter")


def enumerate_gabriel_filters(ring: FiniteRing) -> tuple[GabrielFilter, ...]:
    """Every Gabriel filter on the ring.

    On a finite ring every filter of ideals is the up-set of its smallest
    member b, and up(b) is Gabriel iff b*b = b (module docstring): if not,
    b*b is outside up(b) although (b*b : x) contains b for every x in b.
    So the census keeps the up-set of each idempotent ideal, ordered by
    size, then by its members in lattice order.  The census acceptance test
    cross-checks this against a raw subset scan of the ideal lattice.
    """
    lat = ideal_lattice(ring)
    idempotents = [b for b in range(lat.n) if lat.prod(b, b) == b]
    idempotents.sort(key=lambda b: (len(lat.upset(b)), lat.upset(b)))
    return tuple(GabrielFilter(ring, b) for b in idempotents)


# ---------------------------------------------------------------------------
# Torsion radical, closure, density
# ---------------------------------------------------------------------------


def _require_same_ring(module_or_ideal, sigma: GabrielFilter) -> None:
    if module_or_ideal.ring is not sigma.ring:
        raise RingMismatch("module and filter live over different rings")


def torsion_submodule(module: FiniteModule, sigma: GabrielFilter) -> frozenset:
    """The largest torsion submodule, {m : (0 : m) in the filter}: the closure of 0."""
    return closure(module, frozenset({module.zero}), sigma)


def closure(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> frozenset:
    """The closure of a submodule: preimage of the torsion part of the quotient."""
    _require_same_ring(module, sigma)
    if not is_submodule(module, sub):
        raise NotASubmodule("closure input is not a submodule")
    ring = module.ring
    out = set()
    for m in module.all_indices():
        relative = frozenset(
            a for a in range(ring.size) if module.scalar(a, m) in sub
        )
        if Ideal(ring, relative) in sigma.members:
            out.add(m)
    return frozenset(out)


def is_closed(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> bool:
    return closure(module, sub, sigma) == sub


def is_dense(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> bool:
    return closure(module, sub, sigma) == frozenset(module.all_indices())


def ideal_closure(ideal: Ideal, sigma: GabrielFilter) -> Ideal:
    """Closure of an ideal inside the ring, as an ideal."""
    _require_same_ring(ideal, sigma)
    lat = ideal_lattice(ideal.ring)
    return lat.ideals[lat.closure(lat.idx(ideal), sigma.member_indices())]


# ---------------------------------------------------------------------------
# Spectrum partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecPartition:
    """Primes split by the filter: torsionfree side, filter side, and Max K."""

    K: tuple
    Z: tuple
    C: tuple


def spec_partition(sigma: GabrielFilter) -> SpecPartition:
    """Partition the prime spectrum by filter membership.

    Primes in the filter land in Z; all others land in K and the quotient by
    each is verified torsionfree.  C collects the maximal elements of K.
    On a finite ring every prime is maximal, so Z is upward closed in the
    spectrum as built.  The spectrum comes in lattice order, and so do the
    three sides.
    """
    ring = sigma.ring
    lat = ideal_lattice(ring)
    members = sigma.member_indices()
    k_side, z_side = [], []
    for p in prime_spectrum(ring):
        if p in sigma.members:
            z_side.append(p)
            continue
        cl = lat.closure(lat.idx(p), members)
        if lat.sets[cl] != p.elements:
            # the closure holds p on a sound lattice; a broken one may miss part of p
            m = min(lat.sets[cl] ^ p.elements)
            raise TheoremViolation(
                f"prime {p.label} outside the filter but its closure differs from it,"
                f" so {ring.label}/{p.label} is not torsionfree"
                f" (witness {ring.elem_label(m)})"
            )
        k_side.append(p)
    c_side = [lat.ideals[i] for i in lat.maximal([lat.idx(p) for p in k_side])]
    return SpecPartition(K=tuple(k_side), Z=tuple(z_side), C=tuple(c_side))


def meet_decomposition_check(sigma: GabrielFilter) -> bool:
    """Whether the filter is the meet of the prime-complement filters over K."""
    ring = sigma.ring
    part = spec_partition(sigma)
    if not part.K:
        expected = frozenset(enumerate_ideals(ring))
    else:
        expected = frozenset.intersection(
            *(filter_from_prime(ring, p).members for p in part.K)
        )
    return expected == sigma.members


# ---------------------------------------------------------------------------
# Jansian structure
# ---------------------------------------------------------------------------


def ideal_power_stabilized(ideal: Ideal) -> tuple[int, Ideal]:
    """Iterate a^(n+1) = a*a^n until repetition; returns (exponent, power).
    The powers descend; one that grows (a wrong product table) raises."""
    power = ideal
    n = 1
    while True:
        nxt = ideal_product(power, ideal)
        n += 1
        if nxt.elements == power.elements:
            return n - 1, power
        if not nxt.elements <= power.elements:
            raise TheoremViolation(f"power {n} of {ideal.label} is not inside power {n - 1}")
        power = nxt


@dataclass(frozen=True)
class JansianStatus:
    is_jansian: bool
    idempotent_basis_ideal: Ideal | None
    is_almost_jansian: bool
    power_witnesses: tuple


def jansian_status(sigma: GabrielFilter) -> JansianStatus:
    """Detect single-ideal bases and stabilized-power membership.

    On a finite ring both properties always hold; the basis ideal is checked
    to be idempotent and every member's stabilized power is checked to stay
    in the filter.  These are reported, and a failure raises.
    """
    ring = sigma.ring
    lat = ideal_lattice(ring)
    member_idx = sorted(sigma.member_indices())
    bottom = reduce(lat.inter, member_idx)
    basis_ideal = lat.ideals[bottom]
    is_jansian = frozenset(lat.upset(bottom)) == frozenset(member_idx)
    if is_jansian:
        if ideal_product(basis_ideal, basis_ideal).elements != basis_ideal.elements:
            raise TheoremViolation(
                f"single-ideal basis {basis_ideal.label} of {sigma.label} is not idempotent"
            )
    witnesses = []
    almost = True
    for a in sigma.sorted_members():
        exponent, stabilized = ideal_power_stabilized(a)
        ok = stabilized in sigma.members
        almost = almost and ok
        witnesses.append((a, exponent, stabilized))
    return JansianStatus(
        is_jansian=is_jansian,
        idempotent_basis_ideal=basis_ideal if is_jansian else None,
        is_almost_jansian=almost,
        power_witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# Induced filters along surjections
# ---------------------------------------------------------------------------


def induced_filter(ring_map: RingMap, sigma: GabrielFilter) -> GabrielFilter:
    """Push a filter through a surjective ring map (quotients, local factors).

    Members downstairs are the ideals whose preimage is a member; for these
    maps that set is verified to coincide with the images of the members.
    """
    if sigma.ring is not ring_map.source:
        raise RingMismatch("filter is not over the map source")
    if not ring_map.is_surjective_hom():
        raise UnsupportedMap(
            "induced filters are only computed along surjective ring maps"
        )
    target = ring_map.target
    members = [
        b for b in enumerate_ideals(target) if ring_map.preimage_ideal(b) in sigma.members
    ]
    images = frozenset(ring_map.image_ideal(a).elements for a in sigma.members)
    if images != frozenset(b.elements for b in members):
        raise TheoremViolation(
            f"extended-ideal description failed along {ring_map.kind} map to {target.label}"
        )
    return _checked_filter(target, members, "induced_filter")


# ---------------------------------------------------------------------------
# Torsion/torsionfree class axioms, exhaustively over subquotients
# ---------------------------------------------------------------------------


def torsion_class_report(module: FiniteModule, filters: Sequence[GabrielFilter]) -> dict:
    """Exhaustive torsion/torsionfree class axioms over all subquotients.

    Subquotients are the pairs V <= U of submodules.  Whether U/V is torsion
    or torsionfree depends only on the set of coset annihilators, so each
    distinct profile is masked once, when the walk over the pairs first
    meets it, and the direct-sum checks run over distinct profiles; the
    checks are still exhaustive because equal profiles force equal verdicts.
    Verdicts for all filters are carried as bitmasks so one pass covers
    every filter.
    """
    lat = submodule_lattice(module)
    rl = lat.ring_lattice
    full = (1 << len(filters)) - 1
    lmask = [0] * rl.n  # bit fi of lmask[a]: ideal a lies in filters[fi]
    for fi, f in enumerate(filters):
        _require_same_ring(module, f)
        for a in f.member_indices():
            lmask[a] |= 1 << fi

    def verdicts(prof) -> tuple[int, int]:
        """Masks of the filters holding all of a profile (torsion) and none of it."""
        tm, tfm = full, full
        for a in prof:
            tm &= lmask[a]
            tfm &= ~lmask[a]
        return tm, tfm

    pairs = lat.inclusion_pairs()
    # the distinct profiles in order of first appearance, with their masks
    profile_masks: dict[frozenset, tuple[int, int]] = {}
    pair_masks: dict[tuple[int, int], tuple[int, int]] = {}
    for v, u in pairs:
        row = lat.colon_row(v)
        sub_v = lat.submodules[v]
        prof = frozenset(row[m] for m in lat.submodules[u] if m not in sub_v)
        if prof not in profile_masks:
            profile_masks[prof] = verdicts(prof)
        pair_masks[(v, u)] = profile_masks[prof]

    checks = {
        name: {"instances": 0, "violmask": 0, "witness": None}
        for name in (
            "torsion-submodule-closure",
            "torsion-quotient-closure",
            "torsion-extension-closure",
            "torsion-direct-sum-closure",
            "torsionfree-submodule-closure",
            "torsionfree-product-closure",
            "torsionfree-extension-closure",
            "torsionfree-radical-vanishes",
        )
    }

    def record(name: str, mask: int, witness: str) -> None:
        entry = checks[name]
        entry["instances"] += 1
        if mask and not entry["violmask"]:
            entry["witness"] = witness
        entry["violmask"] |= mask

    for v, w in pairs:
        for u in lat.upset(w):
            (tvw, fvw), (twu, fwu), (tvu, fvu) = (
                pair_masks[(v, w)], pair_masks[(w, u)], pair_masks[(v, u)]
            )
            label = f"V={v},W={w},U={u}"
            record("torsion-submodule-closure", tvu & ~tvw & full, label)
            record("torsion-quotient-closure", tvu & ~twu & full, label)
            record("torsion-extension-closure", tvw & twu & ~tvu & full, label)
            record("torsionfree-submodule-closure", fvu & ~fvw & full, label)
            record("torsionfree-extension-closure", fvw & fwu & ~fvu & full, label)

    # direct sums / products over the distinct profiles
    reps = list(profile_masks.items())
    for i, (p1, (t1, f1)) in enumerate(reps):
        for j in range(i, len(reps)):
            p2, (t2, f2) = reps[j]
            tsum, fsum = verdicts({rl.inter(a, b) for a in p1 for b in p2})
            label = f"profiles {i},{j}"
            record("torsion-direct-sum-closure", t1 & t2 & ~tsum & full, label)
            record("torsionfree-product-closure", f1 & f2 & ~fsum & full, label)

    # independent route: the radical computed element by element must vanish
    # exactly on the torsionfree carrier and fill exactly the torsion one
    top_t, top_tf = pair_masks[(lat.zero, lat.top)]
    radical_mismatch = 0
    for fi, f in enumerate(filters):
        radical = torsion_submodule(module, f)
        vanishes = radical == frozenset({module.zero})
        fills = radical == frozenset(module.all_indices())
        if vanishes != bool(top_tf >> fi & 1) or fills != bool(top_t >> fi & 1):
            radical_mismatch |= 1 << fi
    record("torsionfree-radical-vanishes", radical_mismatch, module.label)

    out = {}
    for fi, f in enumerate(filters):
        per = {}
        for name, entry in checks.items():
            violated = bool(entry["violmask"] & (1 << fi))
            per[name] = {
                "instances": entry["instances"],
                "passed": not violated,
                "witness": entry["witness"] if violated else None,
            }
        out[f.label] = per
    return out
