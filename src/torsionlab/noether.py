"""Finiteness certificates and exhaustive theorem suites.

A certificate witnesses that a submodule N is "totally finite" relative to
a filter: a finitely generated H <= N together with a filter ideal h such
that N*h <= H.  On finite carriers every submodule has one (H = N with
h = (1)), so "totally noetherian" never fails here, and a statement that
only compares it with itself cannot fail either: the direct-sum, chain,
maximal-condition, Cohen and local-property statements are left out for
that reason.  The interesting work is finding canonical certificates
deterministically and checking, over every submodule of the carriers A
and A^2, what can fail: certificates re-verify and survive quotient maps,
closures have colon witnesses, upper closures are closed, have maximal
elements and have one exactly when they hold the closure, and stability
data passes through totally torsion quotients; then, on the ring, the
Kaplansky criteria, the meet decomposition, jansian structure and induced
filters.
Both sides of every biconditional are computed from the definitions; a
mismatch means an implementation bug and is reported.

Each public predicate is a thin wrapper over an index-level core on
(lattice, index, filter member indices); the theorem suite calls the same
cores, so it checks what the public functions return.

The suite runs once per (ring, filter), but much of its work does not
depend on the filter: the colons grouped by value along each colon-matrix
row, the maximal members of each upper-closure mask, the colons occurring
in each colon row, the image colons of every inclusion pair under each
quotient map, and the element-level re-verification of each certificate.
``_LatticeTables`` holds these for one lattice, each entry built on its
first read, and the filter-dependent part of every check is a membership
test against them.  A lone ``theorem_suite`` call builds its own tables
and drops them.  A sweep shares one set per lattice across all the filters
of a ring by running the ring's suites inside
``shared_suite_tables(ring)``, which attaches the tables to the ring for
the block and removes them on exit.  Nothing is stored on the lattice
itself, for two reasons: a lattice-lifetime memo would hide a colon or sum
entry planted between two runs on one lattice, and the entry point stays
``theorem_suite(ring, sigma)``, one call per pair, so code that wraps it
sees every call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    NotAscending,
    NotASubmodule,
    PreconditionFailed,
    RingMismatch,
    TheoremViolation,
)
from .filters import (
    GabrielFilter,
    _require_same_ring,
    filter_from_prime,  # unused here; perfbench/spans.py binds noether.filter_from_prime
    ideal_closure,  # unused here; perfbench/spans.py binds noether.ideal_closure
    induced_filter,
    jansian_status,
    meet_decomposition_check,
    spec_partition,
)
from .modules import (
    FiniteModule,
    free_module,
    span,
    submodule_lattice,
)
from .rings import (
    FiniteRing,
    Ideal,
    _bits,
    _mask,
    _Rows,
    ideal_lattice,
    identity_map,
    local_decomposition,
    minimal_generators,
    prime_spectrum,  # unused here; perfbench/spans.py binds noether.prime_spectrum
)


@dataclass(frozen=True)
class Certificate:
    """Witness (H, h): generators for H <= N and a filter ideal with N*h <= H."""

    kind: str  # totally_fg | totally_principal | totally_torsion
    subobject_generators: tuple
    filter_ideal: Ideal


@dataclass(frozen=True)
class ChainStability:
    """A pivot index m (1-based) and h with N_s*h <= N_m for all s >= m."""

    stable_index: int
    h: Ideal


class _LatticeTables:
    """The filter-independent tables of one lattice, each entry built on its
    first read; see the module docstring for who shares them."""

    def __init__(self, lat):
        self.lat = lat
        # colon_groups[n]: (c, mask) for each colon c of colon-matrix row n,
        # the mask holding the columns H with (N_n : H) = c
        self.colon_groups = _Rows(self._colon_groups)
        # family_bits[mask], family_maxima[mask]: the indices of a family
        # given as a mask, and its maximal members
        self.family_bits = _Rows(_bits)
        self.family_maxima = _Rows(lambda fam: lat.maximal(self.family_bits[fam]))
        # occurring[n]: the colons (N_n : x) over the carrier, as a mask
        self.occurring = _Rows(lambda n: _mask(set(lat.colon_row(n))))
        # quotient_images[(H, S)]: the colons ((H + N) : (S + N)) over every N
        self.quotient_images = _Rows(self._quotient_images)
        # transfer_images[T][h]: the colons h_bar of the image pairs
        # (N + T, M + T) over the pairs N <= M with colon (N : M) = h
        self.transfer_images = _Rows(self._transfer_images)
        # verified[(H, h, S)]: the re-verification of the certificate (H, h)
        # of N_S, for an h in the filter
        self.verified: dict[tuple[int, int, int], tuple[bool, str | None]] = {}

    def _colon_groups(self, n_idx: int) -> tuple[tuple[int, int], ...]:
        groups: dict[int, int] = {}
        for h, c in enumerate(self.lat.colon_matrix()[n_idx]):
            groups[c] = groups.get(c, 0) | 1 << h
        return tuple(groups.items())

    def _quotient_images(self, pair: tuple[int, int]) -> int:
        cm, sm = self.lat.colon_matrix(), self.lat.sum_matrix()
        h_idx, s_idx = pair
        return _mask({cm[image_h][image_s] for image_h, image_s in zip(sm[h_idx], sm[s_idx])})

    @cached_property
    def pair_colons(self) -> list[tuple[tuple[int, ...], list[int]]]:
        """For each N: the M >= N and the colons (N : M), in the same order."""
        lat, cm = self.lat, self.lat.colon_matrix()
        return [(lat.upset(n), [cm[n][m] for m in lat.upset(n)]) for n in range(lat.n)]

    def _transfer_images(self, t_idx: int) -> list[int]:
        cm = self.lat.colon_matrix()
        plus_t = self.lat.sum_matrix()[t_idx]
        images = [0] * self.lat.ring_lattice.n
        for n_idx, (ups, colons) in enumerate(self.pair_colons):
            row_bar = cm[plus_t[n_idx]]
            for m_idx, h in zip(ups, colons):
                images[h] |= 1 << row_bar[plus_t[m_idx]]
        return images


_SHARED_TABLES = "suite_tables"  # key in FiniteRing._cache inside shared_suite_tables


@contextmanager
def shared_suite_tables(ring: FiniteRing) -> Iterator[None]:
    """Inside the block, every theorem_suite call on ring shares one set of
    filter-independent tables per lattice; the tables go on exit."""
    ring._cache[_SHARED_TABLES] = {}
    try:
        yield
    finally:
        del ring._cache[_SHARED_TABLES]


def _lattice_tables(lat) -> _LatticeTables:
    """The shared tables of the lattice inside shared_suite_tables, else fresh ones."""
    shared = lat.ring._cache.get(_SHARED_TABLES)
    if shared is None:
        return _LatticeTables(lat)
    if lat not in shared:
        shared[lat] = _LatticeTables(lat)
    return shared[lat]


def tfg_certificate(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> Certificate:
    """Canonical certificate for a submodule.

    Among submodules H <= N whose colon (H : N) lies in the filter, pick the
    one minimizing generator count, then maximizing h, then lexicographic on
    h and on the generators.  h is always the full colon (H : N): any valid
    filter ideal sits inside it, so it is the coarsest witness.
    """
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    h_idx, colon_idx = _tfg_certificate(lat, lat.idx(sub), sigma.member_indices())
    return Certificate("totally_fg", lat.min_gens(h_idx), lat.ring_lattice.ideals[colon_idx])


def _tfg_certificate(lat, n_idx: int, members: frozenset) -> tuple[int, int]:
    """(H, (H : N)) as indices for the canonical certificate of N_n."""
    cm = lat.colon_matrix()
    up = lat.up_masks()
    best_key = None
    # a sub-object inside N_n has an index no larger than n
    for h_idx in range(n_idx + 1):
        if not up[h_idx] >> n_idx & 1:
            continue
        colon_idx = cm[h_idx][n_idx]
        if colon_idx not in members:
            continue
        gens = lat.min_gens(h_idx)
        # ring-lattice indices follow Ideal.sort_key: equal-size colons compare as h does
        key = (len(gens), -len(lat.ring_lattice.sets[colon_idx]), colon_idx, gens, h_idx)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:  # finite carrier: H = N with h = (1) always qualifies
        raise TheoremViolation(f"no certificate for submodule {n_idx} of {lat.module.label}")
    return best_key[-1], best_key[2]


def verify_certificate(
    module: FiniteModule, sub: frozenset, sigma: GabrielFilter, cert: Certificate
) -> tuple[bool, str | None]:
    """Recheck a certificate exhaustively; on failure name the first bad condition."""
    _require_same_ring(module, sigma)
    if cert.filter_ideal not in sigma.members:
        return False, "h not in filter"
    if cert.kind == "totally_principal" and len(cert.subobject_generators) > 1:
        return False, "H not principal"
    h_span = span(module, cert.subobject_generators)
    if not h_span <= sub:
        return False, "H not contained in N"
    for n in sub:
        for a in cert.filter_ideal.elements:
            if module.scalar(a, n) not in h_span:
                return False, "N*h not contained in H"
    return True, None


def totally_torsion_certificate(
    module: FiniteModule, sub: frozenset, sigma: GabrielFilter
) -> Certificate:
    """Certificate with H = 0: the annihilator of N taken as the filter ideal.

    The annihilator is the largest ideal killing N, so the submodule is
    totally torsion iff this certificate exists.
    """
    lat, _, _, ann = _totally_torsion(module, sub, sigma)
    return Certificate("totally_torsion", (), lat.ring_lattice.ideals[ann])


def _totally_torsion(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> tuple:
    """(lattice, N, members, (0 : N)) as indices; (0 : N) must lie in the filter."""
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    members = sigma.member_indices()
    n_idx = lat.idx(sub)
    ann = lat.pair_colon(lat.zero, n_idx)
    if ann not in members:
        raise PreconditionFailed(
            f"submodule is not totally torsion: annihilator "
            f"{lat.ring_lattice.ideals[ann].label} outside {sigma.label}"
        )
    return lat, n_idx, members, ann


def closure_colon_witness(
    module: FiniteModule, sub: frozenset, sigma: GabrielFilter
) -> Ideal:
    """Some filter ideal h with (H : h) equal to the closure of H.

    Searched from the coarsest member down; on finite carriers the witness
    always exists, so coming up empty raises with a full dump.
    """
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    if sub not in lat.index:
        raise NotASubmodule("witness search input is not a submodule")
    members = sigma.member_indices()
    n_idx = lat.index[sub]
    h_idx, = _colon_witnesses(lat, (n_idx,), members)
    if h_idx is None:
        raise TheoremViolation(
            f"no colon witness on {module.label}: submodule={sorted(sub)}, "
            f"closure={sorted(lat.submodules[lat.closure(n_idx, members)])}, "
            f"filter={sigma.label}"
        )
    return lat.ring_lattice.ideals[h_idx]


def _colon_witnesses(
    lat, n_idxs: Sequence[int], members: frozenset, tables: _LatticeTables | None = None
) -> list[int | None]:
    """For each index N of n_idxs, the coarsest member h with (N : h) equal
    to the closure of N, or None.

    (N : h) = {m : h <= (N : m)} and the closure is {m : (N : m) in the
    filter}, so h qualifies iff, on the colons (N : m) that occur, being
    above h is being in the filter.
    """
    occurring = (tables or _LatticeTables(lat)).occurring
    rl = lat.ring_lattice
    up = rl.up_masks()
    member_mask = _mask(members)
    # ring-lattice indices follow Ideal.sort_key, so ties go to the smaller index
    order = sorted(members, key=lambda i: (-len(rl.sets[i]), i))
    out = []
    for n_idx in n_idxs:
        occ = occurring[n_idx]
        occ_members = occ & member_mask
        out.append(next((h_idx for h_idx in order if up[h_idx] & occ == occ_members), None))
    return out


def sigma_maximal(
    module: FiniteModule, family: Sequence[frozenset], sigma: GabrielFilter
) -> list[tuple[frozenset, Ideal]]:
    """Members N of the family that one filter ideal pushes every superset into.

    For each qualifying N the returned h is the largest valid one: the
    intersection of the colons (N : H) over all family members H >= N.
    """
    _require_same_ring(module, sigma)
    if not family:
        raise ValueError("family must be nonempty")
    lat = submodule_lattice(module)
    idxs = sorted(lat.idx(s) for s in family)
    return [
        (lat.submodules[n], lat.ring_lattice.ideals[h])
        for n, h in _sigma_maximal(lat, idxs, sigma.member_indices())
    ]


def _sigma_maximal(lat, family: Sequence[int], members: frozenset) -> list[tuple[int, int]]:
    """(N, h) for each index N of the family whose colons (N : H) into the
    members H >= N meet in a filter ideal; h is that meet, the largest one."""
    rl = lat.ring_lattice
    cm = lat.colon_matrix()
    up = lat.up_masks()
    out = []
    for n in family:
        acc = rl.top
        row = cm[n]
        above = up[n]
        for h in family:
            if above >> h & 1:
                acc = rl.inter(acc, row[h])
        if acc in members:
            out.append((n, acc))
    return out


def upper_closure(
    module: FiniteModule, family: Sequence[frozenset], sigma: GabrielFilter
) -> tuple[frozenset, ...]:
    """All submodules H with H*h <= N for some family member N and filter ideal h."""
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    idxs = [lat.idx(s) for s in family]
    return tuple(
        lat.submodules[h] for h in _bits(_upper_closure(lat, idxs, sigma.member_indices()))
    )


def _upper_closure(
    lat, family: Sequence[int], members: frozenset, tables: _LatticeTables | None = None
) -> int:
    """Bitmask of the indices H with (N : H) in the filter for some index N
    of the family: the OR of the colon groups of N whose colon is a member."""
    groups = (tables or _LatticeTables(lat)).colon_groups
    found = 0
    for n in family:
        for c, mask in groups[n]:
            if c in members:
                found |= mask
    return found


def is_upper_closed(
    module: FiniteModule, family: Sequence[frozenset], sigma: GabrielFilter
) -> bool:
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    idxs = [lat.idx(s) for s in family]
    return _upper_closure(lat, idxs, sigma.member_indices()) == sum(1 << i for i in set(idxs))


def unique_maximal_check(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> bool:
    """Biconditional: the upper closure of {N} has one maximal element iff
    the closure of N belongs to it.  Always true; a mismatch raises."""
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    members = sigma.member_indices()
    n_idx = lat.idx(sub)
    maximal = lat.maximal(_bits(_upper_closure(lat, (n_idx,), members)))
    closure_in_family = lat.pair_colon(n_idx, lat.closure(n_idx, members)) in members
    if (len(maximal) == 1) != closure_in_family:
        raise TheoremViolation(
            f"unique-maximal biconditional failed on {module.label} for "
            f"N={sorted(sub)} under {sigma.label}: maximal={maximal}, "
            f"closure-in-family={closure_in_family}"
        )
    return True


def chain_stability(
    module: FiniteModule, chain: Sequence[frozenset], sigma: GabrielFilter
) -> ChainStability:
    """Smallest pivot m, then largest h, with N_s*h <= N_m for all s >= m."""
    _require_same_ring(module, sigma)
    if not chain:
        raise NotAscending("empty chain")
    for a, b in zip(chain, chain[1:]):
        if not a <= b:
            raise NotAscending("chain is not ascending")
    lat = submodule_lattice(module)
    rl = lat.ring_lattice
    members = sigma.member_indices()
    last = lat.idx(chain[-1])
    for m, sub in enumerate(chain, start=1):
        # colons against later chain terms only shrink, so the last decides
        acc = lat.pair_colon(lat.idx(sub), last)
        if acc in members:
            return ChainStability(stable_index=m, h=rl.ideals[acc])
    raise TheoremViolation("finite chain without stability pivot")


def quotient_transfer_check(
    module: FiniteModule, t_sub: frozenset, sigma: GabrielFilter
) -> bool:
    """Transfer of stability data between M and M/T for totally torsion T.

    A chain's stability pivot depends only on the pair (pivot, last term),
    so the check runs over all inclusion pairs: forward, stability of a pair
    survives to the image pair in M/T with the same h; backward, stability
    of the image pair composed with an ideal killing T comes back down.
    """
    lat, t_idx, members, _ = _totally_torsion(module, t_sub, sigma)
    return _quotient_transfer(lat, (t_idx,), members)[0]


def _quotient_transfer(
    lat, t_idxs: Sequence[int], members: frozenset, tables: _LatticeTables | None = None
) -> list[bool]:
    """The transfer check for each T = N_t of t_idxs, whose annihilators lie
    in the filter.

    A pair N <= M passes on its colon h = (N : M), the colon h_bar of its
    image pair (N + T, M + T) and ann(T) alone.  Which (h, h_bar) occur
    does not depend on the filter and is read from the tables, one mask of
    h_bar per h; which pass is tabulated once per annihilator.  T passes
    iff every occurring pair passes.
    """
    images = (tables or _LatticeTables(lat)).transfer_images
    rl = lat.ring_lattice
    cm = lat.colon_matrix()
    up = rl.up_masks()
    in_filter = [a in members for a in range(rl.n)]
    passing_by_ann: dict[int, list[int]] = {}

    def passing(ann: int) -> list[int]:
        """Bit h_bar of entry h: the colon pair (h, h_bar) passes."""
        times_ann = [rl.prod(a, ann) for a in range(rl.n)]
        out = []
        for h in range(rl.n):
            mask = 0
            for h_bar, composed in enumerate(times_ann):
                # forward: stability of the pair survives to its image with h
                if in_filter[h] and not (up[h] >> h_bar & 1 and in_filter[h_bar]):
                    continue
                # backward: N_m * (h_bar * annT) <= N_n, with h_bar * annT in the filter
                if in_filter[h_bar] and not (in_filter[composed] and up[composed] >> h & 1):
                    continue
                mask |= 1 << h_bar
            out.append(mask)
        return out

    def transfers(t_idx: int) -> bool:
        ann = cm[lat.zero][t_idx]
        if ann not in passing_by_ann:
            passing_by_ann[ann] = passing(ann)
        ok = passing_by_ann[ann]
        return not any(bars & ~passes for bars, passes in zip(images[t_idx], ok))

    return [transfers(t_idx) for t_idx in t_idxs]


@dataclass(frozen=True)
class SigmaPrincipalStatus:
    sigma_principal: bool
    witness: int | None
    totally_principal: Certificate | None


def sigma_principal_status(ideal: Ideal, sigma: GabrielFilter) -> SigmaPrincipalStatus:
    """Single-generator status of an ideal up to closure, and its certificate.

    The ideal is principal-up-to-closure when some element generates the
    same closure; the certificate variant asks for a in I and a filter ideal
    h with I*h <= aA <= I.
    """
    if ideal.ring is not sigma.ring:
        raise RingMismatch("ideal and filter live over different rings")
    rl = ideal_lattice(ideal.ring)
    members = sigma.member_indices()
    witness, cert = _sigma_principal(rl, rl.idx(ideal), members, _principal_indices(rl))
    if cert is not None:
        cert = Certificate("totally_principal", (cert[0],), rl.ideals[cert[1]])
    return SigmaPrincipalStatus(witness is not None, witness, cert)


def _principal_indices(rl) -> list[int]:
    """Ring-lattice index of the principal ideal aA, for each element a."""
    return [rl.index_by_mask[m] for m in rl.cyclic_masks]


def _sigma_principal(
    rl, i_idx: int, members: frozenset, principal: Sequence[int]
) -> tuple[int | None, tuple[int, int] | None]:
    """For I = rl.ideals[i]: the first a in I whose principal ideal has the
    closure of I, and the first (a, h) with h = (aA : I) in the filter;
    principal[a] is the index of aA."""
    elements = sorted(rl.sets[i_idx])
    closure = rl.closure(i_idx, members)
    witness = next((a for a in elements if rl.closure(principal[a], members) == closure), None)
    colons = ((a, rl.pair_colon(principal[a], i_idx)) for a in elements)
    return witness, next((pair for pair in colons if pair[1] in members), None)


# ---------------------------------------------------------------------------
# Exhaustive theorem suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremResult:
    name: str
    instances_checked: int
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    ring_label: str
    filter_label: str
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "ring": self.ring_label,
            "filter": self.filter_label,
            "all_passed": self.all_passed,
            "theorems": [
                {
                    "name": r.name,
                    "instances_checked": r.instances_checked,
                    "passed": r.passed,
                    "counterexample": r.counterexample,
                }
                for r in self.results
            ],
        }


class _Tally:
    def __init__(self):
        self.instances = 0
        self.passed = True
        self.counterexample = None

    def check(self, ok: bool, witness: str, *args, instances: int = 1) -> None:
        """Count the instances; the first failure's counterexample is
        ``witness.format(*args)``, built only then."""
        self.instances += instances
        if not ok and self.passed:
            self.passed = False
            self.counterexample = witness.format(*args)


_THEOREM_ORDER = (
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
)


def _reverify(
    module: FiniteModule, lat, sigma: GabrielFilter, key: tuple[int, int, int]
) -> tuple[bool, str | None]:
    """(ok, reason) for the certificate (H, h) of N_S, key = (H, h, S),
    rechecked on elements: by verify_certificate on A, by generators on A^2."""
    h_idx, colon_idx, s_idx = key
    sub = lat.submodules[s_idx]
    cert = Certificate("totally_fg", lat.min_gens(h_idx), lat.ring_lattice.ideals[colon_idx])
    if module.rank == 1:
        return verify_certificate(module, sub, sigma, cert)
    # generator-level containment; exact since H is a submodule
    h_span = span(module, cert.subobject_generators)
    h_gens = minimal_generators(cert.filter_ideal)
    ok = (
        cert.filter_ideal in sigma.members
        and h_span <= sub
        and all(module.scalar(g, n) in h_span for n in sub for g in h_gens)
    )
    return ok, None if ok else "generator containment failed"


def theorem_suite(ring: FiniteRing, sigma: GabrielFilter) -> SuiteReport:
    """Run every exhaustively checkable statement over the carriers A and A^2.

    Expected outcome is all-pass: the statements are theorems, so any
    counterexample indicates an implementation bug and is reported verbatim.
    """
    if sigma.ring is not ring:
        raise RingMismatch("filter is not over the given ring")
    rl = ideal_lattice(ring)
    members = sigma.member_indices()
    carriers = [free_module(ring, 1), free_module(ring, 2)]
    lattices = [submodule_lattice(m) for m in carriers]

    tallies: dict[str, _Tally] = {name: _Tally() for name in _THEOREM_ORDER}

    for module, lat in zip(carriers, lattices):
        where = module.label
        tables = _lattice_tables(lat)
        cm = lat.colon_matrix()
        # upper[n]: the upper closure of {N_n} as a bitmask, i.e. every H
        # with (N_n : H) in the filter; upper_members[n] lists its bits, and
        # its maximal elements serve two theorems below
        upper = [_upper_closure(lat, (n,), members, tables) for n in range(lat.n)]
        upper_members = [tables.family_bits[fam] for fam in upper]
        maxima = [tables.family_maxima[fam] for fam in upper]

        # certificates exist canonically and re-verify; a certificate's h is
        # a filter member, so its verdict is re-verified once per set of tables
        t = tallies["certificates-verify"]
        certificates = [_tfg_certificate(lat, s_idx, members) for s_idx in range(lat.n)]
        for s_idx, (h_idx, colon_idx) in enumerate(certificates):
            key = (h_idx, colon_idx, s_idx)
            if key not in tables.verified:
                tables.verified[key] = _reverify(module, lat, sigma, key)
            ok, reason = tables.verified[key]
            t.check(ok, "{}: S={}: {}", where, s_idx, reason)

        # images of certified submodules under quotient maps stay certified:
        # ((H + N) : (S + N)) contains (H : S) for the certificate's H; over
        # every N, the images are rows H and S of the sum matrix
        t = tallies["totally-fg-quotient-images"]
        sm = lat.sum_matrix()
        member_mask = _mask(members)
        first_bad = None  # the least failing (N, S)
        for s_idx, (h_idx, _) in enumerate(certificates):
            if tables.quotient_images[h_idx, s_idx] & ~member_mask:
                images = [cm[image_h][image_s] for image_h, image_s in zip(sm[h_idx], sm[s_idx])]
                n_idx = next(n for n, c in enumerate(images) if c not in members)
                if first_bad is None or n_idx < first_bad[0]:
                    first_bad = (n_idx, s_idx)
        t.check(
            first_bad is None, "{}: N={}, S={}", where, *(first_bad or ()),
            instances=lat.n * lat.n,
        )

        # closure-colon witness exists for every submodule
        t = tallies["closure-colon-witness"]
        witnesses = _colon_witnesses(lat, range(lat.n), members, tables)
        for s_idx, h_idx in enumerate(witnesses):
            t.check(h_idx is not None, "{}: S={}", where, s_idx)

        # upper closures of singletons are upper closed with maxima
        t = tallies["upper-closed-families-have-maximal"]
        for n_idx in range(lat.n):
            # the upper closure of a family is the union of its members' ones
            closed = not any(upper[h] & ~upper[n_idx] for h in upper_members[n_idx])
            t.check(closed and bool(maxima[n_idx]), "{}: N={}", where, n_idx)

        # unique maximal element iff the closure joins the upper closure
        t = tallies["unique-maximal"]
        for n_idx in range(lat.n):
            rhs = bool(upper[n_idx] >> lat.closure(n_idx, members) & 1)
            t.check((len(maxima[n_idx]) == 1) == rhs, "{}: N={}", where, n_idx)

        # quotients by totally torsion submodules preserve stability data
        t = tallies["totally-torsion-quotient-transfer"]
        torsion = [t_idx for t_idx in range(lat.n) if cm[lat.zero][t_idx] in members]
        for t_idx, ok in zip(torsion, _quotient_transfer(lat, torsion, members, tables)):
            t.check(ok, "{}: T={}", where, t_idx)

    # ring-level statements
    principal_idx = _principal_indices(rl)

    t = tallies["finite-type"]
    for b in sorted(sigma.members, key=Ideal.sort_key):
        gens = minimal_generators(b)
        acc_idx = rl.zero
        for g in gens:
            acc_idx = rl.sum(acc_idx, principal_idx[g])
        t.check(
            rl.ideals[acc_idx].elements == b.elements,
            "basis {} not regenerated from {}", b.label, gens,
        )

    # (closure witness, certificate) of every ideal, as sigma_principal_status
    principal_status = [_sigma_principal(rl, i, members, principal_idx) for i in range(rl.n)]

    t = tallies["kaplansky-prime-criterion"]
    pir_side = all(cert is not None for _, cert in principal_status)
    k_primes = spec_partition(sigma).K
    prime_pir_side = all(principal_status[rl.idx(p)][1] is not None for p in k_primes)
    t.check(pir_side == prime_pir_side, "PIR={}, K-primes={}", pir_side, prime_pir_side)

    t = tallies["kaplansky-noetherian-corollary"]
    sigma_pir = all(witness is not None for witness, _ in principal_status)
    t.check(pir_side == sigma_pir, "totally-PIR={}, sigma-PIR={}", pir_side, sigma_pir)

    tallies["meet-decomposition"].check(
        meet_decomposition_check(sigma), "filter differs from its prime meet"
    )

    status = jansian_status(sigma)
    tallies["almost-jansian"].check(
        status.is_jansian and status.is_almost_jansian,
        "jansian structure failed on a finite ring",
    )

    # induced_filter checks the image description and the Gabriel rule
    t = tallies["induced-filters"]
    maps = [identity_map(ring)] + [proj for _, proj in local_decomposition(ring)]
    for ring_map in maps:
        failure = None
        try:
            induced_filter(ring_map, sigma)
        except TheoremViolation as exc:
            failure = exc
        t.check(failure is None, "{}", failure)

    results = tuple(
        TheoremResult(
            name,
            tallies[name].instances,
            tallies[name].passed,
            tallies[name].counterexample,
        )
        for name in _THEOREM_ORDER
    )
    return SuiteReport(ring.label, sigma.label, results)
