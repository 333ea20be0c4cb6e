"""Finiteness certificates and exhaustive theorem suites.

A certificate witnesses that a submodule N is "totally finite" relative to
a filter: a finitely generated H <= N together with a filter ideal h such
that N*h <= H.  On finite carriers every submodule has one (H = N with
h = (1)), so "totally noetherian" never fails here, and a statement that
only compares it with itself cannot fail either: the direct-sum, chain,
maximal-condition, Cohen and local-property statements are left out for
that reason, as is the statement that the filter is of finite type.  The
suite does not run closure_colon_witness either: the least member b of a
filter witnesses closure(N) = (N : b) unless the ring lattice is wrong,
and every planted defect that made that check fail fails another theorem
too.  The interesting work is finding canonical certificates
deterministically and checking, over every submodule of the carriers A
and A^2, what can fail: certificates re-verify and survive quotient maps,
upper closures are closed, have maximal elements and have one exactly
when they hold the closure, and every pair N <= M has h <= h_bar and
h_bar*ann(T) <= h, for h = (N : M) and h_bar = (N + T : M + T), so
stability data passes through M -> M/T under every filter holding
ann(T); then, on the ring, the Kaplansky criteria, the meet
decomposition, jansian structure and induced filters.
Both sides of every biconditional are computed from the definitions; a
mismatch means an implementation bug and is reported.

Each public predicate is a thin wrapper over an index-level core on
(tables or lattice, index, filter member indices); the theorem suite calls
the same cores, so it checks what the public functions return.  A
TheoremViolation raised inside the suite is a failed instance of the
theorem being checked, with the violation as counterexample, not a
traceback; inside a carrier's checks it also skips the rest of them.

The suite runs once per (ring, filter), but much of its work does not
depend on the filter: the colons grouped by value along each colon-matrix
row, the certificate candidates (H, (H : N)) of each N, ranked once by
the canonical order, the image colons of each certificate pair under
every quotient map, the quotient-transfer verdict of each T, and the
element-level re-verification of each certificate.  That re-verification
tests N*h <= H on whole rows of ring arithmetic: on A, on the ring's
multiplication rows, through verify_certificate; on A^2, on the span of
H's generators, built once per H, and the rows g*x of each generator g
of h, built once per g with ``module.scalar``.
``_LatticeTables`` holds these for one lattice, each entry built on its
first read, and the filter-dependent part of every check is a membership
test against them.  Suite and public predicates alike get them from
``_lattice_tables(lat)``, which keeps one set per lattice on the lattice's
ring, as the ring keeps its lattices, so all of a ring's filters share
them and they are freed with the ring.  Like the lattice's own derived
rows, they read a colon or sum entry once: a defect planted after the
first read needs the ring's "suite_tables" entry dropped.  The principal
ideal aA that the Kaplansky criteria read is the ring lattice's own
``cyclic[a]``, built with the lattice.

On a ring A with two or more local factors, A = prod A_i
(``local_decomposition``), the transfer verdicts and quotient images of
the lattice of A or A^2 are read from the factors' own tables, those of
``submodule_lattice(free_module(A_i, r))``, kept on the factor rings that
A caches.  That happens only behind a check, made once per lattice on the
first read (``_LatticeTables.factor_view``): N -> (pi_i N) and
J -> (pi_i J), computed on elements, are bijections onto the products of
the factors' lattices and ideal lattices, the zero goes to the zeros, and
every colon-matrix row, sum-matrix row and up-set is the product of the
factors' entries; passing[ann] is compared once per annihilator.  When a
comparison fails, or the factor side raises, the direct loops run as on a
local ring.  Why the verdicts are the same: with product tables, a pair
(N, M) fails for T exactly when some factor pair (N_i, M_i) fails for
T_i, and every factor pair extends to a product pair; likewise the image
colons over every N are the product of the factors' image sets.  A defect
planted in the tables of A is therefore never read from the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from math import prod
from operator import add, and_, or_
from typing import Sequence

from .errors import (
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

    kind: str  # totally_fg | totally_principal
    subobject_generators: tuple
    filter_ideal: Ideal


class _LatticeTables:
    """The filter-independent tables of one lattice, each entry built on its
    first read; see the module docstring for who holds them.

    ``factor_view``, built once on its first read, is the local factors'
    view of a lattice of A or A^2 whose tables are products of the
    factors' tables, or None.  With it, transfers[T] is the AND of the
    factors' verdicts at the images T_i, when passing[ann(T)] is a product
    too, and quotient_images[(H, S)] is the mask of the ideals whose factor
    tuples lie in the product of the factors' image sets; without it both
    are the direct loops below."""

    def __init__(self, lat):
        self.lat = lat
        # colon_groups[n]: (c, mask) for each colon c of colon-matrix row n,
        # the mask holding the columns H with (N_n : H) = c
        self.colon_groups = _Rows(self._colon_groups)
        # quotient_images[(H, S)]: the colons ((H + N) : (S + N)) over every N
        self.quotient_images = _Rows(self._quotient_images)
        # passing[ann][h]: the h_bar with h <= h_bar and h_bar*ann <= h, as a mask
        self.passing = _Rows(self._passing)
        # transfers[T]: the quotient-transfer verdict of T, as in _transfers
        self.transfers = _Rows(self._transfers)
        # candidates[n]: every (H, (H : N_n)) with H <= N_n, canonical first
        self.candidates = _Rows(self._candidates)
        # verified[(H, h, S)]: the re-verification of the certificate (H, h)
        # of N_S, for an h in the filter
        self.verified: dict[tuple[int, int, int], tuple[bool, str | None]] = {}
        # spans[H] and scalar_rows[g], read by the re-verification on a
        # lattice of a module other than A: the span of H's generators by
        # modules.span, and g*x for every element x by module.scalar
        self.spans = _Rows(lambda h_idx: span(lat.module, lat.min_gens(h_idx)))
        self.scalar_rows = _Rows(
            lambda g: list(map(partial(lat.module.scalar, g), lat.module.all_indices()))
        )

    def _candidates(self, n_idx: int) -> list[tuple[int, int]]:
        """The pairs (H, (H : N)) for H <= N = N_n, sorted by fewest
        generators of H, then largest colon, then colon index, generators
        and H; ring-lattice indices follow Ideal.sort_key, so equal-size
        colons compare as the ideals do."""
        lat = self.lat
        cm, up, colons = lat.colon_matrix(), lat.up_masks(), lat.ring_lattice.sets
        keys = []
        # a sub-object inside N_n has an index no larger than n
        for h_idx in range(n_idx + 1):
            if up[h_idx] >> n_idx & 1:
                colon_idx = cm[h_idx][n_idx]
                gens = lat.min_gens(h_idx)
                keys.append((len(gens), -len(colons[colon_idx]), colon_idx, gens, h_idx))
        keys.sort()
        return [(key[-1], key[2]) for key in keys]

    def _colon_groups(self, n_idx: int) -> tuple[tuple[int, int], ...]:
        groups: dict[int, int] = {}
        for h, c in enumerate(self.lat.colon_matrix()[n_idx]):
            groups[c] = groups.get(c, 0) | 1 << h
        return tuple(groups.items())

    def _quotient_images(self, pair: tuple[int, int]) -> int:
        view = self.factor_view
        if view is not None:
            return view.quotient_images(pair)
        cm, sm = self.lat.colon_matrix(), self.lat.sum_matrix()
        h_idx, s_idx = pair
        return _mask({cm[image_h][image_s] for image_h, image_s in zip(sm[h_idx], sm[s_idx])})

    @cached_property
    def factor_view(self) -> _FactorView | None:
        """The local factors' view of this lattice of A^r, for a ring A with
        two or more local factors whose tables pass the product check; None
        otherwise, or when the factor side raises."""
        lat = self.lat
        module = free_module(lat.ring, 1) if lat is lat.ring_lattice else lat.module
        if module is not lat.ring._cache.get(("free_module", module.rank)):
            return None  # a module other than A^r
        try:
            factors = local_decomposition(lat.ring)
            view = _FactorView(self, module, factors) if len(factors) > 1 else None
        except (TheoremViolation, LookupError):
            return None
        return view if view is not None and view.holds else None

    @cached_property
    def pair_colons(self) -> list[tuple[tuple[int, ...], list[int]]]:
        """For each N: the M >= N and the colons (N : M), in the same order."""
        lat, cm = self.lat, self.lat.colon_matrix()
        return [(lat.upset(n), [cm[n][m] for m in lat.upset(n)]) for n in range(lat.n)]

    def _passing(self, ann: int) -> list[int]:
        rl = self.lat.ring_lattice
        up = rl.up_masks()
        below = [0] * rl.n  # below[h]: the h_bar with h_bar*ann <= h
        for h_bar in range(rl.n):
            for h in _bits(up[rl.prod(h_bar, ann)]):
                below[h] |= 1 << h_bar
        return [up_h & below_h for up_h, below_h in zip(up, below)]

    def _transfers(self, t_idx: int) -> bool:
        """Whether, for T = N_t, each image colon h_bar = (N + T : M + T) of a
        pair N <= M lies in passing[ann(T)][h], h = (N : M); images[h] holds them.
        Read from the factors when the factor view holds and passing[ann(T)]
        is the product of the factors' rows."""
        cm = self.lat.colon_matrix()
        ann = cm[self.lat.zero][t_idx]
        view = self.factor_view
        if view is not None and view.passing_holds[ann]:
            return view.transfers(t_idx)
        plus_t = self.lat.sum_matrix()[t_idx]
        images = [0] * self.lat.ring_lattice.n
        for n_idx, (ups, colons) in enumerate(self.pair_colons):
            row_bar = cm[plus_t[n_idx]]
            for m_idx, h in zip(ups, colons):
                images[h] |= 1 << row_bar[plus_t[m_idx]]
        return not any(bars & ~ok for bars, ok in zip(images, self.passing[ann]))


def _lattice_tables(lat) -> _LatticeTables:
    """The tables of the lattice, kept on its ring: built on first read, freed with the ring."""
    if "suite_tables" not in lat.ring._cache:
        lat.ring._cache["suite_tables"] = _Rows(_LatticeTables)
    return lat.ring._cache["suite_tables"][lat]


def _product_map(sets, elem_images, targets) -> tuple[list, list, list] | None:
    """(phi, weights, inverse): phi[i][n] is the index in targets[i] of the
    image of sets[n] under elem_images[i]; the code sum_i phi[i][n]*weights[i]
    is mixed radix on the targets' sizes, first target most significant, and
    inverse[code] is n.  None unless the code is a bijection onto the product
    of the targets."""
    phi = []
    for elems, target in zip(elem_images, targets):
        bits = [1 << e for e in elems]
        phi.append([target.index_by_mask[reduce(or_, map(bits.__getitem__, s))] for s in sets])
    sizes = [target.n for target in targets]
    weights = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    inverse = [-1] * prod(sizes)
    codes = reduce(partial(map, add), ([x * w for x in p] for p, w in zip(phi, weights)))
    for n, code in enumerate(codes):
        inverse[code] = n
    if len(sets) != len(inverse) or -1 in inverse:
        return None
    return phi, weights, inverse


def _fibres(p: list[int], size: int) -> list[int]:
    """fibres[k]: the mask of the indices n with p[n] == k."""
    fibres = [0] * size
    for n, k in enumerate(p):
        fibres[k] |= 1 << n
    return fibres


def _lift(fibres: list[int], indices) -> int:
    """The mask of the product indices whose image lies in a set of factor indices."""
    return reduce(or_, map(fibres.__getitem__, indices), 0)


def _is_mask_of(indices: tuple[int, ...], mask: int) -> bool:
    """Whether the indices are the set bits of the mask, each once: k powers
    of two sum to a number with k set bits only when no two are equal."""
    return _mask(indices) == mask and len(indices) == mask.bit_count()


def _rows_are_products(rows, factor_rows, phi, weights, inverse) -> bool:
    """Whether rows[n][m] == inverse[sum_i weights[i] * factor_rows[i][a][b]]
    with a, b = phi[i][n], phi[i][m], for every n and m.  Each factor row is
    lifted to the product's columns once per factor index, and a product row
    is the sum of one lifted row per factor."""
    lifted = [
        [list(map([w * x for x in row].__getitem__, p)) for row in f_rows]
        for f_rows, p, w in zip(factor_rows, phi, weights)
    ]
    for n, row in enumerate(rows):
        codes = reduce(partial(map, add), [lift[p[n]] for lift, p in zip(lifted, phi)])
        if row != tuple(map(inverse.__getitem__, codes)):
            return False
    return True


class _FactorView:
    """The tables of the local factors A_i of A, for the lattice of A^r, and
    the maps N -> (pi_i N) and J -> (pi_i J) onto the products of the
    factors' lattices and ideal lattices.  ``holds`` says whether the tables
    the transfer loop reads, except passing, are the products of the
    factors' tables; ``passing_holds[ann]`` says it for passing[ann]."""

    def __init__(self, tables: _LatticeTables, module: FiniteModule, factors: list):
        lat = tables.lat
        self.tables, self.rl = tables, lat.ring_lattice
        maps = [proj.mapping for _, proj in factors]
        modules = [free_module(ring, module.rank) for ring, _ in factors]
        self.factors = [_lattice_tables(submodule_lattice(m)) for m in modules]
        flats = [t.lat for t in self.factors]
        images = [
            [m._coset_of[tuple(map(mapping.__getitem__, v))] for v in module.reps]
            for m, mapping in zip(modules, maps)
        ]
        on_lat = _product_map(lat.sets, images, flats)
        on_rl = _product_map(self.rl.sets, maps, [f.ring_lattice for f in flats])
        if on_lat is None or on_rl is None:
            self.holds = False
            return
        self.phi, weights, inverse = on_lat
        self.psi, ring_weights, ring_inverse = on_rl
        # ring_lifts[i][mask]: the ideals whose i-th image is in a mask of the factor's ideals
        self.ring_lifts = [
            _Rows(lambda mask, fibres=_fibres(p, f.ring_lattice.n): _lift(fibres, _bits(mask)))
            for p, f in zip(self.psi, flats)
        ]
        cm, sm = lat.colon_matrix(), lat.sum_matrix()
        up_sets = []
        for p, f in zip(self.phi, flats):
            fibres = _fibres(p, f.n)
            up_sets.append([_lift(fibres, f.upset(k)) for k in range(f.n)])
        self.holds = (
            all(p[lat.zero] == f.zero for p, f in zip(self.phi, flats))
            and all(
                _is_mask_of(lat.upset(n), reduce(and_, [u[p[n]] for u, p in zip(up_sets, self.phi)]))
                for n in range(lat.n)
            )
            and _rows_are_products(
                [cm[n] for n in range(lat.n)],
                [[f.colon_matrix()[k] for k in range(f.n)] for f in flats],
                self.phi, ring_weights, ring_inverse,
            )
            and _rows_are_products(
                [sm[n] for n in range(lat.n)],
                [[f.sum_matrix()[k] for k in range(f.n)] for f in flats],
                self.phi, weights, inverse,
            )
        )
        self.passing_holds = _Rows(self._passing_holds)

    def _passing_holds(self, ann: int) -> bool:
        # a violation raised by this lattice's passing[ann] would be raised
        # the same way by the direct loop, which reads it last
        lifted = [
            list(map(lifts.__getitem__, t.passing[p[ann]]))
            for t, p, lifts in zip(self.factors, self.psi, self.ring_lifts)
        ]
        expected = [
            reduce(and_, [row[p[h]] for row, p in zip(lifted, self.psi)]) for h in range(self.rl.n)
        ]
        return self.tables.passing[ann] == expected

    def transfers(self, t_idx: int) -> bool:
        """The AND of the factors' transfer verdicts at the images T_i of T."""
        return all(t.transfers[p[t_idx]] for t, p in zip(self.factors, self.phi))

    def quotient_images(self, pair: tuple[int, int]) -> int:
        """The mask of the ideals whose factor tuples lie in the product of
        the factors' image sets at (pi_i H, pi_i S)."""
        h_idx, s_idx = pair
        return reduce(and_, [
            lifts[t.quotient_images[p[h_idx], p[s_idx]]]
            for t, p, lifts in zip(self.factors, self.phi, self.ring_lifts)
        ])


def tfg_certificate(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> Certificate:
    """Canonical certificate for a submodule.

    Among submodules H <= N whose colon (H : N) lies in the filter, pick the
    one minimizing generator count, then maximizing h, then lexicographic on
    h and on the generators.  h is always the full colon (H : N): any valid
    filter ideal sits inside it, so it is the coarsest witness.
    """
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    found = _tfg_certificate(_lattice_tables(lat), lat.idx(sub), sigma.member_indices())
    if found is None:  # finite carrier: H = N with h = (1) always qualifies
        raise TheoremViolation(f"no certificate for submodule {lat.idx(sub)} of {module.label}")
    h_idx, colon_idx = found
    return Certificate("totally_fg", lat.min_gens(h_idx), lat.ring_lattice.ideals[colon_idx])


def _tfg_certificate(
    tables: _LatticeTables, n_idx: int, members: frozenset
) -> tuple[int, int] | None:
    """(H, (H : N)) as indices for the canonical certificate of N_n: the
    first candidate whose colon lies in the filter, or None."""
    return next((pair for pair in tables.candidates[n_idx] if pair[1] in members), None)


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
    # row n of the orbit rows holds a*n for every a; on A it is the ring's
    # multiplication row of n
    orbit, h_elems = module.orbit_rows, cert.filter_ideal.elements
    if not all(h_span.issuperset(map(orbit[n].__getitem__, h_elems)) for n in sub):
        return False, "N*h not contained in H"
    return True, None


def closure_colon_witness(
    module: FiniteModule, sub: frozenset, sigma: GabrielFilter
) -> Ideal:
    """Some filter ideal h with (H : h) equal to the closure of H.

    Searched from the coarsest member down; on finite carriers the witness
    always exists, so coming up empty raises with a full dump.

    (H : h) = {m : h <= (H : m)} and the closure is {m : (H : m) in the
    filter}, so h qualifies iff, on the colons (H : m) that occur, being
    above h is being in the filter.
    """
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    if sub not in lat.index:
        raise NotASubmodule("witness search input is not a submodule")
    members = sigma.member_indices()
    n_idx = lat.index[sub]
    rl = lat.ring_lattice
    up = rl.up_masks()
    occurring = _mask(set(lat.colon_row(n_idx)))
    occurring_members = occurring & _mask(members)
    # ring-lattice indices follow Ideal.sort_key, so ties go to the smaller index
    order = sorted(members, key=lambda i: (-len(rl.sets[i]), i))
    h_idx = next((h for h in order if up[h] & occurring == occurring_members), None)
    if h_idx is None:
        raise TheoremViolation(
            f"no colon witness on {module.label}: submodule={sorted(sub)}, "
            f"closure={sorted(lat.submodules[lat.closure(n_idx, members)])}, "
            f"filter={sigma.label}"
        )
    return rl.ideals[h_idx]


def upper_closure(
    module: FiniteModule, family: Sequence[frozenset], sigma: GabrielFilter
) -> tuple[frozenset, ...]:
    """All submodules H with H*h <= N for some family member N and filter ideal h."""
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    idxs = [lat.idx(s) for s in family]
    found = _upper_closure(_lattice_tables(lat), idxs, sigma.member_indices())
    return tuple(lat.submodules[h] for h in _bits(found))


def _upper_closure(tables: _LatticeTables, family: Sequence[int], members: frozenset) -> int:
    """Bitmask of the indices H with (N : H) in the filter for some index N
    of the family: the OR of the colon groups of N whose colon is a member."""
    found = 0
    for n in family:
        for c, mask in tables.colon_groups[n]:
            if c in members:
                found |= mask
    return found


def quotient_transfer_check(
    module: FiniteModule, t_sub: frozenset, sigma: GabrielFilter
) -> bool:
    """Transfer of stability data between M and M/T for totally torsion T.

    A chain's stability pivot depends only on the pair (pivot, last term),
    so the check runs over all inclusion pairs N <= M: with h = (N : M) and
    h_bar = (N + T : M + T), h <= h_bar carries stability to the image pair,
    and h_bar*ann(T) <= h brings it back.  Neither reads the filter, which
    only has to hold ann(T), as filters are closed upward and under products.
    T must be totally torsion: (0 : T) must lie in the filter.
    """
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    t_idx = lat.idx(t_sub)
    ann = lat.pair_colon(lat.zero, t_idx)
    if ann not in sigma.member_indices():
        raise PreconditionFailed(
            f"submodule is not totally torsion: annihilator "
            f"{lat.ring_lattice.ideals[ann].label} outside {sigma.label}"
        )
    return _lattice_tables(lat).transfers[t_idx]


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
    witness, cert = _sigma_principal(rl, rl.idx(ideal), members)
    if cert is not None:
        cert = Certificate("totally_principal", (cert[0],), rl.ideals[cert[1]])
    return SigmaPrincipalStatus(witness is not None, witness, cert)


def _sigma_principal(rl, i_idx: int, members: frozenset) -> tuple[int | None, tuple | None]:
    """For I = rl.ideals[i]: the first a in I whose principal ideal aA,
    ring-lattice index rl.cyclic[a], has the closure of I, and the first
    (a, h) with h = (aA : I) in the filter."""
    elements, principal = sorted(rl.sets[i_idx]), rl.cyclic
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

    def run(self, check, *args):
        """check(*args), or None when it raises a TheoremViolation: the
        theorem has then failed with the violation as its counterexample,
        and the ``check`` of that None counts the failed instance."""
        try:
            return check(*args)
        except TheoremViolation as exc:
            self.check(False, "{}", exc, instances=0)
            return None


_THEOREM_ORDER = (
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
)


def _reverify(
    module: FiniteModule, tables: _LatticeTables, sigma: GabrielFilter, key: tuple[int, int, int]
) -> tuple[bool, str | None]:
    """(ok, reason) for the certificate (H, h) of N_S, key = (H, h, S),
    rechecked on elements: by verify_certificate on A; on A^2 by generators,
    on the span of H and the rows g*x of each generator g of h, each built
    once per set of tables."""
    lat = tables.lat
    h_idx, colon_idx, s_idx = key
    sub = lat.submodules[s_idx]
    h_ideal = lat.ring_lattice.ideals[colon_idx]
    if module.rank == 1:
        return verify_certificate(module, sub, sigma, Certificate(
            "totally_fg", lat.min_gens(h_idx), h_ideal))
    # generator-level containment; exact since H is a submodule
    h_span = tables.spans[h_idx]
    rows = map(tables.scalar_rows.__getitem__, minimal_generators(h_ideal))
    ok = (
        colon_idx in sigma.member_indices()
        and h_span <= sub
        and all(h_span.issuperset(map(row.__getitem__, sub)) for row in rows)
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
        # a TheoremViolation fails the theorem being checked, t, and skips the
        # rest of this carrier; before the first check, t is certificates-verify
        t = tallies["certificates-verify"]
        try:
            cm = lat.colon_matrix()
            # upper[n]: the upper closure of {N_n} as a bitmask, i.e. every H
            # with (N_n : H) in the filter; the maximal elements of each
            # distinct mask, decided once, serve two theorems below
            upper = [_upper_closure(tables, (n,), members) for n in range(lat.n)]
            maxima = {fam: lat.maximal(_bits(fam)) for fam in set(upper)}

            # certificates exist canonically and re-verify; a certificate's h is
            # a filter member, so its verdict is re-verified once per set of tables
            certificates = [_tfg_certificate(tables, s_idx, members) for s_idx in range(lat.n)]
            for s_idx, cert in enumerate(certificates):
                key = cert and (*cert, s_idx)
                if key and key not in tables.verified:
                    tables.verified[key] = _reverify(module, tables, sigma, key)
                ok, reason = tables.verified[key] if key else (False, "no certificate")
                t.check(ok, "{}: S={}: {}", where, s_idx, reason)

            # images of certified submodules under quotient maps stay certified:
            # ((H + N) : (S + N)) contains (H : S) for the certificate's H; over
            # every N, the images are rows H and S of the sum matrix; an S without
            # a certificate has failed above
            t = tallies["totally-fg-quotient-images"]
            sm = lat.sum_matrix()
            member_mask = _mask(members)
            first_bad = None  # the least failing (N, S)
            for s_idx, cert in enumerate(certificates):
                if cert is None:
                    continue
                h_idx = cert[0]
                if tables.quotient_images[h_idx, s_idx] & ~member_mask:
                    images = [cm[im_h][im_s] for im_h, im_s in zip(sm[h_idx], sm[s_idx])]
                    n_idx = next(n for n, c in enumerate(images) if c not in members)
                    if first_bad is None or n_idx < first_bad[0]:
                        first_bad = (n_idx, s_idx)
            t.check(
                first_bad is None, "{}: N={}, S={}", where, *(first_bad or ()),
                instances=lat.n * lat.n,
            )

            # upper closures of singletons are upper closed with maxima
            t = tallies["upper-closed-families-have-maximal"]
            verdicts: dict[int, bool] = {}  # by upper-closure mask
            for n_idx, fam in enumerate(upper):
                if fam not in verdicts:
                    # the upper closure of a family is the union of its members' ones
                    closed = not any(upper[h] & ~fam for h in _bits(fam))
                    verdicts[fam] = closed and bool(maxima[fam])
                t.check(verdicts[fam], "{}: N={}", where, n_idx)

            # unique maximal element iff the closure joins the upper closure
            t = tallies["unique-maximal"]
            for n_idx, fam in enumerate(upper):
                ok = (len(maxima[fam]) == 1) == bool(fam >> lat.closure(n_idx, members) & 1)
                t.check(ok, "{}: N={}", where, n_idx)

            # quotients by totally torsion submodules preserve stability data
            t = tallies["totally-torsion-quotient-transfer"]
            for t_idx in range(lat.n):
                if cm[lat.zero][t_idx] in members:
                    t.check(tables.transfers[t_idx], "{}: T={}", where, t_idx)
        except TheoremViolation as exc:
            t.check(False, "{}", exc)

    # ring-level statements: (closure witness, certificate) of every ideal, as
    # sigma_principal_status; the corollary reads the same statuses, so a
    # violation here fails both
    t = tallies["kaplansky-prime-criterion"]
    corollary = tallies["kaplansky-noetherian-corollary"]
    principal_status = t.run(lambda: [_sigma_principal(rl, i, members) for i in range(rl.n)])
    if principal_status is None:
        for failed in (t, corollary):
            failed.check(False, "{}", t.counterexample)
    else:
        pir_side = all(cert is not None for _, cert in principal_status)
        partition = t.run(spec_partition, sigma)
        prime_pir_side = partition and all(
            principal_status[rl.idx(p)][1] is not None for p in partition.K
        )
        t.check(pir_side == prime_pir_side, "PIR={}, K-primes={}", pir_side, prime_pir_side)

        sigma_pir = all(witness is not None for witness, _ in principal_status)
        corollary.check(
            pir_side == sigma_pir, "totally-PIR={}, sigma-PIR={}", pir_side, sigma_pir
        )

    t = tallies["meet-decomposition"]
    t.check(t.run(meet_decomposition_check, sigma), "filter differs from its prime meet")

    t = tallies["almost-jansian"]
    status = t.run(jansian_status, sigma)
    t.check(
        status and status.is_jansian and status.is_almost_jansian,
        "jansian structure failed on a finite ring",
    )

    # induced_filter checks the image description and the Gabriel rule
    t = tallies["induced-filters"]
    factors = t.run(local_decomposition, ring) or ()
    for ring_map in [identity_map(ring)] + [proj for _, proj in factors]:
        t.check(t.run(induced_filter, ring_map, sigma), "no filter along {}", ring_map.kind)

    results = tuple(
        TheoremResult(name, t.instances, t.passed, t.counterexample) for name, t in tallies.items()
    )
    return SuiteReport(ring.label, sigma.label, results)
