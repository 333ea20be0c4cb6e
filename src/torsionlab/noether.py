"""Finiteness certificates and exhaustive theorem suites.

A certificate witnesses that a submodule N is "totally finite" relative to
a filter: a finitely generated H <= N together with a filter ideal h such
that N*h <= H.  On finite carriers certificates always exist, so here the
interesting work is finding canonical ones deterministically and checking,
over every submodule of the carriers A and A^2, the biconditionals that
relate certificates, chain stability, maximality, prime criteria and
localization.  Both sides of every biconditional are computed from the
definitions; a mismatch means an implementation bug and is reported.

Each public predicate is a thin wrapper over an index-level core on
(lattice, index, filter member indices); the theorem suite calls the same
cores, so it checks what the public functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    filter_from_prime,
    ideal_closure,  # unused here; perfbench/spans.py binds noether.ideal_closure
    induced_filter,
    jansian_status,
    meet_decomposition_check,
    spec_partition,
)
from .modules import (
    FiniteModule,
    free_module,
    is_submodule,
    span,
    submodule_lattice,
)
from .rings import (
    FiniteRing,
    Ideal,
    ideal_lattice,
    identity_map,
    local_decomposition,
    minimal_generators,
    prime_spectrum,
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
    if not is_submodule(module, sub):
        raise NotASubmodule("witness search input is not a submodule")
    lat = submodule_lattice(module)
    members = sigma.member_indices()
    n_idx = lat.idx(sub)
    h_idx = _colon_witness(lat, n_idx, members)
    if h_idx is None:
        raise TheoremViolation(
            f"no colon witness on {module.label}: submodule={sorted(sub)}, "
            f"closure={sorted(lat.submodules[lat.closure(n_idx, members)])}, "
            f"filter={sigma.label}"
        )
    return lat.ring_lattice.ideals[h_idx]


def _colon_witness(lat, n_idx: int, members: frozenset) -> int | None:
    """The coarsest member h with (N : h) equal to the closure of N, or None.

    (N : h) = {m : h <= (N : m)} and the closure is {m : (N : m) in the
    filter}, so h qualifies iff, on the colons (N : m) that occur, being
    above h is being in the filter.
    """
    rl = lat.ring_lattice
    up = rl.up_masks()
    occurring = 0
    for c in set(lat.colon_row(n_idx)):
        occurring |= 1 << c
    occurring_members = occurring & sum(1 << c for c in members)
    # ring-lattice indices follow Ideal.sort_key, so ties go to the smaller index
    for h_idx in sorted(members, key=lambda i: (-len(rl.sets[i]), i)):
        if up[h_idx] & occurring == occurring_members:
            return h_idx
    return None


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
        lat.submodules[h] for h in _upper_closure(lat, idxs, sigma.member_indices())
    )


def _upper_closure(lat, family: Sequence[int], members: frozenset) -> list[int]:
    """Indices H with (N : H) in the filter for some index N of the family."""
    cm = lat.colon_matrix()
    found = set()
    for n in family:
        found.update(h for h, c in enumerate(cm[n]) if c in members)
    return sorted(found)


def is_upper_closed(
    module: FiniteModule, family: Sequence[frozenset], sigma: GabrielFilter
) -> bool:
    return set(upper_closure(module, family, sigma)) == set(family)


def unique_maximal_check(module: FiniteModule, sub: frozenset, sigma: GabrielFilter) -> bool:
    """Biconditional: the upper closure of {N} has one maximal element iff
    the closure of N belongs to it.  Always true; a mismatch raises."""
    _require_same_ring(module, sigma)
    lat = submodule_lattice(module)
    members = sigma.member_indices()
    n_idx = lat.idx(sub)
    maximal = lat.maximal(_upper_closure(lat, (n_idx,), members))
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
    return _quotient_transfer(lat, t_idx, members)


def _quotient_transfer(lat, t_idx: int, members: frozenset) -> bool:
    """The transfer check for T = N_t, whose annihilator lies in the filter."""
    rl = lat.ring_lattice
    ann = lat.pair_colon(lat.zero, t_idx)
    cm = lat.colon_matrix()
    up = rl.up_masks()
    in_filter = [a in members for a in range(rl.n)]
    times_ann = [rl.prod(a, ann) for a in range(rl.n)]
    plus_t = [lat.sum(i, t_idx) for i in range(lat.n)]
    for n_idx in range(lat.n):
        row = cm[n_idx]
        row_bar = cm[plus_t[n_idx]]
        for m_idx in lat.upset(n_idx):
            h = row[m_idx]
            h_bar = row_bar[plus_t[m_idx]]
            if in_filter[h]:
                if not (up[h] >> h_bar & 1 and in_filter[h_bar]):
                    return False
            if in_filter[h_bar]:
                composed = times_ann[h_bar]
                if not in_filter[composed]:
                    return False
                if not up[composed] >> h & 1:  # N_m * (h_bar * annT) <= N_n
                    return False
    return True


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
    return [rl.index[rl.cyclic(a)] for a in range(rl.size)]


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

    def check(self, ok: bool, witness: str, *args) -> None:
        """Count one instance; the first failure's counterexample is
        ``witness.format(*args)``, built only then."""
        self.instances += 1
        if not ok and self.passed:
            self.passed = False
            self.counterexample = witness.format(*args)


_THEOREM_ORDER = (
    "certificates-verify",
    "totally-fg-quotient-images",
    "noetherian-submodule-quotient",
    "noetherian-direct-sum",
    "finite-type",
    "closure-colon-witness",
    "chain-stability",
    "upper-closed-families-have-maximal",
    "sigma-maximal-existence",
    "maximal-conditions-triangle",
    "unique-maximal",
    "totally-torsion-quotient-transfer",
    "cohen-prime-criterion",
    "local-property",
    "kaplansky-prime-criterion",
    "kaplansky-noetherian-corollary",
    "meet-decomposition",
    "partition-classes",
    "almost-jansian",
    "induced-filters",
)


def _certified_flags(lat, members: frozenset) -> list[bool]:
    """For each submodule S: some H <= S has (H : S) in the filter."""
    cm = lat.colon_matrix()
    flags = [False] * lat.n
    for h_idx, s_idx in lat.inclusion_pairs():
        if not flags[s_idx] and cm[h_idx][s_idx] in members:
            flags[s_idx] = True
    return flags


def _quotient_certified(lat, members: frozenset) -> dict:
    """For pairs N <= S: some H in [N, S] with (H : S) in the filter,
    which certifies S/N inside M/N (the colon is unchanged above N)."""
    cm = lat.colon_matrix()
    flags: dict[tuple[int, int], bool] = {
        pair: False for pair in lat.inclusion_pairs()
    }
    for n_idx, h_idx in lat.inclusion_pairs():
        row = cm[h_idx]
        for s_idx in lat.upset(h_idx):
            if not flags[(n_idx, s_idx)] and row[s_idx] in members:
                flags[(n_idx, s_idx)] = True
    return flags


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
    part = spec_partition(sigma)
    certified_per_carrier = []
    noetherian_per_carrier = []

    for module, lat in zip(carriers, lattices):
        where = module.label
        cm = lat.colon_matrix()
        up = lat.up_masks()
        certified = _certified_flags(lat, members)
        q_certified = _quotient_certified(lat, members)
        pairs = lat.inclusion_pairs()
        totally_noetherian = all(certified)
        certified_per_carrier.append(certified)
        noetherian_per_carrier.append(totally_noetherian)
        # upper[n]: the upper closure of {N_n}, i.e. every H with (N_n : H)
        # in the filter; its maximal elements serve two theorems below
        upper = [frozenset(_upper_closure(lat, (n,), members)) for n in range(lat.n)]
        maxima = [lat.maximal(fam) for fam in upper]

        # certificates exist canonically and re-verify
        t = tallies["certificates-verify"]
        certificates = [_tfg_certificate(lat, s_idx, members) for s_idx in range(lat.n)]
        for s_idx, (h_idx, colon_idx) in enumerate(certificates):
            sub = lat.submodules[s_idx]
            cert = Certificate("totally_fg", lat.min_gens(h_idx), rl.ideals[colon_idx])
            if module.rank == 1:
                ok, reason = verify_certificate(module, sub, sigma, cert)
            else:
                # generator-level containment; exact since H is a submodule
                h_span = span(module, cert.subobject_generators)
                h_gens = minimal_generators(cert.filter_ideal)
                ok = (
                    cert.filter_ideal in sigma.members
                    and h_span <= sub
                    and all(module.scalar(g, n) in h_span for n in sub for g in h_gens)
                )
                reason = None if ok else "generator containment failed"
            t.check(ok, "{}: S={}: {}", where, s_idx, reason)

        # images of certified submodules under quotient maps stay certified:
        # ((H + N) : (S + N)) contains (H : S) for the certificate's H
        t = tallies["totally-fg-quotient-images"]
        for n_idx in range(lat.n):
            above_n = up[n_idx]
            for s_idx in range(lat.n):
                # sums as in SubobjectLattice.sum: the lowest common upper bound
                h_ups = up[certificates[s_idx][0]] & above_n
                s_ups = up[s_idx] & above_n
                image_h = (h_ups & -h_ups).bit_length() - 1
                image_s = (s_ups & -s_ups).bit_length() - 1
                t.check(cm[image_h][image_s] in members, "{}: N={}, S={}", where, n_idx, s_idx)

        # N and M/N certified in all parts iff M is
        t = tallies["noetherian-submodule-quotient"]
        for n_idx in range(lat.n):
            sub_side = all(
                certified[s_idx] for s_idx in range(n_idx + 1) if up[s_idx] >> n_idx & 1
            )
            quo_side = all(q_certified[(n_idx, s_idx)] for s_idx in lat.upset(n_idx))
            t.check(totally_noetherian == (sub_side and quo_side), "{}: N={}", where, n_idx)

        # closure-colon witness exists for every submodule
        t = tallies["closure-colon-witness"]
        for s_idx in range(lat.n):
            found = _colon_witness(lat, s_idx, members) is not None
            t.check(found, "{}: S={}", where, s_idx)

        # side (a): every chain is totally stable (pairs plus maximal chains)
        t = tallies["chain-stability"]
        side_chains = True
        for a, b in pairs:
            stable = b in upper[a] or b in upper[b]
            side_chains = side_chains and stable
            t.check(stable, "{}: pair ({},{})", where, a, b)
        for chain in lat.maximal_chains():
            stable = any(chain[-1] in upper[m_idx] for m_idx in chain)
            side_chains = side_chains and stable
            t.check(stable, "{}: chain {}", where, chain)

        # side (b): upper closures of singletons are upper closed with maxima
        t = tallies["upper-closed-families-have-maximal"]
        side_upper = True
        for n_idx in range(lat.n):
            # the upper closure of a family is the union of its members' ones
            closed = all(upper[h] <= upper[n_idx] for h in upper[n_idx])
            has_maximal = bool(maxima[n_idx])
            side_upper = side_upper and closed and has_maximal
            t.check(closed and has_maximal, "{}: N={}", where, n_idx)

        # side (c): singleton, pair and full-lattice families have
        # sigma-maximal elements
        t = tallies["sigma-maximal-existence"]
        side_sigma_max = True
        for n_idx in range(lat.n):
            ok = n_idx in upper[n_idx]
            side_sigma_max = side_sigma_max and ok
            t.check(ok, "{}: singleton {}", where, n_idx)
        for a, b in pairs:
            if a == b:
                continue
            exists = bool(_sigma_maximal(lat, (a, b), members))
            side_sigma_max = side_sigma_max and exists
            t.check(exists, "{}: family ({},{})", where, a, b)
        ok = lat.top in upper[lat.top]
        side_sigma_max = side_sigma_max and ok
        t.check(ok, "{}: full lattice family", where)

        tallies["maximal-conditions-triangle"].check(
            side_chains == side_upper == side_sigma_max == totally_noetherian,
            "{}: chains={}, upper={}, sigma-max={}, noetherian={}",
            where, side_chains, side_upper, side_sigma_max, totally_noetherian,
        )

        # unique maximal element iff the closure joins the upper closure
        t = tallies["unique-maximal"]
        for n_idx in range(lat.n):
            rhs = lat.closure(n_idx, members) in upper[n_idx]
            t.check((len(maxima[n_idx]) == 1) == rhs, "{}: N={}", where, n_idx)

        # quotients by totally torsion submodules preserve stability data
        t = tallies["totally-torsion-quotient-transfer"]
        for t_idx in range(lat.n):
            if cm[lat.zero][t_idx] not in members:
                continue
            t.check(_quotient_transfer(lat, t_idx, members), "{}: T={}", where, t_idx)

        # local property: certified iff certified at every maximal K-prime
        t = tallies["local-property"]
        local_sides = [
            all(_certified_flags(lat, filter_from_prime(ring, p).member_indices()))
            for p in part.C
        ]
        t.check(
            totally_noetherian == all(local_sides),
            "{}: local sides {}", where, local_sides,
        )

    # A (+) A is the rank-2 carrier: direct-sum stability instance
    tallies["noetherian-direct-sum"].check(
        noetherian_per_carrier[0] == noetherian_per_carrier[1],
        "A: {}, A^2: {}", noetherian_per_carrier[0], noetherian_per_carrier[1],
    )

    # ring-level statements
    a_lat = lattices[0]
    a_certified_flags = certified_per_carrier[0]
    a_certified = noetherian_per_carrier[0]
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

    t = tallies["cohen-prime-criterion"]
    prime_side = all(a_certified_flags[a_lat.idx(p.elements)] for p in part.K)
    t.check(a_certified == prime_side, "noetherian={}, K-side={}", a_certified, prime_side)

    t = tallies["kaplansky-prime-criterion"]
    pir_side = all(cert is not None for _, cert in principal_status)
    prime_pir_side = all(principal_status[rl.idx(p)][1] is not None for p in part.K)
    t.check(pir_side == prime_pir_side, "PIR={}, K-primes={}", pir_side, prime_pir_side)

    t = tallies["kaplansky-noetherian-corollary"]
    sigma_pir = all(witness is not None for witness, _ in principal_status)
    t.check(
        pir_side == (sigma_pir and a_certified),
        "totally-PIR={}, sigma-PIR={}, noetherian={}", pir_side, sigma_pir, a_certified,
    )

    tallies["meet-decomposition"].check(
        meet_decomposition_check(sigma), "filter differs from its prime meet"
    )

    t = tallies["partition-classes"]
    spec_sets = {p.elements for p in prime_spectrum(ring)}
    covered = {p.elements for p in part.K} | {p.elements for p in part.Z}
    disjoint = not ({p.elements for p in part.K} & {p.elements for p in part.Z})
    max_k = {rl.sets[i] for i in rl.maximal([rl.idx(p) for p in part.K])}
    t.check(
        covered == spec_sets and disjoint and max_k == {p.elements for p in part.C},
        "partition classes are inconsistent",
    )

    status = jansian_status(sigma)
    tallies["almost-jansian"].check(
        status.is_jansian and status.is_almost_jansian,
        "jansian structure failed on a finite ring",
    )

    t = tallies["induced-filters"]
    maps = [identity_map(ring)] + [proj for _, proj in local_decomposition(ring)]
    for ring_map in maps:
        induced = induced_filter(ring_map, sigma)  # verifies the image description
        target = ring_map.target
        target_lat = submodule_lattice(free_module(target, 1))
        downstream = all(_certified_flags(target_lat, induced.member_indices()))
        t.check(
            (not a_certified) or downstream,
            "{} not certified under the induced filter", target.label,
        )

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
