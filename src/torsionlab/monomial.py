"""Monomial ideals in countably many variables, exactly.

Ideals are finite generator lists plus "tail families": a base monomial
times x_v^e for v running over an arithmetic progression of fresh
variables.  The fresh-tail discipline (family variables exceed every
variable of the base and of the finite generators) keeps membership,
containment and finiteness decisions exactly decidable: beyond a computed
horizon a family instance b*x_v^e can only be divided by something that
divides b, or by another family instance aligned at the same v, and both
tests are finite.

The multiplicative sets here are the powers of a single monomial s; the
saturation of an ideal by s is obtained by zeroing the s-supported
exponents of the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd
from typing import Iterable, Mapping, Sequence

from .errors import TailDisciplineViolation, TheoremViolation


@dataclass(frozen=True)
class Monomial:
    """Finitely supported exponent vector; the empty vector is 1."""

    exps: tuple = ()

    @staticmethod
    def from_mapping(mapping: Mapping[int, int]) -> "Monomial":
        items = []
        for var, exp in sorted((int(v), int(e)) for v, e in mapping.items()):
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 1:
                raise ValueError(f"exponent must be >= 1, got {exp} on x{var}")
            items.append((var, exp))
        return Monomial(tuple(items))

    @staticmethod
    def variable(var: int, exp: int = 1) -> "Monomial":
        return Monomial.from_mapping({var: exp})

    @staticmethod
    def one() -> "Monomial":
        return Monomial(())

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    def exp(self, var: int) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def max_var(self) -> int:
        return self.exps[-1][0] if self.exps else 0

    def is_unit(self) -> bool:
        return not self.exps

    def divides(self, other: "Monomial") -> bool:
        it = dict(other.exps)
        return all(it.get(v, 0) >= e for v, e in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        acc = dict(self.exps)
        for v, e in other.exps:
            acc[v] = acc.get(v, 0) + e
        return Monomial(tuple(sorted(acc.items())))

    def power(self, n: int) -> "Monomial":
        if n < 0:
            raise ValueError("negative power")
        return Monomial(tuple((v, e * n) for v, e in self.exps)) if n else Monomial(())

    def drop_support(self, variables: frozenset) -> "Monomial":
        return Monomial(tuple((v, e) for v, e in self.exps if v not in variables))

    def sort_key(self) -> tuple:
        return (self.degree(), self.exps)

    @property
    def label(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(
            f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self.exps
        )

    def __repr__(self) -> str:
        return f"Monomial({self.label})"


@dataclass(frozen=True)
class TailFamily:
    """Generators base*x_v^exponent for v = start, start+step, start+2*step, ..."""

    base: Monomial
    start: int
    step: int = 1
    exponent: int = 1

    def aligned(self, var: int) -> bool:
        return var >= self.start and (var - self.start) % self.step == 0

    def instance(self, var: int) -> Monomial:
        return self.base.mul(Monomial.variable(var, self.exponent))

    @property
    def label(self) -> str:
        head = "" if self.base.is_unit() else f"{self.base.label}*"
        exp = "" if self.exponent == 1 else f"^{self.exponent}"
        return f"{head}x[{self.start}+{self.step}k]{exp}"


@dataclass(frozen=True)
class MonomialIdeal:
    """Finite generators plus tail families, closed upward under division."""

    gens: tuple = ()
    families: tuple = ()

    def validate(self) -> None:
        """Enforce the fresh-tail discipline; raises on violation."""
        finite_max = max((g.max_var() for g in self.gens), default=0)
        for fam in self.families:
            if fam.start < 1 or fam.step < 1 or fam.exponent < 1:
                raise TailDisciplineViolation(
                    f"family {fam.label}: start, step and exponent must be positive"
                )
            if fam.start <= fam.base.max_var() or fam.start <= finite_max:
                raise TailDisciplineViolation(
                    f"family {fam.label}: start must exceed every variable of the "
                    f"base and of the finite generators"
                )

    def is_zero(self) -> bool:
        return not self.gens and not self.families

    def max_mentioned_var(self) -> int:
        out = max((g.max_var() for g in self.gens), default=0)
        for fam in self.families:
            out = max(out, fam.base.max_var(), fam.start)
        return out

    @property
    def label(self) -> str:
        parts = [g.label for g in self.gens] + [f.label for f in self.families]
        return "<" + ",".join(parts) + ">" if parts else "<0>"

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.label})"


def monomial_ideal(
    gens: Iterable[Monomial] = (), families: Iterable[TailFamily] = ()
) -> MonomialIdeal:
    """Build and minimalize an ideal presentation (deduplicated, dominated
    generators removed, families covered by a finite generator removed)."""
    gens = sorted(set(gens), key=Monomial.sort_key)
    kept: list[Monomial] = []
    for g in gens:
        if not any(other.divides(g) for other in kept):
            kept.append(g)
    families_out = []
    for fam in sorted(
        set(families), key=lambda f: (f.base.sort_key(), f.start, f.step, f.exponent)
    ):
        if not any(g.divides(fam.base) for g in kept):
            families_out.append(fam)
    return MonomialIdeal(tuple(kept), tuple(families_out))


@dataclass(frozen=True)
class PrincipalMultSet:
    """The multiplicative set {s^n : n >= 0} of a single monomial."""

    s: Monomial

    @property
    def label(self) -> str:
        return f"powers({self.s.label})"


@dataclass(frozen=True)
class DecisionBudget:
    max_power: int = 8
    max_prefix: int = 32


@dataclass(frozen=True)
class Decision:
    """Outcome of the finiteness decision: certified, refuted, or exhausted."""

    verdict: str  # certified | refuted | exhausted
    power: int | None = None
    prefix: tuple = ()
    reason: str | None = None
    budget: DecisionBudget | None = None


def member(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Exact membership: some finite generator or family instance divides m."""
    if any(g.divides(m) for g in ideal.gens):
        return True
    for fam in ideal.families:
        if not fam.base.divides(m):
            continue
        for v in m.support:
            if fam.aligned(v) and fam.instance(v).divides(m):
                return True
    return False


def _horizon(container: MonomialIdeal, fam: TailFamily) -> int:
    out = container.max_mentioned_var()
    return max(out, fam.base.max_var(), fam.start)


def contains(big: MonomialIdeal, small: MonomialIdeal) -> bool:
    """Exact containment test; both ideals must satisfy the tail discipline.

    Finite generators are checked by membership.  For each family of the
    small ideal, instances up to a horizon are checked directly; beyond it,
    absorption needs either the family base itself in the big ideal or
    aligned families of the big ideal covering the progression, which is
    periodic and checked over one full period.
    """
    big.validate()
    small.validate()
    if not all(member(big, g) for g in small.gens):
        return False
    for fam in small.families:
        horizon = max(_horizon(big, fam), fam.base.max_var())
        v = fam.start
        while v <= horizon:
            if not member(big, fam.instance(v)):
                return False
            v += fam.step
        if member(big, fam.base):
            continue
        covering = [
            other
            for other in big.families
            if other.base.divides(fam.base) and other.exponent <= fam.exponent
        ]
        if not covering:
            return False
        period = 1
        for other in covering:
            period = period * other.step // gcd(period, other.step)
        window = period // gcd(period, fam.step)
        first = v
        for i in range(window):
            candidate = first + i * fam.step
            if not any(other.aligned(candidate) for other in covering):
                return False
    return True


def scale(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Multiply every generator and family base by m, keeping the discipline.

    When m touches a family's tail range, the finitely many overlapped
    instances split off as plain generators and the family restarts past
    them.
    """
    if m.is_unit():
        return ideal
    new_gens = [g.mul(m) for g in ideal.gens]
    floor = m.max_var()
    for g in new_gens:
        floor = max(floor, g.max_var())
    for fam in ideal.families:
        floor = max(floor, fam.base.mul(m).max_var())
    new_families = []
    for fam in ideal.families:
        new_base = fam.base.mul(m)
        v = fam.start
        while v <= floor:
            new_gens.append(fam.instance(v).mul(m))
            v += fam.step
        new_families.append(TailFamily(new_base, v, fam.step, fam.exponent))
    return monomial_ideal(new_gens, new_families)


def in_filter(ideal: MonomialIdeal, mult_set: PrincipalMultSet) -> tuple[bool, int | None]:
    """Whether some power of s lies in the ideal, with the minimal power.

    s^n is in the ideal iff some generator with support inside supp(s)
    divides it; the minimal n comes from the exponent ratios.
    """
    s = mult_set.s
    best: int | None = None

    def consider(g: Monomial) -> None:
        nonlocal best
        if not g.support <= s.support:
            return
        need = 0
        for v, e in g.exps:
            need = max(need, ceil(e / s.exp(v)))
        if best is None or need < best:
            best = need

    for g in ideal.gens:
        consider(g)
    for fam in ideal.families:
        for v in s.support:
            if fam.aligned(v):
                consider(fam.instance(v))
    return best is not None, best


def saturation(ideal: MonomialIdeal, mult_set: PrincipalMultSet) -> MonomialIdeal:
    """The ideal of everything pushed in by some power of s.

    For monomial data this is exact exponent surgery: zero the s-supported
    exponents of every generator; a family whose tail meets supp(s)
    collapses to its zeroed base.  A collapsed base can mention a variable
    at or past another family's start; that family's leading instances
    then become finite generators, so the result keeps the fresh-tail
    discipline and the ideal is unchanged.
    """
    ideal.validate()
    s_vars = mult_set.s.support
    gens = [g.drop_support(s_vars) for g in ideal.gens]
    tails = []
    for fam in ideal.families:
        zeroed = fam.base.drop_support(s_vars)
        if any(fam.aligned(v) for v in s_vars):
            gens.append(zeroed)
        else:
            tails.append(TailFamily(zeroed, fam.start, fam.step, fam.exponent))
    # a peeled instance never mentions a variable past finite_max, so one
    # pass leaves every start beyond every finite variable
    finite_max = max((g.max_var() for g in gens), default=0)
    families = []
    for fam in tails:
        start = fam.start
        while start <= finite_max:
            gens.append(fam.instance(start))
            start += fam.step
        families.append(TailFamily(fam.base, start, fam.step, fam.exponent))
    return monomial_ideal(gens, families)


def _family_candidates(
    ideal: MonomialIdeal, fam: TailFamily, s: Monomial
) -> list[Monomial]:
    """Finite divisor candidates for the scaled tail of one family."""
    out = list(ideal.gens)
    spots = fam.base.support | s.support
    for other in ideal.families:
        for w in sorted(spots):
            if other.aligned(w):
                out.append(other.instance(w))
    return out


def _absorbing_power(candidate: Monomial, base: Monomial, s: Monomial) -> int | None:
    """Minimal n with candidate | base*s^n, or None."""
    need = 0
    for v, e in candidate.exps:
        have = base.exp(v)
        if have >= e:
            continue
        boost = s.exp(v)
        if boost == 0:
            return None
        need = max(need, ceil((e - have) / boost))
    return need


def s_finite_decide(
    ideal: MonomialIdeal,
    mult_set: PrincipalMultSet,
    budget: DecisionBudget = DecisionBudget(),
) -> Decision:
    """Decide whether one power of s compresses the ideal into a finite part.

    The criterion is exact and budget-independent: a family's tail can be
    absorbed iff some finite candidate divides base*s^n for some n, where
    candidates are the finite generators and the family instances at
    variables inside supp(base) or supp(s).  The budget only bounds what is
    reported as certified; an oversized certificate comes back exhausted.
    """
    ideal.validate()
    s = mult_set.s
    chosen: list[Monomial] = []
    power = 0
    for k, fam in enumerate(ideal.families):
        best: tuple[int, tuple, Monomial] | None = None
        for candidate in _family_candidates(ideal, fam, s):
            need = _absorbing_power(candidate, fam.base, s)
            if need is None:
                continue
            key = (need, candidate.sort_key(), candidate)
            if best is None or key[:2] < best[:2]:
                best = key
        if best is None:
            return Decision(
                verdict="refuted",
                reason=(
                    f"family {fam.label}: no finite generator or aligned instance "
                    f"divides {fam.base.label}*{s.label}^n for any n"
                ),
            )
        chosen.append(best[2])
        power = max(power, best[0])
    prefix_ideal = monomial_ideal(tuple(ideal.gens) + tuple(chosen))
    prefix = prefix_ideal.gens
    if not all(member(ideal, p) for p in prefix):
        raise TheoremViolation("certificate prefix escaped the ideal")
    if not contains(prefix_ideal, scale(ideal, s.power(power))):
        raise TheoremViolation("certificate prefix fails to absorb the scaled ideal")
    if power > budget.max_power or len(prefix) > budget.max_prefix:
        return Decision(verdict="exhausted", budget=budget)
    return Decision(verdict="certified", power=power, prefix=prefix)


def refutation_witnesses(
    ideal: MonomialIdeal,
    mult_set: PrincipalMultSet,
    powers: Sequence[int] = (0, 1, 2, 3, 4, 5),
) -> list[tuple[int, Monomial]]:
    """Explicit scaled instances outside the best finite prefix, per power.

    Only meaningful for refuted inputs: recomputes the refuting family and,
    for each requested power n, exhibits an instance base*s^n*x_v^e at a
    variable v beyond every candidate, so nothing finite can divide it.
    """
    s = mult_set.s
    refuting = None
    absorbed: list[Monomial] = []
    for fam in ideal.families:
        candidates = [
            c
            for c in _family_candidates(ideal, fam, s)
            if _absorbing_power(c, fam.base, s) is not None
        ]
        if candidates:
            absorbed.extend(candidates)
        elif refuting is None:
            refuting = fam
    if refuting is None:
        raise ValueError("ideal is not refuted: every family is absorbable")
    prefix = monomial_ideal(tuple(ideal.gens) + tuple(absorbed))
    beyond = max(
        prefix.gens and max(g.max_var() for g in prefix.gens) or 0,
        ideal.max_mentioned_var(),
        s.max_var(),
    )
    out = []
    for n in powers:
        var = refuting.start
        while var <= beyond + n * refuting.step:
            var += refuting.step
        witness = refuting.instance(var).mul(s.power(n))
        if member(prefix, witness):
            raise TheoremViolation("refutation witness unexpectedly absorbed")
        out.append((n, witness))
    return out


# ---------------------------------------------------------------------------
# Variable primes and the prime-criterion scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariablePattern:
    """A set of variable indices: finitely many plus an optional arithmetic tail."""

    finite: frozenset = frozenset()
    tail_start: int | None = None
    tail_step: int = 1

    def contains_var(self, v: int) -> bool:
        if v in self.finite:
            return True
        if self.tail_start is None:
            return False
        return v >= self.tail_start and (v - self.tail_start) % self.tail_step == 0

    def is_empty(self) -> bool:
        return not self.finite and self.tail_start is None

    def to_ideal(self, exponent: int = 1) -> MonomialIdeal:
        """The ideal generated by x_v^exponent over the pattern, disciplined."""
        gens = []
        families = []
        if self.tail_start is not None:
            floor = max(self.finite, default=0)
            v = self.tail_start
            while v <= floor:
                gens.append(Monomial.variable(v, exponent))
                v += self.tail_step
            families.append(
                TailFamily(Monomial.one(), v, self.tail_step, exponent)
            )
        for i in sorted(self.finite):
            gens.append(Monomial.variable(i, exponent))
        return monomial_ideal(gens, families)

    @property
    def label(self) -> str:
        parts = [f"x{i}" for i in sorted(self.finite)]
        if self.tail_start is not None:
            parts.append(f"x[{self.tail_start}+{self.tail_step}k]")
        return "{" + ",".join(parts) + "}"


def classify_prime(pattern: VariablePattern, mult_set: PrincipalMultSet) -> str:
    """Which side of the partition the variable prime lands on: "Z" or "K".

    The prime contains a power of s iff s uses one of its variables.
    """
    if pattern.is_empty():
        raise ValueError("variable pattern must be nonempty")
    s = mult_set.s
    return "Z" if any(pattern.contains_var(v) for v in s.support) else "K"


@dataclass(frozen=True)
class CohenScanEntry:
    pattern: VariablePattern
    side: str
    decision: Decision | None


@dataclass(frozen=True)
class CohenScanReport:
    entries: tuple
    uncertified: tuple
    verdict: str
    cross_check: tuple | None  # (non-prime ideal, decision) both refuted

    @property
    def consistent(self) -> bool:
        if self.cross_check is None:
            return True
        return self.cross_check[1].verdict == "refuted"


def cohen_scan(
    mult_set: PrincipalMultSet,
    patterns: Sequence[VariablePattern],
    budget: DecisionBudget = DecisionBudget(),
) -> CohenScanReport:
    """Prime-criterion scan: decide finiteness for every K-side prime.

    One refuted K-prime settles the global question negatively; the report
    then also exhibits an independently refuted non-prime ideal (the same
    pattern with squared generators) as a consistency cross-check.
    """
    entries = []
    uncertified = []
    for pattern in patterns:
        side = classify_prime(pattern, mult_set)
        decision = None
        if side == "K":
            decision = s_finite_decide(pattern.to_ideal(), mult_set, budget)
            if decision.verdict != "certified":
                uncertified.append((pattern, decision))
        entries.append(CohenScanEntry(pattern, side, decision))
    refuted = [(p, d) for p, d in uncertified if d.verdict == "refuted"]
    cross_check = None
    if refuted:
        verdict = "not-totally-noetherian"
        pattern = refuted[0][0]
        non_prime = pattern.to_ideal(exponent=2)
        cross_check = (non_prime, s_finite_decide(non_prime, mult_set, budget))
    elif not any(e.side == "K" for e in entries):
        verdict = "vacuous-pass"
    elif uncertified:
        verdict = "inconclusive"
    else:
        verdict = "all-k-primes-certified"
    return CohenScanReport(
        entries=tuple(entries),
        uncertified=tuple(uncertified),
        verdict=verdict,
        cross_check=cross_check,
    )


@dataclass(frozen=True)
class AntiArchimedeanResult:
    holds: bool
    witness: MonomialIdeal | None


def almost_jansian_principal(mult_set: PrincipalMultSet) -> AntiArchimedeanResult:
    """Stabilized-power membership for the principal filter of s.

    For a non-unit s the powers of the basis ideal (s) intersect to zero,
    which never meets {s^n}; so the property holds only for s = 1, and the
    witness is the basis ideal itself.
    """
    if mult_set.s.is_unit():
        return AntiArchimedeanResult(holds=True, witness=None)
    return AntiArchimedeanResult(
        holds=False, witness=monomial_ideal([mult_set.s])
    )
