"""Monomial ideals in countably many variables, exactly.

Ideals are finite generator lists plus "tail families": a base monomial
times x_v^e for v running over an arithmetic progression of fresh
variables.  The fresh-tail discipline (family variables exceed every
variable of the base and of the finite generators) keeps membership and
finiteness decisions exactly decidable: beyond a computed horizon a family
instance b*x_v^e can only be divided by something that divides b, or by
another family instance aligned at the same v, and both tests are finite.
Whatever moves a tail past a floor (scaling, saturation, variable primes)
uses one restart rule,
:meth:`TailFamily.peel`: the instances up to the floor become finite
generators and the family restarts at its first aligned variable past it.

The multiplicative sets here are the powers of a single monomial s; the
saturation of an ideal by s is obtained by zeroing the s-supported
exponents of the generators.  Filter membership and the finiteness
decisions read which finite candidates divide base*s^n from :func:`_absorbers`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import InvalidArgument, TailDisciplineViolation, TheoremViolation


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

    def peel(self, floor: int) -> tuple[list[Monomial], "TailFamily"]:
        """The instances at aligned variables up to floor, and the family
        restarted at the first aligned variable past floor."""
        count = max(0, (floor - self.start) // self.step + 1)
        peeled = [self.instance(self.start + k * self.step) for k in range(count)]
        return peeled, replace(self, start=self.start + count * self.step)

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
    generators removed, families covered by a finite generator removed).
    A divisor's least variable is one of the target's, or 0 for the divisor
    1, so each target is tested only against the kept generators listed
    under its own variables."""
    kept: list[Monomial] = []
    by_least: dict[int, list[Monomial]] = {}  # kept generators by least variable

    def covered(m: Monomial) -> bool:
        return any(g.divides(m) for v in (0, *m.support) for g in by_least.get(v, ()))

    for g in sorted(set(gens), key=Monomial.sort_key):
        if not covered(g):
            kept.append(g)
            by_least.setdefault(g.exps[0][0] if g.exps else 0, []).append(g)
    fams = sorted(set(families), key=lambda f: (f.base.sort_key(), f.start, f.step, f.exponent))
    return MonomialIdeal(tuple(kept), tuple(f for f in fams if not covered(f.base)))


def _peeled_ideal(
    gens: Iterable[Monomial], families: Iterable[TailFamily], floor: int
) -> MonomialIdeal:
    """The ideal of the generators and families, each family peeled at floor."""
    gens = list(gens)
    rests = []
    for fam in families:
        peeled, rest = fam.peel(floor)
        gens += peeled
        rests.append(rest)
    return monomial_ideal(gens, rests)


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


def scale(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Multiply every generator and family base by m, keeping the discipline.

    When m touches a family's tail range, the finitely many overlapped
    instances split off as plain generators and the family restarts past
    them.
    """
    if m.is_unit():
        return ideal
    gens = [g.mul(m) for g in ideal.gens]
    families = [replace(fam, base=fam.base.mul(m)) for fam in ideal.families]
    floor = max(
        [m.max_var()] + [g.max_var() for g in gens] + [f.base.max_var() for f in families]
    )
    return _peeled_ideal(gens, families, floor)


def in_filter(ideal: MonomialIdeal, mult_set: PrincipalMultSet) -> tuple[bool, int | None]:
    """Whether some power of s lies in the ideal, with the minimal power.

    s^n is in the ideal iff some generator with support inside supp(s)
    divides it; these are the candidates that absorb the base 1.
    """
    best = min((n for n, _ in _absorbers(ideal, Monomial.one(), mult_set.s)), default=None)
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
            tails.append(replace(fam, base=zeroed))
    # a peeled instance never mentions a variable past finite_max, so one
    # pass leaves every start beyond every finite variable
    finite_max = max((g.max_var() for g in gens), default=0)
    return _peeled_ideal(gens, tails, finite_max)


def _absorbers(
    ideal: MonomialIdeal, base: Monomial, s: Monomial
) -> list[tuple[int, Monomial]]:
    """(least n, c) for every finite candidate c that divides base*s^n for some n.

    The candidates are the finite generators and the family instances at
    variables inside supp(base) or supp(s); an instance at any other
    variable divides no base*s^n.
    """
    spots = sorted(base.support | s.support)
    candidates = list(ideal.gens) + [
        fam.instance(w) for fam in ideal.families for w in spots if fam.aligned(w)
    ]
    out = []
    for c in candidates:
        need = 0
        for v, e in c.exps:
            short = e - base.exp(v)
            if short > 0:
                boost = s.exp(v)
                if not boost:
                    break
                need = max(need, -(-short // boost))
        else:
            out.append((need, c))
    return out


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
    for fam in ideal.families:
        absorbers = _absorbers(ideal, fam.base, s)
        if not absorbers:
            return Decision(
                verdict="refuted",
                reason=(
                    f"family {fam.label}: no finite generator or aligned instance "
                    f"divides {fam.base.label}*{s.label}^n for any n"
                ),
            )
        need, best = min(absorbers, key=lambda nc: (nc[0], nc[1].sort_key()))
        chosen.append(best)
        power = max(power, need)
    prefix_ideal = monomial_ideal(tuple(ideal.gens) + tuple(chosen))
    prefix = prefix_ideal.gens
    if not all(member(ideal, p) for p in prefix):
        raise TheoremViolation("certificate prefix escaped the ideal")
    # s^power*ideal lies in the finite prefix iff every g*s^power and every
    # base*s^power does: a prefix generator dividing base*s^power*x_v^e at an
    # aligned v past all its variables cannot involve x_v
    scaled = s.power(power)
    heads = (*ideal.gens, *(fam.base for fam in ideal.families))
    if not all(member(prefix_ideal, m.mul(scaled)) for m in heads):
        raise TheoremViolation("certificate prefix fails to absorb the scaled ideal")
    if power > budget.max_power or len(prefix) > budget.max_prefix:
        return Decision(verdict="exhausted", budget=budget)
    return Decision(verdict="certified", power=power, prefix=prefix)


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
        gens = [Monomial.variable(i, exponent) for i in sorted(self.finite)]
        tails = []
        if self.tail_start is not None:
            tails.append(TailFamily(Monomial.one(), self.tail_start, self.tail_step, exponent))
        return _peeled_ideal(gens, tails, max(self.finite, default=0))

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
        raise InvalidArgument("variable pattern must be nonempty")
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
