"""Exact kernel for finite commutative rings.

Rings come from a small constructor grammar: integers mod n, binary
products, quotients F_p[x]/(f) by a monic polynomial, and square-zero
extensions F_p[x_1..x_k]/(x_i*x_j).  Elements are canonical indices
0..size-1 backed by full addition/multiplication tables, so everything
downstream is pure table arithmetic.  The constructors build those tables
a whole row at a time: a product composes each row from a row of each
factor, and a polynomial quotient adds digit-wise and multiplies by
Horner's rule on the digits, from its addition table and the map e -> x*e.

Derived rings (quotients by an ideal, local factors) reuse the same
representation but are never parsed from user input.

:class:`SubobjectLattice` is the one lattice engine: it indexes the ideals
of a ring or the submodules of a module, answers each question of their
arithmetic (sums, products, colons, order) one way, and computes closures
from it.  It reads two tables of the carrier, addition rows and orbit
rows, and never calls element arithmetic.  Each sub-object also gets an
int mask over the carrier, bit x set iff x is in it, so meets and the
up-sets are mask operations, and a colon (N_i : x) is looked up by N_i & Ax
in a memo per cyclic sub-object Ax that every colon row shares.  Its own
results are tables too: the index of each cyclic Ax, from which principal and
generated ideals are read; the colon matrix, whose row i and column j hold
(N_i : N_j); and the up-sets as int bitmasks, from which sums, products
and greedy generators are read.  :class:`IdealLattice` runs it on the
ring's own addition and multiplication tables, once per ring; it is also
the lattice of A as a module over itself.
:class:`torsionlab.modules.SubmoduleLattice` runs it on the coset rows of
any other module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, itemgetter
from typing import Collection, Iterable, Sequence

from .errors import (
    InvalidArgument,
    InvalidModulus,
    NonMonicPolynomial,
    NotPrime,
    RingMismatch,
    SizeCapExceeded,
    TheoremViolation,
)

DEFAULT_SIZE_CAP = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteRing:
    """Commutative unital ring on element indices 0..size-1.

    Instances are immutable after construction and compared by identity;
    all operations are table lookups.
    """

    def __init__(
        self,
        size: int,
        add_table: Sequence[Sequence[int]],
        mul_table: Sequence[Sequence[int]],
        one: int,
        label: str,
        term: dict | None = None,
        elem_labels: Sequence[str] | None = None,
    ):
        self.size = size
        self._add = add_table
        self._mul = mul_table
        self.zero = 0
        self.one = one
        self.label = label
        self.term = term
        self._elem_labels = (
            tuple(elem_labels) if elem_labels is not None else tuple(str(i) for i in range(size))
        )
        self._neg = [row.index(0) for row in add_table]
        self._cache: dict = {}

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def elements(self) -> range:
        return range(self.size)

    def elem_label(self, a: int) -> str:
        return self._elem_labels[a]

    def __repr__(self) -> str:
        return f"FiniteRing({self.label}, size={self.size})"


def zmod(n: int, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The ring Z/n."""
    if n < 2:
        raise InvalidModulus(f"modulus must be at least 2, got {n}")
    if n > cap:
        raise SizeCapExceeded(f"Z/{n} exceeds size cap {cap}")
    return FiniteRing(n, _cyclic_add(n), [[(a * b) % n for b in range(n)] for a in range(n)],
                      1 % n, f"Z/{n}", term={"zmod": n})


def _cyclic_add(n: int) -> list[list[int]]:
    """Addition rows of Z/n: row a is range(n) rotated left by a."""
    base = list(range(n))
    return [base[a:] + base[:a] for a in range(n)]


def _compose(ltab: Sequence[Sequence[int]], rtab: Sequence[Sequence[int]]) -> list[list[int]]:
    """The componentwise table of two tables, on indices l * len(rtab) + r,
    one row at a time from a row of each factor."""
    scaled = [[x * len(rtab) for x in row] for row in ltab]
    return [[x + y for x in lrow for y in rrow] for lrow in scaled for rrow in rtab]


def product_ring(left: FiniteRing, right: FiniteRing, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Componentwise product of two rings; index = l * right.size + r."""
    size = left.size * right.size
    if size > cap:
        raise SizeCapExceeded(f"product of sizes {left.size}x{right.size} exceeds cap {cap}")
    labels = [f"({a},{b})" for a in left._elem_labels for b in right._elem_labels]
    term = None
    if left.term is not None and right.term is not None:
        term = {"product": [left.term, right.term]}
    return FiniteRing(
        size, _compose(left._add, right._add), _compose(left._mul, right._mul),
        left.one * right.size + right.one,
        f"{left.label} x {right.label}", term=term, elem_labels=labels,
    )


def _digit_tables(p: int, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition rows of (Z/p)^d on base-p digit indices, as the product of d
    copies of Z/p, and the scalar rows: row c holds c*b for every b."""
    add = step = _cyclic_add(p)
    for _ in range(d - 1):
        add = _compose(step, add)
    scal = [[0] * len(add)]
    for _ in range(p - 1):  # c*b = (c-1)*b + b
        scal.append([add[s][b] for b, s in enumerate(scal[-1])])
    return add, scal


def _digits(i: int, p: int, d: int) -> tuple[int, ...]:
    """The d base-p digits of i, least significant first."""
    out = []
    for _ in range(d):
        i, r = divmod(i, p)
        out.append(r)
    return tuple(out)


def _poly_label(coeffs: Sequence[int], var: str = "x") -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return "+".join(parts) if parts else "0"


def poly_quotient(p: int, coeffs: Sequence[int], cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The ring F_p[x]/(f) for a monic f, coefficients given low-to-high."""
    if p > cap:  # the ring has at least p elements; decided before trial division
        raise SizeCapExceeded(f"F_{p}[x]/(f) has at least {p} elements, exceeding cap {cap}")
    if not _is_prime(p):
        raise InvalidModulus(f"coefficient modulus must be prime, got {p}")
    coeffs = [c % p for c in coeffs]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise NonMonicPolynomial(
            f"need a monic polynomial of degree >= 1, got coefficients {coeffs}"
        )
    d = len(coeffs) - 1
    size = p**d
    if size > cap:
        raise SizeCapExceeded(f"F_{p}[x]/(f) of size {size} exceeds cap {cap}")

    add, scal = _digit_tables(p, d)
    # x*e shifts the digits of e up and folds the top one back by x^d = -(f - x^d)
    top = size // p
    fold = sum(((-c) % p) * p**j for j, c in enumerate(coeffs[:d]))
    xmul = [add[(e % top) * p][scal[e // top][fold]] for e in range(size)]
    # Horner on the digits of a = a0 + x*a_hi: a*b = a0*b + x*(a_hi*b)
    mul = scal[:]
    for a in range(p, size):
        mul.append([add[s][xmul[m]] for s, m in zip(scal[a % p], mul[a // p])])
    return FiniteRing(
        size, add, mul, 1,
        f"F{p}[x]/({_poly_label(coeffs)})",
        term={"polyquot": {"p": p, "f": list(coeffs)}},
        elem_labels=[_poly_label(_digits(i, p, d)) for i in range(size)],
    )


_SQZ_VARS = ("x", "y", "z")


def square_zero(p: int, k: int, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The local ring F_p[x_1..x_k]/(x_i*x_j): all products of generators vanish."""
    if p > cap:  # the ring has at least p elements; decided before trial division
        raise SizeCapExceeded(f"square-zero ring has at least {p} elements, exceeding cap {cap}")
    if not _is_prime(p):
        raise InvalidModulus(f"coefficient modulus must be prime, got {p}")
    if k < 1:
        raise InvalidModulus(f"need at least one nilpotent generator, got k={k}")
    size = p ** (k + 1)
    if size > cap:
        raise SizeCapExceeded(f"square-zero ring of size {size} exceeds cap {cap}")

    add, scal = _digit_tables(p, k + 1)
    # a*b = a0*b + b0*n for a = a0 + n with n nilpotent; b0 = b % p cycles with b
    mul = []
    for a in range(size):
        nil = a - a % p
        cycle = [row[nil] for row in scal] * (size // p)
        mul.append([add[s][t] for s, t in zip(scal[a % p], cycle)])

    names = [_SQZ_VARS[j] if j < len(_SQZ_VARS) else f"x{j + 1}" for j in range(k)]

    def lbl(vec: Sequence[int]) -> str:
        parts = []
        if vec[0]:
            parts.append(str(vec[0]))
        for j in range(1, k + 1):
            if vec[j]:
                head = "" if vec[j] == 1 else str(vec[j])
                parts.append(f"{head}{names[j - 1]}")
        return "+".join(parts) if parts else "0"

    var_list = ",".join(names)
    return FiniteRing(
        size, add, mul, 1,
        f"F{p}[{var_list}]/({var_list})^2",
        term={"squarezero": {"p": p, "k": k}},
        elem_labels=[lbl(_digits(i, p, k + 1)) for i in range(size)],
    )


def build_ring(term: dict, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Build a ring from a constructor grammar term (see the spec-file schema)."""
    if not isinstance(term, dict) or len(term) != 1:
        raise ValueError(f"ring term must be a single-key object, got {term!r}")
    (kind, arg), = term.items()
    if kind == "zmod":
        return zmod(arg, cap)
    if kind == "product":
        if not isinstance(arg, list) or len(arg) != 2:
            raise ValueError("product takes exactly two ring terms")
        return product_ring(build_ring(arg[0], cap), build_ring(arg[1], cap), cap)
    if kind == "polyquot":
        return poly_quotient(arg["p"], arg["f"], cap)
    if kind == "squarezero":
        return square_zero(arg["p"], arg["k"], cap)
    raise ValueError(f"unknown ring constructor {kind!r}")


def ring_axiom_report(ring: FiniteRing) -> list[str]:
    """Exhaustive check of the commutative unital ring axioms; empty means pass."""
    out = []
    n = ring.size
    for a in range(n):
        if ring.add(a, 0) != a:
            out.append(f"additive identity fails at {a}")
        if ring.mul(a, ring.one) != a:
            out.append(f"multiplicative identity fails at {a}")
        if ring.add(a, ring.neg(a)) != 0:
            out.append(f"additive inverse fails at {a}")
    for a in range(n):
        for b in range(n):
            if ring.add(a, b) != ring.add(b, a):
                out.append(f"addition not commutative at ({a},{b})")
            if ring.mul(a, b) != ring.mul(b, a):
                out.append(f"multiplication not commutative at ({a},{b})")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    out.append(f"addition not associative at ({a},{b},{c})")
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    out.append(f"multiplication not associative at ({a},{b},{c})")
                if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
                    out.append(f"distributivity fails at ({a},{b},{c})")
    return out


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """An ideal as an explicit element set; rings compare by identity."""

    ring: FiniteRing
    elements: frozenset

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def sort_key(self) -> tuple:
        return (len(self.elements), tuple(sorted(self.elements)))

    @property
    def label(self) -> str:
        gens = minimal_generators(self)
        if not gens:
            return "(0)"
        return "(" + ",".join(self.ring.elem_label(g) for g in gens) + ")"

    def __repr__(self) -> str:
        return f"Ideal({self.ring.label}, {self.label})"


def _same_ring(a, b) -> None:
    if a.ring is not b.ring:
        raise RingMismatch(f"operands over {a.ring.label} and {b.ring.label}")


class _Rows(dict):
    """Table rows keyed by index or index pair, each built on its first read."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        row = self[key] = self._build(key)
        return row


def _mask(elems: Iterable[int]) -> int:
    """The int with bit x set for each x of a set of elements."""
    return sum(map((1).__lshift__, elems))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subgroup_sum(add, u: frozenset, c: frozenset) -> frozenset:
    """Sum of two additive subgroups, built as a union of u-cosets.

    ``add[w][x]`` is x + w; only the rows of the coset representatives
    drawn from c are read.  When one operand holds the other, that one is
    the sum and is returned itself, with no row read: on a lazily built
    table such as a module's addition rows, no row is built for it.
    """
    if u <= c:
        return c
    if c <= u:
        return u
    res = set(u)
    for w in sorted(c):
        if w not in res:
            res.update(map(add[w].__getitem__, u))
    return frozenset(res)


def ideal_from_generators(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing the given elements: the join of their principal ideals."""
    lat = ideal_lattice(ring)
    principals = (lat.cyclic[_check_element(ring, g)] for g in gens)
    return lat.ideals[reduce(lat.sum, principals, lat.zero)]


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, frozenset({ring.zero}))


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, frozenset(range(ring.size)))


def _check_element(carrier, x: int) -> int:
    """x, if it indexes an element of the ring or module; else InvalidArgument."""
    if not 0 <= x < carrier.size:
        raise InvalidArgument(f"{x} is not an element of {carrier.label}")
    return x


def principal_ideal(ring: FiniteRing, x: int) -> Ideal:
    lat = ideal_lattice(ring)
    return lat.ideals[lat.cyclic[_check_element(ring, x)]]


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    lat = ideal_lattice(i.ring)
    return lat.ideals[lat.sum(lat.idx(i), lat.idx(j))]


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    lat = ideal_lattice(i.ring)
    return lat.ideals[lat.prod(lat.idx(i), lat.idx(j))]


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    lat = ideal_lattice(i.ring)
    return lat.ideals[lat.inter(lat.idx(i), lat.idx(j))]


def colon_element(i: Ideal, b: int) -> Ideal:
    """The ideal (i : b) = {a : a*b in i}, read off the lattice's colon row of i."""
    lat = ideal_lattice(i.ring)
    return lat.ideals[lat.colon_row(lat.idx(i))[_check_element(i.ring, b)]]


def colon(i: Ideal, j: Ideal) -> Ideal:
    """The ideal quotient (i : j) = {a : a*j <= i}, read off the colon matrix."""
    _same_ring(i, j)
    lat = ideal_lattice(i.ring)
    return lat.ideals[lat.pair_colon(lat.idx(i), lat.idx(j))]


def annihilator(i: Ideal) -> Ideal:
    return colon(zero_ideal(i.ring), i)


def enumerate_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All ideals, sorted by cardinality then lexicographic element order."""
    return ideal_lattice(ring).ideals


def prime_spectrum(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All prime ideals, in lattice order: a finite domain is a field, so
    these are the maximal members of the proper ideals."""
    if "spectrum" not in ring._cache:
        lat = ideal_lattice(ring)
        ring._cache["spectrum"] = tuple(lat.ideals[i] for i in lat.maximal(range(lat.top)))
    return ring._cache["spectrum"]


def minimal_generators(ideal: Ideal) -> tuple[int, ...]:
    """Greedy minimal generating set: grow the span fastest, ties to smallest index."""
    lat = ideal_lattice(ideal.ring)
    return lat.min_gens(lat.idx(ideal))


# ---------------------------------------------------------------------------
# Ring maps, quotients, local decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingMap:
    """A ring homomorphism recorded as an element-index mapping."""

    source: FiniteRing
    target: FiniteRing
    mapping: tuple
    kind: str = "map"

    def image_ideal(self, i: Ideal) -> Ideal:
        if i.ring is not self.source:
            raise RingMismatch("ideal not over the map source")
        return Ideal(self.target, frozenset(self.mapping[x] for x in i.elements))

    def preimage_ideal(self, j: Ideal) -> Ideal:
        if j.ring is not self.target:
            raise RingMismatch("ideal not over the map target")
        return Ideal(
            self.source,
            frozenset(x for x in range(self.source.size) if self.mapping[x] in j.elements),
        )

    def is_surjective_hom(self) -> bool:
        """Whether the mapping is a unital ring map onto the target: row a of
        each source table, mapped by f, is row f(a) of the target's table
        read at f(0), ..., f(n-1)."""
        src, tgt, f = self.source, self.target, self.mapping
        if f[src.one] != tgt.one:
            return False
        read_at_f = itemgetter(*f)
        for src_table, tgt_table in ((src._add, tgt._add), (src._mul, tgt._mul)):
            for row, fa in zip(src_table, f):
                if itemgetter(*row)(f) != read_at_f(tgt_table[fa]):
                    return False
        return len(set(f)) == tgt.size


def identity_map(ring: FiniteRing) -> RingMap:
    return RingMap(ring, ring, tuple(range(ring.size)), kind="identity")


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, RingMap]:
    """The quotient ring by an ideal, with its projection map."""
    if ideal.ring is not ring:
        raise RingMismatch("ideal not over the given ring")
    coset = [-1] * ring.size
    reps: list[int] = []
    for x in range(ring.size):
        if coset[x] < 0:
            row = ring._add[x]
            for v in ideal.elements:
                coset[row[v]] = len(reps)
            reps.append(x)

    def rows(table) -> list[list[int]]:
        return [[coset[row[b]] for b in reps] for row in map(table.__getitem__, reps)]

    labels = [f"[{ring.elem_label(r)}]" for r in reps]
    quotient = FiniteRing(
        len(reps), rows(ring._add), rows(ring._mul), coset[ring.one],
        f"{ring.label}/{ideal.label}", elem_labels=labels,
    )
    proj = RingMap(ring, quotient, tuple(coset), kind="quotient")
    return quotient, proj


def primitive_idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """Atoms of the Boolean algebra of idempotents (e <= f iff e*f == e)."""
    if "idempotents" in ring._cache:
        return ring._cache["idempotents"]
    idem = [e for e in range(1, ring.size) if ring.mul(e, e) == e]
    atoms = []
    for e in idem:
        if not any(f != e and ring.mul(e, f) == f for f in idem):
            atoms.append(e)
    total = 0
    for e in atoms:
        total = ring.add(total, e)
    if total != ring.one or any(
        ring.mul(a, b) != 0 for i, a in enumerate(atoms) for b in atoms[i + 1:]
    ):
        raise TheoremViolation(
            f"primitive idempotents of {ring.label} are not orthogonal with sum 1: {atoms}"
        )
    ring._cache["idempotents"] = tuple(atoms)
    return ring._cache["idempotents"]


def local_decomposition(ring: FiniteRing) -> list[tuple[FiniteRing, RingMap]]:
    """Decompose into local factors via primitive idempotents.

    Factors are returned with their projection maps, ordered by residue
    characteristic and then by the pulled-back maximal ideal.
    """
    if "local_decomposition" in ring._cache:
        return ring._cache["local_decomposition"]
    atoms = primitive_idempotents(ring)
    if atoms == (ring.one,):
        out = [(ring, identity_map(ring))]
        ring._cache["local_decomposition"] = out
        return out
    factors = []
    for e in atoms:
        complement = principal_ideal(ring, ring.add(ring.one, ring.neg(e)))
        factor, proj = quotient_ring(ring, complement)
        # every prime holds e or 1 - e, so the primes missing e are the
        # pullbacks of the factor's maximal ideals
        pullbacks = [p for p in prime_spectrum(ring) if e not in p]
        if len(pullbacks) != 1:
            raise TheoremViolation(f"factor {factor.label} is not local")
        residue_char = min(p for p in range(2, factor.size + 1) if factor.size % p == 0)
        factors.append(((residue_char, *pullbacks[0].sort_key()), factor, proj))
    factors.sort(key=lambda t: t[0])
    out = [(factor, proj) for _, factor, proj in factors]
    ring._cache["local_decomposition"] = out
    return out


def localize_at_prime(ring: FiniteRing, p: Ideal) -> tuple[FiniteRing, RingMap]:
    """The local factor whose maximal ideal pulls back to the prime p."""
    if p not in prime_spectrum(ring):
        raise NotPrime(f"{p.label} is not a prime ideal of {ring.label}")
    for factor, proj in local_decomposition(ring):
        if factor.one not in proj.image_ideal(p):  # p is the pullback of a proper ideal
            return factor, proj
    raise TheoremViolation(f"no local factor of {ring.label} matches prime {p.label}")


# ---------------------------------------------------------------------------
# Index-level lattices of ideals and submodules
# ---------------------------------------------------------------------------


class SubobjectLattice:
    """Every sub-object of a finite carrier, indexed, with memoized arithmetic.

    The carrier has elements 0..size-1 with zero at 0.  The engine reads its
    arithmetic from two tables: the addition rows ``add[w][x]`` (x + w) and
    the orbit rows ``orbit[x][a]`` (the ring action a*x); any object that
    returns an indexable row for each element will do.  Its sub-objects (the
    ideals of a ring, the submodules of a module) are the additive
    subgroups closed under the action.  They get stable indices, ordered by
    cardinality and then by sorted elements, and each question about them
    is answered one way.  A sum is a join, the lowest common bit of two
    up-set masks, computed on each call; a product with an ideal and the
    next greedy generator's span are sums.  Products, colon rows, greedy
    generators, up-sets and the colon and sum matrices are ``_Rows``
    tables, each entry built on its first read, and closures are read off
    the colon rows.  Two per-lattice lists are filled on the first row that
    reads them: the preimage memos of each x's cyclic sub-object, read by
    every colon row, and the generators of every sub-object, read by every
    colon-matrix row.  Colons are ideals, indexed in ``ring_lattice``, the
    ideal lattice of the base ring.  Hot loops read the tables directly:
    ``colon_matrix()[i][j]`` is ``pair_colon(i, j)``, ``sum_matrix()[i][j]``
    is ``sum(i, j)``, and bit j of ``up_masks()[i]`` is ``leq(i, j)``.

    ``masks[i]`` has bit x set iff x is in N_i, and ``index_by_mask`` maps
    it back to i, as ``index`` maps the element set; ``cyclic[x]`` is the
    index of Ax, the least sub-object holding x, and ``cyclic_masks[x]``
    its mask.  The meet is one lookup of ``masks[i] & masks[j]``; ``leq``
    tests the element sets, which is faster than the mask test for one pair.
    """

    def __init__(
        self, ring: FiniteRing, size: int, add, orbit, ring_lattice: "IdealLattice", kind: str
    ):
        self.ring = ring
        self.kind = kind  # what a member is, as in "an ideal of Z/6", for error messages
        self.size = size
        self._add = add
        self._orbit = orbit
        self.ring_lattice = ring_lattice
        self.sets = tuple(sorted(self._enumerate(), key=lambda s: (len(s), tuple(sorted(s)))))
        self.submodules = self.sets  # an ideal is a submodule of the ring over itself
        self.masks = tuple(map(_mask, self.sets))
        self.index = {s: i for i, s in enumerate(self.sets)}
        self.index_by_mask = {m: i for i, m in enumerate(self.masks)}
        self.cyclic = [0] * size
        seen = 0
        for i, m in enumerate(self.masks):
            for x in _bits(m & ~seen):
                self.cyclic[x] = i
            seen |= m
        self.cyclic_masks = list(map(self.masks.__getitem__, self.cyclic))
        self.n = len(self.sets)
        self.zero = 0  # {0} is the one sub-object of size 1
        self.top = self.n - 1
        self._colon_rows = _Rows(self._colon_row)
        self._preimages: list[dict[int, int]] = [{} for _ in range(self.n)]  # by cyclic[x]
        self._memos: list[dict[int, int]] | None = None  # _preimages[cyclic[x]] by x
        self._all_gens: list[tuple[int, ...]] | None = None  # min_gens(j) by j
        self._colon_matrix = _Rows(self._colon_matrix_row)
        self._sum_matrix = _Rows(self._sum_matrix_row)
        self._min_gens = _Rows(self._greedy_gens)
        self._prod = _Rows(self._product)  # keyed by (i, a)
        self._upsets = _Rows(lambda i: tuple(_bits(self.up_masks()[i])))
        self._up_masks: list[int] | None = None
        self._incl_pairs: list[tuple[int, int]] | None = None
        self._covers: dict[int, tuple[int, ...]] | None = None

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self) -> Collection[frozenset]:
        """Every sub-object, as the sums of one sub-object per component.

        With primitive idempotents e_1..e_r of the ring, every sub-object
        splits as N = e_1 N + ... + e_r N, and e N is a sub-object of the
        component e*carrier.  So the sub-objects are the sums of one
        sub-object of each component, and each component is enumerated on
        its own by a join closure.  A local ring has the single idempotent
        1, and its one component is the whole carrier.
        """
        orbit = self._orbit
        components = [
            self._join_closure({orbit[x][e] for x in range(self.size)})
            for e in primitive_idempotents(self.ring)
        ]
        subs = components[0]
        for component in components[1:]:
            subs = [_subgroup_sum(self._add, left, right) for left in subs for right in component]
        return subs

    def _join_closure(self, scope: Iterable[int]) -> set[frozenset]:
        """Every sub-object generated inside scope: all joins of its cyclic ones.

        Each sub-object U found is summed with every cyclic C it does not
        contain.  If U lies in C, the sum is C itself, recorded with no
        intersection or row read.  Otherwise the sum is skipped when a sum
        V already formed from U contains C and has |V|·|U ∩ C| = |U|·|C|:
        U + C lies in V, and for subgroups |U + C| = |U|·|C| / |U ∩ C|, so
        U + C is V and is not formed again.
        """
        cyclics = list(dict.fromkeys(frozenset(self._orbit[x]) for x in sorted(scope)))
        zero = frozenset({0})
        found = {zero}
        work = [zero]
        while work:
            u = work.pop()
            sums: list[frozenset] = []
            for c in cyclics:
                if c <= u:
                    continue
                if u <= c:
                    v = c  # U + C is C
                else:
                    for v in sums:
                        if c <= v and len(v) * len(u & c) == len(u) * len(c):
                            break  # U + C is V, recorded already
                    else:
                        v = None
                    if v is not None:
                        continue
                    v = _subgroup_sum(self._add, u, c)
                sums.append(v)
                if v not in found:
                    found.add(v)
                    work.append(v)
        return found

    # -- order ---------------------------------------------------------------

    def idx(self, s: frozenset | Ideal) -> int:
        s = s.elements if isinstance(s, Ideal) else s  # an Ideal is read by its elements
        try:
            return self.index[s]
        except KeyError:
            raise InvalidArgument(f"{sorted(s)} is not {self.kind}") from None

    def leq(self, i: int, j: int) -> bool:
        return self.sets[i] <= self.sets[j]

    def upset(self, i: int) -> tuple[int, ...]:
        """Indices of the sub-objects containing N_i, ascending; i comes first."""
        return self._upsets[i]

    def up_masks(self) -> list[int]:
        """The up-sets as int bitmasks: bit j of entry i is set iff N_i <= N_j.

        Column x has bit j set iff x is in N_j, and N_i <= N_j iff N_j holds
        every x of N_i, so entry i is the AND of the columns of N_i.
        """
        if self._up_masks is None:
            cols = [0] * self.size
            for j, s in enumerate(self.sets):
                for x in s:
                    cols[x] |= 1 << j
            self._up_masks = [reduce(and_, map(cols.__getitem__, s)) for s in self.sets]
        return self._up_masks

    def maximal(self, family: Collection[int]) -> list[int]:
        """The members of a family of indices that no other member contains."""
        up, fam = self.up_masks(), _mask(set(family))
        return [i for i in family if up[i] & fam == 1 << i]

    def inclusion_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) with N_i <= N_j, including i == j, in index order."""
        if self._incl_pairs is None:
            self._incl_pairs = [(i, j) for i in range(self.n) for j in self.upset(i)]
        return self._incl_pairs

    # unused by the theorem suite; perfbench/spans.py stages covers and wraps
    # SubmoduleLattice.maximal_chains, so both stay
    def covers(self) -> dict[int, tuple[int, ...]]:
        """Hasse diagram: for each i, the sub-objects covering it."""
        if self._covers is None:
            out = {}
            for i in range(self.n):
                above = self.upset(i)[1:]
                # a sub-object strictly below j has a smaller index than j
                out[i] = tuple(
                    j for pos, j in enumerate(above)
                    if not any(self.leq(k, j) for k in above[:pos])
                )
            self._covers = out
        return self._covers

    def maximal_chains(self) -> list[tuple[int, ...]]:
        """All maximal chains from the zero sub-object to the whole carrier."""
        covers = self.covers()
        chains: list[tuple[int, ...]] = []
        stack = [(self.zero, (self.zero,))]
        while stack:
            node, path = stack.pop()
            ups = covers[node]
            if not ups:
                chains.append(path)
                continue
            for j in ups:
                stack.append((j, path + (j,)))
        chains.sort()
        return chains

    # -- arithmetic ----------------------------------------------------------

    def min_gens(self, i: int) -> tuple[int, ...]:
        """Greedy minimal generators of N_i (largest span growth, smallest index)."""
        return self._min_gens[i]

    def _greedy_gens(self, i: int) -> tuple[int, ...]:
        """The greedy generators of N_i; N + Ax has |Ax| / |N & Ax| times as
        many elements as N, and is reached by a join."""
        target, cyclic_masks = sorted(self.sets[i]), self.cyclic_masks
        gens: list[int] = []
        cur = self.zero
        while cur != i:
            cur_mask = self.masks[cur]
            best_x = -1
            best_size = 0
            for x in target:
                if cur_mask >> x & 1:
                    continue
                cyc = cyclic_masks[x]
                size = cyc.bit_count() // (cur_mask & cyc).bit_count()
                if size > best_size:
                    best_size = size
                    best_x = x
            grown = cur
            if best_x >= 0:  # else every element of N_i is in cur already
                grown = self.sum(cur, self.cyclic[best_x])
            if grown == cur:  # only wrong up-set masks or cyclic tables get here
                raise TheoremViolation(
                    f"greedy generators of {self.kind} stall: sub-object {cur} "
                    f"does not grow toward {i}"
                )
            gens.append(best_x)
            cur = grown
        return tuple(gens)

    def sum(self, i: int, j: int) -> int:
        """Index of N_i + N_j: the least common upper bound, which every
        other one contains properly, so the lowest common up-set bit."""
        up = self.up_masks()
        common = up[i] & up[j]
        return (common & -common).bit_length() - 1

    def sum_matrix(self) -> dict[int, tuple[int, ...]]:
        """Row i, column j: ``sum(i, j)``; each row is built on its first read."""
        return self._sum_matrix

    def _sum_matrix_row(self, i: int) -> tuple[int, ...]:
        above = self.up_masks()[i]
        out = []
        for mask in self.up_masks():
            common = mask & above
            out.append((common & -common).bit_length() - 1)
        return tuple(out)

    def inter(self, i: int, j: int) -> int:
        return self.index_by_mask[self.masks[i] & self.masks[j]]

    def prod(self, i: int, a: int) -> int:
        """Index of N_i * a for a ring-lattice ideal index a."""
        return self._prod[i, a]

    def _product(self, key: tuple[int, int]) -> int:
        i, a = key
        ideal = self.ring_lattice.sets[a]
        out = self.zero
        for g in self.min_gens(i):
            # g*a is a sub-object, so N_i * a is the sum of these pieces
            out = self.sum(out, self.index[frozenset(map(self._orbit[g].__getitem__, ideal))])
        return out

    def colon_row(self, i: int) -> tuple[int, ...]:
        """For each carrier element x, the ring-lattice index of (N_i : x).

        (N_i : x) is the preimage of N_i & Ax under a -> a*x, so a memo per
        cyclic sub-object Ax, shared by every row, looks it up by that mask.
        It depends on x only through Ax: if Ax = Ay, then y = bx and x = cy,
        so a*x is in N exactly when a*y is."""
        return self._colon_rows[i]

    def _colon_row(self, i: int) -> tuple[int, ...]:
        keys = list(map(self.masks[i].__and__, self.cyclic_masks))
        if self._memos is None:
            self._memos = list(map(self._preimages.__getitem__, self.cyclic))
        memos = self._memos
        row = list(map(dict.get, memos, keys))
        in_sub, ring_elems = self.sets[i].__contains__, range(self.ring.size)
        for x in [x for x, c in enumerate(row) if c is None]:
            memo, key = memos[x], keys[x]
            if key not in memo:  # an earlier x of this row may share Ax
                preimage = frozenset(compress(ring_elems, map(in_sub, self._orbit[x])))
                memo[key] = self.ring_lattice.index[preimage]
            row[x] = memo[key]
        return tuple(row)

    def colon_matrix(self) -> dict[int, tuple[int, ...]]:
        """Row i, column j: the ring-lattice index of (N_i : N_j).

        Each row is built the first time it is read, from the colon row of
        N_i and the generators of every N_j.
        """
        return self._colon_matrix

    def _colon_matrix_row(self, i: int) -> tuple[int, ...]:
        rl = self.ring_lattice
        masks, by_mask = rl.masks, rl.index_by_mask
        top = masks[rl.top]
        row = [masks[c] for c in self.colon_row(i)]
        if self._all_gens is None:  # every row reads every sub-object's generators
            self._all_gens = [self.min_gens(j) for j in range(self.n)]
        out = []
        for gens in self._all_gens:
            acc = top
            for g in gens:
                acc &= row[g]
            out.append(by_mask[acc])
        return tuple(out)

    def pair_colon(self, i: int, j: int) -> int:
        """Ring-lattice index of (N_i : N_j) = {a : N_j*a <= N_i}."""
        return self._colon_matrix[i][j]

    def closure(self, i: int, members: frozenset) -> int:
        """Index of the closure {x : (N_i : x) in the filter} of N_i.

        The filter is given by the ring-lattice indices of its members.
        """
        in_filter = map(members.__contains__, self.colon_row(i))
        try:
            return self.index[frozenset(compress(range(self.size), in_filter))]
        except KeyError:  # only a member set that is not a filter gets here
            raise TheoremViolation(
                f"closure of sub-object {i} is not {self.kind}: "
                f"the member indices {sorted(members)} are not a filter"
            ) from None


class IdealLattice(SubobjectLattice):
    """The ideals of a ring, on the ring's own addition and multiplication.

    The ring is commutative, so its tables already are the engine's rows:
    ``_add[w][x]`` is x + w and ``_mul[x][a]`` is a*x.
    """

    def __init__(self, ring: FiniteRing):
        super().__init__(ring, ring.size, ring._add, ring._mul, self, f"an ideal of {ring.label}")
        self.ideals = tuple(Ideal(ring, s) for s in self.sets)


def ideal_lattice(ring: FiniteRing) -> IdealLattice:
    if "lattice" not in ring._cache:
        ring._cache["lattice"] = IdealLattice(ring)
    return ring._cache["lattice"]


# ---------------------------------------------------------------------------
# Ring catalog for exhaustive sweeps
# ---------------------------------------------------------------------------

_IRREDUCIBLE = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (3, 2): [1, 0, 1],
}


def ring_catalog(max_size: int) -> list[dict]:
    """Deterministic catalog of constructor terms with size <= max_size.

    This is the testbed universe for the exhaustive suites: all Z/n, all
    two-factor products of Z/a x Z/b, small three-factor products, prime
    powers F_p[x]/(x^d), the finite fields F_4..F_16, and the square-zero
    plane F_2[x,y]/(x,y)^2.
    """
    terms: list[dict] = []
    for n in range(2, max_size + 1):
        terms.append({"zmod": n})
    for a in range(2, max_size + 1):
        for b in range(a, max_size + 1):
            if a * b <= max_size:
                terms.append({"product": [{"zmod": a}, {"zmod": b}]})
    for m in (2, 3, 4):
        if 4 * m <= max_size:
            terms.append(
                {"product": [{"product": [{"zmod": 2}, {"zmod": 2}]}, {"zmod": m}]}
            )
    for p in (2, 3):
        d = 2
        while p**d <= max_size:
            coeffs = [0] * d + [1]
            terms.append({"polyquot": {"p": p, "f": coeffs}})
            if (p, d) in _IRREDUCIBLE:
                terms.append({"polyquot": {"p": p, "f": _IRREDUCIBLE[(p, d)]}})
            d += 1
    if 8 <= max_size:
        terms.append({"squarezero": {"p": 2, "k": 2}})
    return terms
