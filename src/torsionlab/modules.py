"""Finite modules as subquotients U/V of free modules A^k.

A module element is a coset of V inside U, indexed by its minimal vector
representative; index 0 is always the zero coset.  Submodules of a module
are plain frozensets of element indices.  :func:`submodule_lattice` gives
every submodule a stable index and index-level colon/sum arithmetic, which
makes the exhaustive suites cheap.  For A = ``free_module(ring, 1)`` it is
the ring's ideal lattice: A's submodules are its ideals, and its coset index
is the element index, so A's addition and orbit rows are the ring's own
tables ``ring._add`` and ``ring._mul``.  Any other module gets a
:class:`SubmoduleLattice` on its addition and orbit rows, each built on
first read from the ring's tables: an addition row adds the
representatives coordinate by coordinate on rows of ``ring._add`` and
looks each sum up by its integer code, an orbit row zips rows of
``ring._mul``.  Element-level code (``add_elem``,
``scalar``, :func:`is_submodule`) maps over single ring rows per vector
and builds no module rows.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, getitem, mul
from typing import Iterable

from .errors import NotASubmodule, SizeCapExceeded
from .rings import (
    FiniteRing,
    SubobjectLattice,
    _Rows,
    _check_element,
    _subgroup_sum,
    ideal_lattice,
)

FREE_CARRIER_CAP = 4096

Vector = tuple


class FiniteModule:
    """Subquotient U/V of A^k with exact coset arithmetic.

    ``add_rows[w][x]`` is the index of x + w and ``orbit_rows[x][a]`` the
    index of a*x; both are the lattice engine's tables, built row by row on
    first read, except on A, where :func:`free_module` sets them to the
    ring's tables.  Row w of ``add_rows`` reads, per coordinate, the ring's
    addition row of w's entry at the representatives' entries, and sums
    them into the base-|A| code of each x + w; one lookup in ``_code_of``
    (code to coset index, built with the first row) gives the coset.  No
    vector is built or hashed.  With relations {0}, as for every free
    module, each vector is its own coset, and the cosets are read off the
    sorted carrier with no vector added.
    """

    def __init__(
        self,
        ring: FiniteRing,
        rank: int,
        carrier_u: frozenset,
        carrier_v: frozenset,
        label: str,
        _checked: bool = False,
    ):
        self.ring = ring
        self.rank = rank
        self.carrier_u = carrier_u
        self.carrier_v = carrier_v
        self.label = label
        if not _checked:
            if not carrier_v <= carrier_u:
                raise NotASubmodule("relations are not contained in the carrier")
            for name, carrier in (("carrier", carrier_u), ("relations", carrier_v)):
                if not _is_submodule_of_free(ring, rank, carrier):
                    raise NotASubmodule(f"{name} is not a submodule of A^{rank}")
        if len(carrier_v) == 1:  # relations {0}: each vector is its own coset
            self.reps = reps = tuple(sorted(carrier_u))
            self.elements = tuple(frozenset((vec,)) for vec in reps)
            coset_of = dict(zip(reps, range(len(reps))))
        else:
            cosets: list[frozenset] = []
            coset_of = {}
            for vec in sorted(carrier_u):
                if vec in coset_of:
                    continue
                coset = frozenset(_vec_add(ring, vec, w) for w in carrier_v)
                idx = len(cosets)
                cosets.append(coset)
                for member in coset:
                    coset_of[member] = idx
            self.elements = tuple(cosets)
            self.reps = reps = tuple(min(c) for c in cosets)
        self._coset_of: dict[Vector, int] = coset_of
        self.size = len(reps)
        self.zero = 0
        self._cache: dict = {}
        ring_add, ring_mul = ring._add, ring._mul
        # a vector's code is its base-|A| number, first coordinate most
        # significant; code_of and the representatives' coordinate columns
        # are built with the first addition row
        weights = [ring.size**i for i in reversed(range(rank))]
        self._code_of = code_of = {}
        columns: list[tuple] = []

        def add_row(w: int) -> list[int]:
            if not code_of:
                code_of.update((sum(map(mul, v, weights)), i) for v, i in coset_of.items())
                columns.extend(zip(*reps))
            codes = repeat(0, len(reps))
            for c, col, weight in zip(reps[w], columns, weights):
                row = ring_add[c] if weight == 1 else [x * weight for x in ring_add[c]]
                codes = map(add, codes, map(row.__getitem__, col))
            return list(map(code_of.__getitem__, codes))

        def orbit_row(x: int) -> list[int]:
            # ring_mul[c][a] is a*c, so the columns zip into the vectors a*x;
            # A^0 has no columns and its one vector is ()
            cols = [ring_mul[c] for c in reps[x]]
            return [coset_of[v] for v in (zip(*cols) if cols else repeat((), ring.size))]

        self.add_rows = _Rows(add_row)
        self.orbit_rows = _Rows(orbit_row)

    def add_elem(self, i: int, j: int) -> int:
        return self._coset_of[_vec_add(self.ring, self.reps[i], self.reps[j])]

    def scalar(self, a: int, i: int) -> int:
        return self._coset_of[_vec_scale(self.ring, a, self.reps[i])]

    def elem_label(self, i: int) -> str:
        ring = self.ring
        return "(" + ",".join(ring.elem_label(x) for x in self.reps[i]) + ")"

    def all_indices(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"FiniteModule({self.label}, size={self.size})"


def _vec_add(ring: FiniteRing, a: Vector, b: Vector) -> Vector:
    return tuple(map(getitem, map(ring._add.__getitem__, a), b))


def _vec_scale(ring: FiniteRing, r: int, a: Vector) -> Vector:
    return tuple(map(ring._mul[r].__getitem__, a))


def _is_submodule_of_free(ring: FiniteRing, rank: int, carrier: frozenset) -> bool:
    zero = (ring.zero,) * rank
    if zero not in carrier:
        return False
    for a in carrier:
        for b in carrier:
            if _vec_add(ring, a, b) not in carrier:
                return False
        for r in range(ring.size):
            if _vec_scale(ring, r, a) not in carrier:
                return False
    return True


def free_module(ring: FiniteRing, rank: int) -> FiniteModule:
    """The free module A^rank; cached per ring.  The coset of (x,) in A has
    index x, so A's addition and orbit rows are the ring's tables."""
    key = ("free_module", rank)
    if key not in ring._cache:
        if ring.size**rank > FREE_CARRIER_CAP:
            raise SizeCapExceeded(
                f"free module carrier {ring.size}^{rank} exceeds {FREE_CARRIER_CAP}"
            )
        vectors = [()]
        for _ in range(rank):
            vectors = [v + (x,) for v in vectors for x in range(ring.size)]
        label = ring.label if rank == 1 else f"{ring.label}^{rank}"
        module = FiniteModule(
            ring, rank, frozenset(vectors), frozenset({(ring.zero,) * rank}),
            label, _checked=True,
        )
        if rank == 1:
            module.add_rows, module.orbit_rows = ring._add, ring._mul
        ring._cache[key] = module
    return ring._cache[key]


def is_submodule(module: FiniteModule, indices: frozenset) -> bool:
    if module.zero not in indices:
        return False
    for i in indices:
        for j in indices:
            if module.add_elem(i, j) not in indices:
                return False
        for r in range(module.ring.size):
            if module.scalar(r, i) not in indices:
                return False
    return True


def span(module: FiniteModule, gens: Iterable[int]) -> frozenset:
    """Submodule generated by the given element indices: the sum of their
    cyclic submodules.  A cyclic one already inside the running sum, and
    the first one, which starts from (0), are absorbed by the sum itself
    with no addition row read."""
    out = frozenset({module.zero})
    for g in gens:
        cyc = frozenset(module.orbit_rows[_check_element(module, g)])
        out = _subgroup_sum(module.add_rows, out, cyc)
    return out


class SubmoduleLattice(SubobjectLattice):
    """All submodules of a module, on the module's addition and orbit rows.

    The engine enumerates them as it enumerates ideals: through the
    primitive-idempotent split of the base ring, one join closure per
    component.
    """

    def __init__(self, module: FiniteModule):
        self.module = module
        super().__init__(
            module.ring, module.size, module.add_rows, module.orbit_rows,
            ideal_lattice(module.ring), f"a submodule of {module.label}",
        )


def submodule_lattice(module: FiniteModule) -> SubobjectLattice:
    """The submodule lattice, cached; for A = free_module(ring, 1), the ring's ideal lattice."""
    if module is module.ring._cache.get(("free_module", 1)):
        return ideal_lattice(module.ring)
    if "lattice" not in module._cache:
        module._cache["lattice"] = SubmoduleLattice(module)
    return module._cache["lattice"]
