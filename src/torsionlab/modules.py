"""Finite modules as subquotients U/V of free modules A^k.

A module element is a coset of V inside U, indexed by its minimal vector
representative; index 0 is always the zero coset.  Submodules of a module
are plain frozensets of element indices.  :class:`SubmoduleLattice` runs
the lattice engine of :mod:`torsionlab.rings` on the module's addition and
orbit rows, which gives every submodule a stable index plus memoized
colon/sum arithmetic; that is what makes the exhaustive suites cheap.  A
module builds each row from its coset arithmetic the first time the engine
reads it, so memory and build time follow the rows a lattice touches, not
the square of the carrier size.  Element-level code (``add_elem``,
``scalar``, :func:`is_submodule`) builds no rows.
"""

from __future__ import annotations

from itertools import repeat
from operator import getitem
from typing import Iterable

from .errors import NotASubmodule, RingMismatch, SizeCapExceeded
from .rings import (
    FiniteRing,
    Ideal,
    SubobjectLattice,
    _Rows,
    _subgroup_sum,
    ideal_lattice,
)

FREE_CARRIER_CAP = 4096

Vector = tuple


class FiniteModule:
    """Subquotient U/V of A^k with exact coset arithmetic.

    ``add_rows[w][x]`` is the index of x + w and ``orbit_rows[x][a]`` the
    index of a*x; both are the lattice engine's tables, built row by row on
    first read.
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
        cosets: list[frozenset] = []
        coset_of: dict[Vector, int] = {}
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
        self._coset_of = coset_of
        self.size = len(cosets)
        self.zero = 0
        self._cache: dict = {}
        ring_add, ring_mul = ring._add, ring._mul

        def add_row(w: int) -> list[int]:
            cols = [ring_add[c] for c in reps[w]]
            return [coset_of[tuple(map(getitem, cols, rep))] for rep in reps]

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

    # -- derived modules -----------------------------------------------------

    def submodule_module(self, indices: Iterable[int]) -> "FiniteModule":
        """The submodule spanned by the given element indices, as a module."""
        indices = frozenset(indices)
        if not is_submodule(self, indices):
            raise NotASubmodule("index set is not a submodule")
        u = frozenset(v for i in indices for v in self.elements[i])
        return FiniteModule(
            self.ring, self.rank, u, self.carrier_v,
            f"{self.label}|sub", _checked=True,
        )

    def quotient_module(self, indices: Iterable[int]) -> "FiniteModule":
        """The quotient by the submodule given as element indices."""
        indices = frozenset(indices)
        if not is_submodule(self, indices):
            raise NotASubmodule("index set is not a submodule")
        v = frozenset(vec for i in indices for vec in self.elements[i])
        return FiniteModule(
            self.ring, self.rank, self.carrier_u, v,
            f"{self.label}|quo", _checked=True,
        )

    def direct_sum(self, other: "FiniteModule") -> "FiniteModule":
        if self.ring is not other.ring:
            raise RingMismatch("direct sum needs a common base ring")
        u = frozenset(a + b for a in self.carrier_u for b in other.carrier_u)
        v = frozenset(a + b for a in self.carrier_v for b in other.carrier_v)
        return FiniteModule(
            self.ring, self.rank + other.rank, u, v,
            f"{self.label}(+){other.label}", _checked=True,
        )


def _vec_add(ring: FiniteRing, a: Vector, b: Vector) -> Vector:
    return tuple(ring.add(x, y) for x, y in zip(a, b))


def _vec_scale(ring: FiniteRing, r: int, a: Vector) -> Vector:
    return tuple(ring.mul(r, x) for x in a)


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
    """The free module A^rank; cached per ring."""
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
        ring._cache[key] = FiniteModule(
            ring, rank, frozenset(vectors), frozenset({(ring.zero,) * rank}),
            label, _checked=True,
        )
    return ring._cache[key]


def module_from_ideal(ideal: Ideal) -> FiniteModule:
    """An ideal viewed as a module over its ring."""
    ring = ideal.ring
    return FiniteModule(
        ring, 1,
        frozenset((x,) for x in ideal.elements),
        frozenset({(ring.zero,)}),
        f"{ring.label}|{ideal.label}", _checked=True,
    )


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


def element_annihilator(module: FiniteModule, i: int) -> Ideal:
    """The ideal (0 : m) for the element with index i."""
    ring = module.ring
    return Ideal(
        ring,
        frozenset(a for a in range(ring.size) if module.scalar(a, i) == module.zero),
    )


def module_annihilator(module: FiniteModule, indices: Iterable[int] | None = None) -> Ideal:
    """The ideal killing every listed element (defaults to the whole module)."""
    ring = module.ring
    idx = module.all_indices() if indices is None else indices
    out = frozenset(range(ring.size))
    for i in idx:
        out = out & element_annihilator(module, i).elements
        if len(out) == 1:
            break
    return Ideal(ring, out)


def span(module: FiniteModule, gens: Iterable[int]) -> frozenset:
    """Submodule generated by the given element indices."""
    out = frozenset({module.zero})
    for g in gens:
        cyc = frozenset(module.orbit_rows[g])
        if not cyc <= out:
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
        self.submodules = self.sets


def submodule_lattice(module: FiniteModule) -> SubmoduleLattice:
    if "lattice" not in module._cache:
        module._cache["lattice"] = SubmoduleLattice(module)
    return module._cache["lattice"]
