"""Finite direct sums of coset permutation modules with their standard order.

A ``SimplicialGroup`` of rank n over a coset space is the ordered module
whose elements are n-tuples of coset-module elements and whose cone is
coordinatewise nonnegativity; rank 1 is the coset module itself.  An element
is stored as one flat tuple of ``rank * cosets`` integers, coordinate i at
positions ``i*cosets .. i*cosets + cosets - 1``, which makes equality
canonical and every operation one pass over the tuple.  A group-ring
element acts by scattering each nonzero entry to its translates, so
``b * v`` costs nnz(v) times the support of b; ``_add_product`` is that
scatter into a caller's list, so the verifiers sum many products in one list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import gt
from typing import Iterable, Sequence

from .errors import GroupMismatch, IndexOutOfRange, NotInCone, PreorderViolated, ShapeMismatch, SumMismatch
from .finite_group import CosetSpace, Subgroup
from .group_ring import GroupRingElt


@dataclass(frozen=True)
class SimplicialGroup:
    space: CosetSpace
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    def zero(self) -> "GammaVector":
        return GammaVector(self, (0,) * self.flat_dim())

    def basis_vector(self, i: int) -> "GammaVector":
        if i < 0 or i >= self.rank:
            raise IndexOutOfRange(f"basis index {i} out of range for rank {self.rank}")
        flat = [0] * self.flat_dim()
        flat[i * self.space.num_cosets] = 1
        return GammaVector(self, tuple(flat))

    def basis(self) -> list["GammaVector"]:
        return [self.basis_vector(i) for i in range(self.rank)]

    def element(self, coords: Sequence[Sequence[int]]) -> "GammaVector":
        if len(coords) != self.rank:
            raise ShapeMismatch("coordinate count does not match rank")
        flat: list[int] = []
        for c in coords:
            vals = [int(x) for x in c]
            if len(vals) != self.space.num_cosets:
                raise ValueError("coefficient length does not match number of cosets")
            flat.extend(vals)
        return GammaVector(self, tuple(flat))

    def cone_contains(self, v: "GammaVector") -> bool:
        if v.group != self:
            raise ShapeMismatch("vector belongs to a different group")
        return v.is_positive()

    def flat_dim(self) -> int:
        return self.rank * self.space.num_cosets

    def __repr__(self) -> str:
        return f"SimplicialGroup(rank={self.rank}, cosets={self.space.num_cosets})"


class GammaVector:
    """Element of a simplicial group, stored as one flat tuple of ints.

    The constructor trusts its arguments.  ``serialize.vector_from_json``
    validates input from outside the engine, and ``SimplicialGroup.element``
    checks the shape of coordinates given in code.
    """

    __slots__ = ("group", "flat")

    def __init__(self, group: SimplicialGroup, flat: tuple[int, ...]):
        self.group = group
        self.flat = flat

    def coord(self, i: int) -> tuple[int, ...]:
        """Coefficients of coordinate i, a slice of ``flat``."""
        n = self.group.space.num_cosets
        return self.flat[i * n : i * n + n]

    def _check(self, other: "GammaVector") -> None:
        if not isinstance(other, GammaVector) or self.group != other.group:
            raise ShapeMismatch("vectors in different groups")

    def __add__(self, other: "GammaVector") -> "GammaVector":
        self._check(other)
        return GammaVector(self.group, tuple(a + b for a, b in zip(self.flat, other.flat)))

    def __sub__(self, other: "GammaVector") -> "GammaVector":
        self._check(other)
        return GammaVector(self.group, tuple(a - b for a, b in zip(self.flat, other.flat)))

    def __neg__(self) -> "GammaVector":
        return GammaVector(self.group, tuple(-a for a in self.flat))

    def scale(self, k: int) -> "GammaVector":
        return GammaVector(self.group, tuple(k * a for a in self.flat))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, GroupRingElt):
            out = [0] * len(self.flat)
            _add_product(out, other, self.flat, self.group.space)
            return GammaVector(self.group, tuple(out))
        return NotImplemented

    def _moved(self, g: int) -> list[int]:
        """Entries of g*self: position (i, g*c) gathers position (i, c)."""
        space = self.group.space
        back = space.action[space.parent.inv[g]]
        flat = self.flat
        return [flat[b + c] for b in range(0, len(flat), len(back)) for c in back]

    def translate(self, g: int) -> "GammaVector":
        """Image under the action of the single group element g."""
        return GammaVector(self.group, tuple(self._moved(g)))

    def is_zero(self) -> bool:
        return not any(self.flat)

    def is_positive(self) -> bool:
        return all(a >= 0 for a in self.flat)

    def positive_part(self) -> "GammaVector":
        return GammaVector(self.group, tuple(a if a > 0 else 0 for a in self.flat))

    def max_abs_coeff(self) -> int:
        return max(map(abs, self.flat), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GammaVector)
            and self.flat == other.flat
            and self.group == other.group
        )

    def __hash__(self):
        return hash(self.flat)

    def __repr__(self) -> str:
        return "GammaVector(" + ", ".join(repr(self.coord(i)) for i in range(self.group.rank)) + ")"


def _add_product(out: list[int], b: GroupRingElt, flat: Sequence[int], space: CosetSpace) -> None:
    """out += b * v for the vector v with entries ``flat`` over ``space``.

    Each nonzero entry (i, c) = e is scattered as k*e to (i, g*c) for every
    term k*g of b, so a sum of products is one pass per term into one list.
    """
    if b.group != space.parent:
        raise GroupMismatch("element and vector over different groups")
    n = space.num_cosets
    terms = [(space.action[g], k) for g, k in b.coeffs.items()]
    for pos in compress(range(len(flat)), flat):
        e = flat[pos]
        start = pos - pos % n
        c = pos - start
        for moved, k in terms:
            out[start + moved[c]] += k * e


def leq(x: GammaVector, y: GammaVector) -> bool:
    """x <= y in the coordinatewise order."""
    return (y - x).is_positive()


def is_order_unit(group: SimplicialGroup, u: GammaVector) -> bool:
    """True when u lies in the cone and every coordinate carries some
    positive coset mass.

    Transitivity of the coset action makes this equivalent to u dominating
    every basis element up to translates; the test suite cross-checks the
    equivalence against a bounded search over dominating coefficients.
    """
    return group.cone_contains(u) and all(any(u.coord(i)) for i in range(group.rank))


def interpolate(group: SimplicialGroup, lower: Iterable[GammaVector], upper: Iterable[GammaVector]) -> GammaVector:
    """Least slot-wise interpolant z with x <= z <= y for all pairs: the
    slot-wise max of the lower bounds, else the slot-wise min of the upper
    bounds, else zero.  Every pair is ordered exactly when that max lies
    below that min."""
    lower = list(lower)
    upper = list(upper)
    if any(v.group != group for v in lower + upper):
        raise ShapeMismatch("bound belongs to a different group")
    low = tuple(map(max, zip(*(x.flat for x in lower))))
    high = tuple(map(min, zip(*(y.flat for y in upper))))
    if lower and upper and any(map(gt, low, high)):
        raise PreorderViolated("some lower element is not below some upper element")
    if lower:
        return GammaVector(group, low)
    if upper:
        return GammaVector(group, high)
    return group.zero()


def riesz_refine(
    group: SimplicialGroup,
    x1: GammaVector,
    x2: GammaVector,
    y1: GammaVector,
    y2: GammaVector,
) -> list[list[GammaVector]]:
    """Refinement matrix for x1 + x2 = y1 + y2 with all terms in the cone.

    Greedy slot-wise minimum: z11 = min(x1, y1); the remaining entries are
    forced and stay nonnegative.
    """
    for v in (x1, x2, y1, y2):
        if not group.cone_contains(v):
            raise NotInCone("refinement inputs must lie in the cone")
    if x1 + x2 != y1 + y2:
        raise SumMismatch("row and column sums disagree")
    z11 = GammaVector(group, tuple(map(min, x1.flat, y1.flat)))
    z12 = x1 - z11
    z21 = y1 - z11
    z22 = x2 - z21
    return [[z11, z12], [z21, z22]]


def group_stabilizer(group: SimplicialGroup) -> Subgroup:
    """Elements acting as the identity on the whole module."""
    G = group.space.parent
    if group.rank == 0:
        return Subgroup(parent=G, members=tuple(range(G.order)))
    action = group.space.action
    fixed = action[G.identity]
    return Subgroup(parent=G, members=tuple(g for g, row in enumerate(action) if row == fixed))
