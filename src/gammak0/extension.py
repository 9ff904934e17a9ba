"""Ordered extension of a simplicial group by its coset module.

The carrier is the direct sum of the base group and the coset module; a pair
is positive when its coset part is nonnegative and adding that many copies
of the top of the interval pushes the base part into the cone.  Since the
interval [0, u] has top element u and positivity is monotone in the chosen
interval element, the membership test collapses to the single check against
u; the exhaustive quantifier is kept in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DeltaNotNormal,
    InternalVerificationFailed,
    NotInCone,
    NotOrderUnit,
    RelationNotZero,
    ShapeMismatch,
)
from .gamma_maps import map_apply
from .group_ring import CosetVector, GroupRingElt, lift_vector
from .limits import Tower
from .ordered_simplicial import GammaVector, SimplicialGroup, is_order_unit
from .sdp_engine import SdpWitness, verify_sdp_witness


class ExtElt:
    """Pair (base part, coset part) in an extended group."""

    __slots__ = ("ext", "x", "t")

    def __init__(self, ext: "ExtendedGroup", x: GammaVector, t: CosetVector):
        if x.group != ext.base:
            raise ShapeMismatch("base part not in the base group")
        if t.space != ext.base.space:
            raise ShapeMismatch("coset part over a different coset space")
        self.ext = ext
        self.x = x
        self.t = t

    def _check(self, other: "ExtElt") -> None:
        if not isinstance(other, ExtElt) or self.ext != other.ext:
            raise ShapeMismatch("elements of different extensions")

    def __add__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        return ExtElt(self.ext, self.x + other.x, self.t + other.t)

    def __sub__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        return ExtElt(self.ext, self.x - other.x, self.t - other.t)

    def __neg__(self) -> "ExtElt":
        return ExtElt(self.ext, -self.x, -self.t)

    def __rmul__(self, other):
        if isinstance(other, (int, GroupRingElt)):
            return ExtElt(self.ext, other * self.x, other * self.t)
        return NotImplemented

    def translate(self, g: int) -> "ExtElt":
        return ExtElt(self.ext, self.x.translate(g), self.t.translate(g))

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.t.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElt)
            and self.ext == other.ext
            and self.x == other.x
            and self.t == other.t
        )

    def __hash__(self):
        return hash((self.x, self.t))

    def __repr__(self) -> str:
        return f"ExtElt(x={self.x!r}, t={self.t.coeffs})"


@dataclass(frozen=True)
class ExtendedGroup:
    base: SimplicialGroup
    unit: GammaVector  # order-unit of the base; the interval is [0, unit]

    def __post_init__(self):
        if not self.base.space.is_normal:
            raise DeltaNotNormal("extensions require a normal stabilizer")
        if self.unit.group != self.base:
            raise ShapeMismatch("unit not in the base group")
        if not self.base.cone_contains(self.unit) or not is_order_unit(self.base, self.unit):
            raise NotOrderUnit("the interval top must be an order-unit of the base")

    @property
    def space(self):
        return self.base.space

    def element(self, x: GammaVector, t: CosetVector | Sequence[int]) -> ExtElt:
        if not isinstance(t, CosetVector):
            t = CosetVector(self.base.space, t)
        return ExtElt(self, x, t)

    def zero(self) -> ExtElt:
        return ExtElt(self, self.base.zero(), CosetVector.zero(self.base.space))

    def order_unit(self) -> ExtElt:
        """(0, identity coset): the distinguished order-unit of the extension."""
        return ExtElt(self, self.base.zero(), CosetVector.basis(self.base.space, 0))

    def inject(self, x: GammaVector) -> ExtElt:
        return ExtElt(self, x, CosetVector.zero(self.base.space))

    def project(self, e: ExtElt) -> CosetVector:
        return e.t

    def cone_contains(self, e: ExtElt) -> bool:
        if e.ext != self:
            raise ShapeMismatch("element of a different extension")
        if not e.t.is_positive():
            return False
        shifted = e.x + lift_vector(e.t) * self.unit
        return shifted.is_positive()


def ext_sdp_witness(ext: ExtendedGroup, a: Sequence[GroupRingElt], pairs: Sequence[ExtElt]) -> SdpWitness:
    """Decomposition witness for a zero relation among extension cone elements.

    Targets are the injected base basis vectors plus the single element
    (-unit, identity coset); the coefficients for the extra target are the
    lifts of the coset parts, whose projected relation sum vanishes with the
    relation itself.
    """
    if not ext.base.space.is_normal:
        raise DeltaNotNormal("extensions require a normal stabilizer")
    if len(a) != len(pairs):
        raise RelationNotZero("coefficient and element counts differ")
    total = ext.zero()
    for ai, ei in zip(a, pairs):
        if not ext.cone_contains(ei):
            raise NotInCone("relation elements must lie in the extension cone")
        total = total + ai * ei
    if not total.is_zero():
        raise RelationNotZero("relation does not sum to zero")

    base = ext.base
    m = base.rank
    b_lifts = [lift_vector(e.t) for e in pairs]
    rows = []
    for e, bi in zip(pairs, b_lifts):
        shifted = e.x + bi * ext.unit
        row = [lift_vector(c) for c in shifted.coords]
        row.append(bi)
        rows.append(tuple(row))
    y = [ext.inject(v) for v in base.basis()]
    y.append(ExtElt(ext, -ext.unit, CosetVector.basis(base.space, 0)))
    witness = SdpWitness(m=m + 1, b=tuple(rows), y=tuple(y))
    check = verify_sdp_witness(ext, a, pairs, witness)
    if not check:
        raise InternalVerificationFailed(f"extension witness failed: {check.reason}")
    return witness


@dataclass(frozen=True)
class ExtendedTower:
    """Levelwise extension of an interval-mode tower; maps act as (g, identity)."""

    base: Tower
    levels: tuple[ExtendedGroup, ...]

    def map_apply(self, level: int, e: ExtElt) -> ExtElt:
        if e.ext != self.levels[level]:
            raise ShapeMismatch("element not at the stated level")
        nxt = self.levels[level + 1] if level + 1 < len(self.levels) else self.levels[-1]
        return ExtElt(nxt, map_apply(self.base.map_at(level), e.x), e.t)


def extend_tower(tower: Tower) -> ExtendedTower:
    """Extend every level and verify the commuting squares exactly."""
    if tower.mode != "interval":
        raise ValueError("only interval-mode towers extend")
    if not tower.groups[0].space.is_normal:
        raise DeltaNotNormal("extensions require a normal stabilizer")
    assert tower.units is not None
    levels = tuple(
        ExtendedGroup(base=g, unit=u) for g, u in zip(tower.groups, tower.units)
    )
    ext = ExtendedTower(base=tower, levels=levels)
    for n, f in enumerate(tower.maps):
        lower, upper = levels[n], levels[n + 1]
        space = lower.base.space
        for v in lower.base.basis():
            through = ext.map_apply(n, lower.inject(v))
            direct = upper.inject(map_apply(f, v))
            if through != direct:
                raise InternalVerificationFailed("injection square does not commute")
        for c in range(space.num_cosets):
            e = ExtElt(lower, lower.base.zero(), CosetVector.basis(space, c))
            if upper.project(ext.map_apply(n, e)) != lower.project(e):
                raise InternalVerificationFailed("projection square does not commute")
    return ExtendedTower(base=tower, levels=levels)
