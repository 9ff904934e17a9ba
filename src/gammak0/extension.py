"""Ordered extension of a simplicial group by its coset module.

The coset module is the rank-1 simplicial group over the coset space, so the
extension of a rank-r base has the rank-(r+1) simplicial group as its
``carrier``: the first r coordinates hold the base part x and the last holds
the coset part t, and every element is a plain ``GammaVector`` of the carrier.
Only the cone differs from the carrier's own: a pair is positive when its
coset part is nonnegative and adding that many copies of the top of the
interval pushes the base part into the cone.  Since the interval [0, u] has
top element u and positivity is monotone in the chosen interval element, the
membership test collapses to the single check against u; the exhaustive
quantifier is kept in the test suite as an oracle.

Extensions of one base by different units share one carrier, so their
elements compare equal when their entries do: the unit fixes only the cone,
and ``cone_contains`` is where it is applied.

An interval tower extends levelwise.  Its connecting maps are f (+) id on
the carriers, positive by construction because f is positive and
f(u_n) <= u_(n+1), so they are neither built nor re-checked here.  Witnesses
are built, not verified: the CLI checks each one independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DeltaNotNormal, NotOrderUnit, ShapeMismatch
from .group_ring import GroupRingElt, lift_vector
from .limits import Tower
from .ordered_simplicial import GammaVector, SimplicialGroup, _add_product, is_order_unit
from .sdp_engine import SdpWitness, _check_relation


@dataclass(frozen=True)
class ExtendedGroup:
    base: SimplicialGroup
    unit: GammaVector  # order-unit of the base; the interval is [0, unit]
    carrier: SimplicialGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.base.space.is_normal:
            raise DeltaNotNormal("extensions require a normal stabilizer")
        if not is_order_unit(self.base, self.unit):
            raise NotOrderUnit("the interval top must be an order-unit of the base")
        object.__setattr__(self, "carrier", SimplicialGroup(self.base.space, self.base.rank + 1))

    @property
    def space(self):
        return self.base.space

    def element(self, x: GammaVector, t: Sequence[int]) -> GammaVector:
        if x.group != self.base:
            raise ShapeMismatch("base part not in the base group")
        t = tuple(int(k) for k in t)
        if len(t) != self.space.num_cosets:
            raise ShapeMismatch("coset part length does not match number of cosets")
        return GammaVector(self.carrier, x.flat + t)

    def split(self, e: GammaVector) -> tuple[GammaVector, tuple[int, ...]]:
        """(base part, coset part) of a carrier vector."""
        if e.group != self.carrier:
            raise ShapeMismatch("element not in the extension carrier")
        n = self.base.flat_dim()
        return GammaVector(self.base, e.flat[:n]), e.flat[n:]

    def zero(self) -> GammaVector:
        return self.carrier.zero()

    def order_unit(self) -> GammaVector:
        """(0, identity coset): the distinguished order-unit of the extension."""
        return self.carrier.basis_vector(self.base.rank)

    def inject(self, x: GammaVector) -> GammaVector:
        return self.element(x, (0,) * self.space.num_cosets)

    def cone_contains(self, e: GammaVector) -> bool:
        x, t = self.split(e)
        if min(t, default=0) < 0:
            return False
        shifted = list(x.flat)
        _add_product(shifted, lift_vector(self.space, t), self.unit.flat, self.space)
        return min(shifted, default=0) >= 0


def ext_sdp_witness(ext: ExtendedGroup, a: Sequence[GroupRingElt], pairs: Sequence[GammaVector]) -> SdpWitness:
    """Decomposition witness for a zero relation among extension cone elements.

    Targets are the injected base basis vectors plus the single element
    (-unit, identity coset); the coefficients for the extra target are the
    lifts of the coset parts, whose projected relation sum vanishes with the
    relation itself.
    """
    _check_relation(ext, a, pairs)
    base = ext.base
    m = base.rank
    rows = []
    for e in pairs:
        x, t = ext.split(e)
        bi = lift_vector(base.space, t)
        shifted = x + bi * ext.unit
        row = [lift_vector(base.space, shifted.coord(i)) for i in range(m)]
        row.append(bi)
        rows.append(tuple(row))
    y = [ext.inject(v) for v in base.basis()]
    y.append(ext.order_unit() - ext.inject(ext.unit))
    return SdpWitness(m=m + 1, b=tuple(rows), y=tuple(y))


def extend_tower(tower: Tower) -> tuple[ExtendedGroup, ...]:
    """Extend every level of an interval-mode tower."""
    if tower.mode != "interval":
        raise ValueError("only interval-mode towers extend")
    assert tower.units is not None
    return tuple(ExtendedGroup(base=g, unit=u) for g, u in zip(tower.groups, tower.units))
