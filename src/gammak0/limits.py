"""Sequential towers of simplicial groups and horizon-bounded colimit queries.

A tower is a finite prefix of a directed sequence, optionally repeating its
last map forever.  Colimit-level questions (equality and positivity) are
answered by pushing representatives forward up to a caller horizon; answers
are tri-state because equality in a general colimit is only semi-decidable,
and a negative answer always names the horizon it covers.

On a repeating tower the equality walk stops N + 1 levels after the later
of its start level and the level where the repeated map T (flat dimension
N) takes over: by Fitting's lemma T is injective on the image of T^N, so
neither the zero test nor the kernels of the composites change past that
level, and the cost of ``colimit_eq`` does not grow with the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DeltaMismatch, NotPositiveMap, ShapeMismatch, UnitNotPreserved
from .gamma_maps import GammaLinearMap, is_positive_map, kernel_lattice, map_apply, map_compose
from .ordered_simplicial import GammaVector, SimplicialGroup, leq


@dataclass(frozen=True)
class ColimitElt:
    level: int
    value: GammaVector


@dataclass(frozen=True)
class ColimitAnswer:
    kind: str  # equal | not_equal_up_to | positive | not_positive_up_to | unknown
    level: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.kind in ("equal", "positive")


@dataclass(frozen=True)
class Tower:
    groups: tuple[SimplicialGroup, ...]
    maps: tuple[GammaLinearMap, ...]
    mode: str  # "none" | "unit" | "interval"
    units: tuple[GammaVector, ...] | None
    repeat_last: bool

    def last_explicit_level(self) -> int:
        return len(self.groups) - 1

    def max_level(self, horizon: int) -> int:
        if self.repeat_last:
            return horizon
        return min(horizon, self.last_explicit_level())

    def group_at(self, level: int) -> SimplicialGroup:
        if level < len(self.groups):
            return self.groups[level]
        if not self.repeat_last:
            raise ShapeMismatch(f"level {level} beyond a non-repeating tower")
        return self.groups[-1]

    def map_at(self, level: int) -> GammaLinearMap:
        """Connecting map from ``level`` to ``level + 1``."""
        if level < len(self.maps):
            return self.maps[level]
        if not self.repeat_last:
            raise ShapeMismatch(f"map at level {level} beyond a non-repeating tower")
        return self.maps[-1]

    def push(self, p: ColimitElt, level: int) -> GammaVector:
        if level < p.level:
            raise ShapeMismatch("cannot push an element backwards")
        v = p.value
        for l in range(p.level, level):
            v = map_apply(self.map_at(l), v)
        return v


def tower_new(
    groups: Sequence[SimplicialGroup],
    maps: Sequence[GammaLinearMap],
    units: Sequence[GammaVector] | None = None,
    mode: str = "none",
    repeat_last: bool = False,
) -> Tower:
    groups = tuple(groups)
    maps = tuple(maps)
    if not groups:
        raise ValueError("a tower needs at least one group")
    if len(maps) != len(groups) - 1:
        raise ShapeMismatch("a tower of n groups needs n-1 maps")
    space = groups[0].space
    for g in groups:
        if g.space != space:
            raise DeltaMismatch("all levels must share the same coset space")
    for n, f in enumerate(maps):
        if f.source != groups[n] or f.target != groups[n + 1]:
            raise ShapeMismatch(f"map {n} does not match adjacent levels")
        if not is_positive_map(f):
            raise NotPositiveMap(f"connecting map {n} has a column outside the cone")
    if repeat_last:
        if not maps:
            raise ShapeMismatch("repeat_last needs at least one map")
        if maps[-1].source.rank != maps[-1].target.rank:
            raise ShapeMismatch("repeated map must be an endomorphism")
    if mode not in ("none", "unit", "interval"):
        raise ValueError(f"unknown mode {mode!r}")
    units_t = None
    if mode != "none":
        if units is None:
            raise ValueError(f"mode {mode!r} requires units")
        units_t = tuple(units)
        if len(units_t) != len(groups):
            raise ShapeMismatch("one unit per level required")
        for n, u in enumerate(units_t):
            if u.group != groups[n]:
                raise ShapeMismatch(f"unit {n} not in level {n}")
        for n, f in enumerate(maps):
            img = map_apply(f, units_t[n])
            if mode == "unit" and img != units_t[n + 1]:
                raise UnitNotPreserved(f"map {n} does not carry unit {n} to unit {n + 1}")
            if mode == "interval" and not leq(img, units_t[n + 1]):
                raise UnitNotPreserved(f"image of unit {n} is not below unit {n + 1}")
        if repeat_last and mode == "unit":
            img = map_apply(maps[-1], units_t[-1])
            if img != units_t[-1]:
                raise UnitNotPreserved("repeated map must fix the last unit in unit mode")
    elif units is not None:
        raise ValueError("units given but mode is 'none'")
    return Tower(groups=groups, maps=maps, mode=mode, units=units_t, repeat_last=repeat_last)


def _start_levels(t: Tower, horizon: int, *elts: ColimitElt) -> tuple[int, int] | ColimitAnswer:
    l0 = max(e.level for e in elts)
    h_max = t.max_level(horizon)
    if l0 > h_max or any(e.level > t.max_level(e.level) for e in elts):
        return ColimitAnswer(kind="unknown", level=None, reason="horizon_too_small")
    return l0, h_max


def colimit_eq(t: Tower, p: ColimitElt, q: ColimitElt, horizon: int) -> ColimitAnswer:
    """Tri-state colimit equality.

    Equal when the images coincide at some level up to the horizon.  When
    consecutive kernel lattices of the composites from the common start
    level agree (so pushing further cannot newly identify elements in the
    eventually-injective case) and the images still differ, the answer is a
    definite inequality up to the horizon.  Otherwise unknown.  Once two
    consecutive kernels agree no further kernel is computed; only the
    difference is pushed on.

    On a repeating tower, let s be the later of the start level and the
    level from which every step is the repeated map T, and N the flat
    dimension of T.  By Fitting's lemma T is injective on im T^N, so the
    rank of the composite to level s + j is constant for j >= N; nested
    saturated kernels of equal rank are equal, so two consecutive kernels
    agree by level s + N + 1.  Likewise T^j of the difference at level s is
    zero for some j exactly when T^N of it is.  So no level past
    s + N + 1 can change the answer, the walk stops there, and the answer
    still names the horizon.
    """
    start = _start_levels(t, horizon, p, q)
    if isinstance(start, ColimitAnswer):
        return start
    l0, h_max = start
    diff = t.push(p, l0) - t.push(q, l0)
    if diff.is_zero():
        return ColimitAnswer(kind="equal", level=l0)
    last = h_max
    if t.repeat_last:
        s = max(l0, len(t.maps) - 1)
        last = min(h_max, s + t.groups[-1].flat_dim() + 1)
    prev_kernel: list[list[int]] = []  # composite from l0 to l0 is the identity
    kernels_stabilized = False
    composite = None
    v = diff
    for level in range(l0 + 1, last + 1):
        step = t.map_at(level - 1)
        v = map_apply(step, v)
        if v.is_zero():
            return ColimitAnswer(kind="equal", level=level)
        if not kernels_stabilized:
            composite = step if composite is None else map_compose(step, composite)
            ker = kernel_lattice(composite)
            kernels_stabilized = ker == prev_kernel
            prev_kernel = ker
    if kernels_stabilized:
        return ColimitAnswer(kind="not_equal_up_to", level=h_max)
    return ColimitAnswer(kind="unknown", level=h_max, reason="undecided_at_horizon")


def colimit_positive(t: Tower, p: ColimitElt, horizon: int) -> ColimitAnswer:
    """An element is colimit-positive when some forward image lands in a level cone."""
    start = _start_levels(t, horizon, p)
    if isinstance(start, ColimitAnswer):
        return start
    l0, h_max = start
    v = t.push(p, l0)
    for level in range(l0, h_max + 1):
        if v.is_positive():
            return ColimitAnswer(kind="positive", level=level)
        if level < h_max:
            v = map_apply(t.map_at(level), v)
    return ColimitAnswer(kind="not_positive_up_to", level=h_max)
