"""Symbolic graded matricial rings over a group-ring division coefficient ring.

A descriptor lists matrix components by size and shift tuple; the base field
is a formal tag, since supports, homogeneous dimensions, class groups, and
graded isomorphism depend only on the stabilizer subgroup and the shifts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DeltaMismatch
from .finite_group import CosetSpace
from .ordered_simplicial import GammaVector, SimplicialGroup


@dataclass(frozen=True)
class MatricialComponent:
    size: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("component size must be at least 1")
        if len(self.shifts) != self.size:
            raise ValueError("one shift per diagonal slot required")


@dataclass(frozen=True)
class MatricialRingDesc:
    space: CosetSpace
    components: tuple[MatricialComponent, ...]

    def __post_init__(self):
        order = self.space.parent.order
        for comp in self.components:
            for s in comp.shifts:
                if s < 0 or s >= order:
                    raise ValueError(f"shift {s} out of range")

    @property
    def num_components(self) -> int:
        return len(self.components)

    def describe(self) -> str:
        G = self.space.parent
        parts = []
        for comp in self.components:
            shift_names = ",".join(G.name_of(s) for s in comp.shifts)
            parts.append(f"M{comp.size}({shift_names})")
        return " (+) ".join(parts) if parts else "0"


def matricial_ring(space: CosetSpace, components: Sequence[tuple[int, Sequence[int]]]) -> MatricialRingDesc:
    comps = tuple(MatricialComponent(size=p, shifts=tuple(sh)) for p, sh in components)
    return MatricialRingDesc(space=space, components=comps)


def slot_classes(space: CosetSpace, shifts: Iterable[int], twist: int = 0) -> list[int]:
    """Class of each slot: the left coset of s^{-1} * (coset ``twist``) for a
    slot of shift s.  Twist 0 gives a slot's own class, the left coset of
    s^{-1}, which names the right coset D*s; twist c gives the class that a
    source slot needs in a copy twisted by c."""
    action, inv = space.action, space.parent.inv
    return [action[inv[s]][twist] for s in shifts]


def right_coset_counts(space: CosetSpace, comp: MatricialComponent) -> list[int]:
    """Slots of a component per right coset D*s of their shift, indexed by the
    left coset of s^{-1}; the class data below depends on the shifts only
    through these counts."""
    counts = [0] * space.num_cosets
    distinct = Counter(comp.shifts)
    for c, k in zip(slot_classes(space, distinct), distinct.values()):
        counts[c] += k
    return counts


def homog_dim(ring: MatricialRingDesc, d: int) -> int:
    """Dimension of the degree-d homogeneous component over the base field.

    Entry (k, l) of a component contributes exactly when the conjugated
    degree g_k*d*g_l^{-1} lands in the stabilizer subgroup D.  For shifts
    counted at a and b by ``right_coset_counts`` that holds iff d sends left
    coset b to left coset a, so a component contributes sum_b m[d.b] * m[b],
    at a cost linear in its size.
    """
    space = ring.space
    moved = space.action[d]
    count = 0
    for comp in ring.components:
        m = right_coset_counts(space, comp)
        count += sum(m[a] * mb for a, mb in zip(moved, m))
    return count


@dataclass(frozen=True)
class K0Data:
    """Class group of a matricial descriptor with its distinguished classes."""

    group: SimplicialGroup
    unit_class: GammaVector


def k0_of_matricial(ring: MatricialRingDesc) -> K0Data:
    """Class data: one basis class per component; the unit class collects the
    left cosets of the inverted shifts."""
    space = ring.space
    group = SimplicialGroup(space, ring.num_components)
    flat = tuple(m for comp in ring.components for m in right_coset_counts(space, comp))
    return K0Data(group=group, unit_class=GammaVector(group, flat))


def component_key(space: CosetSpace, comp: MatricialComponent) -> tuple[int, tuple[int, ...]]:
    return comp.size, tuple(right_coset_counts(space, comp))


def graded_iso(r: MatricialRingDesc, s: MatricialRingDesc) -> bool:
    """Graded isomorphism: components match up to permutation, and matched
    components have equal sizes and equal multisets of shift right-cosets."""
    if r.space != s.space:
        raise DeltaMismatch("descriptors over different coset spaces")
    keys_r = sorted(component_key(r.space, c) for c in r.components)
    keys_s = sorted(component_key(s.space, c) for c in s.components)
    return keys_r == keys_s
