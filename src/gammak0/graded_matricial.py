"""Symbolic graded matricial rings over a group-ring division coefficient ring.

A descriptor lists matrix components by runs of diagonal slots that share a
shift; the base field is a formal tag, since supports, homogeneous
dimensions, class groups, and graded isomorphism depend only on the
stabilizer subgroup and the shifts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

from .errors import DeltaMismatch
from .finite_group import CosetSpace
from .ordered_simplicial import GammaVector, SimplicialGroup


@dataclass(frozen=True)
class MatricialComponent:
    """One block M_size(F[D])(shifts), stored as runs ``(shift, count)`` of
    consecutive diagonal slots with one shift.  ``size`` and the per-slot
    ``shifts`` are derived from the runs; every invariant below reads the
    runs, so none costs time that grows with the size."""

    runs: tuple[tuple[int, int], ...]
    size: int = field(init=False)

    def __post_init__(self):
        if not self.runs:
            raise ValueError("component size must be at least 1")
        if any(k < 1 for _, k in self.runs):
            raise ValueError("every run holds at least one slot")
        object.__setattr__(self, "size", sum(k for _, k in self.runs))

    @property
    def shifts(self) -> tuple[int, ...]:
        """One shift per diagonal slot, expanded from the runs."""
        return tuple(chain.from_iterable(repeat(s, k) for s, k in self.runs))


@dataclass(frozen=True)
class MatricialRingDesc:
    space: CosetSpace
    components: tuple[MatricialComponent, ...]

    def __post_init__(self):
        order = self.space.parent.order
        for comp in self.components:
            for s, _ in comp.runs:
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
    """Descriptor from (size, per-slot shift list) pairs.  Each list is
    collected by value into one run per distinct shift, in order of first
    appearance: permuting the shifts of a component is conjugation by a
    permutation matrix, a graded isomorphism, so no invariant reads the
    slot order."""
    comps = []
    for p, shifts in components:
        if p < 1:
            raise ValueError("component size must be at least 1")
        if len(shifts) != p:
            raise ValueError("one shift per diagonal slot required")
        comps.append(MatricialComponent(runs=tuple(Counter(shifts).items())))
    return MatricialRingDesc(space=space, components=tuple(comps))


def right_coset_counts(space: CosetSpace, comp: MatricialComponent) -> list[int]:
    """Slots of a component per right coset D*s of their shift, indexed by the
    left coset of s^{-1}, which is the class of a slot of shift s; the class
    data below depends on the shifts only through these counts."""
    action, inv = space.action, space.parent.inv
    counts = [0] * space.num_cosets
    for s, k in comp.runs:
        counts[action[inv[s]][0]] += k
    return counts


def homog_dim(ring: MatricialRingDesc, d: int) -> int:
    """Dimension of the degree-d homogeneous component over the base field.

    Entry (k, l) of a component contributes exactly when the conjugated
    degree g_k*d*g_l^{-1} lands in the stabilizer subgroup D.  For shifts
    counted at a and b by ``right_coset_counts`` that holds iff d sends left
    coset b to left coset a, so a component contributes sum_b m[d.b] * m[b],
    at a cost linear in its number of runs.
    """
    space = ring.space
    moved = space.action[d]
    count = 0
    for comp in ring.components:
        m = right_coset_counts(space, comp)
        count += sum(m[a] * mb for a, mb in zip(moved, m))
    return count


def k0_of_matricial(ring: MatricialRingDesc) -> GammaVector:
    """Class data: the unit class, whose ``.group`` is the class group with one
    basis class per component; it collects the left cosets of the inverted
    shifts."""
    space = ring.space
    group = SimplicialGroup(space, ring.num_components)
    flat = tuple(m for comp in ring.components for m in right_coset_counts(space, comp))
    return GammaVector(group, flat)


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
