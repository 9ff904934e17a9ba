"""Symbolic graded matricial rings over a group-ring division coefficient ring.

Up to graded isomorphism, a block M_n(F[D])(g_1, ..., g_n) is the number of
its shifts in each right coset D*g: permuting the slots is conjugation by a
permutation matrix, and replacing g by d*g with d in D is conjugation by a
homogeneous unit.  A descriptor stores each component as those counts,
indexed by the class of a slot, the left coset of g^{-1}, which names D*g.
The base field is a formal tag, since supports, homogeneous dimensions, class
groups and graded isomorphism depend only on the stabilizer subgroup and the
counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DeltaMismatch
from .finite_group import CosetSpace
from .ordered_simplicial import GammaVector, SimplicialGroup


@dataclass(frozen=True)
class MatricialComponent:
    """One block, stored as the number of its diagonal slots in each class,
    indexed by coset; ``size`` is their sum."""

    counts: tuple[int, ...]
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", sum(self.counts))
        if self.size < 1 or min(self.counts) < 0:
            raise ValueError("a component holds at least one slot and no negative count")


@dataclass(frozen=True)
class MatricialRingDesc:
    space: CosetSpace
    components: tuple[MatricialComponent, ...]

    @property
    def num_components(self) -> int:
        return len(self.components)

    def slot_classes(self) -> list[list[tuple[int, int]]]:
        """Per component, its ``(class, count)`` pairs of nonzero count in
        increasing order of the class representative.  This is the diagonal
        layout: each class fills one interval, and its slots carry the shift
        rep_c^{-1}."""
        reps = self.space.reps
        order = sorted(range(self.space.num_cosets), key=reps.__getitem__)
        return [[(c, comp.counts[c]) for c in order if comp.counts[c]] for comp in self.components]

    def describe(self) -> str:
        G, reps = self.space.parent, self.space.reps
        parts = []
        for comp, classes in zip(self.components, self.slot_classes()):
            shift_names = ",".join(G.name_of(G.inv[reps[c]]) for c, k in classes for _ in range(k))
            parts.append(f"M{comp.size}({shift_names})")
        return " (+) ".join(parts) if parts else "0"


def matricial_ring(space: CosetSpace, components: Sequence[tuple[int, Sequence[int]]]) -> MatricialRingDesc:
    """Descriptor from (size, per-slot shift list) pairs.  A slot of shift s
    counts toward the class of s^{-1}; this is the only place that reads a
    shift, so the slot order of a loaded list is not kept."""
    order, inv, of = space.parent.order, space.parent.inv, space.elt_to_coset
    comps = []
    for p, shifts in components:
        if p < 1:
            raise ValueError("component size must be at least 1")
        if len(shifts) != p:
            raise ValueError("one shift per diagonal slot required")
        counts = [0] * space.num_cosets
        for s, k in Counter(shifts).items():
            if not 0 <= s < order:
                raise ValueError(f"shift {s} out of range")
            counts[of[inv[s]]] += k
        comps.append(MatricialComponent(counts=tuple(counts)))
    return MatricialRingDesc(space=space, components=tuple(comps))


def homog_dim(ring: MatricialRingDesc, d: int) -> int:
    """Dimension of the degree-d homogeneous component over the base field.

    Entry (k, l) of a component contributes exactly when the conjugated
    degree g_k*d*g_l^{-1} lands in the stabilizer subgroup D.  For slots of
    classes a and b that holds iff d sends class b to class a, so a component
    of counts m contributes sum_b m[d.b] * m[b], at a cost linear in the
    number of cosets.
    """
    moved = ring.space.action[d]
    count = 0
    for comp in ring.components:
        m = comp.counts
        count += sum(m[a] * mb for a, mb in zip(moved, m))
    return count


def k0_of_matricial(ring: MatricialRingDesc) -> GammaVector:
    """Class data: the unit class, whose ``.group`` is the class group with one
    basis class per component; coordinate i is the counts of component i."""
    group = SimplicialGroup(ring.space, ring.num_components)
    return GammaVector(group, tuple(m for comp in ring.components for m in comp.counts))


def graded_iso(r: MatricialRingDesc, s: MatricialRingDesc) -> bool:
    """Graded isomorphism: the components match up to permutation, and matched
    components have equal counts."""
    if r.space != s.space:
        raise DeltaMismatch("descriptors over different coset spaces")
    return sorted(c.counts for c in r.components) == sorted(c.counts for c in s.components)
