"""Symbolic graded matricial rings over a group-ring division coefficient ring.

Up to graded isomorphism, a block M_n(F[D])(g_1, ..., g_n) is the number of
its shifts in each right coset D*g: permuting the slots is conjugation by a
permutation matrix, and replacing g by d*g with d in D is conjugation by a
homogeneous unit.  Those counts, indexed by the class of a slot (the left
coset of g^{-1}, which names D*g), are the coordinates of the ring's unit
class.  So a ring is stored as its unit class: a ``GammaVector`` over the
simplicial group with one coordinate per block, coordinate i holding the
counts of block i, and the block size is the coordinate's mass.  The base
field is a formal tag, since supports, homogeneous dimensions, class groups
and graded isomorphism depend only on the stabilizer subgroup and the counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import DeltaMismatch
from .finite_group import CosetSpace
from .ordered_simplicial import GammaVector, SimplicialGroup


def matricial_ring(space: CosetSpace, components: Sequence[tuple[int, Sequence[int]]]) -> GammaVector:
    """Ring from (size, per-slot shift list) pairs.  A slot of shift s
    counts toward the class of s^{-1}; this is the only place that reads a
    shift, so the slot order of a loaded list is not kept."""
    order, inv, of = space.parent.order, space.parent.inv, space.elt_to_coset
    flat: list[int] = []
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
        flat.extend(counts)
    return GammaVector(SimplicialGroup(space, len(components)), tuple(flat))


def slot_classes(ring: GammaVector) -> list[list[tuple[int, int]]]:
    """Per block, its ``(class, count)`` pairs of nonzero count in increasing
    order of the class representative.  This is the diagonal layout: each
    class fills one interval, and its slots carry the shift rep_c^{-1}."""
    space = ring.group.space
    order = sorted(range(space.num_cosets), key=space.reps.__getitem__)
    return [[(c, m[c]) for c in order if m[c]] for m in map(ring.coord, range(ring.group.rank))]


def describe(ring: GammaVector) -> str:
    """``M<size>(shifts) (+) ...``, one shift name per slot, or ``0``."""
    G, reps = ring.group.space.parent, ring.group.space.reps
    parts = []
    for classes in slot_classes(ring):
        shift_names = ",".join(G.name_of(G.inv[reps[c]]) for c, k in classes for _ in range(k))
        parts.append(f"M{sum(k for _, k in classes)}({shift_names})")
    return " (+) ".join(parts) if parts else "0"


def homog_dim(ring: GammaVector, d: int) -> int:
    """Dimension of the degree-d homogeneous component over the base field.

    Entry (k, l) of a block contributes exactly when the conjugated degree
    g_k*d*g_l^{-1} lands in the stabilizer subgroup D.  For slots of classes
    a and b that holds iff d sends class b to class a, so a block of counts
    m contributes sum_b m[d.b] * m[b], at a cost linear in the number of
    cosets.
    """
    moved = ring.group.space.action[d]
    count = 0
    for i in range(ring.group.rank):
        m = ring.coord(i)
        count += sum(m[a] * mb for a, mb in zip(moved, m))
    return count


def k0_of_matricial(ring: GammaVector) -> GammaVector:
    """Class data: the unit class, whose ``.group`` is the class group with
    one basis class per block.  A ring is stored as its unit class, so this
    returns ``ring`` itself."""
    return ring


def graded_iso(r: GammaVector, s: GammaVector) -> bool:
    """Graded isomorphism: the blocks match up to permutation, and matched
    blocks have equal counts."""
    if r.group.space != s.group.space:
        raise DeltaMismatch("descriptors over different coset spaces")
    return sorted(map(r.coord, range(r.group.rank))) == sorted(map(s.coord, range(s.group.rank)))
