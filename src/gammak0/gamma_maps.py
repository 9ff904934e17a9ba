"""Equivariant linear maps between simplicial groups and their integer kernels.

A map is stored by the images of the basis vectors.  Applying it to an
element uses the canonical group-ring lifts of the coordinates; the columns
being fixed by the source stabilizer makes the result independent of the
lift.  Kernels are computed exactly by flattening to an integer matrix and
extracting a lattice basis by normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotEquivariant, ShapeMismatch
from .group_ring import lift_vector
from .ordered_simplicial import GammaVector, SimplicialGroup, unflatten
from . import intlinalg


@dataclass(frozen=True)
class GammaLinearMap:
    source: SimplicialGroup
    target: SimplicialGroup
    columns: tuple[GammaVector, ...]

    def __repr__(self) -> str:
        return f"GammaLinearMap({self.source.rank} -> {self.target.rank})"


def map_new(
    source: SimplicialGroup,
    target: SimplicialGroup,
    columns: Sequence[GammaVector],
) -> GammaLinearMap:
    """Validate shapes and source-stabilizer fixedness of the columns."""
    if source.space.parent != target.space.parent:
        raise ShapeMismatch("source and target over different groups")
    if len(columns) != source.rank:
        raise ShapeMismatch(f"expected {source.rank} columns, got {len(columns)}")
    for col in columns:
        if col.group != target:
            raise ShapeMismatch("column does not belong to the target group")
    for delta in source.space.sub.members:
        for i, col in enumerate(columns):
            if col.translate(delta) != col:
                raise NotEquivariant(
                    f"column {i} is not fixed by source stabilizer element {delta}"
                )
    return GammaLinearMap(source=source, target=target, columns=tuple(columns))


def identity_map(group: SimplicialGroup) -> GammaLinearMap:
    return map_new(group, group, group.basis())


def zero_map(source: SimplicialGroup, target: SimplicialGroup) -> GammaLinearMap:
    return map_new(source, target, [target.zero() for _ in range(source.rank)])


def is_positive_map(f: GammaLinearMap) -> bool:
    return all(f.target.cone_contains(c) for c in f.columns)


def map_apply(f: GammaLinearMap, v: GammaVector) -> GammaVector:
    if v.group != f.source:
        raise ShapeMismatch("vector is not in the source group")
    out = f.target.zero()
    for coord, col in zip(v.coords, f.columns):
        if not coord.is_zero():
            out = out + lift_vector(coord) * col
    return out


def map_compose(g: GammaLinearMap, f: GammaLinearMap) -> GammaLinearMap:
    """g after f."""
    if f.target != g.source:
        raise ShapeMismatch("maps do not compose")
    return map_new(f.source, g.target, [map_apply(g, c) for c in f.columns])


def map_matrix(f: GammaLinearMap) -> list[list[int]]:
    """Flattened integer matrix (target dim x source dim)."""
    src, tgt = f.source, f.target
    nc = src.space.num_cosets
    cols = []
    for i in range(src.rank):
        col = f.columns[i]
        for c in range(nc):
            rep = src.space.reps[c]
            cols.append(col.translate(rep).flatten())
    rows = [[cols[j][r] for j in range(len(cols))] for r in range(tgt.flat_dim())]
    return rows


def map_kernel(f: GammaLinearMap) -> list[GammaVector]:
    """Lattice basis of the kernel, returned as source elements.

    A basis over the integers generates the kernel a fortiori as a module
    over the group ring.
    """
    src = f.source
    if src.flat_dim() == 0:
        return []
    basis = intlinalg.kernel_basis(map_matrix(f), src.flat_dim())
    return [unflatten(src, row) for row in basis]


def kernel_lattice(f: GammaLinearMap) -> list[list[int]]:
    """Canonical HNF of the flattened kernel; used for lattice equality tests."""
    src = f.source
    if src.flat_dim() == 0:
        return []
    return intlinalg.hnf(
        intlinalg.kernel_basis(map_matrix(f), src.flat_dim()), src.flat_dim()
    )


def kernels_equal(f: GammaLinearMap, g: GammaLinearMap) -> bool:
    if f.source != g.source:
        raise ShapeMismatch("kernels live in different groups")
    return kernel_lattice(f) == kernel_lattice(g)
