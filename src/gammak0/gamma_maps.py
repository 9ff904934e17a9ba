"""Equivariant linear maps between simplicial groups and their integer kernels.

A map is stored by the images of the basis vectors and by its flat integer
matrix, whose column for basis vector i at coset c is column i translated by
the coset representative; the columns being fixed by the source stabilizer
makes that independent of the representative.  The matrix is built once, so
applying a map is a sparse mat-vec.  ``map_new`` validates columns that come
from outside; the identity and composites of validated maps are equivariant
by construction, so ``identity_map`` and ``map_compose`` build the matrix
without re-checking.  The kernel of a map is ``intlinalg.kernel_basis`` of the
same matrix, which is already the canonical HNF used for equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import NotEquivariant, ShapeMismatch
from .ordered_simplicial import GammaVector, SimplicialGroup
from . import intlinalg


@dataclass(frozen=True)
class GammaLinearMap:
    source: SimplicialGroup
    target: SimplicialGroup
    columns: tuple[GammaVector, ...]
    # column j of the flat matrix as (row, entry) pairs of its nonzero entries
    matrix: tuple[tuple[tuple[int, int], ...], ...] = field(compare=False)

    def __repr__(self) -> str:
        return f"GammaLinearMap({self.source.rank} -> {self.target.rank})"


def map_new(
    source: SimplicialGroup,
    target: SimplicialGroup,
    columns: Sequence[GammaVector],
) -> GammaLinearMap:
    """Validate shapes and source-stabilizer fixedness of the columns, then
    build the flat matrix."""
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
    return _build(source, target, columns)


def _build(
    source: SimplicialGroup,
    target: SimplicialGroup,
    columns: Sequence[GammaVector],
) -> GammaLinearMap:
    """The map with these columns, which the caller guarantees are valid."""
    n, action = target.space.num_cosets, target.space.action
    matrix = []
    for col in columns:
        nonzero = [(i - i % n, i % n, m) for i, m in enumerate(col.flat) if m]
        for rep in source.space.reps:
            row = action[rep]  # rep * col: entry m at (b, c) moves to (b, rep*c)
            matrix.append(tuple((b + row[c], m) for b, c, m in nonzero))
    return GammaLinearMap(source=source, target=target, columns=tuple(columns), matrix=tuple(matrix))


def identity_map(group: SimplicialGroup) -> GammaLinearMap:
    # the basis vectors sit at coset 0, which is the stabilizer, so it fixes them
    return _build(group, group, group.basis())


def is_positive_map(f: GammaLinearMap) -> bool:
    return all(f.target.cone_contains(c) for c in f.columns)


def map_apply(f: GammaLinearMap, v: GammaVector) -> GammaVector:
    if v.group != f.source:
        raise ShapeMismatch("vector is not in the source group")
    out = [0] * f.target.flat_dim()
    for x, col in zip(v.flat, f.matrix):
        if x:
            for r, m in col:
                out[r] += x * m
    return GammaVector(f.target, tuple(out))


def map_compose(g: GammaLinearMap, f: GammaLinearMap) -> GammaLinearMap:
    """g after f."""
    if f.target != g.source:
        raise ShapeMismatch("maps do not compose")
    # a composite of equivariant maps is equivariant
    return _build(f.source, g.target, [map_apply(g, c) for c in f.columns])


def map_matrix(f: GammaLinearMap) -> list[list[int]]:
    """Flattened integer matrix (target dim x source dim)."""
    rows = [[0] * f.source.flat_dim() for _ in range(f.target.flat_dim())]
    for j, col in enumerate(f.matrix):
        for r, m in col:
            rows[r][j] = m
    return rows


def kernel_lattice(f: GammaLinearMap) -> list[list[int]]:
    """Canonical HNF of the flattened kernel; used for lattice equality tests."""
    return intlinalg.kernel_basis(map_matrix(f), f.source.flat_dim())


def kernels_equal(f: GammaLinearMap, g: GammaLinearMap) -> bool:
    if f.source != g.source:
        raise ShapeMismatch("kernels live in different groups")
    return kernel_lattice(f) == kernel_lattice(g)
