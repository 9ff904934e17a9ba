"""Exact integer linear algebra: Hermite normal form, kernels, lattices, rank,
and unique solutions.

Everything works on plain lists of Python ints, so arithmetic is exact at any
size.  Lattices are represented by generating rows; the row-style Hermite
normal form (positive pivots, entries above a pivot reduced into [0, pivot))
is the canonical form used for equality tests.  It is unique
for its lattice, so any elimination that reaches it gives the same answer.
``hnf`` is the only Hermite reduction: ``kernel_basis`` runs it once on the
transpose augmented by an identity block and reads the kernel, already in
canonical form, off the trailing rows.

The elimination is Euclid's algorithm on whole rows.  In each column the row
whose entry there has the least absolute value becomes the pivot, and every
row below it subtracts the floor quotient times the pivot row; that repeats
until only the pivot is nonzero.  Every step subtracts one multiple of the
current pivot row from another row, with a quotient no larger than the entry
it clears, and no row is ever scaled, so entries do not compound the way
they do when each 2x2 step rewrites the pivot row with Bezout cofactors.

The rank over Q needs no lattice at all: fraction-free (Bareiss) elimination
keeps every entry a minor of the input, so entries stay polynomially bounded
and every division is exact.  The same elimination, carried on to a
right-hand side, decides whether a system has a unique rational solution and
finds it without leaving the integers.
"""

from __future__ import annotations

from typing import Sequence


def hnf(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Canonical row HNF of the lattice spanned by ``rows``; zero rows dropped."""
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError("row width mismatch")
    nrows = len(mat)
    row = 0
    for col in range(width):
        while True:
            live = [i for i in range(row, nrows) if mat[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(mat[i][col]))
            mat[row], mat[piv] = mat[piv], mat[row]
            if len(live) == 1:
                break
            top = mat[row]
            for i in range(row + 1, nrows):
                q = mat[i][col] // top[col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], top)]
        if not live:
            continue
        if mat[row][col] < 0:
            mat[row] = [-v for v in mat[row]]
        pivval = mat[row][col]
        for i in range(row):
            q = mat[i][col] // pivval
            if q:
                mat[i] = [p - q * r for p, r in zip(mat[i], mat[row])]
        row += 1
    return mat[:row]


def kernel_basis(matrix: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Canonical HNF basis of {z in Z^ncols : matrix @ z = 0}.

    The HNF of the transpose augmented by an identity block (Cohen, GTM 138,
    section 2.4) ends in the rows whose transposed part vanished; their tails
    record the integer relations among the columns.  Those rows have their
    pivots in the identity block and are reduced against each other, so the
    tails are already the canonical HNF of the kernel.
    """
    nrows = len(matrix)
    aug = [
        [matrix[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    return [row[nrows:] for row in hnf(aug, nrows + ncols) if not any(row[:nrows])]


def _eliminate(rows: list[list[int]], ncols: int) -> int:
    """Fraction-free forward elimination of ``rows`` in place; returns the rank.

    Pivots are taken in the first ``ncols`` columns only; entries past them,
    such as a right-hand side, are carried through every update.  Afterwards
    ``rows[:rank]`` is in echelon form and every later row is zero in its
    first ``ncols`` entries.
    """
    r, prev = 0, 1
    for col in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, len(rows)):
            a = rows[i][col]
            if a or p != prev:  # otherwise the update leaves the row as it is
                rows[i] = [(p * x - a * t) // prev for x, t in zip(rows[i], top)]
        prev = p
        r += 1
    return r


def rank(matrix: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank over Q of ``matrix`` (rows of width ``ncols``).

    Fraction-free elimination (Bareiss, *Math. Comp.* 22, 1968): the pivot is
    the first nonzero entry of its column, and each update
    ``(p * x - a * t) // prev`` divides exactly by the previous pivot, since
    every entry after k steps is a (k+1)-minor of the input.  A row with a
    zero in the pivot column is only rescaled by ``p / prev``, and skipped
    when the two are equal.  Zero rows are dropped, and elimination stops
    once every row is a pivot row.
    """
    return _eliminate([list(r) for r in matrix if any(r)], ncols)


def solve_unique(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int], ncols: int
) -> tuple[bool, list[int] | None]:
    """Integral solution z of ``matrix @ z = rhs`` when z is unique over Q.

    Returns ``(False, None)`` when the system has more than one rational
    solution.  Otherwise returns ``(True, z)`` with the unique solution when
    it is integral, and ``(True, None)`` when there is no rational solution
    or the unique one is not integral.  The augmented rows are eliminated as
    in ``rank``.  With full column rank the last pivot D is the determinant
    of the pivot rows, so D*z is integral (Cramer's rule) and back
    substitution in D*z divides exactly.
    """
    rows = [[*row, t] for row, t in zip(matrix, rhs) if t or any(row)]
    r = _eliminate(rows, ncols)
    if any(row[ncols] for row in rows[r:]):
        return True, None
    if r < ncols:
        return False, None
    det = rows[ncols - 1][ncols - 1]
    scaled = [0] * ncols  # det * z
    for k in range(ncols - 1, -1, -1):
        row = rows[k]
        rest = sum(row[j] * scaled[j] for j in range(k + 1, ncols))
        scaled[k] = (det * row[ncols] - rest) // row[k]
    if any(s % det for s in scaled):
        return True, None
    return True, [s // det for s in scaled]
