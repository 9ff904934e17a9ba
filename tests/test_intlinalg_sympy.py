"""Hermite forms, kernel bases, ranks and unique solutions against sympy as an
independent oracle.

sympy's ``hermite_normal_form`` is column-style, so the comparison is between
lattices: the columns of sympy's form of the transpose must span the same
lattice as our rows, which the canonical row HNF decides.
"""

from functools import reduce
from math import gcd, lcm

from hypothesis import example, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from gammak0.intlinalg import hnf, kernel_basis, rank, solve_unique

from conftest import lattice_contains

ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_hnf_spans_the_lattice_of_sympys_form(case):
    rows, width = case
    h = hermite_normal_form(Matrix(len(rows), width, sum(rows, [])).T)
    columns = [[int(x) for x in h.col(j)] for j in range(h.cols)]
    ours = hnf(rows, width)
    assert len(ours) == h.cols
    assert hnf(columns, width) == ours


def _primitive(vec) -> list[int]:
    scale = reduce(lcm, (x.q for x in vec), 1)
    ints = [int(x * scale) for x in vec]
    g = reduce(gcd, ints, 0)
    return [x // g for x in ints]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_kernel_basis_is_the_saturated_rational_nullspace(case):
    m, ncols = case
    basis = kernel_basis(m, ncols)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
    sm = Matrix(len(m), ncols, sum(m, []))
    assert len(basis) == ncols - sm.rank()
    lat = hnf(basis, ncols)
    assert lat == basis
    for vec in sm.nullspace():
        assert lattice_contains(lat, _primitive(vec))


RANK_ENTRIES = st.one_of(ENTRIES, st.integers(-2**64, 2**64))


@st.composite
def rank_deficient_matrices(draw, max_rows=7, max_cols=7):
    """Independent-looking rows, then combinations of them and zero rows, shuffled."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(RANK_ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=0, max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    rows.extend([0] * ncols for _ in range(draw(st.integers(0, 2))))
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(matrices(max_rows=8, max_cols=8), rank_deficient_matrices()))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[0], [0], [0], [0]], 1))
@example(([[2**64, 0, 1, -10**6]], 4))
@example(([[2**64, 1], [2**63, 0], [3, 2**64]], 2))
@example(([[0, 1, 0], [2, 0, 0], [0, 1, 1]], 3))  # rows under the pivot 2 are rescaled, not skipped
def test_rank_is_sympys_rank_and_decides_the_kernel(case):
    m, ncols = case
    r = rank(m, ncols)
    assert r == (Matrix(len(m), ncols, sum(m, [])).rank() if m else 0)
    assert (r < ncols) == bool(kernel_basis(m, ncols))


@st.composite
def linear_systems(draw):
    """(matrix, rhs, ncols): rhs is matrix @ z for an integral z, that times
    a scale (so z may turn rational), or drawn freely."""
    m, ncols = draw(st.one_of(matrices(max_rows=7, max_cols=6), rank_deficient_matrices(max_cols=6)))
    kind = draw(st.sampled_from(["image", "scaled", "free"]))
    if kind == "free":
        return m, draw(st.lists(ENTRIES, min_size=len(m), max_size=len(m))), ncols
    z = draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
    scale = draw(st.integers(2, 5)) if kind == "scaled" else 1
    return [[scale * v for v in row] for row in m], [sum(a * b for a, b in zip(row, z)) for row in m], ncols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(linear_systems())
@example(([[2]], [1], 1))  # unique but not integral
@example(([[2, 0], [0, 3]], [4, 9], 2))
@example(([[1, 1], [2, 2]], [1, 3], 2))  # no solution and rank deficient
@example(([[1, 1]], [5], 2))  # a line of solutions
@example(([[0, 0], [0, 0]], [0, 1], 2))  # zero rows, inconsistent
@example(([], [], 3))
@example(([[0, 1], [1, 0], [1, 1]], [2, 3, 5], 2))  # overdetermined, consistent
@example(([[2**64, 1], [1, 0]], [2**64 + 7, 1], 2))
def test_solve_unique_matches_sympys_solution_set(case):
    m, rhs, ncols = case
    expected = (False, None)  # no rows: every vector solves
    if m:
        try:
            sol, params = Matrix(len(m), ncols, sum(m, [])).gauss_jordan_solve(Matrix(rhs))
        except ValueError:  # sympy's answer for an inconsistent system
            expected = (True, None)
        else:
            if params.rows == 0:
                values = list(sol)
                expected = (True, [int(v) for v in values] if all(v.is_integer for v in values) else None)
    assert solve_unique(m, rhs, ncols) == expected
