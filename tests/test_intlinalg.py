"""Hermite form, kernel bases, and the lattice-membership oracle against brute checks."""

import random

from gammak0.intlinalg import hnf, kernel_basis

from conftest import lattice_contains, rational_rank


def test_hnf_shape_and_canonicity():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hnf(rows, 3)
    # pivots positive, entries above pivots reduced
    pivots = []
    for row in h:
        p = next(c for c, v in enumerate(row) if v)
        assert row[p] > 0
        pivots.append(p)
    assert pivots == sorted(pivots)
    for i, row in enumerate(h):
        p = next(c for c, v in enumerate(row) if v)
        for j in range(i):
            assert 0 <= h[j][p] < row[p]
    # invariance under row shuffles and unimodular mixing
    rng = random.Random(2)
    for _ in range(10):
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            mixed[i] = [a + 3 * b for a, b in zip(mixed[i], mixed[j])]
        assert hnf(mixed, 3) == h


def test_kernel_basis_annihilates_and_is_complete():
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(m, ncols)
        for vec in basis:
            assert all(
                sum(m[i][j] * vec[j] for j in range(ncols)) == 0 for i in range(nrows)
            )
        # nullity check over the rationals by Gaussian elimination
        rank = rational_rank(m, ncols)
        assert len(basis) == ncols - rank
        # random integer kernel vectors lie in the basis lattice
        lat = hnf(basis, ncols)
        for _ in range(10):
            vec = [rng.randint(-4, 4) for _ in range(ncols)]
            if all(sum(m[i][j] * vec[j] for j in range(ncols)) == 0 for i in range(nrows)):
                assert lattice_contains(lat, vec)


def test_lattice_membership_divisibility():
    # checks the conftest oracle that the kernel-completeness tests rely on
    lat = hnf([[2, 0], [0, 3]], 2)
    assert lattice_contains(lat, [4, -3])
    assert not lattice_contains(lat, [1, 0])
    assert not lattice_contains(lat, [0, 1])
    assert lattice_contains(lat, [0, 0])


def test_lattice_eq_and_rank():
    assert hnf([[1, 1]], 2) == hnf([[-1, -1]], 2)
    assert hnf([[2, 0], [0, 2]], 2) == hnf([[2, 2], [0, 2]], 2)
    assert hnf([[1, 0]], 2) != hnf([[2, 0]], 2)
    assert len(hnf([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 3)) == 2


def test_hnf_invariant_under_unimodular_operations():
    rng = random.Random(7)
    for _ in range(300):
        w = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(w)] for _ in range(n)]
        h = hnf(rows, w)
        mixed = [list(r) for r in rows]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.randint(-3, 3)
            if i != j:
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            if rng.random() < 0.3:
                mixed[i] = [-a for a in mixed[i]]
        rng.shuffle(mixed)
        assert hnf(mixed, w) == h
        # appending any member of the lattice is invisible
        extra = [0] * w
        for r in rows:
            c = rng.randint(-2, 2)
            extra = [a + c * b for a, b in zip(extra, r)]
        assert hnf(rows + [extra], w) == h
