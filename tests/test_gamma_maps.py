"""Equivariant maps: validation, application, composition, and kernels."""

import random

import pytest

from gammak0 import (
    GammaVector,
    NotEquivariant,
    SimplicialGroup,
    ShapeMismatch,
    cyclic_group,
    dihedral_group,
    identity_map,
    intlinalg,
    is_positive_map,
    kernel_lattice,
    lift_vector,
    map_apply,
    map_compose,
    map_matrix,
    map_new,
)
from conftest import (
    act_reference,
    lattice_contains,
    random_positive_map,
    random_ring_elt,
    random_space,
    random_vector,
    rational_rank,
    simplicial_over,
    small_groups,
    translate_reference,
    trivial_space,
    zero_map,
)


def test_identity_map_valid_and_positive():
    for g in small_groups():
        G = simplicial_over(g, [g.order - 1], 2)
        f = identity_map(G)
        assert is_positive_map(f)
        v = G.element([[1] * G.space.num_cosets, [0] * G.space.num_cosets])
        assert map_apply(f, v) == v


def test_not_equivariant_column():
    d3 = dihedral_group(3)
    src = simplicial_over(d3, [3], 1)  # stabilizer {1, b}
    tgt = simplicial_over(d3, [], 1)  # full regular module
    bad = tgt.element([[1, 0, 0, 0, 0, 0]])  # b moves the identity coset
    with pytest.raises(NotEquivariant):
        map_new(src, tgt, [bad])
    good = tgt.element([[1, 0, 0, 1, 0, 0]])  # indicator of 1 plus indicator of b
    f = map_new(src, tgt, [good])
    assert is_positive_map(f)


def test_shape_mismatch():
    G = simplicial_over(cyclic_group(2), [], 2)
    H = simplicial_over(cyclic_group(2), [], 1)
    with pytest.raises(ShapeMismatch):
        map_new(G, H, [H.element([[1, 0]])])  # one column short
    f = map_new(H, H, [H.element([[1, 1]])])
    with pytest.raises(ShapeMismatch):
        map_apply(f, G.element([[1, 0], [0, 0]]))


def test_apply_examples():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    f = map_new(G, G, [G.element([[2, 1]])])
    assert map_apply(f, G.basis_vector(0)) == G.element([[2, 1]])

    mult = map_new(G, G, [G.element([[1, 1]])])  # e -> (1+x)e
    assert map_apply(mult, G.element([[1, -1]])).is_zero()  # (1-x)(1+x) = 0


def test_apply_is_additive_and_equivariant():
    rng = random.Random(51)
    for g in (cyclic_group(4), dihedral_group(3)):
        src = simplicial_over(g, [g.order - 1], 2)
        tgt = simplicial_over(g, [g.order - 1], 2)
        for _ in range(6):
            f = random_positive_map(rng, src, tgt)
            v, w = random_vector(rng, src), random_vector(rng, src)
            assert map_apply(f, v + w) == map_apply(f, v) + map_apply(f, w)
            for gamma in g.elements():
                assert map_apply(f, v.translate(gamma)) == map_apply(f, v).translate(gamma)
            a = random_ring_elt(rng, g)
            assert map_apply(f, a * v) == a * map_apply(f, v)


def test_positive_maps_preserve_cone():
    rng = random.Random(53)
    for g in small_groups():
        src = simplicial_over(g, [], 2)
        tgt = simplicial_over(g, [], 3)
        for _ in range(5):
            f = random_positive_map(rng, src, tgt)
            v = random_vector(rng, src).positive_part()
            assert tgt.cone_contains(map_apply(f, v))


def test_compose():
    rng = random.Random(55)
    g = dihedral_group(3)
    A = simplicial_over(g, [1], 2)
    B = simplicial_over(g, [1], 3)
    C = simplicial_over(g, [1], 1)
    for _ in range(6):
        f = random_positive_map(rng, A, B)
        h = random_positive_map(rng, B, C)
        hf = map_compose(h, f)
        for _ in range(4):
            v = random_vector(rng, A)
            assert map_apply(hf, v) == map_apply(h, map_apply(f, v))


def test_identity_and_compose_match_map_new():
    """identity_map and map_compose skip map_new's checks; their maps, flat
    matrix included (it is not compared by ==), are the ones map_new builds."""
    rng = random.Random(61)
    for g, gens in (
        (cyclic_group(2), []),
        (cyclic_group(4), [2]),  # normal stabilizer {1, x2}
        (dihedral_group(3), [1]),  # normal rotation subgroup
        (dihedral_group(4), [2]),  # normal centre {1, a2}
        (dihedral_group(3), [3]),  # non-normal stabilizer {1, b}
    ):
        A, B, C = (simplicial_over(g, gens, r) for r in (2, 3, 1))
        for G in (A, B, C):
            ident = identity_map(G)
            want = map_new(G, G, G.basis())
            assert ident == want and ident.matrix == want.matrix
        for _ in range(4):
            f = random_positive_map(rng, A, B)
            h = random_positive_map(rng, B, C)
            hf = map_compose(h, f)
            want = map_new(A, C, [map_apply(h, c) for c in f.columns])
            assert hf == want and hf.matrix == want.matrix
        with pytest.raises(ShapeMismatch):
            map_compose(f, h)
        with pytest.raises(ShapeMismatch):
            map_compose(f, f)


def test_kernel_of_projection_to_point():
    # collapse Z[Z2] onto Z: the kernel is generated by 1 - x
    Z2 = cyclic_group(2)
    src = simplicial_over(Z2, [], 1)
    tgt = simplicial_over(Z2, [1], 1)
    f = map_new(src, tgt, [tgt.basis_vector(0)])
    # oracle: integer kernel of the 1x2 matrix [[1, 1]]
    assert intlinalg.kernel_basis([[1, 1]], 2) == [[1, -1]]
    assert kernel_lattice(f) == [[1, -1]]


def test_kernel_identity_and_zero():
    G = simplicial_over(cyclic_group(2), [], 1)
    assert kernel_lattice(identity_map(G)) == []
    # the kernel of the zero map is the whole module
    full = intlinalg.hnf([list(G.basis_vector(0).translate(g).flat)
                          for g in G.space.parent.elements()], G.flat_dim())
    assert kernel_lattice(zero_map(G, G)) == full


def test_kernel_generators_map_to_zero_and_span():
    rng = random.Random(57)
    for g in (cyclic_group(2), cyclic_group(3), dihedral_group(3)):
        src = simplicial_over(g, [g.order - 1], 2)
        tgt = simplicial_over(g, [g.order - 1], 2)
        for _ in range(6):
            f = random_positive_map(rng, src, tgt)
            lat = kernel_lattice(f)
            for row in lat:
                assert map_apply(f, GammaVector(src, tuple(row))).is_zero()
            # independent check: rank-nullity over the rationals
            width = src.flat_dim()
            mat = map_matrix(f)
            rank = rational_rank(mat, width)
            assert len(lat) == width - rank
            # spot-check completeness: random kernel vectors land in the lattice
            for _ in range(5):
                v = random_vector(rng, src)
                if map_apply(f, v).is_zero():
                    assert lattice_contains(lat, v.flat)


def test_kernel_lattice_is_canonical():
    G = simplicial_over(cyclic_group(2), [], 1)
    f = map_new(G, G, [G.element([[1, 1]])])
    g2 = map_new(G, G, [G.element([[2, 2]])])
    assert kernel_lattice(f) == kernel_lattice(g2) == [[1, -1]]


def test_flat_maps_match_coordinate_reference():
    """map_apply and map_matrix agree with per-coordinate lifts and translates."""
    rng = random.Random(59)
    for g in small_groups():
        for src_space in (trivial_space(g), random_space(rng, g), random_space(rng, g)):
            tgt_space = random_space(rng, g)
            for rs, rt in ((0, 1), (1, 0), (1, 1), (2, 3), (3, 2)):
                src, tgt = SimplicialGroup(src_space, rs), SimplicialGroup(tgt_space, rt)
                cols = []
                for _ in range(rs):  # a signed column averaged over the source stabilizer
                    w = random_vector(rng, tgt, max_coeff=2)
                    col = tgt.zero()
                    for delta in src_space.sub.members:
                        col = col + w.translate(delta)
                    cols.append(col)
                f = map_new(src, tgt, cols)
                v = random_vector(rng, src)
                want = [(0,) * tgt_space.num_cosets for _ in range(rt)]
                for i, col in enumerate(cols):
                    lift = lift_vector(src_space, v.coord(i))
                    want = [
                        tuple(a + b for a, b in zip(acc, act_reference(tgt_space, lift, col.coord(j))))
                        for j, acc in enumerate(want)
                    ]
                image = map_apply(f, v)
                assert tuple(image.coord(j) for j in range(rt)) == tuple(want)
                matrix_cols = [
                    [k for j in range(rt) for k in translate_reference(tgt_space, col.coord(j), rep)]
                    for col in cols
                    for rep in src_space.reps
                ]
                assert map_matrix(f) == [[col[r] for col in matrix_cols] for r in range(tgt.flat_dim())]
