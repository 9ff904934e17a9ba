"""Kernel-controlled factorization of positive maps."""

import random

import pytest

from gammak0 import (
    DeltaNotNormal,
    NotPositiveMap,
    TargetLacksSdp,
    cyclic_group,
    dihedral_group,
    identity_map,
    is_positive_map,
    kernel_lattice,
    kernels_equal,
    map_apply,
    map_compose,
    map_new,
    shen_step,
)
from gammak0.serialize import hom_from_json
from conftest import random_positive_map, simplicial_over, small_groups, zero_map
from test_golden import frozen_problems


def test_shen_multiplication_by_one_plus_x():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    g1 = map_new(G, G, [G.element([[1, 1]])])
    assert kernel_lattice(g1) == [[1, -1]]
    fact = shen_step(g1)
    assert fact.middle.rank == 1
    assert fact.g12.columns == (G.element([[1, 1]]),)
    assert fact.g2.columns == (G.basis_vector(0),)
    assert map_compose(fact.g2, fact.g12) == g1
    assert kernels_equal(fact.g12, g1)


def test_shen_zero_map():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    g1 = zero_map(G, G)
    fact = shen_step(g1)
    assert map_compose(fact.g2, fact.g12) == g1
    assert kernels_equal(fact.g12, g1)
    # everything dies in the first leg
    for v in (G.basis_vector(0), G.element([[2, -1]])):
        assert map_apply(fact.g12, v).is_zero()


def test_shen_injective_map_keeps_source():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 2)
    g1 = identity_map(G)
    fact = shen_step(g1)
    assert fact.middle == G
    assert fact.g12 == identity_map(G)
    assert fact.g2 == g1
    # an injective map into a larger target still factors through its source
    S = simplicial_over(Z2, [], 1)
    g1 = map_new(S, G, [G.element([[1, 0], [0, 1]])])
    fact = shen_step(g1)
    assert fact.middle == S
    assert fact.g12 == identity_map(S)
    assert fact.g2 == g1


def test_shen_requires_normal_stabilizer():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)  # {1, b} is not normal
    with pytest.raises(DeltaNotNormal):
        shen_step(identity_map(G))


def test_shen_requires_the_source_coset_space_in_the_target():
    d3 = dihedral_group(3)
    src, tgt = simplicial_over(d3, [3], 1), simplicial_over(d3, [], 1)  # D3 over <b>, D3 over 1
    g1 = map_new(src, tgt, [tgt.zero()])
    with pytest.raises(TargetLacksSdp, match="^target must be a simplicial group over the same coset space$"):
        shen_step(g1)


def test_shen_requires_positive_map():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    g1 = map_new(G, G, [G.element([[1, -1]])])
    with pytest.raises(NotPositiveMap):
        shen_step(g1)


def test_shen_rank_zero_source():
    Z2 = cyclic_group(2)
    Z = simplicial_over(Z2, [], 0)
    G = simplicial_over(Z2, [], 2)
    g1 = zero_map(Z, G)
    fact = shen_step(g1)
    assert map_compose(fact.g2, fact.g12) == g1
    assert kernels_equal(fact.g12, g1)


def test_shen_rank_zero_target_keeps_target():
    Z2 = cyclic_group(2)
    S = simplicial_over(Z2, [], 2)
    T = simplicial_over(Z2, [], 0)
    g1 = zero_map(S, T)
    fact = shen_step(g1)
    assert fact.middle.rank == 0
    assert fact.g12 == g1
    assert fact.g2 == identity_map(T)
    assert map_compose(fact.g2, fact.g12) == g1
    assert kernels_equal(fact.g12, g1)


def test_shen_postconditions_random():
    rng = random.Random(71)
    checked = 0
    for g in small_groups():
        G_src = simplicial_over(g, [], rng.randint(1, 3))
        G_tgt = simplicial_over(g, [], rng.randint(1, 3))
        for _ in range(4):
            g1 = random_positive_map(rng, G_src, G_tgt, max_coeff=2)
            fact = shen_step(g1)
            assert map_compose(fact.g2, fact.g12) == g1
            assert kernels_equal(fact.g12, g1)
            assert is_positive_map(fact.g12)
            assert is_positive_map(fact.g2)
            checked += 1
    assert checked >= 30


def test_shen_with_nontrivial_normal_stabilizer():
    rng = random.Random(73)
    d3 = dihedral_group(3)
    rot = [1]  # rotations form the normal subgroup of index 2
    G_src = simplicial_over(d3, rot, 2)
    G_tgt = simplicial_over(d3, rot, 2)
    for _ in range(10):
        g1 = random_positive_map(rng, G_src, G_tgt, max_coeff=2)
        fact = shen_step(g1)
        assert map_compose(fact.g2, fact.g12) == g1
        assert kernels_equal(fact.g12, g1)


def test_shen_branch_matches_the_kernel_lattice_on_the_benchmark_corpus():
    """The rank test picks the branch that a non-empty kernel lattice picked, on
    the 192 ``shen`` problems of the frozen golden ``kernels`` workload."""
    branches = set()
    shen = [p for p in frozen_problems("kernels") if p["cmd"] == "shen"]
    assert len(shen) == 192
    for p in shen:
        (doc,) = p["files"].values()
        g1 = hom_from_json(doc["payload"])
        through_target = shen_step(g1).g12 is g1
        assert through_target == bool(kernel_lattice(g1)), p["pid"]
        branches.add(through_target)
    assert branches == {True, False}
