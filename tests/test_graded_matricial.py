"""Homogeneous dimensions, class data, and graded isomorphism of descriptors."""

import random

import pytest

from gammak0 import (
    DeltaMismatch,
    coset_space,
    cyclic_group,
    dihedral_group,
    graded_iso,
    group_stabilizer,
    homog_dim,
    k0_of_matricial,
    matricial_ring,
    subgroup_closure,
)
from conftest import full_subgroup, random_space, small_groups, trivial_space


def test_homog_dim_z2_example():
    Z2 = cyclic_group(2)
    R = matricial_ring(trivial_space(Z2), [(3, [0, 0, 1])])
    # oracle: brute-force over all 9 entry pairs
    def brute(d):
        count = 0
        for gk in (0, 0, 1):
            for gl in (0, 0, 1):
                if Z2.mul[Z2.mul[gk][d]][Z2.inv[gl]] == 0:
                    count += 1
        return count

    assert homog_dim(R, 0) == brute(0) == 5
    assert homog_dim(R, 1) == brute(1) == 4


def test_homog_dim_full_subgroup():
    for g in (cyclic_group(2), dihedral_group(3)):
        space = coset_space(g, full_subgroup(g))
        R = matricial_ring(space, [(2, [0, 1]), (1, [g.order - 1])])
        total = sum(sum(R.coord(i)) ** 2 for i in range(R.group.rank))
        assert total == 2**2 + 1**2
        for d in g.elements():
            assert homog_dim(R, d) == total


def test_homog_dim_sum_identity():
    rng = random.Random(91)
    for g in small_groups():
        for _ in range(4):
            space = random_space(rng, g)
            comps = [
                (p, [rng.randrange(g.order) for _ in range(p)])
                for p in [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            ]
            R = matricial_ring(space, comps)
            total = sum(homog_dim(R, d) for d in g.elements())
            assert total == space.sub.order * sum(p**2 for p, _ in comps)


def test_homog_dim_brute_force_oracle():
    rng = random.Random(93)
    for g in small_groups():
        for _ in range(3):
            space = random_space(rng, g)
            sub = set(space.sub.members)
            comps = [(2, [rng.randrange(g.order), rng.randrange(g.order)])]
            R = matricial_ring(space, comps)
            for d in g.elements():
                brute = sum(
                    1
                    for gk in comps[0][1]
                    for gl in comps[0][1]
                    if g.mul[g.mul[gk][d]][g.inv[gl]] in sub
                )
                assert homog_dim(R, d) == brute


def test_homog_dim_matches_pair_count_at_real_sizes():
    rng = random.Random(97)
    d3 = dihedral_group(3)
    s_only = coset_space(d3, subgroup_closure(d3, [3]))  # <s> in D3, not normal
    assert not s_only.is_normal
    cases = [(g, random_space(rng, g)) for g in small_groups() for _ in range(3)]
    cases.append((d3, s_only))
    for g, space in cases:
        sub = set(space.sub.members)
        comps = [
            (p, [rng.randrange(g.order) for _ in range(p)])
            for p in [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
        ]
        R = matricial_ring(space, comps)
        for d in g.elements():
            pairs = sum(
                1
                for _, shifts in comps
                for gk in shifts
                for gl in shifts
                if g.mul[g.mul[gk][d]][g.inv[gl]] in sub
            )
            assert homog_dim(R, d) == pairs


def test_k0_single_component_over_subgroup_ring():
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [3]))
    R = matricial_ring(space, [(1, [0])])
    k0 = k0_of_matricial(R)
    assert k0.group.rank == 1
    assert k0 == k0.group.basis_vector(0)


def test_k0_z2_example():
    Z2 = cyclic_group(2)
    R = matricial_ring(trivial_space(Z2), [(3, [0, 0, 1])])
    k0 = k0_of_matricial(R)
    assert k0.group.rank == 1
    assert k0 == k0.group.element([[2, 1]])  # 2 + x


def test_k0_two_components():
    Z2 = cyclic_group(2)
    space = trivial_space(Z2)
    R = matricial_ring(space, [(3, [0, 0, 1]), (1, [1])])
    k0 = k0_of_matricial(R)
    assert k0.group.rank == 2
    assert k0 == k0.group.element([[2, 1], [0, 1]])
    assert len(k0.group.basis()) == 2


def test_k0_unit_class_is_order_unit():
    from gammak0 import is_order_unit

    rng = random.Random(95)
    for g in small_groups():
        space = random_space(rng, g)
        comps = [(rng.randint(1, 3), None) for _ in range(rng.randint(1, 3))]
        comps = [(p, [rng.randrange(g.order) for _ in range(p)]) for p, _ in comps]
        R = matricial_ring(space, comps)
        k0 = k0_of_matricial(R)
        assert k0.group.cone_contains(k0)
        assert is_order_unit(k0.group, k0)


def test_basis_classes_stabilized_exactly_by_normal_delta():
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [1]))  # normal rotations
    R = matricial_ring(space, [(2, [0, 3])])
    k0 = k0_of_matricial(R)
    assert group_stabilizer(k0.group).members == space.sub.members
    for cls in k0.group.basis():
        fixers = [g for g in d3.elements() if cls.translate(g) == cls]
        assert tuple(fixers) == space.sub.members


def test_graded_iso_permutation():
    Z2 = cyclic_group(2)
    space = trivial_space(Z2)
    R = matricial_ring(space, [(2, [0, 1])])
    S = matricial_ring(space, [(2, [1, 0])])
    assert graded_iso(R, S)
    assert graded_iso(R, R)


def test_graded_iso_d3_shift_cosets():
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [3]))  # {1, b}
    R = matricial_ring(space, [(1, [1])])  # shift a
    S = matricial_ring(space, [(1, [2])])  # shift a2
    # oracle: {1,b}a = {a, a2b} while {1,b}a2 = {a2, ab}; different right cosets
    right_a = sorted(d3.mul[h][1] for h in (0, 3))
    right_a2 = sorted(d3.mul[h][2] for h in (0, 3))
    assert right_a != right_a2
    assert not graded_iso(R, S)
    # but shifting within the subgroup itself is invisible
    T = matricial_ring(space, [(1, [d3.mul[3][1]])])  # shift b*a
    assert graded_iso(R, T)


def test_graded_iso_counterexamples_and_errors():
    Z2 = cyclic_group(2)
    space = trivial_space(Z2)
    R = matricial_ring(space, [(2, [0, 1])])
    S = matricial_ring(space, [(2, [0, 0])])
    T = matricial_ring(space, [(1, [0]), (1, [1])])
    assert not graded_iso(R, S)
    assert not graded_iso(R, T)  # same coset multiset, different block sizes
    other = coset_space(Z2, full_subgroup(Z2))
    with pytest.raises(DeltaMismatch):
        graded_iso(R, matricial_ring(other, [(1, [0])]))


def test_shift_normalization_invariance():
    rng = random.Random(97)
    for g in small_groups():
        space = random_space(rng, g)
        comps = [
            (p, [rng.randrange(g.order) for _ in range(p)])
            for p in [rng.randint(1, 3) for _ in range(2)]
        ]
        R = matricial_ring(space, comps)
        twisted = []
        for p, shifts in comps:
            new_shifts = [
                g.mul[rng.choice(space.sub.members)][s] for s in shifts
            ]
            twisted.append((p, new_shifts))
        S = matricial_ring(space, twisted)
        for d in g.elements():
            assert homog_dim(R, d) == homog_dim(S, d)
        assert k0_of_matricial(R) == k0_of_matricial(S)
        assert graded_iso(R, S)


def test_k0_respects_graded_iso():
    rng = random.Random(99)
    for g in small_groups():
        space = random_space(rng, g)
        comps = [
            (p, [rng.randrange(g.order) for _ in range(p)])
            for p in [rng.randint(1, 2) for _ in range(3)]
        ]
        R = matricial_ring(space, comps)
        perm = list(range(3))
        rng.shuffle(perm)
        S = matricial_ring(space, [comps[i] for i in perm])
        assert graded_iso(R, S)
        uR = k0_of_matricial(R)
        uS = k0_of_matricial(S)
        for j, i in enumerate(perm):
            assert uR.coord(i) == uS.coord(j)
