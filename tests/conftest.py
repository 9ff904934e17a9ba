"""Shared builders and random-instance generators for the test suite.

Randomness is always driven by explicit seeds so every run is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gammak0 import (
    CosetSpace,
    CosetVector,
    FiniteGroup,
    GammaVector,
    GroupRingElt,
    SimplicialGroup,
    Subgroup,
    coset_space,
    cyclic_group,
    dihedral_group,
    direct_product,
    klein_four_group,
    map_new,
    normal_closure,
    subgroup_closure,
    trivial_subgroup,
)


@pytest.fixture
def z2():
    return cyclic_group(2)


@pytest.fixture
def d3():
    return dihedral_group(3)


def small_groups() -> list[FiniteGroup]:
    """Groups of order at most 8 used throughout the random suites."""
    return [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        cyclic_group(6),
        dihedral_group(3),
        cyclic_group(8),
        dihedral_group(4),
        direct_product(cyclic_group(2), cyclic_group(4)),
    ]


def random_subgroup(rng: random.Random, group: FiniteGroup) -> Subgroup:
    k = rng.randrange(0, 3)
    gens = [rng.randrange(group.order) for _ in range(k)]
    return subgroup_closure(group, gens)


def random_normal_subgroup(rng: random.Random, group: FiniteGroup) -> Subgroup:
    return normal_closure(group, random_subgroup(rng, group))


def random_space(rng: random.Random, group: FiniteGroup, normal: bool = False) -> CosetSpace:
    sub = random_normal_subgroup(rng, group) if normal else random_subgroup(rng, group)
    return coset_space(group, sub)


def random_coset_vector_coeffs(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def random_cone_vector(rng: random.Random, group: SimplicialGroup, max_coeff: int = 3) -> GammaVector:
    nc = group.space.num_cosets
    return group.element(
        [random_coset_vector_coeffs(rng, nc, 0, max_coeff) for _ in range(group.rank)]
    )


def random_vector(rng: random.Random, group: SimplicialGroup, max_coeff: int = 3) -> GammaVector:
    nc = group.space.num_cosets
    return group.element(
        [random_coset_vector_coeffs(rng, nc, -max_coeff, max_coeff) for _ in range(group.rank)]
    )


def random_order_unit(rng: random.Random, group: SimplicialGroup, max_coeff: int = 3) -> GammaVector:
    """Cone vector with positive mass in every coordinate."""
    nc = group.space.num_cosets
    coords = []
    for _ in range(group.rank):
        row = random_coset_vector_coeffs(rng, nc, 0, max_coeff)
        if not any(row):
            row[rng.randrange(nc)] = rng.randint(1, max_coeff)
        coords.append(row)
    return group.element(coords)


def random_positive_ring_elt(rng: random.Random, group: FiniteGroup, max_coeff: int = 2) -> GroupRingElt:
    return GroupRingElt(
        group, {g: rng.randint(0, max_coeff) for g in group.elements()}
    )


def random_ring_elt(rng: random.Random, group: FiniteGroup, max_coeff: int = 2) -> GroupRingElt:
    return GroupRingElt(
        group, {g: rng.randint(-max_coeff, max_coeff) for g in group.elements()}
    )


def random_positive_map(
    rng: random.Random,
    source: SimplicialGroup,
    target: SimplicialGroup,
    max_coeff: int = 2,
):
    """Positive equivariant map; columns are built from source-stabilizer-fixed vectors.

    Each column is a positive group-ring combination of basis translates,
    averaged over the source stabilizer to enforce fixedness (automatic when
    the stabilizer acts trivially, as in the normal case).
    """
    cols = []
    for _ in range(source.rank):
        col = target.zero()
        terms = rng.randrange(0, 3)
        for _ in range(terms):
            i = rng.randrange(target.rank) if target.rank else 0
            if target.rank == 0:
                break
            k = rng.randint(1, max_coeff)
            g = rng.randrange(target.space.parent.order)
            vec = target.basis_vector(i).translate(g).scale(k)
            for delta in source.space.sub.members:
                col = col + vec.translate(delta)
        cols.append(col)
    return map_new(source, target, cols)


def simplicial_over(group: FiniteGroup, delta_gens: list[int], rank: int) -> SimplicialGroup:
    return SimplicialGroup(coset_space(group, subgroup_closure(group, delta_gens)), rank)


def trivial_space(group: FiniteGroup) -> CosetSpace:
    return coset_space(group, trivial_subgroup(group))


def translate_reference(v: CosetVector, g: int) -> CosetVector:
    """g * v computed from the multiplication table and the coset labels alone."""
    space = v.space
    out = [0] * space.num_cosets
    for c, k in enumerate(v.coeffs):
        out[space.elt_to_coset[space.parent.mul[g][space.reps[c]]]] += k
    return CosetVector(space, out)


def rational_rank(m: list[list[int]], ncols: int) -> int:
    """Rank over the rationals by Gaussian elimination, independent of ``intlinalg``."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
