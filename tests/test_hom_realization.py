"""Realization of unit-ed groups, block-embedding specs, and tower realization."""

import random

import pytest

from gammak0 import (
    NotOrderUnit,
    NotRealizable,
    SimplicialGroup,
    UnitMismatch,
    coset_space,
    cyclic_group,
    dihedral_group,
    group_from_table,
    hom_compose,
    hom_realizable,
    k0_of_matricial,
    leq,
    map_apply,
    map_compose,
    map_new,
    realize_simplicial,
    realize_tower,
    tower_new,
    trivial_subgroup,
    verify_hom_spec,
)
from conftest import (
    constant_tower,
    random_order_unit,
    simplicial_over,
    small_groups,
    unit_spreading_map,
)


def test_realize_z2_example():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    u = G.element([[2, 1]])
    realized = realize_simplicial(G, u)
    assert [(c.size, c.shifts) for c in realized.ring.components] == [(3, (0, 0, 1))]
    assert k0_of_matricial(realized.ring) == u


def test_realize_coset_module():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)
    u = G.basis_vector(0)
    realized = realize_simplicial(G, u)
    assert [(c.size, c.shifts) for c in realized.ring.components] == [(1, (0,))]


def test_realize_rejects_zero_coordinate():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 2)
    u = G.element([[1, 0], [0, 0]])
    with pytest.raises(NotOrderUnit):
        realize_simplicial(G, u)


def test_realize_orders_slots_by_coset_representative():
    # identity is element 1, so coset 0 (represented by 1) comes after coset 1
    g = group_from_table([[1, 0], [0, 1]])
    S = SimplicialGroup(coset_space(g, trivial_subgroup(g)), 1)
    realized = realize_simplicial(S, S.element([[2, 3]]))
    assert realized.ring.components[0].shifts == (0, 0, 0, 1, 1)
    assert k0_of_matricial(realized.ring) == S.element([[2, 3]])


def test_realize_round_trip_random():
    rng = random.Random(101)
    for g in small_groups():
        for gens in ([], [g.order - 1]):
            G = simplicial_over(g, gens, rng.randint(1, 4))
            for _ in range(4):
                u = random_order_unit(rng, G)
                realized = realize_simplicial(G, u)
                k0 = k0_of_matricial(realized.ring)
                assert k0.group.rank == G.rank
                assert k0 == u


def test_hom_realizable_unital_example():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 0]])).ring  # M1(1)
    S = realize_simplicial(G, G.element([[2, 1]])).ring  # M3(1,1,x)
    B = map_new(G, G, [G.element([[2, 1]])])
    spec = hom_realizable(R, S, B, unital=True)
    assert spec.unital
    assert verify_hom_spec(spec)
    # slot classes {identity: 2, x: 1} consumed exactly
    assert len(spec.certificate) == 3


def test_hom_realizable_corner_embedding():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 0]])).ring
    S = realize_simplicial(G, G.element([[2, 1]])).ring
    B = map_new(G, G, [G.element([[1, 0]])])
    spec = hom_realizable(R, S, B, unital=False)
    assert not spec.unital
    assert verify_hom_spec(spec)
    with pytest.raises(UnitMismatch):
        hom_realizable(R, S, B, unital=True)


def test_hom_not_realizable():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 0]])).ring
    S = realize_simplicial(G, G.element([[2, 1]])).ring
    B = map_new(G, G, [G.element([[0, 3]])])  # needs 3 slots in the x-class
    with pytest.raises(NotRealizable):
        hom_realizable(R, S, B, unital=False)


def test_hom_compose_functorial():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    u1 = G.element([[1, 0]])
    u2 = G.element([[2, 1]])
    B1 = map_new(G, G, [u2])
    u3 = map_apply(B1, u2)
    R1 = realize_simplicial(G, u1).ring
    R2 = realize_simplicial(G, u2).ring
    R3 = realize_simplicial(G, u3).ring
    h1 = hom_realizable(R1, R2, B1, unital=True)
    h2 = hom_realizable(R2, R3, B1, unital=True)
    composed = hom_compose(h2, h1)
    assert composed.unital
    assert verify_hom_spec(composed)
    assert composed.matrix == map_compose(h2.matrix, h1.matrix)


def _random_realizable_pair(rng, G, unital: bool):
    """Units and specs built so that each image unit stays under the next unit."""
    u1 = random_order_unit(rng, G, max_coeff=2)
    B1 = unit_spreading_map(rng, G)
    u2 = map_apply(B1, u1)
    if not unital:
        u2 = u2 + random_order_unit(rng, G, max_coeff=1)
    B2 = unit_spreading_map(rng, G)
    u3 = map_apply(B2, u2)
    if not unital:
        u3 = u3 + random_order_unit(rng, G, max_coeff=1)
    R1 = realize_simplicial(G, u1).ring
    R2 = realize_simplicial(G, u2).ring
    R3 = realize_simplicial(G, u3).ring
    h1 = hom_realizable(R1, R2, B1, unital=unital)
    h2 = hom_realizable(R2, R3, B2, unital=unital)
    return h1, h2


def test_functoriality_random():
    rng = random.Random(103)
    for g in (cyclic_group(2), cyclic_group(4), dihedral_group(3)):
        G = simplicial_over(g, [g.order - 1], 2)
        for unital in (True, False):
            for _ in range(5):
                h1, h2 = _random_realizable_pair(rng, G, unital)
                composed = hom_compose(h2, h1)
                assert verify_hom_spec(composed)
                assert composed.matrix == map_compose(h2.matrix, h1.matrix)


def test_realize_tower_constant():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)
    u = G.basis_vector(0)
    t = constant_tower(G, 3, unit=u)
    realized = realize_tower(t)
    assert all(
        [(c.size, c.shifts) for c in r.components] == [(1, (0,))] for r in realized.rings
    )
    assert all(s.unital for s in realized.specs)


def test_realize_tower_mult_by_one_plus_x():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    m = map_new(G, G, [G.element([[1, 1]])])
    u1 = G.basis_vector(0)
    u2 = G.element([[1, 1]])
    t = tower_new([G, G], [m], units=[u1, u2], mode="unit")
    realized = realize_tower(t)
    assert [(c.size, c.shifts) for c in realized.rings[0].components] == [(1, (0,))]
    assert [(c.size, c.shifts) for c in realized.rings[1].components] == [(2, (0, 1))]
    spec = realized.specs[0]
    assert spec.unital
    assert spec.matrix == m


def test_realize_tower_random_modes():
    rng = random.Random(107)
    for g in (cyclic_group(2), dihedral_group(3)):
        G = simplicial_over(g, [g.order - 1], 2)
        for mode in ("unit", "interval"):
            for _ in range(4):
                length = rng.randint(2, 4)
                units = [random_order_unit(rng, G, max_coeff=2)]
                maps = []
                for _ in range(length - 1):
                    B = unit_spreading_map(rng, G)
                    nxt = map_apply(B, units[-1])
                    if mode == "interval":
                        nxt = nxt + random_order_unit(rng, G, max_coeff=1)
                    maps.append(B)
                    units.append(nxt)
                t = tower_new([G] * length, maps, units=units, mode=mode)
                realized = realize_tower(t)
                for n, spec in enumerate(realized.specs):
                    assert verify_hom_spec(spec)
                    assert spec.matrix == t.maps[n]
                    img = map_apply(spec.matrix, k0_of_matricial(spec.source))
                    target_unit = k0_of_matricial(spec.target)
                    if mode == "unit":
                        assert img == target_unit
                    else:
                        assert leq(img, target_unit)
