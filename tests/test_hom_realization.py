"""Realization of unit-ed groups, block-embedding specs, and tower realization."""

import random

import pytest

from gammak0 import (
    NotOrderUnit,
    NotRealizable,
    ShapeMismatch,
    SimplicialGroup,
    UnitMismatch,
    coset_space,
    cyclic_group,
    dihedral_group,
    graded_iso,
    group_from_table,
    hom_compose,
    hom_realizable,
    k0_of_matricial,
    klein_four_group,
    leq,
    map_apply,
    map_compose,
    map_new,
    matricial_ring,
    realize_simplicial,
    realize_tower,
    subgroup_closure,
    tower_new,
    trivial_subgroup,
    verify_hom_spec,
)
from gammak0.serialize import ring_from_json, ring_to_json
from conftest import (
    constant_tower,
    random_cone_vector,
    random_order_unit,
    random_space,
    realized_shifts_reference,
    simplicial_over,
    sized_shifts,
    slot_maps_reference,
    small_groups,
    unit_spreading_map,
)


def test_realize_z2_example():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    u = G.element([[2, 1]])
    realized = realize_simplicial(G, u)
    assert sized_shifts(realized.ring) == [(3, (0, 0, 1))]
    assert k0_of_matricial(realized.ring) == u


def test_realize_coset_module():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)
    u = G.basis_vector(0)
    realized = realize_simplicial(G, u)
    assert sized_shifts(realized.ring) == [(1, (0,))]


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
    assert sized_shifts(realized.ring)[0][1] == (0, 0, 0, 1, 1)
    assert k0_of_matricial(realized.ring) == S.element([[2, 3]])


def test_realize_round_trip_random():
    """A realized ring written as one shift per slot and loaded back has the
    unit as its class data and is graded isomorphic to the original: the
    shift expansion of ``ring_to_json`` and the class rule of the loader
    agree."""
    rng = random.Random(101)
    for g in small_groups():
        for gens in ([], [g.order - 1]):
            G = simplicial_over(g, gens, rng.randint(1, 4))
            for _ in range(4):
                u = random_order_unit(rng, G)
                ring = realize_simplicial(G, u).ring
                loaded = ring_from_json(ring_to_json(ring))
                k0 = k0_of_matricial(loaded)
                assert k0.group.rank == G.rank
                assert k0 == u
                assert graded_iso(loaded, ring)


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


def test_hom_realizable_checks_each_class_group():
    # one class group right and the other wrong must fail the shape check
    Z2 = cyclic_group(2)
    one, two = simplicial_over(Z2, [], 1), simplicial_over(Z2, [], 2)
    R1 = realize_simplicial(one, one.element([[1, 0]])).ring
    R2 = realize_simplicial(two, two.element([[1, 0], [1, 0]])).ring
    up = map_new(one, two, [two.element([[1, 0], [1, 0]])])
    with pytest.raises(ShapeMismatch):
        hom_realizable(R1, R1, up, unital=True)  # source right, target wrong
    with pytest.raises(ShapeMismatch):
        hom_realizable(R2, R2, up, unital=True)  # source wrong, target right


def test_hom_realizable_takes_the_lowest_free_slots_of_each_class():
    # over D3 with D = <s>, the shifts 1, r, s put two slots in the class D
    # and one in another; a loaded ring keeps the counts, not the slot order,
    # so the class D fills slots 0 and 1 and two one-slot copies take them
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [3]))
    R = matricial_ring(space, [(1, [0])])
    S = matricial_ring(space, [(3, [0, 1, 3])])
    assert S == matricial_ring(space, [(3, [3, 0, 1])]) == matricial_ring(space, [(3, [0, 0, 1])])
    G, H = k0_of_matricial(R).group, k0_of_matricial(S).group
    spec = hom_realizable(R, S, map_new(G, H, [H.basis_vector(0).scale(2)]), unital=False)
    assert [c.slot_map for c in spec.certificate] == [(range(0, 1),), (range(1, 2),)]
    assert verify_hom_spec(spec)


@pytest.mark.parametrize(
    "src_gens, tgt_gens, unit, column",
    [
        ([3], [], [1, 0, 0], [1, 0, 0, 1, 0, 0]),  # <b> -> trivial, column 1 + b
        ([1], [], [1, 0], [1, 1, 1, 0, 0, 0]),  # <a> -> trivial, column 1 + a + a^2
        ([], [3], [1, 0, 0, 0, 0, 1], [1, 0, 0]),  # trivial -> <b>, the basis vector
    ],
)
def test_hom_realizable_across_stabilizers(src_gens, tgt_gens, unit, column):
    """Over D3 a map between modules over different stabilizers is realized
    with twists and slot classes read in the target's coset space: every
    certificate verifies, and the classes of the target slots it takes add up
    to the image of the source unit."""
    d3 = dihedral_group(3)
    S, T = simplicial_over(d3, src_gens, 1), simplicial_over(d3, tgt_gens, 1)
    u = S.element([unit])
    f = map_new(S, T, [T.element([column])])
    image = map_apply(f, u)
    R, Q = realize_simplicial(S, u).ring, realize_simplicial(T, image).ring
    spec = hom_realizable(R, Q, f, unital=True)
    assert verify_hom_spec(spec)
    space = T.space
    shifts = sized_shifts(Q)[0][1]
    taken = [0] * space.num_cosets
    for copy in spec.certificate:
        for r in copy.slot_map:
            for l in r:
                taken[space.elt_to_coset[d3.inv[shifts[l]]]] += 1
    assert T.element([taken]) == image


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
        sized_shifts(r) == [(1, (0,))] for r in realized.rings
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
    assert sized_shifts(realized.rings[0]) == [(1, (0,))]
    assert sized_shifts(realized.rings[1]) == [(2, (0, 1))]
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


def test_realize_tower_matches_the_per_slot_reference():
    """Ring shifts and expanded slot maps equal the per-slot greedy's on 600
    random towers, in unit and interval mode, with unit coefficients up to 40."""
    rng = random.Random(109)
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(),
              dihedral_group(3), dihedral_group(4)]
    for n in range(600):
        g, mode = groups[n % 6], ("unit", "interval")[n // 6 % 2]
        space = random_space(rng, g)
        ranks = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        levels = [SimplicialGroup(space, r) for r in ranks]
        units = [random_order_unit(rng, levels[0], max_coeff=40)]
        maps = []
        for src, tgt in zip(levels, levels[1:]):
            cols = []
            for i in range(src.rank):  # column i reaches coordinate i mod rank, so units stay units
                targets = [i % tgt.rank] + [rng.randrange(tgt.rank) for _ in range(rng.randint(0, 1))]
                targets += range(src.rank, tgt.rank) if i == 0 else []
                col = tgt.zero()
                for k in targets:
                    vec = tgt.basis_vector(k).translate(rng.randrange(g.order))
                    for delta in space.sub.members:
                        col = col + vec.translate(delta)
                cols.append(col)
            f = map_new(src, tgt, cols)
            nxt = map_apply(f, units[-1])
            if mode == "interval":
                nxt = nxt + random_cone_vector(rng, tgt, max_coeff=2)
            maps.append(f)
            units.append(nxt)
        realized = realize_tower(tower_new(levels, maps, units=units, mode=mode))
        shifts = [realized_shifts_reference(G, u) for G, u in zip(levels, units)]
        assert [[list(s) for _, s in sized_shifts(r)] for r in realized.rings] == shifts
        for k, spec in enumerate(realized.specs):
            assert verify_hom_spec(spec)
            got = [(c.target_component, c.source_component, c.twist_coset, [l for r in c.slot_map for l in r])
                   for c in spec.certificate]
            assert got == slot_maps_reference(space, shifts[k], shifts[k + 1], maps[k])
