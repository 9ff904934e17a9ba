"""Ordered extensions: cone, order-unit, witnesses, towers."""

import random

import pytest

from gammak0 import (
    DeltaNotNormal,
    ExtendedGroup,
    GroupRingElt,
    NotInCone,
    RelationNotZero,
    ShapeMismatch,
    cyclic_group,
    dihedral_group,
    ext_sdp_witness,
    extend_tower,
    lift_vector,
    map_apply,
    tower_new,
    verify_sdp_witness,
)
from conftest import (
    interval_box,
    random_order_unit,
    random_vector,
    relation_among,
    simplicial_over,
    z2_mult_tower,
)


def z_over_z2():
    """Base Z (= coset module of the full subgroup of Z2) with unit 1."""
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [0, 1], 1)
    u = G.element([[1]])
    return ExtendedGroup(base=G, unit=u)


def test_cone_examples():
    H = z_over_z2()
    G = H.base
    assert H.cone_contains(H.element(G.element([[-1]]), [1]))
    assert not H.cone_contains(H.element(G.element([[-2]]), [1]))
    assert H.cone_contains(H.zero())
    assert H.cone_contains(H.inject(G.element([[3]])))
    assert not H.cone_contains(H.element(G.zero(), [-1]))


def test_element_and_split_check_shapes():
    H = z_over_z2()
    G = H.base
    e = H.element(G.element([[-1]]), [1])
    assert e.group == H.carrier and e.group.rank == G.rank + 1
    assert H.split(e) == (G.element([[-1]]), (1,))
    other = simplicial_over(cyclic_group(2), [], 1)
    with pytest.raises(ShapeMismatch):
        H.element(other.element([[1, 0]]), [1])
    with pytest.raises(ShapeMismatch):
        H.element(G.zero(), [1, 0])
    with pytest.raises(ShapeMismatch):
        H.split(G.element([[1]]))
    with pytest.raises(ShapeMismatch):
        H.cone_contains(other.element([[1, 0]]))


def test_extensions_over_one_base_share_a_carrier():
    # the unit fixes only the cone: equal entries give equal vectors
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [0, 1], 1)
    H1 = ExtendedGroup(base=G, unit=G.element([[1]]))
    H2 = ExtendedGroup(base=G, unit=G.element([[3]]))
    assert H1 != H2 and H1.carrier == H2.carrier
    e = H1.element(G.element([[-2]]), [1])
    assert e == H2.element(G.element([[-2]]), [1])
    assert not H1.cone_contains(e) and H2.cone_contains(e)


def test_extension_requires_normal_stabilizer():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)
    with pytest.raises(DeltaNotNormal):
        ExtendedGroup(base=G, unit=G.basis_vector(0))


def test_cone_is_strict_and_closed():
    rng = random.Random(111)
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    H = ExtendedGroup(base=G, unit=G.element([[1, 1]]))
    elts = []
    for _ in range(40):
        e = H.element(random_vector(rng, G), [rng.randint(-2, 2), rng.randint(-2, 2)])
        elts.append(e)
        if H.cone_contains(e) and H.cone_contains(-e):
            assert e.is_zero()
    positives = [e for e in elts if H.cone_contains(e)]
    for e1 in positives[:6]:
        for e2 in positives[:6]:
            assert H.cone_contains(e1 + e2)
        for g in Z2.elements():
            assert H.cone_contains(e1.translate(g))


def test_top_element_reduction_matches_exhaustive_quantifier():
    # membership via the interval top agrees with trying every interval element
    rng = random.Random(113)
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    u = G.element([[2, 1]])
    H = ExtendedGroup(base=G, unit=u)
    box = interval_box(u)
    for _ in range(60):
        x = random_vector(rng, G)
        t = [rng.randint(0, 2), rng.randint(0, 2)]
        via_top = H.cone_contains(H.element(x, t))
        via_any = any(
            G.cone_contains(x + lift_vector(G.space, t) * d) for d in box
        )
        assert via_top == via_any


def test_interval_preimage_zero_base():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 0)
    H = ExtendedGroup(base=G, unit=G.zero())
    # the base is {0}, and 0 lies in [0, (0, identity coset)]
    zero = H.inject(G.zero())
    assert H.cone_contains(zero) and H.cone_contains(H.order_unit() - zero)
    # the extension of the zero group is the coset module itself
    assert H.cone_contains(H.element(G.zero(), [2, 1]))
    assert not H.cone_contains(H.element(G.zero(), [-1, 0]))


def test_ext_sdp_trivial_relation():
    H = z_over_z2()
    Z2 = H.base.space.parent
    one = GroupRingElt.one(Z2)
    unit = H.order_unit()
    a = [one, -one]
    X = [unit, unit]
    w = ext_sdp_witness(H, a, X)
    assert verify_sdp_witness(H, a, X, w)


def test_ext_sdp_spec_instance():
    H = z_over_z2()
    G = H.base
    Z2 = G.space.parent
    one = GroupRingElt.one(Z2)
    a = [one, one, -one]
    X = [
        H.element(G.element([[-1]]), [1]),
        H.element(G.element([[1]]), [0]),
        H.element(G.element([[0]]), [1]),
    ]
    w = ext_sdp_witness(H, a, X)
    assert w.m == G.rank + 1
    check = verify_sdp_witness(H, a, X, w)
    assert check, check.reason


def test_ext_sdp_errors():
    H = z_over_z2()
    G = H.base
    Z2 = G.space.parent
    one = GroupRingElt.one(Z2)
    with pytest.raises(RelationNotZero, match="coefficient and vector counts differ"):
        ext_sdp_witness(H, [one, one], [H.order_unit()])
    with pytest.raises(RelationNotZero, match="relation does not sum to zero"):
        ext_sdp_witness(H, [one], [H.order_unit()])
    with pytest.raises(NotInCone, match="relation vectors must lie in the cone"):
        ext_sdp_witness(H, [one - one], [H.element(G.element([[-1]]), [0])])


def test_ext_sdp_random_relations():
    rng = random.Random(117)
    for g in (cyclic_group(2), cyclic_group(4), dihedral_group(3)):
        sub_gens = [] if g.order <= 2 else [1]
        G = simplicial_over(g, sub_gens, 2)
        u = random_order_unit(rng, G, max_coeff=2)
        H = ExtendedGroup(base=G, unit=u)
        for _ in range(6):
            n = rng.randint(1, 3)
            pairs = []
            for _ in range(n):
                x = random_vector(rng, G, max_coeff=2)
                t = [rng.randint(0, 2) for _ in range(G.space.num_cosets)]
                e = H.element(x, t)
                if not H.cone_contains(e):
                    e = H.element(x.positive_part(), t)
                pairs.append(e)
            a, _ = relation_among(rng, H, pairs)
            if a is None:
                continue
            w = ext_sdp_witness(H, a, pairs)
            check = verify_sdp_witness(H, a, pairs, w)
            assert check, check.reason


def push(levels, f, n, e):
    """(x, t) -> (f x, t): the connecting map f (+) id from level n to n + 1."""
    x, t = levels[n].split(e)
    return levels[n + 1].element(map_apply(f, x), t)


def test_extend_constant_tower():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [1], 1)
    u = G.basis_vector(0)
    from gammak0 import identity_map

    f = identity_map(G)
    t = tower_new([G, G], [f], units=[u, u], mode="interval")
    levels = extend_tower(t)
    assert levels == (ExtendedGroup(base=G, unit=u),) * 2
    assert push(levels, f, 0, levels[0].order_unit()) == levels[1].order_unit()


def test_extend_mult_tower_maps_are_positive_and_unital():
    rng = random.Random(119)
    G, t = z2_mult_tower(length=4)
    levels = extend_tower(t)
    assert [H.unit for H in levels] == list(t.units)
    for n, f in enumerate(t.maps):
        lower, upper = levels[n], levels[n + 1]
        positives = 0
        for _ in range(40):
            e = lower.element(random_vector(rng, G), (rng.randint(0, 2), rng.randint(0, 2)))
            if lower.cone_contains(e):
                positives += 1
                assert upper.cone_contains(push(levels, f, n, e))
        assert positives > 0
        assert push(levels, f, n, lower.order_unit()) == upper.order_unit()


def test_extend_rejects_non_normal():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)
    u = G.basis_vector(0)
    from gammak0 import identity_map

    t = tower_new([G, G], [identity_map(G)], units=[u, u], mode="interval")
    with pytest.raises(DeltaNotNormal):
        extend_tower(t)
