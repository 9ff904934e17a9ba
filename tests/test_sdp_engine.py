"""Decomposition witnesses, unperforation certificates, and the bounded refutation."""

import random

import pytest

from gammak0 import (
    GroupRingElt,
    NotInCone,
    NotPositive,
    ProductNotInCone,
    RelationNotZero,
    SdpWitness,
    cyclic_group,
    dihedral_group,
    sdp_witness,
    search_unperforation_witness_m1,
    unperforation_witness,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from conftest import random_cone_vector, random_zero_relation, simplicial_over, small_groups


def z2_setup():
    Z2 = cyclic_group(2)
    one = GroupRingElt.one(Z2)
    x = GroupRingElt.basis(Z2, 1)
    return Z2, one, x


def test_sdp_witness_spec_instance():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 2)
    a = [one + x, -(one + x), -one]
    xs = [
        G.element([[1, 0], [2, 0]]),  # (1, 2)
        G.element([[0, 1], [0, 1]]),  # (x, x)
        G.element([[0, 0], [1, 1]]),  # (0, 1+x)
    ]
    w = sdp_witness(G, a, xs)
    assert w.m == 2
    assert w.b == (
        (one, one + one),
        (x, x),
        (GroupRingElt.zero(Z2), one + x),
    )
    assert list(w.y) == G.basis()
    assert verify_sdp_witness(G, a, xs, w)


def test_sdp_witness_degenerate():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 1)
    w = sdp_witness(G, [GroupRingElt.zero(Z2)], [G.zero()])
    assert w.m == 1
    assert w.b == ((GroupRingElt.zero(Z2),),)
    assert list(w.y) == G.basis()
    assert verify_sdp_witness(G, [GroupRingElt.zero(Z2)], [G.zero()], w)


def test_sdp_witness_rejects_nonzero_relation():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 1)
    with pytest.raises(RelationNotZero):
        sdp_witness(G, [one], [G.element([[1, 0]])])
    with pytest.raises(NotInCone):
        sdp_witness(G, [one - one], [G.element([[-1, 0]])])


def test_verify_sdp_witness_detects_perturbation():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 2)
    a = [one, -one]
    xs = [G.element([[1, 1], [0, 2]])] * 2
    w = sdp_witness(G, a, xs)
    assert verify_sdp_witness(G, a, xs, w)
    bumped = [list(row) for row in w.b]
    bumped[0][0] = bumped[0][0] + one
    w_bad = SdpWitness(m=w.m, b=tuple(tuple(r) for r in bumped), y=w.y)
    assert not verify_sdp_witness(G, a, xs, w_bad)

    w_negcone = SdpWitness(m=w.m, b=w.b, y=(G.element([[-1, 0], [0, 0]]), w.y[1]))
    bad = verify_sdp_witness(G, a, xs, w_negcone)
    assert not bad and bad.reason == "target_not_in_cone"


def test_sdp_random_zero_relations_always_witnessed():
    rng = random.Random(61)
    for g in small_groups():
        for gens in ([], [g.order - 1]):
            G = simplicial_over(g, gens, rng.randint(1, 3))
            for _ in range(5):
                a, xs = random_zero_relation(rng, G)
                w = sdp_witness(G, a, xs)
                assert verify_sdp_witness(G, a, xs, w)


def test_unperforation_witness_spec_instance():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 2)
    a = one + x
    u = G.element([[1, -1], [2, -1]])  # (1-x, 2-x)
    assert G.cone_contains(a * u)
    assert not G.cone_contains(u)
    w = unperforation_witness(G, a, u)
    assert w.m == 2
    assert w.b == (one - x, one + one - x)
    assert verify_unperforation_witness(G, a, u, w)
    # rank 0: one zero target with a zero coefficient
    G0 = simplicial_over(Z2, [], 0)
    w0 = unperforation_witness(G0, a, G0.zero())
    assert (w0.m, w0.b, w0.y) == (1, (GroupRingElt.zero(Z2),), (G0.zero(),))
    assert verify_unperforation_witness(G0, a, G0.zero(), w0)


def test_unperforation_trivial_group():
    G1 = simplicial_over(cyclic_group(1), [], 1)
    three = GroupRingElt(cyclic_group(1), {0: 3})
    x = G1.element([[2]])
    w = unperforation_witness(G1, three, x)
    assert verify_unperforation_witness(G1, three, x, w)
    # classical unperforation: the witness certifies cone membership
    assert all(G1.cone_contains(y) for y in w.y)
    total = G1.zero()
    for bj, yj in zip(w.b, w.y):
        assert bj.is_positive()
        total = total + bj * yj
    assert total == x


def test_unperforation_witness_errors():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 1)
    with pytest.raises(NotPositive):
        unperforation_witness(G, one - x, G.element([[1, 0]]))
    with pytest.raises(ProductNotInCone):
        unperforation_witness(G, one, G.element([[-1, 0]]))


def test_unperforation_witness_random():
    rng = random.Random(63)
    for g in small_groups():
        G = simplicial_over(g, [], 2)
        for _ in range(6):
            a = GroupRingElt(g, {h: rng.randint(0, 2) for h in g.elements()})
            x = random_cone_vector(rng, G) - random_cone_vector(rng, G)
            if not G.cone_contains(a * x):
                continue
            w = unperforation_witness(G, a, x)
            assert verify_unperforation_witness(G, a, x, w)


def test_m1_search_refutes_perforation_instance():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 2)
    a = one + x
    u = G.element([[1, -1], [2, -1]])
    assert search_unperforation_witness_m1(G, a, u) is None


def test_m1_search_finds_easy_witness():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 1)
    a = one + x
    v = G.element([[1, 0]])
    found = search_unperforation_witness_m1(G, a, v)
    assert found is not None
    assert verify_unperforation_witness(G, a, v, found)


def test_m1_search_budget_guard():
    g = dihedral_group(4)
    G = simplicial_over(g, [], 2)
    a = GroupRingElt.one(g)
    with pytest.raises(ValueError):
        search_unperforation_witness_m1(G, a, G.zero())
