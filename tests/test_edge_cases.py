"""Rank-zero modules, lift independence, and mixed-stabilizer maps."""

import random

from gammak0 import (
    GammaVector,
    GroupRingElt,
    SdpWitness,
    SimplicialGroup,
    coset_space,
    cyclic_group,
    dihedral_group,
    k0_of_matricial,
    kernel_lattice,
    map_apply,
    map_new,
    matricial_ring,
    realize_simplicial,
    sdp_witness,
    subgroup_closure,
    tower_new,
    verify_sdp_witness,
)
from conftest import act_reference, random_positive_map, random_vector, simplicial_over


def test_rank_zero_realization_and_k0():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 0)
    realized = realize_simplicial(G, G.zero())
    assert realized.ring.components == ()
    k0 = k0_of_matricial(realized.ring)
    assert k0.group.rank == 0
    assert k0 == G.zero()


def test_rank_zero_sdp():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 0)
    a = [GroupRingElt.one(Z2), -GroupRingElt.one(Z2)]
    x = [G.zero(), G.zero()]
    w = sdp_witness(G, a, x)
    assert w.m == 1
    assert verify_sdp_witness(G, a, x, w)


def test_empty_ring_descriptor():
    Z2 = cyclic_group(2)
    space = coset_space(Z2, subgroup_closure(Z2, []))
    ring = matricial_ring(space, [])
    assert ring.describe() == "0"
    from gammak0 import homog_dim

    assert homog_dim(ring, 0) == 0


def test_map_apply_independent_of_lift_choice():
    # with a proper stabilizer, applying any lift of the coordinate classes
    # must agree with the canonical one
    d3 = dihedral_group(3)
    src = simplicial_over(d3, [3], 1)  # stabilizer {1, b}
    tgt = simplicial_over(d3, [3], 1)
    rng = random.Random(121)
    for _ in range(10):
        f = random_positive_map(rng, src, tgt)
        v = random_vector(rng, src)
        canonical = map_apply(f, v)
        # alternative lift: move each coset coefficient to a random member
        alt = tgt.zero()
        for i, col in enumerate(f.columns):
            lifted = {}
            for c, k in enumerate(v.coord(i)):
                if k:
                    rep = src.space.reps[c]
                    member = d3.mul[rep][rng.choice(src.space.sub.members)]
                    lifted[member] = lifted.get(member, 0) + k
            alt = alt + GroupRingElt(d3, lifted) * col
        assert alt == canonical


def test_cross_stabilizer_map_kernel_dimensions():
    # collapse the regular module onto the coset module of {1, b}
    d3 = dihedral_group(3)
    src = simplicial_over(d3, [], 1)  # 6 cosets
    tgt = simplicial_over(d3, [3], 1)  # 3 cosets
    f = map_new(src, tgt, [tgt.basis_vector(0)])
    ker = kernel_lattice(f)
    assert len(ker) == 3  # nullity of a surjective 3x6 integer map
    for row in ker:
        assert map_apply(f, GammaVector(src, tuple(row))).is_zero()


def test_tower_with_changing_ranks():
    Z2 = cyclic_group(2)
    G1 = simplicial_over(Z2, [], 1)
    G2 = simplicial_over(Z2, [], 2)
    up = map_new(G1, G2, [G2.basis_vector(0) + G2.basis_vector(1)])
    down = map_new(G2, G1, [G1.basis_vector(0), G1.basis_vector(0)])
    t = tower_new([G1, G2, G1], [up, down])
    from gammak0 import ColimitElt, colimit_eq

    p = ColimitElt(0, G1.element([[1, 0]]))
    q = ColimitElt(2, G1.element([[2, 0]]))
    assert colimit_eq(t, p, q, horizon=2).kind == "equal"


def test_verify_rejects_negative_witness_entry():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    one = GroupRingElt.one(Z2)
    a = [one, -one]
    x = [G.element([[1, 0]])] * 2
    w = sdp_witness(G, a, x)
    negd = SdpWitness(
        m=w.m,
        b=((one - GroupRingElt.basis(Z2, 1) - GroupRingElt.basis(Z2, 1),), w.b[1]),
        y=w.y,
    )
    verdict = verify_sdp_witness(G, a, x, negd)
    assert not verdict and verdict.reason == "coefficient_not_positive"


def test_action_and_projection_commute_on_modules():
    # acting then projecting coordinatewise is the module structure the
    # simplicial layer relies on
    rng = random.Random(123)
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [1]))
    G = SimplicialGroup(space, 2)
    for _ in range(10):
        v = random_vector(rng, G)
        a = GroupRingElt(d3, {rng.randrange(6): rng.randint(-2, 2) for _ in range(3)})
        b = GroupRingElt(d3, {rng.randrange(6): rng.randint(-2, 2) for _ in range(3)})
        assert (a * b) * v == a * (b * v)
        assert (a + b) * v == a * v + b * v
        for i in range(G.rank):
            assert (a * v).coord(i) == act_reference(space, a, v.coord(i))
