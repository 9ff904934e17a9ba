"""Decomposition witnesses, unperforation certificates, and the bounded refutation."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gammak0 import (
    GroupRingElt,
    NotInCone,
    NotPositive,
    ProductNotInCone,
    RelationNotZero,
    SdpWitness,
    UnperfWitness,
    cyclic_group,
    dihedral_group,
    sdp_witness,
    search_unperforation_witness_m1,
    unperforation_witness,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from conftest import (
    m1_witness_reference,
    random_cone_vector,
    random_zero_relation,
    simplicial_over,
    small_groups,
)


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


def spec_relation():
    """The Z/2 rank-2 zero relation of the spec, with its witness."""
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 2)
    a = [one + x, -(one + x), -one]
    xs = [G.element([[1, 0], [2, 0]]), G.element([[0, 1], [0, 1]]), G.element([[0, 0], [1, 1]])]
    return G, a, xs, sdp_witness(G, a, xs)


def with_entry(b, i, j, value):
    rows = [list(row) for row in b]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def test_verify_sdp_witness_names_each_failed_clause():
    G, a, xs, w = spec_relation()
    Z2, one, x = z2_setup()
    assert verify_sdp_witness(G, a, xs, w)
    cases = [
        (a[:2], xs, w, "shape"),  # fewer coefficients than vectors
        (a, xs, SdpWitness(m=w.m, b=w.b[:2], y=w.y), "shape"),  # a missing row
        (a, xs, SdpWitness(m=w.m, b=w.b, y=w.y[:1]), "shape"),  # fewer targets than m
        (a, xs, SdpWitness(m=w.m, b=(w.b[0], w.b[1][:1], w.b[2]), y=w.y), "shape"),  # a short row
        (a, xs, SdpWitness(m=w.m, b=with_entry(w.b, 2, 1, one - x), y=w.y), "coefficient_not_positive"),
        (a, xs, SdpWitness(m=w.m, b=w.b, y=(w.y[0], -w.y[1])), "target_not_in_cone"),
        (a, xs, SdpWitness(m=w.m, b=with_entry(w.b, 1, 0, one), y=w.y), "decomposition_mismatch_row_1"),
        # column 0 still vanishes; column 1 picks up -(1+x)^2 + (1+x)
        ([a[0], a[1], -(one + x)], xs, w, "column_sum_nonzero_1"),
    ]
    for coeffs, vectors, witness, reason in cases:
        verdict = verify_sdp_witness(G, coeffs, vectors, witness)
        assert not verdict and verdict.reason == reason


def test_verify_unperforation_witness_names_each_failed_clause():
    Z2, one, x = z2_setup()
    G = simplicial_over(Z2, [], 2)
    a = one + x
    u = G.element([[1, -1], [2, -1]])
    w = unperforation_witness(G, a, u)
    assert verify_unperforation_witness(G, a, u, w)
    basis = tuple(G.basis())
    # a*b_0 projects to (1, 0) and a*b_1 to (2, -1)
    v = G.element([[1, 0], [2, -1]])
    cases = [
        (a, u, UnperfWitness(m=2, b=w.b[:1], y=w.y), "shape"),
        (a, u, UnperfWitness(m=2, b=w.b, y=w.y[:1]), "shape"),
        (a, u, UnperfWitness(m=2, b=w.b, y=(w.y[0], -w.y[1])), "target_not_in_cone"),
        (a, u, UnperfWitness(m=2, b=(w.b[0], w.b[0]), y=w.y), "decomposition_mismatch"),
        (one, v, UnperfWitness(m=2, b=(one, one + one - x), y=basis), "projected_product_negative_1"),
    ]
    for coeff, vector, witness, reason in cases:
        verdict = verify_unperforation_witness(G, coeff, vector, witness)
        assert not verdict and verdict.reason == reason


def assert_m1_matches_reference(G, a, x):
    found = search_unperforation_witness_m1(G, a, x)
    expected = m1_witness_reference(G, a, x)
    if expected is None:
        assert found is None
    else:
        b, ys = expected
        assert found is not None
        assert (found.m, found.b, found.y) == (1, (b,), (G.element(ys),))


@pytest.mark.parametrize("gens", [[], [1]])
def test_m1_search_matches_brute_force_on_every_z2_rank1_instance(gens):
    """Every a and x with entries in [-2, 2] over Z/2, rank 1, trivial and
    full stabilizer: the same first witness, or the same refutation."""
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, gens, 1)
    for a_coeffs in product(range(-2, 3), repeat=2):
        a = GroupRingElt(Z2, dict(enumerate(a_coeffs)))
        for row in product(range(-2, 3), repeat=G.space.num_cosets):
            assert_m1_matches_reference(G, a, G.element([row]))


@st.composite
def m1_instances(draw):
    """(order, stabilizer generators, a, rows) over Z/2 and Z/3, rank 1-2,
    every entry in [-2, 2]."""
    order = draw(st.sampled_from([2, 3]))
    gens = draw(st.sampled_from([[], [1]]))
    a = draw(st.lists(st.integers(-2, 2), min_size=order, max_size=order))
    nc = order if not gens else 1
    rank = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=nc, max_size=nc), min_size=rank, max_size=rank))
    return order, gens, a, rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=m1_instances())
@example(case=(2, [], [1, 1], [[1, -1], [2, -1]]))  # the perforated anchor: refuted
@example(case=(2, [], [1, 1], [[1, 0]]))  # the easy witness
@example(case=(3, [], [1, 1, 1], [[1, 0, 0], [0, -1, 2]]))
def test_m1_search_matches_brute_force(case):
    order, gens, a_coeffs, rows = case
    g = cyclic_group(order)
    G = simplicial_over(g, gens, len(rows))
    assert_m1_matches_reference(G, GroupRingElt(g, dict(enumerate(a_coeffs))), G.element(rows))
