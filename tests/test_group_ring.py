"""Group-ring arithmetic, the coset projection, actions, and positivity."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gammak0 import (
    GroupMismatch,
    GroupRingElt,
    SimplicialGroup,
    coset_space,
    cyclic_group,
    dihedral_group,
    lift_vector,
    subgroup_closure,
)
from gammak0.group_ring import _add_projected_product
from gammak0.serialize import ring_elt_from_json
from conftest import act_reference, random_ring_elt, random_space, ring_elt_from_terms, small_groups, trivial_space


def elt(group, mapping):
    return GroupRingElt(group, mapping)


def projected_product(a, b, space):
    """pi(a*b), from the engine's term-by-term sum into a zero coset list."""
    out = [0] * space.num_cosets
    _add_projected_product(out, a, b, space)
    return tuple(out)


def project_pi(a, space):
    """pi(a), the coset-wise coefficient sums, as the projected product a*1."""
    return projected_product(a, GroupRingElt.one(space.parent), space)


def test_zero_divisor_in_z2(z2):
    one = GroupRingElt.one(z2)
    x = GroupRingElt.basis(z2, 1)
    assert ((one + x) * (one - x)).is_zero()


def test_identity_neutral(z2):
    rng = random.Random(3)
    one = GroupRingElt.one(z2)
    for _ in range(10):
        a = random_ring_elt(rng, z2)
        assert a * one == a
        assert one * a == a


def test_d3_noncommutative_product(d3):
    a = GroupRingElt.basis(d3, 1)
    b = GroupRingElt.basis(d3, 3)
    ab = GroupRingElt.basis(d3, 4)
    a2b = GroupRingElt.basis(d3, 5)
    assert a * b == ab
    assert b * a == a2b


def test_group_mismatch():
    g1, g2 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(GroupMismatch):
        GroupRingElt.one(g1) + GroupRingElt.one(g2)
    with pytest.raises(GroupMismatch):
        GroupRingElt.one(g1) * GroupRingElt.one(g2)
    with pytest.raises(GroupMismatch):
        projected_product(GroupRingElt.one(g1), GroupRingElt.one(g2), trivial_space(g2))
    with pytest.raises(GroupMismatch):
        project_pi(GroupRingElt.one(g1), trivial_space(g2))


def test_ring_associativity_and_distributivity():
    rng = random.Random(5)
    for g in (cyclic_group(4), dihedral_group(3)):
        for _ in range(15):
            a, b, c = (random_ring_elt(rng, g) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_project_pi_d3(d3):
    cs = coset_space(d3, subgroup_closure(d3, [3]))  # {1, b}
    # oracle: ab lands in coset a.{1,b} by table lookup
    v = project_pi(elt(d3, {1: 1, 4: 1, 3: 1}), cs)  # a + ab + b
    assert v == (1, 2, 0)
    # a - ab: both terms in the same coset, so the projection vanishes
    assert not any(project_pi(elt(d3, {1: 1, 4: -1}), cs))


def test_project_pi_trivial_subgroup_is_reindexing(d3):
    cs = trivial_space(d3)
    a = elt(d3, {0: 2, 5: -1})
    v = project_pi(a, cs)
    for g in d3.elements():
        assert v[cs.elt_to_coset[g]] == a.coeffs.get(g, 0)


def test_pi_is_left_module_map():
    rng = random.Random(9)
    for g in small_groups():
        for gens in ([], [rng.randrange(g.order)]):
            cs = coset_space(g, subgroup_closure(g, gens))
            for _ in range(8):
                a = random_ring_elt(rng, g)
                b = random_ring_elt(rng, g)
                assert project_pi(a * b, cs) == act_reference(cs, a, project_pi(b, cs))
                assert projected_product(a, b, cs) == project_pi(a * b, cs)


def test_projected_product_adds_into_its_list(d3):
    cs = coset_space(d3, subgroup_closure(d3, [3]))  # {1, b}
    a, b = elt(d3, {1: 2, 3: -1}), elt(d3, {0: 1, 4: 3})
    out = [5, -7, 1]
    _add_projected_product(out, a, b, cs)
    assert tuple(out) == tuple(s + p for s, p in zip((5, -7, 1), project_pi(a * b, cs)))


def test_pi_right_linearity_needs_normal(d3):
    # normal case: projecting a*gamma equals translating the projection of a
    cs_norm = coset_space(d3, subgroup_closure(d3, [1]))
    rng = random.Random(13)
    for _ in range(10):
        a = random_ring_elt(rng, d3)
        for gamma in d3.elements():
            lhs = project_pi(a * GroupRingElt.basis(d3, gamma), cs_norm)
            rhs_lift = lift_vector(cs_norm, project_pi(a, cs_norm)) * GroupRingElt.basis(d3, gamma)
            assert lhs == project_pi(rhs_lift, cs_norm)


def test_pi_kernel_description():
    # projection vanishes exactly when coset-wise sums vanish
    rng = random.Random(17)
    d3 = dihedral_group(3)
    cs = coset_space(d3, subgroup_closure(d3, [3]))
    for _ in range(30):
        a = random_ring_elt(rng, d3)
        sums = [0, 0, 0]
        for g, k in a.items():
            sums[cs.elt_to_coset[g]] += k
        assert (not any(project_pi(a, cs))) == all(s == 0 for s in sums)


def test_act_regular_action(z2):
    # the coset module is the rank-1 simplicial group, which carries the action
    M = SimplicialGroup(trivial_space(z2), 1)
    one_plus_x = GroupRingElt.one(z2) + GroupRingElt.basis(z2, 1)
    v = one_plus_x * M.basis_vector(0)
    assert v.flat == (1, 1)
    assert (GroupRingElt.zero(z2) * v).is_zero()


def test_act_is_associative_over_products():
    rng = random.Random(21)
    for g in (cyclic_group(4), dihedral_group(3)):
        cs = coset_space(g, subgroup_closure(g, [g.order - 1]))
        for _ in range(10):
            a, b = random_ring_elt(rng, g), random_ring_elt(rng, g)
            coeffs = [rng.randint(-2, 2) for _ in range(cs.num_cosets)]
            v = SimplicialGroup(cs, 1).element([coeffs])
            assert (a * b) * v == a * (b * v)
            assert (a * v).flat == act_reference(cs, a, coeffs)


def test_positivity(z2):
    one = GroupRingElt.one(z2)
    x = GroupRingElt.basis(z2, 1)
    assert (one + x).is_positive()
    assert not (one - x).is_positive()
    assert GroupRingElt.zero(z2).is_positive()


def test_positivity_closed_under_add_and_mul():
    rng = random.Random(23)
    for g in small_groups():
        for _ in range(10):
            a = GroupRingElt(g, {h: rng.randint(0, 2) for h in g.elements()})
            b = GroupRingElt(g, {h: rng.randint(0, 2) for h in g.elements()})
            assert (a + b).is_positive()
            assert (a * b).is_positive()


def test_lift_uses_canonical_reps(d3):
    cs = coset_space(d3, subgroup_closure(d3, [3]))
    v = (2, 0, -1)
    lifted = lift_vector(cs, v)
    assert lifted.coeffs == {0: 2, 2: -1}
    assert project_pi(lifted, cs) == v


def test_no_stored_zero_coefficients(z2):
    a = elt(z2, {0: 1, 1: 0})
    assert a.coeffs == {0: 1}
    assert (a - a).coeffs == {}


GROUPS = small_groups()
SMALL = st.integers(-2, 2)  # small coefficients make cancellation common


@st.composite
def ring_pairs(draw):
    g = GROUPS[draw(st.integers(0, len(GROUPS) - 1))]
    elements = st.integers(0, g.order - 1)
    a = draw(st.dictionaries(elements, SMALL))
    b = draw(st.dictionaries(elements, SMALL))
    return g, a, b, draw(SMALL), draw(elements), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=ring_pairs())
def test_arithmetic_results_are_canonical(case):
    """Every result of the arithmetic stores no zero coefficient and equals
    the element that the validating constructor builds from the same terms,
    repeated elements summed."""
    g, ca, cb, k, h, seed = case
    a, b = GroupRingElt(g, ca), GroupRingElt(g, cb)
    space = random_space(random.Random(seed), g)
    coset_coeffs = [(c * 7 + seed) % 5 - 2 for c in range(space.num_cosets)]
    cases = [
        (a + b, list(ca.items()) + list(cb.items())),
        (a - b, list(ca.items()) + [(x, -v) for x, v in cb.items()]),
        (a + -a, list(ca.items()) + [(x, -v) for x, v in ca.items()]),
        (a - a, []),
        (-a, [(x, -v) for x, v in ca.items()]),
        (a.scale(k), [(x, k * v) for x, v in ca.items()]),
        (k * a, [(x, k * v) for x, v in ca.items()]),
        (a * k, [(x, k * v) for x, v in ca.items()]),
        (a * b, [(g.mul[x][y], u * v) for x, u in ca.items() for y, v in cb.items()]),
        (GroupRingElt.zero(g), []),
        (GroupRingElt.one(g), [(g.identity, 1)]),
        (GroupRingElt.basis(g, h), [(h, 1)]),
        (lift_vector(space, coset_coeffs), list(zip(space.reps, coset_coeffs))),
        (ring_elt_from_json(g, {"coeffs": {str(x): v for x, v in ca.items()}}), list(ca.items())),
    ]
    for result, terms in cases:
        assert 0 not in result.coeffs.values()
        assert all(type(v) is int for v in result.coeffs.values())
        assert result == ring_elt_from_terms(g, terms)
