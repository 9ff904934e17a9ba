"""Cones, order-units, interpolation, refinement, and stabilizers."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gammak0 import (
    GroupRingElt,
    NotInCone,
    PreorderViolated,
    ShapeMismatch,
    SimplicialGroup,
    SumMismatch,
    coset_space,
    cyclic_group,
    dihedral_group,
    group_stabilizer,
    interpolate,
    is_order_unit,
    klein_four_group,
    leq,
    riesz_refine,
    subgroup_closure,
)
from conftest import (
    act_reference,
    dominating_coefficient,
    full_subgroup,
    interval_box,
    random_cone_vector,
    random_order_unit,
    random_ring_elt,
    random_space,
    random_vector,
    simplicial_over,
    small_groups,
    translate_reference,
    trivial_space,
)


def z2_rank(rank):
    return simplicial_over(cyclic_group(2), [], rank)


def test_cone_membership_z2():
    G = z2_rank(2)
    assert G.cone_contains(G.element([[0, 0], [1, 1]]))  # (0, 1+x)
    assert not G.cone_contains(G.element([[1, -1], [2, -1]]))  # (1-x, 2-x)
    assert G.cone_contains(G.zero())


def test_cone_membership_d3_coset_module():
    G = simplicial_over(dihedral_group(3), [3], 1)
    assert G.cone_contains(G.element([[1, 2, 0]]))


def test_cone_strictness():
    rng = random.Random(31)
    for g in small_groups():
        G = simplicial_over(g, [], 2)
        for _ in range(10):
            v = random_vector(rng, G)
            if G.cone_contains(v) and G.cone_contains(-v):
                assert v.is_zero()


def test_directedness_via_positive_part():
    rng = random.Random(33)
    G = simplicial_over(dihedral_group(3), [3], 2)
    for _ in range(20):
        v = random_vector(rng, G)
        w = v.positive_part()
        assert G.cone_contains(w)
        assert leq(v, w)


def test_order_unit_basic():
    # the identity coset generates the full coset module
    G = simplicial_over(dihedral_group(3), [3], 1)
    assert is_order_unit(G, G.basis_vector(0))

    G2 = z2_rank(1)
    assert is_order_unit(G2, G2.element([[2, 1]]))
    assert not is_order_unit(G2, G2.element([[-1, 0]]))
    assert not is_order_unit(G2, G2.zero())


def test_order_unit_rank0():
    G = simplicial_over(cyclic_group(2), [], 0)
    assert is_order_unit(G, G.zero())


def _dominates_some_translate(G, u, target, box):
    """Oracle: search a in Z+[Gamma] with bounded coefficients, target <= a*u."""
    order = G.space.parent.order
    for coeffs in product(range(box + 1), repeat=order):
        a = GroupRingElt(G.space.parent, dict(enumerate(coeffs)))
        if leq(target, a * u):
            return True
    return False


def test_order_unit_agrees_with_bounded_search():
    rng = random.Random(37)
    for g in (cyclic_group(2), cyclic_group(3), dihedral_group(3)):
        for gens in ([], [g.order - 1]):
            G = simplicial_over(g, gens, 2)
            for _ in range(6):
                u = random_cone_vector(rng, G, max_coeff=2)
                claim = is_order_unit(G, u)
                oracle = all(
                    _dominates_some_translate(G, u, G.basis_vector(i), box=2)
                    for i in range(G.rank)
                )
                assert claim == oracle


def test_dominating_coefficient_is_exact():
    # checks the conftest oracle that the colimit unit test relies on
    rng = random.Random(39)
    for g in small_groups():
        G = simplicial_over(g, [], 2)
        for _ in range(8):
            u = random_order_unit(rng, G)
            x = random_vector(rng, G)
            a = dominating_coefficient(u, x)
            assert a.is_positive()
            assert leq(x, a * u)


def test_interpolate_z2_example():
    G = z2_rank(1)
    one = G.element([[1, 0]])
    x = G.element([[0, 1]])
    both = G.element([[1, 1]])
    z = interpolate(G, [one, x], [both])
    assert z == both


def test_interpolate_trivial_cases():
    G = z2_rank(1)
    assert interpolate(G, [G.zero()], [G.zero()]) == G.zero()
    with pytest.raises(PreorderViolated):
        interpolate(G, [G.element([[1, 0]])], [G.zero()])
    # no lower bound: the slotwise minimum of the upper ones; no bound at all: zero
    G = simplicial_over(cyclic_group(3), [], 1)
    uppers = [G.element([[3, 1, 2]]), G.element([[1, 4, 2]])]
    assert interpolate(G, [], uppers) == G.element([[1, 1, 2]])
    assert interpolate(G, [], []) == G.zero()


def test_interpolate_rejects_bounds_from_another_group():
    # a rank-2 bound over Z/3 beside a rank-1 one: no slot-wise mix is an answer
    A, B = (simplicial_over(cyclic_group(3), [], rank) for rank in (1, 2))
    a, b = A.element([[1, 2, 0]]), B.element([[0, 5, 0], [1, 1, 1]])
    for lower, upper in (([a, b], []), ([], [a, b]), ([a], [b]), ([b], [])):
        with pytest.raises(ShapeMismatch, match="^bound belongs to a different group$"):
            interpolate(A, lower, upper)


def test_interpolate_bounds_random():
    rng = random.Random(41)
    for g in small_groups():
        G = simplicial_over(g, [g.order - 1], 2)
        for _ in range(15):
            z0 = random_vector(rng, G)
            lower = [z0 - random_cone_vector(rng, G) for _ in range(rng.randint(1, 3))]
            upper = [z0 + random_cone_vector(rng, G) for _ in range(rng.randint(1, 3))]
            z = interpolate(G, lower, upper)
            assert all(leq(x, z) for x in lower)
            assert all(leq(z, y) for y in upper)


def test_riesz_refine_classic_integers():
    G = simplicial_over(cyclic_group(1), [], 1)
    two, three, four, one = (G.element([[k]]) for k in (2, 3, 4, 1))
    z = riesz_refine(G, two, three, four, one)
    assert [[v.flat[0] for v in row] for row in z] == [[2, 0], [2, 1]]


def test_riesz_refine_z2_example():
    G = z2_rank(1)
    x1 = G.element([[1, 0]])
    x2 = G.element([[0, 1]])
    y1 = G.element([[1, 1]])
    y2 = G.zero()
    z = riesz_refine(G, x1, x2, y1, y2)
    assert z[0][0] == x1 and z[0][1] == G.zero()
    assert z[1][0] == x2 and z[1][1] == G.zero()


def test_riesz_refine_errors():
    G = z2_rank(1)
    zero = G.zero()
    one = G.element([[1, 0]])
    z = riesz_refine(G, zero, zero, zero, zero)
    assert all(v.is_zero() for row in z for v in row)
    with pytest.raises(SumMismatch):
        riesz_refine(G, one, zero, zero, zero)
    with pytest.raises(NotInCone):
        riesz_refine(G, G.element([[-1, 0]]), one, zero, zero)


def test_riesz_refine_marginals_random():
    rng = random.Random(43)
    for g in small_groups():
        G = simplicial_over(g, [], 2)
        for _ in range(10):
            parts = [random_cone_vector(rng, G) for _ in range(4)]
            x1, x2 = parts[0] + parts[1], parts[2] + parts[3]
            y1, y2 = parts[0] + parts[2], parts[1] + parts[3]
            z = riesz_refine(G, x1, x2, y1, y2)
            assert z[0][0] + z[0][1] == x1
            assert z[1][0] + z[1][1] == x2
            assert z[0][0] + z[1][0] == y1
            assert z[0][1] + z[1][1] == y2
            assert all(G.cone_contains(v) for row in z for v in row)


def test_group_stabilizer_examples():
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [3], 1)  # coset module of {1,b}
    assert group_stabilizer(G).members == (0,)

    G_norm = simplicial_over(d3, [1], 1)  # rotations are normal
    assert group_stabilizer(G_norm).members == (0, 1, 2)

    G_full = SimplicialGroup(coset_space(d3, full_subgroup(d3)), 1)
    assert group_stabilizer(G_full).members == tuple(range(6))


def test_stabilizer_contains_delta_iff_normal():
    for g in small_groups():
        for gens in ([], [g.order // 2], [1 % g.order]):
            sub = subgroup_closure(g, gens)
            G = SimplicialGroup(coset_space(g, sub), 1)
            stab = set(group_stabilizer(G).members)
            assert (set(sub.members) <= stab) == coset_space(g, sub).is_normal


def test_interval_is_directed_and_convex():
    # checks the conftest box that the extension's exhaustive oracle walks
    G = z2_rank(1)
    u = G.element([[2, 1]])
    box = interval_box(u)
    assert len(box) == 3 * 2
    members = set(box)
    for x in box:
        for y in box:
            zmax = G.element(
                [[max(a, b) for a, b in zip(x.coord(i), y.coord(i))]
                 for i in range(G.rank)]
            )
            assert zmax in members and leq(x, zmax) and leq(y, zmax)
    # convexity: anything squeezed between two box elements is in the box
    for x in box:
        for y in box:
            for z in box:
                if leq(x, z) and leq(z, y):
                    assert z in members


def test_interval_generates_cone():
    rng = random.Random(47)
    for g in (cyclic_group(2), dihedral_group(3)):
        G = simplicial_over(g, [g.order - 1], 2)
        for _ in range(6):
            u = random_order_unit(rng, G, max_coeff=2)
            v = random_cone_vector(rng, G, max_coeff=3)
            # rebuild v as a positive combination of translates of box elements
            rebuilt = G.zero()
            for i in range(G.rank):
                anchor = next(c for c, val in enumerate(u.coord(i)) if val)
                seed = G.basis_vector(i).translate(G.space.reps[anchor])
                assert leq(seed, u)
                for c, val in enumerate(v.coord(i)):
                    if val:
                        mover = G.space.parent.mul[G.space.reps[c]][
                            G.space.parent.inv[G.space.reps[anchor]]
                        ]
                        rebuilt = rebuilt + seed.translate(mover).scale(val)
            assert rebuilt == v


def test_flat_vector_ops_match_coordinate_reference():
    """Every operation on the flat tuple agrees with coordinatewise arithmetic on coset tuples."""
    rng = random.Random(53)
    for g in small_groups():
        for space in (trivial_space(g), random_space(rng, g), random_space(rng, g)):
            n = space.num_cosets
            for rank in range(4):
                G = SimplicialGroup(space, rank)
                rows_v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
                rows_w = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
                v, w = G.element(rows_v), G.element(rows_w)
                cv = [tuple(row) for row in rows_v]
                cw = [tuple(row) for row in rows_w]

                def same(x, coords):
                    assert tuple(x.coord(i) for i in range(rank)) == tuple(coords)
                    assert x.flat == tuple(k for c in coords for k in c)

                def slotwise(fn, *vecs):
                    return [tuple(map(fn, *cs)) for cs in zip(*vecs)]

                same(v, cv)
                assert G.element([v.coord(i) for i in range(rank)]) == v
                same(v + w, slotwise(lambda a, b: a + b, cv, cw))
                same(v - w, slotwise(lambda a, b: a - b, cv, cw))
                same(-v, slotwise(lambda a: -a, cv))
                same(v.scale(-2), slotwise(lambda a: -2 * a, cv))
                same(v.positive_part(), slotwise(lambda a: max(a, 0), cv))
                for h in g.elements():
                    same(v.translate(h), [translate_reference(space, a, h) for a in cv])
                coeff = random_ring_elt(rng, g)
                same(coeff * v, [act_reference(space, coeff, a) for a in cv])


# (group, stabilizer generators): trivial, normal and non-normal stabilizers;
# D3 with {1, b} (b = index 3) is the non-normal case every check must survive.
ACTION_SPACES = [
    coset_space(g, subgroup_closure(g, gens))
    for g, gens in (
        (cyclic_group(1), []),
        (cyclic_group(2), []),
        (cyclic_group(3), []),
        (cyclic_group(4), [2]),
        (klein_four_group(), [1]),
        (dihedral_group(3), []),
        (dihedral_group(3), [3]),
        (dihedral_group(3), [1]),
        (dihedral_group(4), [4]),
    )
]
D3_B = 6  # index of D3 over {1, b} in ACTION_SPACES
BIG = 2**64
ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from([BIG, -BIG, BIG + 1]))


@st.composite
def ring_actions(draw):
    """(space index, coefficients of b, rows of v): v is zero, a single
    scaled basis vector or dense, of rank 0 to 3."""
    k = draw(st.integers(0, len(ACTION_SPACES) - 1))
    space = ACTION_SPACES[k]
    n = space.num_cosets
    coeffs = draw(st.dictionaries(st.integers(0, space.parent.order - 1), ENTRIES))
    rank = draw(st.integers(0, 3))
    shape = draw(st.sampled_from(["zero", "basis", "dense"]))
    if shape == "dense":
        rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(rank)]
    else:
        rows = [[0] * n for _ in range(rank)]
        if shape == "basis" and rank:
            rows[draw(st.integers(0, rank - 1))][draw(st.integers(0, n - 1))] = draw(ENTRIES.filter(bool))
    return k, coeffs, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=ring_actions())
@example(case=(D3_B, {0: 1, 3: -BIG, 4: 2}, [[0, 0, 0], [0, 1, 0]]))  # basis vector
@example(case=(D3_B, {1: 2, 5: -1}, [[BIG, -BIG, 0], [0, 3, -1]]))  # dense, 64-bit
@example(case=(D3_B, {2: 3}, [[0, 0, 0], [0, 0, 0]]))  # zero vector
@example(case=(D3_B, {}, [[BIG, -1, 2]]))  # zero ring element
@example(case=(D3_B, {0: 1, 2: -BIG}, []))  # rank 0
def test_ring_action_matches_reference_coordinatewise(case):
    """b*v, which scatters only the nonzero entries of v, agrees coordinate
    by coordinate with the action read off the multiplication table."""
    k, coeffs, rows = case
    space = ACTION_SPACES[k]
    b = GroupRingElt(space.parent, coeffs)
    G = SimplicialGroup(space, len(rows))
    v = G.element(rows)
    out = b * v
    assert out.group == G and len(out.flat) == G.flat_dim()
    for i, row in enumerate(rows):
        assert out.coord(i) == act_reference(space, b, row)
    assert out == sum((v.translate(g).scale(c) for g, c in b.coeffs.items()), G.zero())
