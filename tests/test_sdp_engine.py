"""Decomposition witnesses, unperforation certificates, and the bounded refutation."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gammak0 import (
    ExtendedGroup,
    GammaVector,
    GroupRingElt,
    M1Undecided,
    NotInCone,
    NotPositive,
    ProductNotInCone,
    RelationNotZero,
    SdpWitness,
    Verdict,
    cyclic_group,
    dihedral_group,
    ext_sdp_witness,
    sdp_witness,
    search_unperforation_witness_m1,
    unperforation_witness,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from conftest import (
    act_reference,
    m1_witness_in_box,
    m1_witness_reference,
    random_cone_vector,
    random_order_unit,
    random_zero_relation,
    relation_among,
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
    assert w.b == ((one - x, one + one - x),)
    assert verify_unperforation_witness(G, a, u, w)
    # rank 0: one zero target with a zero coefficient
    G0 = simplicial_over(Z2, [], 0)
    w0 = unperforation_witness(G0, a, G0.zero())
    assert (w0.m, w0.b, w0.y) == (1, ((GroupRingElt.zero(Z2),),), (G0.zero(),))
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
    for bj, yj in zip(w.b[0], w.y):
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


def test_m1_augmentation_refutes_by_each_rule():
    """Over Z/5 every box here is past the budget, so each None comes from the
    augmentation alone: mixed mass signs, a nonzero coordinate of mass 0
    beside one of mass 1, and a lone candidate b = x*g^-c per target e_c
    whose projection pi(1*b) = b has a negative entry."""
    g = cyclic_group(5)
    total = GroupRingElt(g, dict.fromkeys(g.elements(), 1))
    G2, G1 = simplicial_over(g, [], 2), simplicial_over(g, [], 1)
    for rows in ([[1, 0, 0, 0, 0], [-1, 0, 0, 0, 0]], [[1, -1, 0, 0, 0], [1, 0, 0, 0, 0]]):
        assert search_unperforation_witness_m1(G2, total, G2.element(rows)) is None
    assert search_unperforation_witness_m1(G1, GroupRingElt.one(g), G1.element([[2, -1, 0, 0, 0]])) is None
    # the same x with a = the sum of Z/5: its box is too big, and the augmentation's
    # first composition y = e_4 meets the witness b = 2g - g^2
    x = G1.element([[2, -1, 0, 0, 0]])
    found = search_unperforation_witness_m1(G1, total, x)
    assert found == SdpWitness(m=1, b=((GroupRingElt(g, {1: 2, 2: -1}),),), y=(G1.element([[0, 0, 0, 0, 1]]),))
    assert verify_unperforation_witness(G1, total, x, found)


def test_m1_augmentation_witness_answers_past_the_budget():
    """Over Z/3 with D = Z/3 (one coset) and x = (40, 0), the box (bound 42)
    is past the budget, so the witness the augmentation meets at d = 1 is the
    answer: b = 1 and y = x."""
    g = cyclic_group(3)
    G = simplicial_over(g, [1], 2)
    a, x = GroupRingElt.one(g), G.element([[40], [0]])
    found = search_unperforation_witness_m1(G, a, x)
    assert found == SdpWitness(m=1, b=((GroupRingElt.one(g),),), y=(x,))
    assert verify_unperforation_witness(G, a, x, found)


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
        (a, u, SdpWitness(m=2, b=(w.b[0][:1],), y=w.y), "shape"),
        (a, u, SdpWitness(m=2, b=w.b, y=w.y[:1]), "shape"),
        (a, u, SdpWitness(m=2, b=w.b * 2, y=w.y), "shape"),
        (a, u, SdpWitness(m=2, b=w.b, y=(w.y[0], -w.y[1])), "target_not_in_cone"),
        (a, u, SdpWitness(m=2, b=((w.b[0][0], w.b[0][0]),), y=w.y), "decomposition_mismatch"),
        (one, v, SdpWitness(m=2, b=((one, one + one - x),), y=basis), "projected_product_negative_1"),
    ]
    for coeff, vector, witness, reason in cases:
        verdict = verify_unperforation_witness(G, coeff, vector, witness)
        assert not verdict and verdict.reason == reason


def assert_m1_matches_reference(G, a, x):
    """The search's first witness is the brute force's; where the box holds
    none, the search refutes exactly or reports the same box undecided."""
    found = search_unperforation_witness_m1(G, a, x)
    expected = m1_witness_reference(G, a, x)
    if expected is None:
        box = max(a.max_abs_coeff(), x.max_abs_coeff()) + 2
        assert found is None or isinstance(found, M1Undecided) and found.box == box
    else:
        b, ys = expected
        assert isinstance(found, SdpWitness)
        assert (found.m, found.b, found.y) == (1, ((b,),), (G.element(ys),))
    return found


@pytest.mark.parametrize("gens", [[], [1]])
def test_m1_search_matches_brute_force_on_every_z2_rank1_instance(gens):
    """Every a and x with entries in [-2, 2] over Z/2, rank 1, trivial and
    full stabilizer: the same first witness, or none in the box.  Over the
    trivial stabilizer the augmentation refutes 264 of the 384 instances
    without a witness; over the full one b acts through eps(b) alone, and
    the augmentation refutes all 40 of its 125 instances without a witness."""
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, gens, 1)
    refuted = 0
    for a_coeffs in product(range(-2, 3), repeat=2):
        a = GroupRingElt(Z2, dict(enumerate(a_coeffs)))
        for row in product(range(-2, 3), repeat=G.space.num_cosets):
            refuted += assert_m1_matches_reference(G, a, G.element([row])) is None
    assert refuted == (40 if gens else 264)


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


@pytest.mark.parametrize("order, count", [(2, 40), (3, 12), (4, 2)])
def test_m1_refutations_hold_in_a_box_twice_the_bound(order, count):
    """Every exact refutation, by either branch of the augmentation, leaves no
    witness in a box twice the search's own, by brute force."""
    rng = random.Random(order)
    g = cyclic_group(order)
    top = 2 if order == 2 else 1
    refuted = []
    while len(refuted) < count:
        rank = rng.randint(1, 2)
        G = simplicial_over(g, [], rank)
        a = GroupRingElt(g, {h: rng.randint(-top, top) for h in g.elements()})
        x = G.element([[rng.randint(-top, top) for _ in range(order)] for _ in range(rank)])
        if search_unperforation_witness_m1(G, a, x) is None:
            refuted.append((G, a, x))
    for G, a, x in refuted:
        bound = max(a.max_abs_coeff(), x.max_abs_coeff()) + 2
        assert not m1_witness_in_box(G, a, x, 2 * bound)


def dense_product(b, v):
    """b*v as a vector, coordinate by coordinate from ``act_reference``."""
    space = v.group.space
    flat = []
    for i in range(v.group.rank):
        flat.extend(act_reference(space, b, v.coord(i)))
    return GammaVector(v.group, tuple(flat))


def dense_projection(a, b, space):
    """pi(a*b) from the built product a*b."""
    out = [0] * space.num_cosets
    for g, k in (a * b).coeffs.items():
        out[space.elt_to_coset[g]] += k
    return out


def dense_verify_sdp(group, a, x, w):
    """``verify_sdp_witness`` with every sum built as ``total + b*y``."""
    n = len(x)
    if len(a) != n or len(w.b) != n or len(w.y) != w.m:
        return Verdict(False, "shape")
    for row in w.b:
        if len(row) != w.m:
            return Verdict(False, "shape")
        if not all(entry.is_positive() for entry in row):
            return Verdict(False, "coefficient_not_positive")
    if not all(group.cone_contains(yj) for yj in w.y):
        return Verdict(False, "target_not_in_cone")
    for i in range(n):
        total = group.zero()
        for j in range(w.m):
            total = total + dense_product(w.b[i][j], w.y[j])
        if total != x[i]:
            return Verdict(False, f"decomposition_mismatch_row_{i}")
    for j in range(w.m):
        col_sum = [0] * group.space.num_cosets
        for i in range(n):
            col_sum = [s + t for s, t in zip(col_sum, dense_projection(a[i], w.b[i][j], group.space))]
        if any(col_sum):
            return Verdict(False, f"column_sum_nonzero_{j}")
    return Verdict(True)


def dense_verify_unperf(group, a, x, w):
    """``verify_unperforation_witness`` with the sum built as ``total + b*y``."""
    if len(w.b) != 1 or len(w.b[0]) != w.m or len(w.y) != w.m:
        return Verdict(False, "shape")
    if not all(group.cone_contains(yj) for yj in w.y):
        return Verdict(False, "target_not_in_cone")
    total = group.zero()
    for bj, yj in zip(w.b[0], w.y):
        total = total + dense_product(bj, yj)
    if total != x:
        return Verdict(False, "decomposition_mismatch")
    for j, bj in enumerate(w.b[0]):
        if min(dense_projection(a, bj, group.space)) < 0:
            return Verdict(False, f"projected_product_negative_{j}")
    return Verdict(True)


def dense_relation_error(group, a, x):
    """The error a relation check raises, judged from ``total + a_i*x_i``."""
    if len(a) != len(x):
        return RelationNotZero
    if not all(group.cone_contains(xi) for xi in x):
        return NotInCone
    total = group.zero()
    for ai, xi in zip(a, x):
        total = total + dense_product(ai, xi)
    return None if total == group.zero() else RelationNotZero


def raised(fn, *args):
    try:
        fn(*args)
    except (RelationNotZero, NotInCone) as exc:
        return type(exc)
    return None


def bump_vector(v, pos, delta):
    flat = list(v.flat)
    flat[pos % len(flat)] += delta
    return GammaVector(v.group, tuple(flat))


def tamper(rng, group, a, x, w, kind):
    """(a, x, w) with one entry moved: a coefficient, a witness entry b_ij, a
    target y_j or a relation vector x_i."""
    G = group.space.parent
    g, delta = rng.randrange(G.order), rng.choice([-2, -1, 1, 2])
    nudge = GroupRingElt.basis(G, g).scale(delta)
    a, x, b, y = list(a), list(x), [list(row) for row in w.b], list(w.y)
    if kind == "a":
        i = rng.randrange(len(a))
        a[i] = a[i] + nudge
    elif kind == "b":
        i, j = rng.randrange(len(b)), rng.randrange(w.m)
        b[i][j] = b[i][j] + nudge
    elif kind == "y" and y[0].flat:
        j = rng.randrange(w.m)
        y[j] = bump_vector(y[j], rng.randrange(len(y[j].flat)), delta)
    elif kind == "x" and x[0].flat:
        i = rng.randrange(len(x))
        x[i] = bump_vector(x[i], rng.randrange(len(x[i].flat)), delta)
    return a, x, SdpWitness(m=w.m, b=tuple(tuple(row) for row in b), y=tuple(y))


CARRIER_GROUPS = [(cyclic_group(2), []), (cyclic_group(3), []), (cyclic_group(4), [2]), (dihedral_group(3), [1])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    which=st.integers(0, len(CARRIER_GROUPS) - 1),
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["none", "a", "b", "y", "x"]),
    extended=st.booleans(),
)
def test_scatter_checks_match_dense_sums(which, seed, kind, extended):
    """The verifiers and the relation checks, which scatter every term of a
    row into one list, agree with sums of built products on simplicial and
    extension carriers, before and after one entry is moved."""
    rng = random.Random(seed)
    g, gens = CARRIER_GROUPS[which]
    base = simplicial_over(g, gens, rng.randint(1, 2))
    if extended:
        group = ExtendedGroup(base=base, unit=random_order_unit(rng, base, max_coeff=2))
        pairs = []
        for _ in range(rng.randint(1, 3)):
            t = [rng.randint(0, 2) for _ in range(base.space.num_cosets)]
            pairs.append(group.element(random_cone_vector(rng, base, max_coeff=2), t))
        a, x = relation_among(rng, group, pairs)
        if a is None:
            a, x = [GroupRingElt.zero(g) for _ in pairs], pairs
        w = ext_sdp_witness(group, a, x)
        relation_check = ext_sdp_witness
    else:
        group = base
        a, x = random_zero_relation(rng, base)
        w = sdp_witness(base, a, x)
        relation_check = sdp_witness
    a, x, w = tamper(rng, group, a, x, w, kind)
    assert verify_sdp_witness(group, a, x, w) == dense_verify_sdp(group, a, x, w)
    assert raised(relation_check, group, a, x) == dense_relation_error(group, a, x)
    if not extended:
        # the unperforation check on the same data: row 0 against the targets
        u = SdpWitness(m=w.m, b=w.b[:1], y=w.y)
        assert verify_unperforation_witness(base, a[0], x[0], u) == dense_verify_unperf(base, a[0], x[0], u)
