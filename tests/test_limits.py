"""Towers, colimit equality and positivity queries, and cone closure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gammak0 import (
    ColimitAnswer,
    ColimitElt,
    DeltaMismatch,
    NotPositiveMap,
    ShapeMismatch,
    UnitNotPreserved,
    colimit_eq,
    colimit_positive,
    cyclic_group,
    dihedral_group,
    identity_map,
    kernel_lattice,
    leq,
    limits,
    map_apply,
    map_compose,
    map_new,
    sdp_witness,
    tower_new,
    verify_sdp_witness,
)
from conftest import (
    constant_tower,
    dominating_coefficient,
    random_positive_map,
    random_vector,
    random_zero_relation,
    simplicial_over,
    z2_mult_tower,
)


def test_constant_tower_valid():
    # identity maps make a tower with and without units
    G = simplicial_over(cyclic_group(2), [], 2)
    t = constant_tower(G, 3)
    assert len(t.groups) == 3
    u = G.element([[1, 0], [0, 1]])
    t2 = constant_tower(G, 3, unit=u)
    assert t2.mode == "unit"


def test_mult_tower_interval_mode():
    G, t = z2_mult_tower()
    assert t.mode == "interval"
    for n in range(len(t.maps)):
        assert leq(map_apply(t.maps[n], t.units[n]), t.units[n + 1])


def test_tower_rejects_negative_map():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    bad = map_new(G, G, [G.element([[1, -1]])])
    with pytest.raises(NotPositiveMap):
        tower_new([G, G], [bad])


def test_tower_rejects_delta_mismatch():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    H = simplicial_over(Z2, [1], 1)
    f = map_new(G, H, [H.basis_vector(0)])
    with pytest.raises(DeltaMismatch):
        tower_new([G, H], [f])


def test_tower_rejects_unit_violation():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    m = map_new(G, G, [G.element([[1, 1]])])
    u = G.basis_vector(0)
    with pytest.raises(UnitNotPreserved):
        tower_new([G, G], [m], units=[u, u], mode="unit")
    with pytest.raises(UnitNotPreserved):
        tower_new([G, G], [m], units=[u.scale(2), u], mode="interval")


def test_tower_new_names_each_shape_fault():
    G = simplicial_over(cyclic_group(2), [], 1)
    H = simplicial_over(cyclic_group(2), [], 2)
    f, u = identity_map(G), G.basis_vector(0)
    with pytest.raises(ValueError, match="^a tower needs at least one group$"):
        tower_new([], [])
    with pytest.raises(ShapeMismatch, match="^a tower of n groups needs n-1 maps$"):
        tower_new([G, G], [])
    with pytest.raises(ShapeMismatch, match="^map 0 does not match adjacent levels$"):
        tower_new([G, H], [f])
    with pytest.raises(ShapeMismatch, match="^one unit per level required$"):
        tower_new([G, G], [f], units=[u], mode="unit")
    with pytest.raises(ShapeMismatch, match="^unit 1 not in level 1$"):
        tower_new([G, G], [f], units=[u, H.basis_vector(0)], mode="unit")


def test_tower_refuses_levels_it_does_not_have():
    G = simplicial_over(cyclic_group(2), [], 1)
    t = constant_tower(G, 2)
    assert t.map_at(0) == identity_map(G)
    with pytest.raises(ShapeMismatch, match="^map at level 1 beyond a non-repeating tower$"):
        t.map_at(1)
    with pytest.raises(ShapeMismatch, match="^cannot push an element backwards$"):
        t.push(ColimitElt(1, G.basis_vector(0)), 0)


def test_colimit_answer_is_true_exactly_when_it_holds():
    assert bool(ColimitAnswer(kind="equal", level=0))
    assert bool(ColimitAnswer(kind="positive", level=0))
    assert not ColimitAnswer(kind="unknown", reason="horizon_too_small")
    assert not ColimitAnswer(kind="not_equal_up_to", level=3)


def test_colimit_eq_doubling_tower():
    Z1 = cyclic_group(1)
    G = simplicial_over(Z1, [], 1)
    double = map_new(G, G, [G.element([[2]])])
    t = tower_new([G, G, G], [double, double])
    p = ColimitElt(0, G.element([[1]]))
    q = ColimitElt(1, G.element([[2]]))
    ans = colimit_eq(t, p, q, horizon=2)
    assert ans.kind == "equal"


def test_colimit_eq_kills_one_minus_x():
    G, t = z2_mult_tower()
    p = ColimitElt(0, G.element([[1, -1]]))
    q = ColimitElt(0, G.zero())
    ans = colimit_eq(t, p, q, horizon=2)
    assert ans.kind == "equal" and ans.level == 1


def test_colimit_eq_identity_tower_not_equal():
    G = simplicial_over(cyclic_group(1), [], 1)
    t = constant_tower(G, 2)
    ans = colimit_eq(t, ColimitElt(0, G.element([[1]])), ColimitElt(0, G.element([[2]])), 1)
    assert ans.kind == "not_equal_up_to"
    assert ans.level == 1


def test_colimit_eq_horizon_too_small():
    G = simplicial_over(cyclic_group(1), [], 1)
    t = constant_tower(G, 2)
    ans = colimit_eq(t, ColimitElt(5, G.element([[1]])), ColimitElt(0, G.zero()), 9)
    assert ans.kind == "unknown" and ans.reason == "horizon_too_small"
    # past the last level of a non-repeating tower, and above the horizon of a repeating one
    for tower, level, horizon in ((t, 5, 9), (tower_new(t.groups, t.maps, repeat_last=True), 4, 3)):
        ans = colimit_positive(tower, ColimitElt(level, G.element([[1]])), horizon)
        assert ans == ColimitAnswer(kind="unknown", level=None, reason="horizon_too_small")


def test_colimit_eq_repeat_last():
    G, t0 = z2_mult_tower(length=2)
    t = tower_new(t0.groups, t0.maps, units=list(t0.units), mode="interval", repeat_last=True)
    p = ColimitElt(1, G.element([[1, -1]]))
    q = ColimitElt(0, G.zero())
    ans = colimit_eq(t, p, q, horizon=6)
    assert ans.kind == "equal" and ans.level == 2


def test_colimit_positive():
    G, t = z2_mult_tower()
    assert colimit_positive(t, ColimitElt(0, G.element([[2, 1]])), 2).kind == "positive"
    ans = colimit_positive(t, ColimitElt(0, G.element([[1, -1]])), 2)
    assert ans.kind == "positive" and ans.level == 1

    tid = constant_tower(G, 3)
    neg = colimit_positive(tid, ColimitElt(0, G.element([[-1, -1]])), 2)
    assert neg.kind == "not_positive_up_to" and neg.level == 2


def test_colimit_cone_closure():
    rng = random.Random(81)
    G, t = z2_mult_tower()
    for _ in range(10):
        p = ColimitElt(0, random_vector(rng, G))
        q = ColimitElt(rng.randint(0, 1), random_vector(rng, G))
        ap = colimit_positive(t, p, 2)
        aq = colimit_positive(t, q, 2)
        if ap.kind == "positive" and aq.kind == "positive":
            lvl = max(ap.level, aq.level)
            s = t.push(p, lvl) + t.push(q, lvl)
            assert colimit_positive(t, ColimitElt(lvl, s), 2).kind == "positive"
            for gamma in G.space.parent.elements():
                tr = t.push(p, lvl).translate(gamma)
                assert colimit_positive(t, ColimitElt(lvl, tr), 2).kind == "positive"


def test_unit_mode_gives_unit_certificate():
    rng = random.Random(83)
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 2)
    u = G.element([[1, 1], [1, 1]])
    swap = map_new(G, G, [G.basis_vector(1), G.basis_vector(0)])
    t = tower_new([G, G, G], [swap, swap], units=[u, u, u], mode="unit")
    for _ in range(10):
        p = ColimitElt(rng.randint(0, 2), random_vector(rng, G))
        a = dominating_coefficient(t.units[p.level], p.value)
        assert leq(p.value, a * t.units[p.level])


def test_colimit_zero_relations_admit_witnesses():
    # relations among colimit cone elements, pushed to a common level,
    # decompose there
    rng = random.Random(85)
    d3 = dihedral_group(3)
    G = simplicial_over(d3, [1], 2)
    f = random_positive_map(rng, G, G, max_coeff=1)
    t = tower_new([G, G, G], [f, f])
    for _ in range(5):
        a, xs = random_zero_relation(rng, G)
        lvl = 2
        pushed = [t.push(ColimitElt(0, x), lvl) for x in xs]
        total = t.groups[lvl].zero()
        for ai, xi in zip(a, pushed):
            total = total + ai * xi
        assert total.is_zero()
        w = sdp_witness(t.groups[lvl], a, pushed)
        assert verify_sdp_witness(t.groups[lvl], a, pushed, w)


def colimit_eq_every_kernel(t, p, q, horizon):
    """Reference: the walk that computes the kernel of every composite up to
    the horizon, on every tower, and reads the flag at the end."""
    l0 = max(p.level, q.level)
    h_max = t.max_level(horizon)
    if l0 > h_max or any(e.level > t.max_level(e.level) for e in (p, q)):
        return ColimitAnswer(kind="unknown", level=None, reason="horizon_too_small")
    v = t.push(p, l0) - t.push(q, l0)
    if v.is_zero():
        return ColimitAnswer(kind="equal", level=l0)
    prev_kernel, stabilized, composite = [], False, None
    for level in range(l0 + 1, h_max + 1):
        step = t.map_at(level - 1)
        composite = step if composite is None else map_compose(step, composite)
        v = map_apply(step, v)
        if v.is_zero():
            return ColimitAnswer(kind="equal", level=level)
        ker = kernel_lattice(composite)
        if ker == prev_kernel:
            stabilized = True
        prev_kernel = ker
    if stabilized:
        return ColimitAnswer(kind="not_equal_up_to", level=h_max)
    return ColimitAnswer(kind="unknown", level=h_max, reason="undecided_at_horizon")


def _columns(draw, kind, source, target):
    """Positive columns of a map of the given kind; the named kinds are endomorphisms."""
    n = target.space.num_cosets
    if kind == "nilpotent":  # e_i -> e_{i+1}, the last to 0
        return [target.basis_vector(i + 1) if i + 1 < target.rank else target.zero() for i in range(source.rank)]
    if kind == "doubling":
        return [target.basis_vector(i).scale(2) for i in range(source.rank)]
    if kind == "idempotent":  # every e_i -> e_0
        return [target.basis_vector(0) for _ in range(source.rank)]
    entry = st.integers(0, 2) if kind == "random" else st.sampled_from([0, 0, 0, 1])
    return [
        target.element([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(target.rank)])
        for _ in range(source.rank)
    ]


@st.composite
def towers_and_queries(draw):
    repeat = draw(st.booleans())
    group = draw(st.sampled_from([cyclic_group(1), cyclic_group(2)]))
    nmaps = draw(st.integers(1, 3))
    if repeat:
        ranks = [draw(st.integers(1, 2)) for _ in range(nmaps)]
        ranks.append(ranks[-1])
    else:
        ranks = [draw(st.integers(1, 2)) for _ in range(nmaps + 1)]
    groups = [simplicial_over(group, [], r) for r in ranks]
    maps = []
    for n in range(nmaps):
        kinds = ["random", "sparse"]
        if ranks[n] == ranks[n + 1]:
            kinds += ["nilpotent", "doubling", "idempotent"]
        kind = draw(st.sampled_from(kinds))
        maps.append(map_new(groups[n], groups[n + 1], _columns(draw, kind, groups[n], groups[n + 1])))
    t = tower_new(groups, maps, repeat_last=repeat)
    top = nmaps + (3 if repeat else 0)
    n = group.order

    def element(level):
        g = t.group_at(level)
        return ColimitElt(level, g.element([draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
                                            for _ in range(g.rank)]))

    p = element(draw(st.integers(0, top)))
    q = element(draw(st.integers(0, top))) if draw(st.booleans()) else ColimitElt(p.level, p.value.scale(0))
    # levels up to 6 and N up to 4 keep s + N + 1 at most 11, so horizons fall on both sides
    return t, p, q, draw(st.integers(0, 16))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(towers_and_queries())
def test_colimit_eq_matches_the_walk_over_every_kernel(case):
    t, p, q, horizon = case
    assert colimit_eq(t, p, q, horizon) == colimit_eq_every_kernel(t, p, q, horizon)


def _count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(limits, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(limits, name, counted)
    return counts


def test_colimit_eq_stops_computing_kernels_at_the_first_stable_pair(monkeypatch):
    # the fold e1, e2 -> e1 and then identities: the kernels at levels 1 and 2
    # agree, so only those two are computed while the difference walks to level 6
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 2)
    fold = map_new(G, G, [G.basis_vector(0), G.basis_vector(0)])
    t = tower_new([G] * 7, [fold] + [map_new(G, G, G.basis())] * 5)
    p = ColimitElt(0, G.element([[1, 0], [0, 0]]))
    q = ColimitElt(0, G.element([[0, 1], [0, 0]]))
    counts = _count_calls(monkeypatch, "kernel_lattice", "map_apply")
    ans = colimit_eq(t, p, q, horizon=6)
    assert ans == ColimitAnswer(kind="not_equal_up_to", level=6)
    assert counts == {"kernel_lattice": 2, "map_apply": 6}


def test_colimit_eq_cost_does_not_grow_with_the_horizon(monkeypatch):
    # Z/2 with the repeated map 2*id: s = 0 and N = 2, so at most 3 pushes
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    t = tower_new([G, G], [map_new(G, G, [G.element([[2, 0]])])], repeat_last=True)
    p, q = ColimitElt(0, G.element([[1, 0]])), ColimitElt(0, G.zero())
    counts = _count_calls(monkeypatch, "kernel_lattice", "map_apply")
    ans = colimit_eq(t, p, q, horizon=10**9)
    assert ans == ColimitAnswer(kind="not_equal_up_to", level=10**9)
    assert counts["map_apply"] <= 0 + G.flat_dim() + 1
    assert counts["kernel_lattice"] == 1
