"""Towers, colimit equality and positivity queries, and cone closure."""

import random

import pytest

from gammak0 import (
    ColimitElt,
    DeltaMismatch,
    NotPositiveMap,
    UnitNotPreserved,
    colimit_eq,
    colimit_positive,
    cyclic_group,
    dihedral_group,
    leq,
    map_apply,
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
