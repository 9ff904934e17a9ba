"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every check is exact integer arithmetic; random instances
are seeded and reproducible.
"""

import random
import time

from gammak0 import (
    ColimitElt,
    ExtendedGroup,
    GroupRingElt,
    SimplicialGroup,
    colimit_eq,
    colimit_positive,
    coset_space,
    cyclic_group,
    dihedral_group,
    ext_sdp_witness,
    group_stabilizer,
    hom_compose,
    hom_realizable,
    homog_dim,
    interpolate,
    k0_of_matricial,
    kernels_equal,
    klein_four_group,
    leq,
    map_apply,
    map_compose,
    map_new,
    matricial_ring,
    normal_closure,
    realize_simplicial,
    realize_tower,
    riesz_refine,
    sdp_witness,
    search_unperforation_witness_m1,
    shen_step,
    subgroup_closure,
    tower_new,
    unperforation_witness,
    verify_hom_spec,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from conftest import (
    random_cone_vector,
    random_normal_subgroup,
    random_order_unit,
    random_positive_map,
    random_vector,
    random_zero_relation,
    relation_among,
    simplicial_over,
    small_groups,
    unit_spreading_map,
)


def _report(num: int, detail: str, t0: float, limit: float | None = None) -> None:
    dt = time.perf_counter() - t0
    print(f"criterion {num:02d} PASS ({dt:.3f}s): {detail}")
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.3f}s)"


def test_criterion_01_perforation_instance():
    t0 = time.perf_counter()
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 2)
    one = GroupRingElt.one(Z2)
    x = GroupRingElt.basis(Z2, 1)
    a = one + x
    u = G.element([[1, -1], [2, -1]])  # (1-x, 2-x)
    assert a * u == G.element([[0, 0], [1, 1]])  # (0, 1+x)
    assert G.cone_contains(a * u)
    assert not G.cone_contains(u)
    w = unperforation_witness(G, a, u)
    assert w.m == 2
    assert verify_unperforation_witness(G, a, u, w)
    assert search_unperforation_witness_m1(G, a, u) is None
    _report(1, "perforated pair witnessed at m=2, refuted at m=1", t0, limit=0.1)


def test_criterion_02_stabilizers_and_closure():
    t0 = time.perf_counter()
    d3 = dihedral_group(3)
    delta = subgroup_closure(d3, [3])  # {1, b}
    G = SimplicialGroup(coset_space(d3, delta), 1)
    assert group_stabilizer(G).members == (d3.identity,)
    basis_elt = G.basis_vector(0)
    basis_stab = tuple(
        g for g in d3.elements() if basis_elt.translate(g) == basis_elt
    )
    assert basis_stab == delta.members
    assert normal_closure(d3, delta).members == tuple(range(6))
    _report(2, "module stabilizer trivial, basis stabilizer proper, closure full", t0, limit=0.1)


def test_criterion_03_simplicial_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(2025)
    groups = small_groups()
    assert any(g.order == 6 and not g.is_abelian() for g in groups)  # D3
    assert any(g.order == 4 and g.is_abelian() for g in groups)  # Z4 / Z2xZ2
    count = 0
    for trial in range(500):
        g = groups[trial % len(groups)]
        sub = random_normal_subgroup(rng, g) if rng.random() < 0.5 else None
        gens = list(sub.members) if sub else [rng.randrange(g.order)]
        G = simplicial_over(g, gens, rng.randint(1, 4))
        u = random_order_unit(rng, G, max_coeff=3)
        realized = realize_simplicial(G, u)
        k0 = k0_of_matricial(realized.ring)
        assert k0.group == G
        assert k0 == u
        count += 1
    assert count == 500
    _report(3, "500 realize/class-data round trips, unit preserved exactly", t0, limit=30.0)


def test_criterion_04_shen_postconditions():
    t0 = time.perf_counter()
    rng = random.Random(404)
    count = 0
    groups = small_groups()
    while count < 200:
        g = groups[count % len(groups)]
        sub = random_normal_subgroup(rng, g)
        src = SimplicialGroup(coset_space(g, sub), rng.randint(1, 3))
        tgt = SimplicialGroup(src.space, rng.randint(1, 3))
        g1 = random_positive_map(rng, src, tgt, max_coeff=2)
        fact = shen_step(g1)
        assert map_compose(fact.g2, fact.g12) == g1
        assert kernels_equal(fact.g12, g1)
        count += 1
    _report(4, "200 factorizations: exact composition and kernel-lattice equality", t0, limit=60.0)


def test_criterion_05_interpolation_and_refinement():
    t0 = time.perf_counter()
    rng = random.Random(505)
    groups = small_groups()
    for trial in range(500):
        g = groups[trial % len(groups)]
        G = simplicial_over(g, [rng.randrange(g.order)], rng.randint(1, 3))
        z0 = random_vector(rng, G)
        lower = [z0 - random_cone_vector(rng, G) for _ in range(rng.randint(1, 3))]
        upper = [z0 + random_cone_vector(rng, G) for _ in range(rng.randint(1, 3))]
        z = interpolate(G, lower, upper)
        assert all(leq(x, z) for x in lower)
        assert all(leq(z, y) for y in upper)
    for trial in range(500):
        g = groups[trial % len(groups)]
        G = simplicial_over(g, [rng.randrange(g.order)], rng.randint(1, 3))
        parts = [random_cone_vector(rng, G) for _ in range(4)]
        x1, x2 = parts[0] + parts[1], parts[2] + parts[3]
        y1, y2 = parts[0] + parts[2], parts[1] + parts[3]
        zz = riesz_refine(G, x1, x2, y1, y2)
        assert zz[0][0] + zz[0][1] == x1
        assert zz[1][0] + zz[1][1] == x2
        assert zz[0][0] + zz[1][0] == y1
        assert zz[0][1] + zz[1][1] == y2
        assert all(G.cone_contains(v) for row in zz for v in row)
    _report(5, "1000 interpolation/refinement instances, all bounds exact", t0)


def test_criterion_06_decomposition_witnesses():
    t0 = time.perf_counter()
    rng = random.Random(606)
    groups = small_groups()
    simplicial_count = 0
    for trial in range(100):
        g = groups[trial % len(groups)]
        G = simplicial_over(g, [rng.randrange(g.order)], rng.randint(1, 3))
        a, xs = random_zero_relation(rng, G)
        w = sdp_witness(G, a, xs)
        assert verify_sdp_witness(G, a, xs, w)
        simplicial_count += 1
    ext_count = 0
    attempts = 0
    while ext_count < 100 and attempts < 1000:
        attempts += 1
        g = groups[attempts % len(groups)]
        sub = random_normal_subgroup(rng, g)
        G = SimplicialGroup(coset_space(g, sub), rng.randint(1, 2))
        u = random_order_unit(rng, G, max_coeff=2)
        H = ExtendedGroup(base=G, unit=u)
        pairs = []
        for _ in range(rng.randint(1, 3)):
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
        assert verify_sdp_witness(H, a, pairs, w)
        ext_count += 1
    assert simplicial_count == 100 and ext_count == 100
    _report(6, "100 simplicial and 100 extension relations, all witnessed", t0)


def test_criterion_07_functoriality():
    t0 = time.perf_counter()
    rng = random.Random(707)
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(), dihedral_group(3)]
    count = 0
    while count < 200:
        g = groups[count % len(groups)]
        G = simplicial_over(g, [rng.randrange(g.order)], rng.randint(1, 2))
        unital = bool(count % 2)
        u1 = random_order_unit(rng, G, max_coeff=2)
        B1 = unit_spreading_map(rng, G)
        u2 = map_apply(B1, u1)
        if not unital:
            u2 = u2 + random_order_unit(rng, G, max_coeff=1)
        B2 = unit_spreading_map(rng, G)
        u3 = map_apply(B2, u2)
        if not unital:
            u3 = u3 + random_order_unit(rng, G, max_coeff=1)
        r1, r2, r3 = (realize_simplicial(G, u).ring for u in (u1, u2, u3))
        h1 = hom_realizable(r1, r2, B1, unital=unital)
        h2 = hom_realizable(r2, r3, B2, unital=unital)
        composed = hom_compose(h2, h1)
        assert verify_hom_spec(composed)
        assert composed.matrix == map_compose(h2.matrix, h1.matrix)
        count += 1
    _report(7, "200 composed spec pairs, class maps compose exactly", t0)


def test_criterion_08_tower_realization():
    t0 = time.perf_counter()
    rng = random.Random(808)
    groups = [cyclic_group(2), cyclic_group(4), klein_four_group(), dihedral_group(3)]
    count = 0
    while count < 100:
        g = groups[count % len(groups)]
        G = simplicial_over(g, [rng.randrange(g.order)], rng.randint(1, 2))
        mode = "unit" if count % 2 == 0 else "interval"
        length = rng.randint(2, 5)
        units = [random_order_unit(rng, G, max_coeff=2)]
        maps = []
        for _ in range(length - 1):
            B = unit_spreading_map(rng, G)
            nxt = map_apply(B, units[-1])
            if mode == "interval":
                nxt = nxt + random_order_unit(rng, G, max_coeff=1)
            maps.append(B)
            units.append(nxt)
        tower = tower_new([G] * length, maps, units=units, mode=mode)
        realized = realize_tower(tower)
        for n, spec in enumerate(realized.specs):
            assert verify_hom_spec(spec)
            assert spec.matrix == tower.maps[n]  # the class-group square
            img = map_apply(spec.matrix, k0_of_matricial(spec.source))
            target_unit = k0_of_matricial(spec.target)
            if mode == "unit":
                assert img == target_unit
            else:
                assert leq(img, target_unit)
        count += 1
    _report(8, "100 towers realized, squares and unit discipline exact", t0)


def test_criterion_09_homogeneous_dimension_oracle():
    t0 = time.perf_counter()
    rng = random.Random(909)
    groups = small_groups()
    for trial in range(200):
        g = groups[trial % len(groups)]
        sub = subgroup_closure(g, [rng.randrange(g.order) for _ in range(rng.randint(0, 2))])
        space = coset_space(g, sub)
        comps = [
            (p, [rng.randrange(g.order) for _ in range(p)])
            for p in [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        ]
        ring = matricial_ring(space, comps)
        # oracle: each entry pair supports the coset of degrees gk^{-1} * d0 * gl
        # for d0 in the subgroup; tally those directly
        tally = {d: 0 for d in g.elements()}
        for p, shifts in comps:
            for gk in shifts:
                for gl in shifts:
                    for d0 in sub.members:
                        tally[g.mul[g.mul[g.inv[gk]][d0]][gl]] += 1
        for d in g.elements():
            assert homog_dim(ring, d) == tally[d]
        total = sum(homog_dim(ring, d) for d in g.elements())
        assert total == sub.order * sum(p * p for p, _ in comps)
    _report(9, "200 descriptors: dimensions match the tally oracle and sum rule", t0)


# -- criterion 10: telescope harness -------------------------------------------


def _build_telescope(target_tower, probes):
    """Iterated factorization rebuilding a tower that hits the given probes.

    The target colimit of a finite tower is its last level with the composite
    translational maps.  Returns the rebuilt tower, the probe preimages as
    colimit elements, the final translational map, and the probe images.
    """
    T = target_tower
    top = len(T.groups) - 1
    G_T = T.groups[top]
    xs = [T.push(ColimitElt(lvl, v), top) for lvl, v in probes]
    space = G_T.space

    G0 = SimplicialGroup(space, 1)
    g_n = map_new(G0, G_T, [xs[0]])
    rebuilt_groups = [G0]
    rebuilt_maps = []
    preimages = [ColimitElt(0, G0.basis_vector(0))]
    for n, x in enumerate(xs[1:], start=1):
        Gn = rebuilt_groups[-1]
        H = SimplicialGroup(space, Gn.rank + 1)
        incl = map_new(Gn, H, [H.basis_vector(i) for i in range(Gn.rank)])
        h = map_new(H, G_T, list(g_n.columns) + [x])
        fact = shen_step(h)
        rebuilt_maps.append(map_compose(fact.g12, incl))
        rebuilt_groups.append(fact.middle)
        preimages.append(ColimitElt(n, map_apply(fact.g12, H.basis_vector(Gn.rank))))
        g_n = fact.g2
    # cleanup level: anything already in the kernel dies inside the prefix
    fact = shen_step(g_n)
    rebuilt_maps.append(fact.g12)
    rebuilt_groups.append(fact.middle)
    g_n = fact.g2
    rebuilt = tower_new(rebuilt_groups, rebuilt_maps)
    return rebuilt, preimages, g_n, xs


def _push_combination(tower, parts, level):
    total = tower.groups[level].zero()
    for coeff, elt in parts:
        total = total + coeff * tower.push(elt, level)
    return total


def test_criterion_10_telescope_harness():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(), dihedral_group(3)]
    for instance in range(50):
        g = groups[instance % len(groups)]
        sub = random_normal_subgroup(rng, g)
        space = coset_space(g, sub)
        length = rng.randint(2, 4)
        ranks = [rng.randint(1, 2) for _ in range(length)]
        levels = [SimplicialGroup(space, r) for r in ranks]
        maps = [
            random_positive_map(rng, levels[i], levels[i + 1], max_coeff=1)
            for i in range(length - 1)
        ]
        target = tower_new(levels, maps)

        probes = []
        for _ in range(2):
            lvl = rng.randrange(length)
            probes.append((lvl, random_cone_vector(rng, levels[lvl], max_coeff=2)))
        # duplicate the first probe at the top level: same colimit class,
        # inserted twice, so the rebuilt tower must identify the preimages
        dup = target.push(ColimitElt(probes[0][0], probes[0][1]), length - 1)
        probes.append((length - 1, dup))

        rebuilt, pre, g_final, xs = _build_telescope(target, probes)
        horizon = len(rebuilt.groups) - 1
        final = horizon

        # (a) the image of every tracked preimage is its probe, exactly
        for p, x in zip(pre, xs):
            assert map_apply(g_final, rebuilt.push(p, final)) == x

        # (b) equality agreement: the duplicated pair collapses; fresh
        # combinations agree with the target exactly
        ans = colimit_eq(rebuilt, pre[0], pre[2], horizon)
        assert ans.kind == "equal"
        for _ in range(3):
            coeffs = [
                GroupRingElt(g, {rng.randrange(g.order): rng.randint(-1, 1)})
                for _ in pre
            ]
            c1 = _push_combination(rebuilt, list(zip(coeffs, pre)), final)
            image1 = map_apply(g_final, c1)
            target_zero = image1.is_zero()
            ans = colimit_eq(
                rebuilt, ColimitElt(final, c1), ColimitElt(final, rebuilt.groups[final].zero()), horizon
            )
            if target_zero:
                assert ans.kind == "equal"
            else:
                assert ans.kind != "equal"

        # (c) cone queries agree on probe combinations
        pos_coeffs = [
            GroupRingElt(g, {rng.randrange(g.order): rng.randint(0, 1)}) for _ in pre
        ]
        c_pos = _push_combination(rebuilt, list(zip(pos_coeffs, pre)), final)
        assert colimit_positive(rebuilt, ColimitElt(final, c_pos), horizon).kind == "positive"
        # kernel twist: differs from a positive combination by something the
        # target kills, so positivity must still be recognized in the limit
        twist = rebuilt.push(pre[0], final) - rebuilt.push(pre[2], final)
        c_mixed = c_pos + twist
        assert map_apply(g_final, c_mixed) == map_apply(g_final, c_pos)
        assert colimit_positive(rebuilt, ColimitElt(final, c_mixed), horizon + 1).kind == "positive"
        # and anything whose image leaves the target cone is never positive
        if not map_apply(g_final, -c_pos).is_zero():
            neg = colimit_positive(rebuilt, ColimitElt(final, -c_pos), horizon)
            assert neg.kind == "not_positive_up_to"
    _report(10, "50 telescopes rebuilt; probe elements and cone queries agree", t0)
