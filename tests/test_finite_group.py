"""Group tables, subgroups, coset spaces, and normal closures."""

import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from gammak0 import (
    EngineError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    coset_space,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_table,
    klein_four_group,
    normal_closure,
    subgroup_closure,
    trivial_subgroup,
)
from conftest import full_subgroup, is_normal_by_conjugation, reference_group_from_table, small_groups


def test_z2_from_table():
    g = group_from_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.inv == (0, 1)


def test_d3_table_satisfies_presentation():
    g = dihedral_group(3)
    a, b = 1, 3
    assert g.mul[a][g.mul[a][a]] == g.identity  # a^3 = 1
    assert g.mul[b][b] == g.identity  # b^2 = 1
    a2b = g.mul[g.mul[a][a]][b]
    assert g.mul[b][a] == a2b  # ba = a^2 b
    assert not g.is_abelian()
    assert g.order == 6


def test_degenerate_table_rejected():
    # no two-sided identity, so validation stops at the identity axiom
    with pytest.raises((NoIdentity, NoInverse, NotAssociative)):
        group_from_table([[0, 1], [0, 0]])


def test_no_inverse_table():
    with pytest.raises(NoInverse):
        group_from_table([[0, 1], [1, 1]])


def test_not_associative_table():
    # Latin square with identity but a broken triple (order-5 quasigroup)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as exc:
        group_from_table(table)
    # the lexicographically first bad triple: (1*1)*2 = 0*2 = 2, 1*(1*2) = 1*3 = 4
    assert str(exc.value) == "(1*1)*2 != 1*(1*2)"


GROUP_TABLES = [[list(row) for row in g.mul] for g in small_groups()]
BAD_ENTRIES = [True, -1, 1.0, "0", None]


@st.composite
def tables(draw):
    """Random tables, and relabelled ``small_groups()`` tables with at most one
    perturbation: a changed or malformed entry, a row swap or a column swap."""
    kind = draw(st.sampled_from(["random", "unital", "group", "entry", "bad_entry", "rows", "columns"]))
    if kind in ("random", "unital"):
        n = draw(st.integers(1, 5))
        table = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))
        if kind == "unital":  # element 0 is a two-sided identity, so the later axioms are reached
            table[0] = list(range(n))
            for g in range(n):
                table[g][0] = g
        return table
    base = draw(st.sampled_from(GROUP_TABLES))
    n = len(base)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "entry":
        table[i][j] = draw(st.integers(0, n - 1))
    elif kind == "bad_entry":
        table[i][j] = draw(st.sampled_from(BAD_ENTRIES + [n]))
    elif kind == "rows":
        table[i], table[j] = table[j], table[i]
    elif kind == "columns":
        for row in table:
            row[i], row[j] = row[j], row[i]
    return table


def outcome(build, table):
    try:
        g = build(table)
    except (ValueError, EngineError) as exc:
        return type(exc), str(exc)
    return g.mul, g.identity, g.inv


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(table=tables())
# generators 1 and 2; only 1 breaks associativity, and 2 does not generate it
@example(table=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
def test_table_check_matches_cubic_reference(table):
    assert outcome(group_from_table, table) == outcome(reference_group_from_table, table)


def test_malformed_tables():
    with pytest.raises(ValueError):
        group_from_table([[0, 1]])
    with pytest.raises(ValueError):
        group_from_table([[0, 5], [5, 0]])


def test_subgroup_closure_d3():
    g = dihedral_group(3)
    d = subgroup_closure(g, [3])  # {1, b}
    assert d.members == (0, 3)
    assert not coset_space(g, d).is_normal

    # oracle: brute-force conjugation over all 6 elements
    rot = subgroup_closure(g, [1])
    assert rot.members == (0, 1, 2)
    assert all(g.conjugate(x, h) in rot.members for x in g.elements() for h in rot.members)
    assert coset_space(g, rot).is_normal
    assert g.order // rot.order == 2


def test_subgroup_closure_empty():
    for g in small_groups():
        assert subgroup_closure(g, []).members == (g.identity,)


def test_coset_space_d3():
    g = dihedral_group(3)
    d = subgroup_closure(g, [3])
    cs = coset_space(g, d)
    # oracle: left translates {1,b}, a{1,b} = {a, ab}, a2{1,b} = {a2, a2b}
    assert cs.num_cosets == 3
    assert cs.reps == (0, 1, 2)
    assert cs.elt_to_coset == (0, 1, 2, 0, 1, 2)
    assert not cs.is_normal


def test_coset_space_full_subgroup():
    for g in small_groups():
        cs = coset_space(g, full_subgroup(g))
        assert cs.num_cosets == 1
        assert cs.reps == (g.identity,)


def test_identity_rep_first_even_when_identity_not_minimal():
    # relabel Z2 so that the identity is element 1
    g = group_from_table([[1, 0], [0, 1]])
    assert g.identity == 1
    cs = coset_space(g, trivial_subgroup(g))
    assert cs.reps[0] == g.identity


def test_normal_closure_d3():
    g = dihedral_group(3)
    d = subgroup_closure(g, [3])
    # oracle: close {b, ab, a2b} under products; reflections generate all of D3
    nc = normal_closure(g, d)
    assert nc.members == tuple(range(6))
    assert coset_space(g, nc).is_normal


def test_normal_closure_idempotent_and_contains():
    rng = random.Random(7)
    for g in small_groups():
        for _ in range(5):
            gens = [rng.randrange(g.order) for _ in range(rng.randrange(0, 3))]
            d = subgroup_closure(g, gens)
            nc = normal_closure(g, d)
            assert set(d.members) <= set(nc.members)
            assert coset_space(g, nc).is_normal
            assert normal_closure(g, nc).members == nc.members


def test_lagrange_on_random_subgroups():
    rng = random.Random(11)
    for g in small_groups():
        for _ in range(8):
            gens = [rng.randrange(g.order) for _ in range(rng.randrange(0, 3))]
            d = subgroup_closure(g, gens)
            cs = coset_space(g, d)
            assert cs.num_cosets * d.order == g.order


def test_coset_action_well_defined_on_normal_quotients():
    # for normal subgroups, gamma * rep(c) lands in a coset independent of
    # the representative of gamma's coset
    g = dihedral_group(3)
    d = subgroup_closure(g, [1])  # rotations, normal
    cs = coset_space(g, d)
    for c in range(cs.num_cosets):
        for gamma in g.elements():
            expected = cs.action[gamma][c]
            for h in d.members:
                assert cs.action[g.mul[gamma][h]][c] == expected


def dicyclic_group(n: int):
    """Dic_n of order 4n: a^i x^j with x a x^-1 = a^-1 and x^2 = a^n, at index
    i + 2n*j.  Dic_2 is the quaternion group."""
    m = 2 * n

    def mul(p, q):
        (j, i), (l, k) = divmod(p, m), divmod(q, m)
        e = i + (-k if j else k) + (n if j + l == 2 else 0)
        return e % m + m * ((j + l) % 2)

    return group_from_table([[mul(p, q) for q in range(2 * m)] for p in range(2 * m)])


def alternating_group_4():
    """A4 as the even permutations of four points, composed as maps."""
    perms = [p for p in permutations(range(4)) if sum(p[i] > p[j] for i in range(4) for j in range(i)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return group_from_table([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])


def groups_up_to_order_12():
    """One group of each isomorphism type of order at most 12 (24 types)."""
    c = cyclic_group
    return [
        *(c(n) for n in range(1, 13)),
        klein_four_group(),
        dihedral_group(3),
        direct_product(c(2), c(4)),
        direct_product(c(2), klein_four_group()),
        dihedral_group(4),
        dicyclic_group(2),
        direct_product(c(3), c(3)),
        dihedral_group(5),
        direct_product(c(2), c(6)),
        dihedral_group(6),
        alternating_group_4(),
        dicyclic_group(3),
    ]


def relabeled(g, perm):
    """The same group with element i renamed perm[i]."""
    n = g.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[g.mul[a][b]]
    return group_from_table(table)


def all_subgroups(g):
    """Every subgroup, grown from the trivial one an element at a time."""
    found = {(g.identity,): trivial_subgroup(g)}
    frontier = list(found.values())
    while frontier:
        sub = frontier.pop()
        for h in g.elements():
            if h not in sub:
                bigger = subgroup_closure(g, [*sub.members, h])
                if bigger.members not in found:
                    found[bigger.members] = bigger
                    frontier.append(bigger)
    return list(found.values())


def test_coset_space_normality_and_action_on_every_subgroup_up_to_order_12():
    """Normality against conjugation and every action entry against
    the table.  Over the trivial subgroup the action is the table itself, but
    only while the identity is element 0: relabeled copies with the identity
    last move the cosets off the element indices."""
    groups = groups_up_to_order_12()
    assert sorted(g.order for g in groups) == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8, 9, 9, 10, 10, 11, 12, 12, 12, 12, 12]
    groups += [relabeled(g, [g.order - 1, *range(1, g.order - 1), 0]) for g in groups if g.order > 1]
    subgroup_counts = {}
    for g in groups:
        subs = all_subgroups(g)
        subgroup_counts[g] = len(subs)
        for sub in subs:
            cs = coset_space(g, sub)
            assert cs.is_normal == is_normal_by_conjugation(sub)
            for x in g.elements():
                for c, rep in enumerate(cs.reps):
                    assert cs.action[x][c] == cs.elt_to_coset[g.mul[x][rep]]
            if sub.order == 1 and g.identity == 0:
                assert cs.action is g.mul
    assert subgroup_counts[alternating_group_4()] == 10  # none of order 6
    q8 = dicyclic_group(2)
    assert not q8.is_abelian() and subgroup_counts[q8] == 6
    assert all(coset_space(q8, sub).is_normal for sub in all_subgroups(q8))
