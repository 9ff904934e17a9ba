"""Shared builders and random-instance generators for the test suite.

Randomness is always driven by explicit seeds so every run is reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import product

import pytest

from gammak0 import (
    CosetSpace,
    FiniteGroup,
    GammaVector,
    GroupRingElt,
    NoIdentity,
    NoInverse,
    NotAssociative,
    SimplicialGroup,
    Subgroup,
    coset_space,
    cyclic_group,
    dihedral_group,
    direct_product,
    identity_map,
    intlinalg,
    klein_four_group,
    map_new,
    normal_closure,
    subgroup_closure,
    tower_new,
    trivial_subgroup,
)
from gammak0.serialize import ring_to_json


@pytest.fixture
def z2():
    return cyclic_group(2)


@pytest.fixture
def d3():
    return dihedral_group(3)


def small_groups() -> list[FiniteGroup]:
    """Groups of order at most 8 used throughout the random suites."""
    return [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        cyclic_group(6),
        dihedral_group(3),
        cyclic_group(8),
        dihedral_group(4),
        direct_product(cyclic_group(2), cyclic_group(4)),
    ]


def reference_group_from_table(table) -> FiniteGroup:
    """The cubic group-table check that Light's test replaced: every triple is
    scanned in lexicographic order.  Oracle for ``group_from_table``."""
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = []
    for row in table:
        if len(row) != n:
            raise ValueError("table is not square")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0 or x >= n:
                raise ValueError(f"table entry {x!r} out of range")
        rows.append(tuple(int(x) for x in row))
    mul = tuple(rows)
    identity = None
    for e in range(n):
        if all(mul[e][g] == g and mul[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("table has no two-sided identity")
    inv = []
    for g in range(n):
        gi = None
        for h in range(n):
            if mul[g][h] == identity and mul[h][g] == identity:
                gi = h
                break
        if gi is None:
            raise NoInverse(f"element {g} has no inverse")
        inv.append(gi)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return FiniteGroup(order=n, mul=mul, identity=identity, inv=tuple(inv))


def is_normal_by_conjugation(sub: Subgroup) -> bool:
    """Normality by brute-force conjugation, independent of ``coset_space``."""
    G = sub.parent
    return all(G.conjugate(g, h) in sub.members for g in G.elements() for h in sub.members)


def ring_elt_from_terms(group: FiniteGroup, terms) -> GroupRingElt:
    """The element sum of k*g over the terms (g, k); repeated g add up."""
    coeffs: dict[int, int] = {}
    for g, k in terms:
        coeffs[g] = coeffs.get(g, 0) + k
    return GroupRingElt(group, coeffs)


def random_subgroup(rng: random.Random, group: FiniteGroup) -> Subgroup:
    k = rng.randrange(0, 3)
    gens = [rng.randrange(group.order) for _ in range(k)]
    return subgroup_closure(group, gens)


def random_normal_subgroup(rng: random.Random, group: FiniteGroup) -> Subgroup:
    return normal_closure(group, random_subgroup(rng, group))


def random_space(rng: random.Random, group: FiniteGroup, normal: bool = False) -> CosetSpace:
    sub = random_normal_subgroup(rng, group) if normal else random_subgroup(rng, group)
    return coset_space(group, sub)


def random_coset_vector_coeffs(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def random_cone_vector(rng: random.Random, group: SimplicialGroup, max_coeff: int = 3) -> GammaVector:
    nc = group.space.num_cosets
    return group.element(
        [random_coset_vector_coeffs(rng, nc, 0, max_coeff) for _ in range(group.rank)]
    )


def random_vector(rng: random.Random, group: SimplicialGroup, max_coeff: int = 3) -> GammaVector:
    nc = group.space.num_cosets
    return group.element(
        [random_coset_vector_coeffs(rng, nc, -max_coeff, max_coeff) for _ in range(group.rank)]
    )


def random_order_unit(rng: random.Random, group: SimplicialGroup, max_coeff: int = 3) -> GammaVector:
    """Cone vector with positive mass in every coordinate."""
    nc = group.space.num_cosets
    coords = []
    for _ in range(group.rank):
        row = random_coset_vector_coeffs(rng, nc, 0, max_coeff)
        if not any(row):
            row[rng.randrange(nc)] = rng.randint(1, max_coeff)
        coords.append(row)
    return group.element(coords)


def random_positive_ring_elt(rng: random.Random, group: FiniteGroup, max_coeff: int = 2) -> GroupRingElt:
    return GroupRingElt(
        group, {g: rng.randint(0, max_coeff) for g in group.elements()}
    )


def random_ring_elt(rng: random.Random, group: FiniteGroup, max_coeff: int = 2) -> GroupRingElt:
    return GroupRingElt(
        group, {g: rng.randint(-max_coeff, max_coeff) for g in group.elements()}
    )


def random_positive_map(
    rng: random.Random,
    source: SimplicialGroup,
    target: SimplicialGroup,
    max_coeff: int = 2,
):
    """Positive equivariant map; columns are built from source-stabilizer-fixed vectors.

    Each column is a positive group-ring combination of basis translates,
    averaged over the source stabilizer to enforce fixedness (automatic when
    the stabilizer acts trivially, as in the normal case).
    """
    cols = []
    for _ in range(source.rank):
        col = target.zero()
        terms = rng.randrange(0, 3)
        for _ in range(terms):
            i = rng.randrange(target.rank) if target.rank else 0
            if target.rank == 0:
                break
            k = rng.randint(1, max_coeff)
            g = rng.randrange(target.space.parent.order)
            vec = target.basis_vector(i).translate(g).scale(k)
            for delta in source.space.sub.members:
                col = col + vec.translate(delta)
        cols.append(col)
    return map_new(source, target, cols)


def simplicial_over(group: FiniteGroup, delta_gens: list[int], rank: int) -> SimplicialGroup:
    return SimplicialGroup(coset_space(group, subgroup_closure(group, delta_gens)), rank)


def trivial_space(group: FiniteGroup) -> CosetSpace:
    return coset_space(group, trivial_subgroup(group))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(parent=group, members=tuple(range(group.order)))


def zero_map(source: SimplicialGroup, target: SimplicialGroup):
    return map_new(source, target, [target.zero() for _ in range(source.rank)])


def constant_tower(group: SimplicialGroup, length: int, unit: GammaVector | None = None):
    """Identity tower of the given length, in unit mode when ``unit`` is given."""
    groups = [group] * length
    maps = [identity_map(group)] * (length - 1)
    if unit is not None:
        return tower_new(groups, maps, units=[unit] * length, mode="unit")
    return tower_new(groups, maps)


def z2_mult_tower(length=3, mode="interval"):
    """Z[Z2] -(1+x)-> Z[Z2] -> ... with units 1, 1+x, (1+x)^2, ..."""
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    m = map_new(G, G, [G.element([[1, 1]])])
    one_plus_x = GroupRingElt.one(Z2) + GroupRingElt.basis(Z2, 1)
    units = [G.basis_vector(0)]
    for _ in range(length - 1):
        units.append(one_plus_x * units[-1])
    return G, tower_new([G] * length, [m] * (length - 1), units=units, mode=mode)


def unit_spreading_map(rng: random.Random, G: SimplicialGroup):
    """Positive map whose columns all touch every coordinate, so order-units
    push forward to order-units.  Columns are averaged over the stabilizer to
    stay equivariant when it is not normal."""
    cols = []
    for _ in range(G.rank):
        col = G.zero()
        for i in range(G.rank):
            k = rng.randint(1, 2)
            g = rng.randrange(G.space.parent.order)
            vec = G.basis_vector(i).translate(g).scale(k)
            for delta in G.space.sub.members:
                col = col + vec.translate(delta)
        cols.append(col)
    return map_new(G, G, cols)


def random_zero_relation(rng: random.Random, G: SimplicialGroup, n_max=3, coeff_bound=2):
    """Sample a genuine zero relation among cone elements.

    The relation module of sampled cone vectors is computed exactly; a random
    small combination of its basis gives the coefficients.
    """
    n = rng.randint(1, n_max)
    xs = [random_cone_vector(rng, G, max_coeff=coeff_bound) for _ in range(n)]
    group = G.space.parent
    cols = []
    for xi in xs:
        for g in group.elements():
            cols.append(xi.translate(g).flat)
    if G.flat_dim() == 0:
        coeffs = [GroupRingElt.zero(group) for _ in range(n)]
        return coeffs, xs
    matrix = [[cols[j][r] for j in range(len(cols))] for r in range(G.flat_dim())]
    basis = intlinalg.kernel_basis(matrix, n * group.order)
    if not basis:
        return [GroupRingElt.zero(group) for _ in range(n)], xs
    combo = [0] * (n * group.order)
    for _ in range(rng.randint(1, 3)):
        row = rng.choice(basis)
        c = rng.randint(-coeff_bound, coeff_bound)
        combo = [a + c * b for a, b in zip(combo, row)]
    coeffs = []
    for i in range(n):
        chunk = combo[i * group.order : (i + 1) * group.order]
        coeffs.append(GroupRingElt(group, dict(enumerate(chunk))))
    return coeffs, xs


def relation_among(rng: random.Random, H, pairs):
    """Exact integer relation among extension elements, or (None, None)."""
    group = H.space.parent
    dim = H.carrier.flat_dim()
    cols = [e.translate(g).flat for e in pairs for g in group.elements()]
    matrix = [[cols[j][r] for j in range(len(cols))] for r in range(dim)]
    basis = intlinalg.kernel_basis(matrix, len(pairs) * group.order)
    if not basis:
        return None, None
    combo = [0] * (len(pairs) * group.order)
    for _ in range(rng.randint(1, 2)):
        row = rng.choice(basis)
        c = rng.randint(-2, 2)
        combo = [p + c * q for p, q in zip(combo, row)]
    coeffs = []
    for i in range(len(pairs)):
        chunk = combo[i * group.order : (i + 1) * group.order]
        coeffs.append(GroupRingElt(group, dict(enumerate(chunk))))
    return coeffs, pairs


def interval_box(u: GammaVector) -> list[GammaVector]:
    """Exhaustive oracle: every cone element below u, one per point of the box."""
    return [GammaVector(u.group, combo) for combo in product(*(range(s + 1) for s in u.flat))]


def dominating_coefficient(u: GammaVector, x: GammaVector) -> GroupRingElt:
    """Some a in the positive group-ring cone with x <= a*u, for an order unit u."""
    group = u.group.space.parent
    k = max(max(x.flat, default=0), 0)
    return GroupRingElt(group, dict.fromkeys(group.elements(), k))


def realized_shifts_reference(group: SimplicialGroup, unit: GammaVector) -> list[list[int]]:
    """Per-slot shift lists of ``realize_simplicial``: one slot per unit of
    coset mass, shifted by the inverse of the coset's representative, in
    increasing order of that representative."""
    space = group.space
    order = sorted(range(space.num_cosets), key=space.reps.__getitem__)
    out = []
    for i in range(group.rank):
        coord = unit.coord(i)
        shifts: list[int] = []
        for c in order:
            shifts += [space.parent.inv[space.reps[c]]] * coord[c]
        out.append(shifts)
    return out


def sized_shifts(ring) -> list[tuple[int, tuple[int, ...]]]:
    """``(size, per-slot shifts)`` of each component, as ``ring_to_json`` writes them."""
    return [(c["size"], tuple(c["shifts"])) for c in ring_to_json(ring)["components"]]


def slot_maps_reference(space: CosetSpace, source_shifts, target_shifts, matrix) -> list[tuple]:
    """The per-slot greedy that ``hom_realizable`` replaced, as
    ``(target, source, twist, slot_map)`` tuples in certificate order.

    Each target component queues its slots by class, the left coset of
    s^{-1} for shift s; every copy of source component i twisted by coset c
    pops, for each source slot in order, the lowest free slot of the class
    of s^{-1} * (coset c).
    """
    action, inv = space.action, space.parent.inv
    out = []
    for j, host in enumerate(target_shifts):
        available: dict[int, deque[int]] = {}
        for l, s in enumerate(host):
            available.setdefault(action[inv[s]][0], deque()).append(l)
        for i, shifts in enumerate(source_shifts):
            for coset, mult in enumerate(matrix.columns[i].coord(j)):
                for _ in range(mult):
                    slot_map = [available[action[inv[s]][coset]].popleft() for s in shifts]
                    out.append((j, i, coset, slot_map))
    return out


def translate_reference(space: CosetSpace, coeffs, g: int) -> tuple[int, ...]:
    """g * coeffs in the coset module, from the multiplication table and the
    coset labels alone."""
    out = [0] * space.num_cosets
    for c, k in enumerate(coeffs):
        out[space.elt_to_coset[space.parent.mul[g][space.reps[c]]]] += k
    return tuple(out)


def act_reference(space: CosetSpace, a: GroupRingElt, coeffs) -> tuple[int, ...]:
    """a * coeffs in the coset module, summed over translate_reference."""
    out = [0] * space.num_cosets
    for g, k in a.coeffs.items():
        out = [o + k * t for o, t in zip(out, translate_reference(space, coeffs, g))]
    return tuple(out)


def m1_witness_reference(group: SimplicialGroup, a: GroupRingElt, x: GammaVector):
    """First (b, ys) in product order with x = b*y coordinatewise, y in the
    cone and every projected coefficient of a*b nonnegative, over the box of
    ``search_unperforation_witness_m1``; None when the box holds none.

    Plain brute force from the multiplication table and ``act_reference``:
    b runs over the coefficient box in ``product`` order and, for each
    coordinate, y over its box in ``product`` order.  Oracle for the search.
    """
    space = group.space
    G = space.parent
    nc = space.num_cosets
    bound = max(map(abs, [*a.coeffs.values(), *x.flat, 0])) + 2
    for b_coeffs in product(range(-bound, bound + 1), repeat=G.order):
        b = GroupRingElt(G, dict(enumerate(b_coeffs)))
        projected = [0] * nc
        for g, kg in a.coeffs.items():
            for h, kh in b.coeffs.items():
                projected[space.elt_to_coset[G.mul[g][h]]] += kg * kh
        if min(projected) < 0:
            continue
        ys = []
        for i in range(group.rank):
            target = x.coord(i)
            y = next(
                (y for y in product(range(bound + 1), repeat=nc) if act_reference(space, b, y) == target),
                None,
            )
            if y is None:
                break
            ys.append(list(y))
        else:
            return b, ys
    return None


def m1_witness_in_box(group: SimplicialGroup, a: GroupRingElt, x: GammaVector, bound: int) -> bool:
    """Whether x = b*y coordinatewise for some b with coefficients in
    [-bound, bound] and y with entries in [0, bound], with every projected
    coefficient of a*b nonnegative.

    Brute force over b from the multiplication table and ``act_reference``.
    For each coordinate, y is found by meeting in the middle: the images of
    every choice of its first half of entries are stored, and each choice of
    the second half looks up what is left of the target.
    """
    space = group.space
    G = space.parent
    nc = space.num_cosets
    units = [tuple(int(c == k) for c in range(nc)) for k in range(nc)]
    targets = [x.coord(i) for i in range(group.rank)]
    for b_coeffs in product(range(-bound, bound + 1), repeat=G.order):
        b = GroupRingElt(G, dict(enumerate(b_coeffs)))
        projected = [0] * nc
        for g, kg in a.coeffs.items():
            for h, kh in b.coeffs.items():
                projected[space.elt_to_coset[G.mul[g][h]]] += kg * kh
        if min(projected) < 0:
            continue
        cols = [act_reference(space, b, e) for e in units]  # b * (coset k)

        def images(ks):
            out = set()
            for ys in product(range(bound + 1), repeat=len(ks)):
                v = [0] * nc
                for k, yk in zip(ks, ys):
                    v = [vi + yk * ci for vi, ci in zip(v, cols[k])]
                out.add(tuple(v))
            return out

        low, high = images(range(nc // 2)), images(range(nc // 2, nc))
        if all(any(tuple(t - h for t, h in zip(target, hv)) in low for hv in high) for target in targets):
            return True
    return False


def rational_rank(m: list[list[int]], ncols: int) -> int:
    """Rank over the rationals by Gaussian elimination, independent of ``intlinalg``."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def lattice_contains(hnf_rows: list[list[int]], vec) -> bool:
    """Membership of ``vec`` in the lattice given by row-HNF rows."""
    v = list(vec)
    for row in hnf_rows:
        piv = next((c for c, val in enumerate(row) if val), None)
        if piv is None:
            continue
        if v[piv] % row[piv] != 0:
            return False
        q = v[piv] // row[piv]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return all(a == 0 for a in v)
