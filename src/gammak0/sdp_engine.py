"""Decomposition witnesses for zero relations and unperforation certificates.

A simplicial group decomposes every zero relation among cone elements
through nonnegative group-ring coefficients against its basis; the witness
records those coefficients.  An unperforation witness for x is the same
decomposition of x alone, the lifts of its coordinates against the basis:
the projection pi is a module map, so pi(a*b_j) is the j-th coordinate of
a*x, nonnegative whenever a*x is positive.  Both witnesses hold by
construction; the ``verify_*`` functions are the independent checks, and the
CLI runs them on every witness it emits.  Each sum of products b*y those
checks need is scattered term by term into one list per row, and each
projected product is summed coset-wise; neither the vectors b*y nor the
group-ring products are built.

A single-term (m=1) witness need not exist.  The augmentation decides
refutations exactly where it applies and meets some witnesses on the way;
witnesses are searched for in a coefficient box first; an instance that
neither decides is reported undecided together with its box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd, prod
from operator import mul
from typing import Sequence

from .errors import NotInCone, NotPositive, ProductNotInCone, RelationNotZero
from .group_ring import GroupRingElt, _add_projected_product, lift_vector
from .intlinalg import solve_unique
from .ordered_simplicial import GammaVector, SimplicialGroup, _add_product


@dataclass(frozen=True)
class Verdict:
    """Boolean check outcome carrying a reason tag for the failing clause."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SdpWitness:
    """Decomposition data: x_i = sum_j b_ij y_j with vanishing projected column sums."""

    m: int
    b: tuple[tuple[GroupRingElt, ...], ...]  # n rows, m columns
    y: tuple  # m cone elements


@dataclass(frozen=True)
class UnperfWitness:
    m: int
    b: tuple[GroupRingElt, ...]
    y: tuple  # m cone elements


def _check_relation(group, a: Sequence[GroupRingElt], x: Sequence) -> None:
    if len(a) != len(x):
        raise RelationNotZero("coefficient and vector counts differ")
    total = [0] * len(group.zero().flat)
    for ai, xi in zip(a, x):
        if not group.cone_contains(xi):
            raise NotInCone("relation vectors must lie in the cone")
        _add_product(total, ai, xi.flat, group.space)
    if any(total):
        raise RelationNotZero("relation does not sum to zero")


def _against_basis(group: SimplicialGroup, xs: Sequence[GammaVector]) -> tuple[int, tuple, tuple]:
    """(m, rows, targets): row i holds the canonical lifts of the coordinates
    of xs[i], so it recombines the basis targets into xs[i].  Rank 0 has no
    basis and uses the single target 0 with zero coefficients."""
    if group.rank == 0:
        zero = GroupRingElt.zero(group.space.parent)
        return 1, tuple((zero,) for _ in xs), (group.zero(),)
    space = group.space
    rows = tuple(tuple(lift_vector(space, x.coord(i)) for i in range(group.rank)) for x in xs)
    return group.rank, rows, tuple(group.basis())


def sdp_witness(group: SimplicialGroup, a: Sequence[GroupRingElt], x: Sequence[GammaVector]) -> SdpWitness:
    """Witness for a zero relation, with the basis as decomposition targets.

    The coefficients are the canonical nonnegative lifts of the coordinates
    of each x_i; the projected column sums vanish because the relation does,
    coordinate by coordinate.
    """
    _check_relation(group, a, x)
    m, b, y = _against_basis(group, x)
    return SdpWitness(m=m, b=b, y=y)


def verify_sdp_witness(group, a: Sequence[GroupRingElt], x: Sequence, w: SdpWitness) -> Verdict:
    """Exact check of both witness equations; never raises on bad data."""
    n = len(x)
    if len(a) != n or len(w.b) != n or len(w.y) != w.m:
        return Verdict(False, "shape")
    for row in w.b:
        if len(row) != w.m:
            return Verdict(False, "shape")
        for entry in row:
            if not entry.is_positive():
                return Verdict(False, "coefficient_not_positive")
    for yj in w.y:
        if not group.cone_contains(yj):
            return Verdict(False, "target_not_in_cone")
    space = group.space
    zero = group.zero()
    for i in range(n):
        total = [0] * len(zero.flat)
        for bij, yj in zip(w.b[i], w.y):
            _add_product(total, bij, yj.flat, space)
        if x[i] != GammaVector(zero.group, tuple(total)):
            return Verdict(False, f"decomposition_mismatch_row_{i}")
    for j in range(w.m):
        col_sum = [0] * space.num_cosets  # pi(sum_i a_i*b_ij)
        for i in range(n):
            _add_projected_product(col_sum, a[i], w.b[i][j], space)
        if any(col_sum):
            return Verdict(False, f"column_sum_nonzero_{j}")
    return Verdict(True)


def unperforation_witness(group: SimplicialGroup, a: GroupRingElt, x: GammaVector) -> UnperfWitness:
    """Decomposition of x with projected products a*b_j nonnegative.

    b_j is the lift of the j-th coordinate of x and y is the basis, so
    pi(a*b_j) is the j-th coordinate of a*x.
    """
    if not a.is_positive():
        raise NotPositive("coefficient must lie in the positive cone of the group ring")
    if not group.cone_contains(a * x):
        raise ProductNotInCone("a*x must lie in the cone")
    m, (b,), y = _against_basis(group, [x])
    return UnperfWitness(m=m, b=b, y=y)


def verify_unperforation_witness(group, a: GroupRingElt, x, w: UnperfWitness) -> Verdict:
    if len(w.b) != w.m or len(w.y) != w.m:
        return Verdict(False, "shape")
    for yj in w.y:
        if not group.cone_contains(yj):
            return Verdict(False, "target_not_in_cone")
    space = group.space
    zero = group.zero()
    total = [0] * len(zero.flat)
    for bj, yj in zip(w.b, w.y):
        _add_product(total, bj, yj.flat, space)
    if x != GammaVector(zero.group, tuple(total)):
        return Verdict(False, "decomposition_mismatch")
    for j, bj in enumerate(w.b):
        projected = [0] * space.num_cosets
        _add_projected_product(projected, a, bj, space)
        if min(projected) < 0:
            return Verdict(False, f"projected_product_negative_{j}")
    return Verdict(True)


# the most (b, coordinate, y) triples the m=1 box search may try, and the most
# system entries the augmentation may fill over its choices of d and y
M1_BUDGET = 10_000_000


class M1Undecided:
    """An m=1 instance that neither the augmentation nor the box decides:
    no single-term witness has every coefficient of b in [-box, box] and
    every entry of y in [0, box], and none is ruled out beyond that.

    A plain class: building a dataclass costs about a millisecond at import.
    """

    __slots__ = ("box",)

    def __init__(self, box: int):
        self.box = box


def _compositions(n: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints with sum n (stars and bars)."""
    for bars in combinations(range(n + parts - 1), parts - 1):
        edges = (-1, *bars, n + parts - 1)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


def _augmentation(group: SimplicialGroup, a: GroupRingElt, x: GammaVector) -> tuple[bool, UnperfWitness | None]:
    """(refuted, witness): True when the augmentation proves that x = b*y has
    no m=1 witness; else the first witness it meets, or None.

    The augmentation eps sums coefficients and is multiplicative:
    eps(b*y_i) = eps(b)*eps(y_i), with eps(y_i) >= 0 since y is in the cone.
    If some eps(x_i) is nonzero, then d = eps(b) is a nonzero common divisor
    of the eps(x_i) with their sign, so mixed signs refute, and so does an
    x_i != 0 with eps(x_i) = 0, whose y_i is forced to 0.  Otherwise each
    y_i is a composition of eps(x_i)/d into coset entries.  For each choice
    of d and the y_i, b solves b*y_i = x_i and eps(b) = d; over one coset b
    acts only through eps(b), so b = d*1 stands for every solution.  A unique
    integral b with pi(a*b) >= 0 is a witness.  The instance is refuted when
    every choice leaves no integral b, or a unique one with a negative
    coordinate of pi(a*b).

    Neither when every eps(x_i) is zero (then d = 0 leaves b free), when
    some choice leaves b undetermined before a witness is met, and when the
    choices would fill more than ``M1_BUDGET`` system entries.
    """
    space = group.space
    G = space.parent
    nc = space.num_cosets
    coords = [x.coord(i) for i in range(group.rank)]
    masses = [sum(c) for c in coords]
    live = [i for i, mass in enumerate(masses) if mass]
    if not live:
        return False, None
    if any(any(c) for c, mass in zip(coords, masses) if not mass):
        return True, None
    if min(masses[i] for i in live) < 0 < max(masses[i] for i in live):
        return True, None
    common = gcd(*(masses[i] for i in live))
    # at most `common` values of d, and d = 1 has the most compositions
    choices = common * prod(comb(abs(masses[i]) + nc - 1, nc - 1) for i in live)
    if choices * (len(live) * nc + 1) * G.order > M1_BUDGET:
        return False, None
    sign = 1 if masses[live[0]] > 0 else -1
    for d in (sign * k for k in range(1, common + 1) if common % k == 0):
        scalar = [d * (g == G.identity) for g in G.elements()]  # b = d*1
        for ys in product(*(_compositions(masses[i] // d, nc) for i in live)):
            matrix, rhs = [], []
            for i, y in zip(live, ys):
                block = [[0] * G.order for _ in range(nc)]  # row c: the coset-c entry of b*y_i
                for g, moved in enumerate(space.action):
                    for c, k in enumerate(y):
                        if k:
                            block[moved[c]][g] += k
                matrix += block
                rhs += coords[i]
            matrix.append([1] * G.order)
            rhs.append(d)
            determined, b = solve_unique(matrix, rhs, G.order) if nc > 1 else (True, scalar)
            if not determined:
                return False, None
            if b is not None:
                b = GroupRingElt._of(G, dict(enumerate(b)))
                projected = [0] * nc
                _add_projected_product(projected, a, b, space)
                if min(projected) >= 0:
                    chosen = dict(zip(live, ys))
                    y = group.element([chosen.get(i, [0] * nc) for i in range(group.rank)])
                    return False, UnperfWitness(m=1, b=(b,), y=(y,))
    return True, None


def search_unperforation_witness_m1(
    group: SimplicialGroup, a: GroupRingElt, x: GammaVector
) -> UnperfWitness | M1Undecided | None:
    """Single-term witness x = b*y, None when none exists, or ``M1Undecided``.

    None is an exact refutation by the augmentation (``_augmentation``),
    decided before any search.  Witnesses are found by an exhaustive search
    over a box: coefficients of b in [-B, B] and entries of y in [0, B], with
    B the largest absolute coefficient in the instance plus two; the first
    witness in product order is returned.  Since b acts on each coordinate
    independently, candidates for y are enumerated per coordinate.  When the
    box holds no witness, or is past ``M1_BUDGET``, the witness that the
    augmentation met is returned; failing that, the instance is undecided,
    reported with its box B, or past the budget a ``ValueError``.
    """
    refuted, met = _augmentation(group, a, x)
    if refuted:
        return None
    bound = max(a.max_abs_coeff(), x.max_abs_coeff()) + 2
    G = group.space.parent
    space = group.space
    nc = space.num_cosets
    b_count = (2 * bound + 1) ** G.order
    y_count = (bound + 1) ** nc
    if b_count * max(1, group.rank) * y_count > M1_BUDGET:
        if met is not None:
            return met
        raise ValueError(
            f"search space {b_count * max(1, group.rank) * y_count} exceeds "
            f"budget {M1_BUDGET}; reduce the instance"
        )
    targets = [x.coord(i) for i in range(group.rank)]
    for b_coeffs in product(range(-bound, bound + 1), repeat=G.order):
        b = GroupRingElt._of(G, dict(enumerate(b_coeffs)))
        projected = [0] * nc
        _add_projected_product(projected, a, b, space)
        if min(projected) < 0:
            continue
        action = [[0] * nc for _ in range(nc)]
        for g, k in b.coeffs.items():
            for c in range(nc):
                action[space.action[g][c]][c] += k
        solution = []
        for target in targets:
            found = None
            for y_vals in product(range(bound + 1), repeat=nc):
                for row, t in zip(action, target):
                    if sum(map(mul, row, y_vals)) != t:
                        break
                else:
                    found = y_vals
                    break
            if found is None:
                break
            solution.append(list(found))
        else:
            y = group.element(solution)
            return UnperfWitness(m=1, b=(b,), y=(y,))
    return met or M1Undecided(bound)
