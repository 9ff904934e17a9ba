"""Decomposition witnesses for zero relations and unperforation certificates.

A simplicial group decomposes every zero relation among cone elements
through nonnegative group-ring coefficients against its basis; the witness
records those coefficients.  An unperforation witness for x is the same
decomposition of x alone, the lifts of its coordinates against the basis:
the projection pi is a module map, so pi(a*b_j) is the j-th coordinate of
a*x, nonnegative whenever a*x is positive.  Both witnesses hold by
construction; the ``verify_*`` functions are the independent checks, and the
CLI runs them on every witness it emits.  The projected products those checks
need are summed coset-wise term by term; the group-ring products themselves
are never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Sequence

from .errors import NotInCone, NotPositive, ProductNotInCone, RelationNotZero
from .group_ring import GroupRingElt, _add_projected_product, lift_vector
from .ordered_simplicial import GammaVector, SimplicialGroup


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
    total = group.zero()
    for ai, xi in zip(a, x):
        if not group.cone_contains(xi):
            raise NotInCone("relation vectors must lie in the cone")
        total = total + ai * xi
    if not total.is_zero():
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
    for i in range(n):
        total = group.zero()
        for j in range(w.m):
            total = total + w.b[i][j] * w.y[j]
        if total != x[i]:
            return Verdict(False, f"decomposition_mismatch_row_{i}")
    space = group.space
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
    total = group.zero()
    for bj, yj in zip(w.b, w.y):
        total = total + bj * yj
    if total != x:
        return Verdict(False, "decomposition_mismatch")
    space = group.space
    for j, bj in enumerate(w.b):
        projected = [0] * space.num_cosets
        _add_projected_product(projected, a, bj, space)
        if min(projected) < 0:
            return Verdict(False, f"projected_product_negative_{j}")
    return Verdict(True)


M1_BUDGET = 10_000_000  # candidate (b, coordinate, y) triples the m=1 search may try


def search_unperforation_witness_m1(group: SimplicialGroup, a: GroupRingElt, x: GammaVector) -> UnperfWitness | None:
    """Exhaustive bounded search for a single-term witness x = b*y.

    Coefficients of b and entries of y range over a box bounded by the
    largest absolute coefficient in the instance plus two.  Since b acts on
    each coordinate independently, candidates for y are enumerated per
    coordinate.  This is a desk-scale certificate: a None result refutes
    witnesses inside the box only.
    """
    bound = max(a.max_abs_coeff(), x.max_abs_coeff()) + 2
    G = group.space.parent
    space = group.space
    nc = space.num_cosets
    b_count = (2 * bound + 1) ** G.order
    y_count = (bound + 1) ** nc
    if b_count * max(1, group.rank) * y_count > M1_BUDGET:
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
                action[space.act(g, c)][c] += k
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
    return None
