"""Realization of simplicial groups and of positive class maps by ring data.

``realize_simplicial`` turns an ordered pair (group, order-unit) into a
matricial descriptor whose class data reproduces it on the nose.
``hom_realizable`` turns a positive class map into a block-embedding
certificate: a per-component assignment of diagonal slots of matching
class, taken and checked one class run at a time.  Towers of groups are
realized level by level.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    NotOrderUnit,
    NotPositiveMap,
    NotRealizable,
    ShapeMismatch,
    UnitMismatch,
)
from .gamma_maps import GammaLinearMap, is_positive_map, map_apply, map_compose
from .graded_matricial import MatricialComponent, MatricialRingDesc, k0_of_matricial
from .limits import Tower
from .ordered_simplicial import GammaVector, SimplicialGroup, is_order_unit, leq
from .sdp_engine import Verdict


@dataclass(frozen=True)
class RealizedSimplicial:  # kept while benchmark probes read realize_simplicial(...).ring
    ring: MatricialRingDesc


@dataclass(frozen=True)
class CopyEmbedding:
    """One diagonal copy of a source component inside a target component.

    ``slot_map`` is a tuple of ranges of target diagonal positions; read in
    order, their k-th position receives source slot k.  The copy is twisted
    by ``twist_coset``.
    """

    target_component: int
    source_component: int
    twist_coset: int
    slot_map: tuple[range, ...]


@dataclass(frozen=True)
class HomSpec:
    source: MatricialRingDesc
    target: MatricialRingDesc
    matrix: GammaLinearMap
    unital: bool
    certificate: tuple[CopyEmbedding, ...]


def realize_simplicial(group: SimplicialGroup, unit: GammaVector) -> RealizedSimplicial:
    """Matricial descriptor whose class data is (group, unit) exactly:
    component i holds as many slots of each class as coordinate i has mass
    on that coset."""
    if not is_order_unit(group, unit):
        raise NotOrderUnit("every coordinate of the unit must carry positive mass")
    components = tuple(MatricialComponent(counts=unit.coord(i)) for i in range(group.rank))
    return RealizedSimplicial(ring=MatricialRingDesc(space=group.space, components=components))


def hom_realizable(
    source: MatricialRingDesc,
    target: MatricialRingDesc,
    matrix: GammaLinearMap,
    unital: bool,
) -> HomSpec:
    """Certificate that a positive class map is induced by a block embedding.

    Realizable exactly when the image of the source unit class fits under
    the target unit class slot by slot (with equality in the unital case);
    the greedy per-class assignment then always completes.  A source slot
    of class c carries shift rep_c^{-1}, with rep_c read in the source's
    coset space; in a copy twisted by coset t it needs a target slot of
    class rep_c * (coset t).  Twists and needed classes are cosets of the
    target's stabilizer, which may differ from the source's.  Each class of
    a target component is one interval of its diagonal, so a copy takes,
    class run by class run, one range of the lowest free slots of the class
    the run needs.
    """
    unit_r = k0_of_matricial(source)
    unit_s = k0_of_matricial(target)
    if matrix.source != unit_r.group or matrix.target != unit_s.group:
        raise ShapeMismatch("matrix does not match the class groups")
    if not is_positive_map(matrix):
        raise NotPositiveMap("class maps must be positive")
    image_unit = map_apply(matrix, unit_r)
    if unital:
        if image_unit != unit_s:
            raise UnitMismatch("unital spec must carry unit class to unit class")
    else:
        if not leq(image_unit, unit_s):
            raise NotRealizable("image of the unit class exceeds the target capacity")
    action, reps = target.space.action, source.space.reps
    runs_of = [[(reps[c], k) for c, k in classes] for classes in source.slot_classes()]
    certificate: list[CopyEmbedding] = []
    for j, host in enumerate(target.slot_classes()):
        free: dict[int, int] = {}  # class -> its lowest free slot; the unit check above leaves room
        end = 0
        for c, k in host:
            free[c] = end
            end += k
        for i, runs in enumerate(runs_of):
            for twist, mult in enumerate(matrix.columns[i].coord(j)):
                for _ in range(mult):
                    slot_map = []
                    for rep, k in runs:
                        needed = action[rep][twist]
                        slot_map.append(range(free[needed], free[needed] + k))
                        free[needed] += k
                    certificate.append(
                        CopyEmbedding(
                            target_component=j,
                            source_component=i,
                            twist_coset=twist,
                            slot_map=tuple(slot_map),
                        )
                    )
    return HomSpec(
        source=source,
        target=target,
        matrix=matrix,
        unital=unital,
        certificate=tuple(certificate),
    )


def verify_hom_spec(spec: HomSpec) -> Verdict:
    """Recheck a certificate run by run, independently of the matcher.

    The clauses, in the order they are checked, each name a failing verdict:
    every copy names a target component, a source component and a twist
    coset that exist (``index_range``); it fills its source component
    (``slot_count``) with nonempty ranges of step 1 inside its target
    component (``slot_range``), whose target classes are the classes the
    twisted copy needs (``class_mismatch``); no target slot is taken twice
    (``reused_slot``); the copies cover the matrix entry by entry
    (``matrix_coverage``); and a unital spec covers every target slot
    (``unital_coverage``).
    """
    space = spec.target.space
    action, reps, nc = space.action, spec.source.space.reps, space.num_cosets
    sources = spec.source.slot_classes()
    targets = [  # per target component: where each class interval ends, and its class
        ([*accumulate(k for _, k in classes)], [c for c, _ in classes]) for classes in spec.target.slot_classes()
    ]
    taken: list[list[tuple[int, int]]] = [[] for _ in targets]
    demanded: Counter[tuple[int, int, int]] = Counter()
    for copy in spec.certificate:
        j, i, twist = copy.target_component, copy.source_component, copy.twist_coset
        if not (0 <= j < len(targets) and 0 <= i < len(sources) and 0 <= twist < nc):
            return Verdict(False, "index_range")
        comp = spec.source.components[i]
        if sum(map(len, copy.slot_map)) != comp.size:
            return Verdict(False, "slot_count")
        ends, classes = targets[j]
        size = ends[-1]
        runs, intervals = sources[i], taken[j]
        n = left = 0  # the next source class run and the slots left in the current one
        for r in copy.slot_map:
            lo, hi = r.start, r.stop
            if r.step != 1 or not 0 <= lo < hi <= size:
                return Verdict(False, "slot_range")
            intervals.append((lo, hi))
            while lo < hi:
                if not left:
                    c, left = runs[n]
                    needed = action[reps[c]][twist]
                    n += 1
                t = bisect_right(ends, lo)  # the target class interval holding slot lo
                if classes[t] != needed:
                    return Verdict(False, "class_mismatch")
                end = hi if hi - lo < left else lo + left
                if end > ends[t]:
                    end = ends[t]
                left -= end - lo
                lo = end
        demanded[i, j, twist] += 1
    for intervals in taken:
        intervals.sort()
        prev = 0
        for lo, hi in intervals:
            if lo < prev:
                return Verdict(False, "reused_slot")
            prev = hi
    columns = spec.matrix.columns
    entries = {(i, *divmod(pos, nc)): k for i, col in enumerate(columns) for pos, k in enumerate(col.flat) if k}
    if demanded != entries:
        return Verdict(False, "matrix_coverage")
    if spec.unital:
        for j, comp in enumerate(spec.target.components):
            covered = sum(hi - lo for lo, hi in taken[j])
            if covered != comp.size:
                return Verdict(False, "unital_coverage")
    return Verdict(True)


def hom_compose(second: HomSpec, first: HomSpec) -> HomSpec:
    """Compose specs; the composite certificate is rebuilt by the same matcher."""
    if first.target != second.source:
        raise ShapeMismatch("specs do not compose")
    matrix = map_compose(second.matrix, first.matrix)
    return hom_realizable(
        first.source,
        second.target,
        matrix,
        unital=first.unital and second.unital,
    )


@dataclass(frozen=True)
class RealizedTower:
    rings: tuple[MatricialRingDesc, ...]
    specs: tuple[HomSpec, ...]


def realize_tower(tower: Tower) -> RealizedTower:
    """Levelwise realization; the class-group squares commute by construction."""
    if tower.mode not in ("unit", "interval"):
        raise ValueError("tower must be in unit or interval mode")
    assert tower.units is not None
    realized = [
        realize_simplicial(g, u) for g, u in zip(tower.groups, tower.units)
    ]
    rings = [r.ring for r in realized]
    specs = []
    for n, f in enumerate(tower.maps):
        spec = hom_realizable(
            rings[n], rings[n + 1], f, unital=(tower.mode == "unit")
        )
        specs.append(spec)
    return RealizedTower(rings=tuple(rings), specs=tuple(specs))
