"""Realization of simplicial groups and of positive class maps by ring data.

``realize_simplicial`` turns an ordered pair (group, order-unit) into a
matricial descriptor whose class data reproduces it on the nose.
``hom_realizable`` turns a positive class map into a block-embedding
certificate: a per-component assignment of diagonal slots with matching
shift cosets.  Towers of groups are realized level by level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    InternalVerificationFailed,
    NotOrderUnit,
    NotPositiveMap,
    NotRealizable,
    ShapeMismatch,
    UnitMismatch,
)
from .gamma_maps import GammaLinearMap, identity_map, is_positive_map, map_apply, map_compose
from .graded_matricial import K0Data, MatricialComponent, MatricialRingDesc, k0_of_matricial
from .limits import Tower
from .ordered_simplicial import GammaVector, SimplicialGroup, is_order_unit, leq
from .sdp_engine import Verdict


@dataclass(frozen=True)
class RealizedSimplicial:
    ring: MatricialRingDesc
    k0: K0Data
    basis_map: GammaLinearMap  # class group -> realized group, basis to basis


@dataclass(frozen=True)
class CopyEmbedding:
    """One diagonal copy of a source component inside a target component.

    ``slot_map[k]`` is the target diagonal position receiving source slot k;
    the copy is twisted by ``twist_coset``.
    """

    target_component: int
    source_component: int
    twist_coset: int
    slot_map: tuple[int, ...]


@dataclass(frozen=True)
class HomSpec:
    source: MatricialRingDesc
    target: MatricialRingDesc
    matrix: GammaLinearMap
    unital: bool
    certificate: tuple[CopyEmbedding, ...]


def realize_simplicial(group: SimplicialGroup, unit: GammaVector) -> RealizedSimplicial:
    """Matricial descriptor whose class data is (group, unit) exactly.

    Coordinate i contributes one diagonal slot per unit of coset mass; a slot
    in coset c is shifted by the inverse of the representative of c, and the
    slots run in increasing order of that representative.
    """
    space = group.space
    G = space.parent
    if unit.group != group:
        raise ShapeMismatch("unit not in the group")
    if not group.cone_contains(unit) or not is_order_unit(group, unit):
        raise NotOrderUnit("every coordinate of the unit must carry positive mass")
    order = sorted(range(space.num_cosets), key=space.reps.__getitem__)
    components = []
    for i in range(group.rank):
        coord = unit.coord(i)
        shifts: list[int] = []
        for c in order:
            shifts += [G.inv[space.reps[c]]] * coord[c]
        components.append(MatricialComponent(size=len(shifts), shifts=tuple(shifts)))
    ring = MatricialRingDesc(space=space, components=tuple(components))
    k0 = k0_of_matricial(ring)
    if k0.unit_class != unit:
        raise InternalVerificationFailed("round trip does not reproduce the unit")
    return RealizedSimplicial(ring=ring, k0=k0, basis_map=identity_map(group))


def _slot_classes(ring: MatricialRingDesc, j: int) -> dict[int, deque[int]]:
    """Target component's diagonal slots grouped by projective class coset,
    each class in increasing slot order."""
    space = ring.space
    G = space.parent
    slots: dict[int, deque[int]] = {}
    for l, s in enumerate(ring.components[j].shifts):
        slots.setdefault(space.elt_to_coset[G.inv[s]], deque()).append(l)
    return slots


def hom_realizable(
    source: MatricialRingDesc,
    target: MatricialRingDesc,
    matrix: GammaLinearMap,
    unital: bool,
) -> HomSpec:
    """Certificate that a positive class map is induced by a block embedding.

    Realizable exactly when the image of the source unit class fits under
    the target unit class slot by slot (with equality in the unital case);
    the greedy per-coset assignment then always completes.
    """
    k0_r = k0_of_matricial(source)
    k0_s = k0_of_matricial(target)
    if matrix.source != k0_r.group or matrix.target != k0_s.group:
        raise ShapeMismatch("matrix does not match the class groups")
    if not is_positive_map(matrix):
        raise NotPositiveMap("class maps must be positive")
    image_unit = map_apply(matrix, k0_r.unit_class)
    if unital:
        if image_unit != k0_s.unit_class:
            raise UnitMismatch("unital spec must carry unit class to unit class")
    else:
        if not leq(image_unit, k0_s.unit_class):
            raise NotRealizable("image of the unit class exceeds the target capacity")
    space = source.space
    G = space.parent
    certificate: list[CopyEmbedding] = []
    for j in range(target.num_components):
        available = _slot_classes(target, j)
        for i, comp in enumerate(source.components):
            for coset, mult in enumerate(matrix.columns[i].coord(j)):
                for _ in range(mult):
                    slot_map = []
                    for gk in comp.shifts:
                        needed = space.elt_to_coset[
                            G.mul[G.inv[gk]][space.reps[coset]]
                        ]
                        pool = available.get(needed)
                        if not pool:
                            raise NotRealizable(
                                f"target component {j} lacks a slot in class {needed}"
                            )
                        slot_map.append(pool.popleft())
                    certificate.append(
                        CopyEmbedding(
                            target_component=j,
                            source_component=i,
                            twist_coset=coset,
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
    """Recheck a certificate: disjoint slots, matching classes, full matrix coverage.

    A failing verdict names its clause: ``slot_count``, ``reused_slot``,
    ``class_mismatch``, ``matrix_coverage`` or ``unital_coverage``.
    """
    space = spec.source.space
    G = space.parent
    used: dict[int, set[int]] = {}
    demanded: dict[tuple[int, int], list[int]] = {}
    for copy in spec.certificate:
        j, i = copy.target_component, copy.source_component
        comp = spec.source.components[i]
        if len(copy.slot_map) != comp.size:
            return Verdict(False, "slot_count")
        taken = used.setdefault(j, set())
        for gk, l in zip(comp.shifts, copy.slot_map):
            if l in taken:
                return Verdict(False, "reused_slot")
            taken.add(l)
            slot_shift = spec.target.components[j].shifts[l]
            slot_class = space.elt_to_coset[G.inv[slot_shift]]
            needed = space.elt_to_coset[G.mul[G.inv[gk]][space.reps[copy.twist_coset]]]
            if slot_class != needed:
                return Verdict(False, "class_mismatch")
        demanded.setdefault((i, j), []).append(copy.twist_coset)
    for i in range(spec.source.num_components):
        for j in range(spec.target.num_components):
            got = sorted(demanded.get((i, j), []))
            want = []
            for coset, mult in enumerate(spec.matrix.columns[i].coord(j)):
                want.extend([coset] * mult)
            if got != want:
                return Verdict(False, "matrix_coverage")
    if spec.unital:
        for j in range(spec.target.num_components):
            covered = used.get(j, set())
            if len(covered) != spec.target.components[j].size:
                return Verdict(False, "unital_coverage")
    return Verdict(True)


def k0_of_hom(spec: HomSpec) -> GammaLinearMap:
    return spec.matrix


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
