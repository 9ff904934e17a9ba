"""JSON schemas for problem files and certificates.

A problem file is ``{"kind": ..., "payload": ...}``.  All loaders raise
``SchemaError`` with a readable message on malformed input, including JSON
nested too deeply to decode; all dumpers emit plain dict/list/int structures.
``dump_json`` writes them canonically: one line of sorted-key JSON with no
spaces, ending in a newline, which keeps ``json`` on its C encoder.  Pipe the
output through ``python -m json.tool`` to read it indented.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path
from typing import Any

from .errors import SchemaError, ShapeMismatch
from .extension import ExtendedGroup
from .finite_group import CosetSpace, FiniteGroup, _all_ints, _is_int, coset_space, group_from_table, subgroup_closure
from .gamma_maps import GammaLinearMap, map_new
from .graded_matricial import MatricialRingDesc, matricial_ring
from .group_ring import GroupRingElt
from .hom_realization import HomSpec
from .limits import ColimitElt, Tower, tower_new
from .ordered_simplicial import GammaVector, SimplicialGroup
from .sdp_engine import SdpWitness
from .shen import ShenFactorization

PROBLEM_KINDS = ("group", "simplicial", "relation", "tower", "ring", "hom", "extension")


def _need(payload: Any, key: str, context: str) -> Any:
    if not isinstance(payload, dict):
        raise SchemaError(f"{context}: expected an object with key {key!r}")
    if key not in payload:
        raise SchemaError(f"{context}: missing key {key!r}")
    return payload[key]


def parse_json(text: str, context: str) -> Any:
    """``json.loads`` that reports invalid or too deeply nested input as ``SchemaError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{context}: invalid JSON ({exc})")
    except RecursionError:
        raise SchemaError(f"{context}: JSON nested too deeply to decode")


def load_problem(path: str | Path, expected_kind: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}")
    data = parse_json(text, str(path))
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: problem file must be a JSON object")
    kind = _need(data, "kind", str(path))
    if kind not in PROBLEM_KINDS:
        raise SchemaError(f"{path}: unknown kind {kind!r}")
    if kind != expected_kind:
        raise SchemaError(f"{path}: expected kind {expected_kind!r}, found {kind!r}")
    payload = _need(data, "payload", str(path))
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: payload must be a JSON object")
    return payload


# -- groups -------------------------------------------------------------------


def group_to_json(group: FiniteGroup) -> dict:
    out: dict[str, Any] = {"order": group.order, "mul": [list(r) for r in group.mul]}
    if group.names is not None:
        out["names"] = list(group.names)
    return out


def group_from_json(payload: dict) -> FiniteGroup:
    table = _need(payload, "mul", "group")
    order = _need(payload, "order", "group")
    if not _is_int(order):
        raise SchemaError("group: order must be an integer")
    if not isinstance(table, list) or len(table) != order:
        raise SchemaError("group: mul table size disagrees with order")
    names = payload.get("names")
    if "names" in payload and not (
        isinstance(names, list)
        and all(isinstance(s, str) for s in names)
        and len(set(names)) == len(names) == order
    ):
        raise SchemaError(f"group: names must be a list of {order} distinct strings")
    try:
        return group_from_table(table, names=names)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"group: {exc}")


def space_from_json(payload: dict, context: str = "simplicial") -> CosetSpace:
    group = group_from_json(_need(payload, "group", context))
    gens = _need(payload, "delta_gens", context)
    if not isinstance(gens, list) or not _all_ints(gens):
        raise SchemaError(f"{context}: delta_gens must be a list of integers")
    try:
        sub = subgroup_closure(group, gens)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}")
    return coset_space(group, sub)


def space_to_json(space: CosetSpace) -> dict:
    return {"group": group_to_json(space.parent), "delta_gens": list(space.sub.members)}


# -- simplicial groups and their elements --------------------------------------


def simplicial_from_json(payload: dict, space: CosetSpace | None = None) -> SimplicialGroup:
    """The simplicial group of ``payload``; a given ``space`` stands in for its
    ``group`` and ``delta_gens``, which the caller found equal to that space's JSON."""
    if space is None:
        space = space_from_json(payload)
    rank = _need(payload, "rank", "simplicial")
    if not _is_int(rank) or rank < 0:
        raise SchemaError("simplicial: rank must be a nonnegative integer")
    return SimplicialGroup(space, rank)


def vector_from_json(group: SimplicialGroup, data: Any, context: str = "vector") -> GammaVector:
    if not isinstance(data, list):
        raise SchemaError(f"{context}: expected a list")
    nc = group.space.num_cosets
    if group.rank == 1 and data and _all_ints(data):
        data = [data]
    if len(data) != group.rank:
        raise SchemaError(f"{context}: expected {group.rank} coordinates")
    for row in data:
        if not isinstance(row, list) or len(row) != nc or not _all_ints(row):
            raise SchemaError(f"{context}: each coordinate needs {nc} integers")
    return GammaVector(group, tuple(x for row in data for x in row))


def vector_to_json(v: GammaVector) -> list:
    return [list(v.coord(i)) for i in range(v.group.rank)]


def ring_elt_from_json(group: FiniteGroup, data: Any, context: str = "coefficient") -> GroupRingElt:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise SchemaError(f"{context}: expected an object with a 'coeffs' key")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, dict):
        raise SchemaError(f"{context}: coeffs must map element indices to integers")
    parsed = {}
    for key, val in coeffs.items():
        try:
            g = int(key)
        except ValueError:
            g = None
        if g is None or str(g) != key:  # canonical decimal only: no "01", " 1", "+1", "0_1"
            raise SchemaError(f"{context}: bad element index {key!r}")
        if not _is_int(val):
            raise SchemaError(f"{context}: bad coefficient {val!r}")
        if g < 0 or g >= group.order:
            raise SchemaError(f"{context}: element index {g} out of range")
        parsed[g] = val
    return GroupRingElt._of(group, parsed)


def ring_elt_to_json(a: GroupRingElt) -> dict:
    return {"coeffs": {str(g): k for g, k in a.items()}}


def map_from_json(
    source: SimplicialGroup, target: SimplicialGroup, data: Any, context: str = "map"
) -> GammaLinearMap:
    if not isinstance(data, dict) or "columns" not in data:
        raise SchemaError(f"{context}: expected an object with a 'columns' key")
    cols_data = data["columns"]
    if not isinstance(cols_data, list) or len(cols_data) != source.rank:
        raise SchemaError(f"{context}: expected {source.rank} columns")
    cols = [vector_from_json(target, c, context=f"{context} column") for c in cols_data]
    return map_new(source, target, cols)


def map_to_json(f: GammaLinearMap) -> dict:
    return {"columns": [vector_to_json(c) for c in f.columns]}


# -- relations -----------------------------------------------------------------


def relation_from_json(payload: dict) -> tuple[SimplicialGroup, list[GroupRingElt], list[GammaVector]]:
    group = simplicial_from_json(_need(payload, "simplicial", "relation"))
    coeffs_data = _need(payload, "coeffs", "relation")
    vectors_data = _need(payload, "vectors", "relation")
    if not isinstance(coeffs_data, list) or not isinstance(vectors_data, list):
        raise SchemaError("relation: coeffs and vectors must be lists")
    if len(coeffs_data) != len(vectors_data):
        raise SchemaError("relation: coeffs and vectors must have equal length")
    a = [ring_elt_from_json(group.space.parent, c) for c in coeffs_data]
    x = [vector_from_json(group, v) for v in vectors_data]
    return group, a, x


def unperf_from_json(payload: dict) -> tuple[SimplicialGroup, GroupRingElt, GammaVector]:
    group = simplicial_from_json(_need(payload, "simplicial", "relation"))
    a = ring_elt_from_json(group.space.parent, _need(payload, "a", "relation"))
    x = vector_from_json(group, _need(payload, "x", "relation"))
    return group, a, x


# -- towers ---------------------------------------------------------------------


def tower_from_json(payload: dict) -> Tower:
    space = space_from_json(payload, context="tower")
    ranks = _need(payload, "ranks", "tower")
    if not isinstance(ranks, list) or not _all_ints(ranks) or min(ranks, default=0) < 0:
        raise SchemaError("tower: ranks must be a list of nonnegative integers")
    groups = [SimplicialGroup(space, r) for r in ranks]
    maps_data = _need(payload, "maps", "tower")
    if not isinstance(maps_data, list) or len(maps_data) != len(groups) - 1:
        raise SchemaError("tower: need one map per adjacent pair of levels")
    maps = [
        map_from_json(groups[n], groups[n + 1], m, context=f"tower map {n}")
        for n, m in enumerate(maps_data)
    ]
    mode = payload.get("mode", "none")
    units = None
    if "units" in payload and payload["units"] is not None:
        units_data = payload["units"]
        if not isinstance(units_data, list) or len(units_data) != len(groups):
            raise SchemaError("tower: one unit per level required")
        units = [vector_from_json(g, u, context="tower unit") for g, u in zip(groups, units_data)]
    repeat_last = payload.get("repeat_last", False)
    if not isinstance(repeat_last, bool):
        raise SchemaError("tower: repeat_last must be true or false")
    try:
        return tower_new(groups, maps, units=units, mode=mode, repeat_last=repeat_last)
    except ValueError as exc:
        raise SchemaError(f"tower: {exc}")


def colimit_elt_from_json(t: Tower, data: Any, context: str = "element") -> ColimitElt:
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected an object with 'level' and 'value'")
    level = _need(data, "level", context)
    if not _is_int(level) or level < 0:
        raise SchemaError(f"{context}: level must be a nonnegative integer")
    try:
        group = t.group_at(level)
    except ShapeMismatch:
        raise SchemaError(f"{context}: level {level} beyond the tower")
    value = vector_from_json(group, _need(data, "value", context), context=context)
    return ColimitElt(level=level, value=value)


# -- rings ------------------------------------------------------------------------


def ring_from_json(payload: dict) -> MatricialRingDesc:
    space = space_from_json(payload, context="ring")
    comps_data = _need(payload, "components", "ring")
    if not isinstance(comps_data, list):
        raise SchemaError("ring: components must be a list")
    comps = []
    for c in comps_data:
        if not isinstance(c, dict):
            raise SchemaError("ring: each component is an object")
        size = _need(c, "size", "ring component")
        shifts = _need(c, "shifts", "ring component")
        if (
            not _is_int(size)
            or not isinstance(shifts, list)
            or not _all_ints(shifts)
        ):
            raise SchemaError("ring: component size/shifts malformed")
        comps.append((size, shifts))
    try:
        return matricial_ring(space, comps)
    except ValueError as exc:
        raise SchemaError(f"ring: {exc}")


def ring_to_json(ring: MatricialRingDesc) -> dict:
    """One shift per diagonal slot, in the ring's slot order: rep_c^{-1} for
    each slot of class c."""
    out = space_to_json(ring.space)
    reps, inv = ring.space.reps, ring.space.parent.inv
    out["components"] = [
        {"size": c.size, "shifts": list(chain.from_iterable(repeat(inv[reps[cls]], k) for cls, k in classes))}
        for c, classes in zip(ring.components, ring.slot_classes())
    ]
    return out


# -- homs (class maps between simplicial groups) -----------------------------------


def hom_from_json(payload: dict) -> GammaLinearMap:
    source_payload = _need(payload, "source", "hom")
    source = simplicial_from_json(source_payload)
    target_payload = _need(payload, "target", "hom")
    # the same JSON text (so 1, 1.0 and true differ) describes the source's checked space
    if isinstance(target_payload, dict) and all(
        key in target_payload and json.dumps(target_payload[key]) == json.dumps(source_payload[key])
        for key in ("group", "delta_gens")
    ):
        target = simplicial_from_json(target_payload, source.space)
    else:
        target = simplicial_from_json(target_payload)
        if source.space != target.space:
            raise SchemaError("hom: source and target must share group and stabilizer")
    return map_from_json(source, target, {"columns": _need(payload, "columns", "hom")})


# -- extensions ---------------------------------------------------------------------


def ext_relation_from_json(payload: dict) -> tuple[ExtendedGroup, list[GroupRingElt], list[GammaVector]]:
    group = simplicial_from_json(_need(payload, "simplicial", "extension"))
    unit = vector_from_json(group, _need(payload, "unit", "extension"), context="extension unit")
    ext = ExtendedGroup(base=group, unit=unit)
    coeffs, pairs = payload.get("coeffs"), payload.get("pairs")
    if not isinstance(coeffs, list) or not isinstance(pairs, list):
        raise SchemaError("extension: relation needs 'coeffs' and 'pairs'")
    a = [ring_elt_from_json(group.space.parent, c) for c in coeffs]
    return ext, a, [ext_elt_from_json(ext, p) for p in pairs]


def ext_elt_from_json(ext: ExtendedGroup, data: Any, context: str = "pair") -> GammaVector:
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected an object with 'x' and 't'")
    x = vector_from_json(ext.base, _need(data, "x", context), context=context)
    t_data = _need(data, "t", context)
    nc = ext.base.space.num_cosets
    if not isinstance(t_data, list) or len(t_data) != nc or not _all_ints(t_data):
        raise SchemaError(f"{context}: t needs {nc} integers")
    return ext.element(x, t_data)


def ext_elt_to_json(ext: ExtendedGroup, e: GammaVector) -> dict:
    x, t = ext.split(e)
    return {"x": vector_to_json(x), "t": list(t)}


# -- certificates ---------------------------------------------------------------------


def sdp_witness_to_json(w: SdpWitness, ext: ExtendedGroup | None = None) -> dict:
    """Witness as JSON; pass ``ext`` when the targets are extension elements."""
    return {
        "m": w.m,
        "b": [[ring_elt_to_json(entry) for entry in row] for row in w.b],
        "y": [vector_to_json(yj) if ext is None else ext_elt_to_json(ext, yj) for yj in w.y],
    }


def unperf_witness_to_json(w: SdpWitness) -> dict:
    return {
        "m": w.m,
        "b": [ring_elt_to_json(entry) for entry in w.b[0]],
        "y": [vector_to_json(yj) for yj in w.y],
    }


def shen_to_json(f: ShenFactorization) -> dict:
    return {
        "middle_rank": f.middle.rank,
        "g12": map_to_json(f.g12),
        "g2": map_to_json(f.g2),
    }


def hom_spec_to_json(spec: HomSpec) -> dict:
    return {
        "matrix": map_to_json(spec.matrix),
        "unital": spec.unital,
        "certificate": [
            {
                "target_component": c.target_component,
                "source_component": c.source_component,
                "twist_coset": c.twist_coset,
                "slot_map": [*chain(*c.slot_map)],
            }
            for c in spec.certificate
        ],
    }


def dump_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
