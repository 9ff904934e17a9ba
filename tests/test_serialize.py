"""Round trips and schema validation for the JSON formats."""

import json

import pytest

from gammak0 import SchemaError, cyclic_group, dihedral_group, map_new, tower_new
from gammak0 import serialize as io
from conftest import simplicial_over


def test_group_round_trip():
    g = dihedral_group(3)
    assert io.group_from_json(io.group_to_json(g)) == g


def test_simplicial_round_trip():
    G = simplicial_over(dihedral_group(3), [3], 2)
    assert io.simplicial_from_json({**io.space_to_json(G.space), "rank": 2}) == G


def test_vector_round_trip():
    G = simplicial_over(cyclic_group(2), [], 2)
    v = G.element([[1, -2], [0, 3]])
    assert io.vector_from_json(G, io.vector_to_json(v)) == v


def test_flat_vector_accepted_for_rank_one():
    G = simplicial_over(cyclic_group(2), [], 1)
    assert io.vector_from_json(G, [2, 1]) == G.element([[2, 1]])


def test_ring_elt_round_trip():
    from gammak0 import GroupRingElt

    g = cyclic_group(4)
    a = GroupRingElt(g, {0: 2, 3: -1})
    assert io.ring_elt_from_json(g, io.ring_elt_to_json(a)) == a


def test_tower_round_trip():
    G = simplicial_over(cyclic_group(2), [], 1)
    m = map_new(G, G, [G.element([[1, 1]])])
    t = tower_new(
        [G, G], [m], units=[G.element([[1, 0]]), G.element([[1, 1]])], mode="interval"
    )
    data = {
        **io.space_to_json(G.space),
        "ranks": [1, 1],
        "maps": [io.map_to_json(m)],
        "mode": "interval",
        "units": [io.vector_to_json(u) for u in t.units],
    }
    t2 = io.tower_from_json(data)
    assert t2.groups == t.groups
    assert t2.maps == t.maps
    assert t2.units == t.units
    assert t2.mode == "interval"


def test_schema_rejections():
    g = cyclic_group(2)
    G = simplicial_over(g, [], 1)
    with pytest.raises(SchemaError):
        io.group_from_json({"order": 2, "mul": [[0, 1]]})
    with pytest.raises(SchemaError):
        io.vector_from_json(G, [[1, 2, 3]])
    with pytest.raises(SchemaError):
        io.ring_elt_from_json(g, {"coeffs": {"9": 1}})
    with pytest.raises(SchemaError):
        io.ring_elt_from_json(g, {"coeffs": {"bad": 1}})
    with pytest.raises(SchemaError):
        io.simplicial_from_json({"group": io.group_to_json(g), "delta_gens": [], "rank": -1})


def test_problem_file_kind_checked(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"kind": "nonsense", "payload": {}}', encoding="utf-8")
    with pytest.raises(SchemaError):
        io.load_problem(path, "group")


def test_dump_json_is_compact_canonical():
    data = {"z": {"names": ["é", "σ²"], "mul": [[0, 1], [1, 0]]}, "a": [{"y": -3, "x": "τ"}], "m": None}
    out = io.dump_json(data)
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert out.count("\n") == 1 and out.endswith("\n")
    assert " " not in out
    assert json.loads(out) == data
