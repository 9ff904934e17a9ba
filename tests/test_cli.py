"""Command-line front end: subcommands, exit codes, certificates, determinism."""

import json

import pytest

from gammak0.cli import main
from gammak0 import (
    cyclic_group,
    dihedral_group,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from gammak0 import serialize as io
from conftest import simplicial_over


def write(tmp_path, name, kind, payload):
    path = tmp_path / name
    path.write_text(json.dumps({"kind": kind, "payload": payload}), encoding="utf-8")
    return str(path)


def z2_payload():
    return io.group_to_json(cyclic_group(2))


def simplicial_payload(rank=1, delta_gens=()):
    return {"group": z2_payload(), "delta_gens": list(delta_gens), "rank": rank}


def test_check_simplicial(tmp_path, capsys):
    path = write(tmp_path, "s.json", "simplicial", simplicial_payload(rank=2))
    assert main(["check-simplicial", path]) == 0
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "normal: True" in out


def test_check_simplicial_wrong_kind(tmp_path, capsys):
    path = write(tmp_path, "s.json", "group", z2_payload())
    assert main(["check-simplicial", path]) == 2


def test_k0_report(tmp_path, capsys):
    payload = {
        "group": z2_payload(),
        "delta_gens": [],
        "components": [{"size": 3, "shifts": [0, 0, 1]}],
    }
    path = write(tmp_path, "ring.json", "ring", payload)
    assert main(["k0", path]) == 0
    out = capsys.readouterr().out
    assert "rank: 1" in out
    assert "[[2, 1]]" in out


def test_realize_with_unit_flag(tmp_path, capsys):
    path = write(tmp_path, "s.json", "simplicial", simplicial_payload(rank=1))
    cert = tmp_path / "ring.json"
    assert main(["--cert", str(cert), "realize", path, "--unit", "[2,1]"]) == 0
    out = capsys.readouterr().out
    assert "M3(1,1,x)" in out
    data = json.loads(cert.read_text())
    assert data["components"] == [{"size": 3, "shifts": [0, 0, 1]}]


def test_sdp_witness_cert_reverifies(tmp_path, capsys):
    payload = {
        "simplicial": simplicial_payload(rank=2),
        "coeffs": [
            {"coeffs": {"0": 1, "1": 1}},
            {"coeffs": {"0": -1, "1": -1}},
            {"coeffs": {"0": -1}},
        ],
        "vectors": [
            [[1, 0], [2, 0]],
            [[0, 1], [0, 1]],
            [[0, 0], [1, 1]],
        ],
    }
    path = write(tmp_path, "rel.json", "relation", payload)
    cert = tmp_path / "w.json"
    assert main(["--cert", str(cert), "sdp-witness", path]) == 0
    data = json.loads(cert.read_text())
    assert data["m"] == 2
    # closed loop: the emitted certificate verifies independently
    group = io.simplicial_from_json(payload["simplicial"])
    a = [io.ring_elt_from_json(group.space.parent, c) for c in payload["coeffs"]]
    x = [io.vector_from_json(group, v) for v in payload["vectors"]]
    from gammak0 import SdpWitness

    w = SdpWitness(
        m=data["m"],
        b=tuple(
            tuple(io.ring_elt_from_json(group.space.parent, e) for e in row)
            for row in data["b"]
        ),
        y=tuple(io.vector_from_json(group, yj) for yj in data["y"]),
    )
    assert verify_sdp_witness(group, a, x, w)


def test_unperf_witness_and_m1_refutation(tmp_path, capsys):
    payload = {
        "simplicial": simplicial_payload(rank=2),
        "a": {"coeffs": {"0": 1, "1": 1}},
        "x": [[1, -1], [2, -1]],
    }
    path = write(tmp_path, "u.json", "relation", payload)
    cert = tmp_path / "w.json"
    assert main(["--cert", str(cert), "unperf-witness", path]) == 0
    data = json.loads(cert.read_text())
    assert data["m"] == 2
    group = io.simplicial_from_json(payload["simplicial"])
    a = io.ring_elt_from_json(group.space.parent, payload["a"])
    x = io.vector_from_json(group, payload["x"])
    from gammak0 import UnperfWitness

    w = UnperfWitness(
        m=data["m"],
        b=tuple(io.ring_elt_from_json(group.space.parent, e) for e in data["b"]),
        y=tuple(io.vector_from_json(group, yj) for yj in data["y"]),
    )
    assert verify_unperforation_witness(group, a, x, w)
    # the bounded single-term search refutes
    assert main(["unperf-witness", path, "--m1"]) == 1


def test_shen_command(tmp_path, capsys):
    payload = {
        "source": simplicial_payload(rank=1),
        "target": simplicial_payload(rank=1),
        "columns": [[[1, 1]]],
    }
    path = write(tmp_path, "hom.json", "hom", payload)
    assert main(["shen", path]) == 0
    out = capsys.readouterr().out
    assert "factored through rank 1" in out


def test_graded_iso_exit_codes(tmp_path):
    ring = {
        "group": z2_payload(),
        "delta_gens": [],
        "components": [{"size": 2, "shifts": [0, 1]}],
    }
    ring_flip = {
        "group": z2_payload(),
        "delta_gens": [],
        "components": [{"size": 2, "shifts": [1, 0]}],
    }
    ring_other = {
        "group": z2_payload(),
        "delta_gens": [],
        "components": [{"size": 2, "shifts": [0, 0]}],
    }
    a = write(tmp_path, "a.json", "ring", ring)
    b = write(tmp_path, "b.json", "ring", ring_flip)
    c = write(tmp_path, "c.json", "ring", ring_other)
    assert main(["graded-iso", a, b]) == 0
    assert main(["graded-iso", a, c]) == 1


def tower_payload(mode="interval"):
    return {
        "group": z2_payload(),
        "delta_gens": [],
        "ranks": [1, 1],
        "maps": [{"columns": [[[1, 1]]]}],
        "units": [[[1, 0]], [[1, 1]]],
        "mode": mode,
    }


def test_realize_tower_command(tmp_path, capsys):
    path = write(tmp_path, "t.json", "tower", tower_payload(mode="unit"))
    assert main(["realize-tower", path]) == 0
    out = capsys.readouterr().out
    assert "M1(1)" in out and "M2(1,x)" in out


def test_extend_command(tmp_path, capsys):
    path = write(tmp_path, "t.json", "tower", tower_payload())
    assert main(["extend", path]) == 0
    out = capsys.readouterr().out
    assert "commuting squares verified" in out


def test_colimit_eq_command(tmp_path):
    payload = tower_payload()
    payload["p"] = {"level": 0, "value": [[1, -1]]}
    payload["q"] = {"level": 0, "value": [[0, 0]]}
    path = write(tmp_path, "t.json", "tower", payload)
    assert main(["--horizon", "2", "colimit-eq", path]) == 0

    payload["p"] = {"level": 0, "value": [[1, 0]]}
    path2 = write(tmp_path, "t2.json", "tower", payload)
    assert main(["--horizon", "1", "colimit-eq", path2]) == 2  # undecided


def test_colimit_eq_not_equal(tmp_path):
    payload = {
        "group": z2_payload(),
        "delta_gens": [],
        "ranks": [1, 1],
        "maps": [{"columns": [[[1, 0]]]}],  # identity
        "p": {"level": 0, "value": [[1, 0]]},
        "q": {"level": 0, "value": [[2, 0]]},
    }
    path = write(tmp_path, "t.json", "tower", payload)
    assert main(["--horizon", "1", "colimit-eq", path]) == 1


def test_ext_sdp_command(tmp_path):
    payload = {
        "simplicial": {"group": z2_payload(), "delta_gens": [0, 1], "rank": 1},
        "unit": [[1]],
        "coeffs": [{"coeffs": {"0": 1}}, {"coeffs": {"0": -1}}],
        "pairs": [
            {"x": [[0]], "t": [1]},
            {"x": [[0]], "t": [1]},
        ],
    }
    path = write(tmp_path, "e.json", "extension", payload)
    assert main(["ext-sdp-witness", path]) == 0


def test_schema_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["k0", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["k0", str(missing)]) == 2
    wrong = write(tmp_path, "w.json", "ring", {"group": z2_payload()})
    assert main(["k0", wrong]) == 2


@pytest.mark.parametrize(
    "command, kind, payload",
    [
        ("check-simplicial", "simplicial", simplicial_payload(delta_gens=["a"])),
        (
            "k0",
            "ring",
            {"group": z2_payload(), "delta_gens": [], "components": [{"size": 1, "shifts": ["x"]}]},
        ),
        ("check-simplicial", "simplicial", simplicial_payload(rank=True)),
    ],
    ids=["delta_gens_str", "shifts_str", "rank_bool"],
)
def test_non_integer_fields_exit_2(tmp_path, capsys, command, kind, payload):
    path = write(tmp_path, "p.json", kind, payload)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_output_is_deterministic(tmp_path, capsys):
    payload = {
        "group": z2_payload(),
        "delta_gens": [],
        "components": [{"size": 3, "shifts": [0, 0, 1]}],
    }
    path = write(tmp_path, "ring.json", "ring", payload)
    main(["--json", "k0", path])
    first = capsys.readouterr().out
    main(["--json", "k0", path])
    second = capsys.readouterr().out
    assert first == second


def test_json_flag_emits_json(tmp_path, capsys):
    path = write(tmp_path, "s.json", "simplicial", simplicial_payload(rank=1))
    assert main(["--json", "check-simplicial", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 1


def test_names_used_in_reports(tmp_path, capsys):
    d3 = dihedral_group(3)
    payload = {
        "group": io.group_to_json(d3),
        "delta_gens": [3],
        "rank": 1,
    }
    path = write(tmp_path, "s.json", "simplicial", payload)
    assert main(["check-simplicial", path]) == 0
    out = capsys.readouterr().out
    assert "'b'" in out  # element names from the descriptor appear


def test_extend_rejects_unit_mode_tower(tmp_path):
    path = write(tmp_path, "t.json", "tower", tower_payload(mode="unit"))
    assert main(["extend", path]) == 2


def test_tower_units_without_mode_is_schema_error(tmp_path):
    payload = tower_payload()
    payload["mode"] = "none"
    path = write(tmp_path, "t.json", "tower", payload)
    assert main(["realize-tower", path]) == 2
