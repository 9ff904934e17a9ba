"""Command-line front end: subcommands, exit codes, certificates, determinism."""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gammak0

from gammak0.cli import build_parser, main
from gammak0 import (
    FiniteGroup,
    GammaVector,
    SdpWitness,
    Verdict,
    cyclic_group,
    dihedral_group,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from gammak0 import serialize as io


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


def sdp_relation_payload():
    return {
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


def test_sdp_witness_cert_reverifies(tmp_path, capsys):
    payload = sdp_relation_payload()
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


def perforated_payload():
    """The perforated pair: witnessed in general, refuted by the --m1 search."""
    return {
        "simplicial": simplicial_payload(rank=2),
        "a": {"coeffs": {"0": 1, "1": 1}},
        "x": [[1, -1], [2, -1]],
    }


def test_unperf_witness_and_m1_refutation(tmp_path, capsys):
    payload = perforated_payload()
    path = write(tmp_path, "u.json", "relation", payload)
    cert = tmp_path / "w.json"
    assert main(["--cert", str(cert), "unperf-witness", path]) == 0
    data = json.loads(cert.read_text())
    assert data["m"] == 2
    group = io.simplicial_from_json(payload["simplicial"])
    a = io.ring_elt_from_json(group.space.parent, payload["a"])
    x = io.vector_from_json(group, payload["x"])
    w = SdpWitness(
        m=data["m"],
        b=(tuple(io.ring_elt_from_json(group.space.parent, e) for e in data["b"]),),
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


def test_realize_tower_names_the_failed_clause(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gammak0.cli, "verify_hom_spec", lambda spec: Verdict(False, "reused_slot"))
    path = write(tmp_path, "t.json", "tower", tower_payload(mode="unit"))
    assert main(["realize-tower", path]) == 2
    assert capsys.readouterr().err == "spec 0 failed certificate verification: reused_slot\n"


def test_extend_command(tmp_path, capsys):
    path = write(tmp_path, "t.json", "tower", tower_payload())
    assert main(["extend", path]) == 0
    out = capsys.readouterr().out
    assert "connecting maps positive by construction" in out


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


def test_colimit_eq_horizon_of_a_billion_on_a_repeating_tower(tmp_path, capsys):
    # the repeated map 2*id never identifies e1 with 0; the walk stops after a few levels
    payload = {
        "group": z2_payload(),
        "delta_gens": [],
        "ranks": [1, 1],
        "maps": [{"columns": [[[2, 0]]]}],
        "repeat_last": True,
        "p": {"level": 0, "value": [[1, 0]]},
        "q": {"level": 0, "value": [[0, 0]]},
    }
    path = write(tmp_path, "t.json", "tower", payload)
    assert main(["--json", "--horizon", str(10**9), "colimit-eq", path]) == 1
    assert json.loads(capsys.readouterr().out) == {"kind": "not_equal_up_to", "level": 10**9, "reason": ""}


def ext_payload(t=1):
    return {
        "simplicial": {"group": z2_payload(), "delta_gens": [0, 1], "rank": 1},
        "unit": [[1]],
        "coeffs": [{"coeffs": {"0": 1}}, {"coeffs": {"0": -1}}],
        "pairs": [
            {"x": [[0]], "t": [t]},
            {"x": [[0]], "t": [1]},
        ],
    }


def test_ext_sdp_command(tmp_path):
    payload = ext_payload()
    path = write(tmp_path, "e.json", "extension", payload)
    assert main(["ext-sdp-witness", path]) == 0


@pytest.mark.parametrize(
    "payload, message",
    [
        (dict(ext_payload(), coeffs=[{"coeffs": {"0": 1}}]), "coefficient and vector counts differ"),
        (ext_payload(t=-1), "relation vectors must lie in the cone"),
        (ext_payload(t=2), "relation does not sum to zero"),
    ],
    ids=["counts", "cone", "sum"],
)
def test_ext_sdp_relation_errors_exit_2(tmp_path, capsys, payload, message):
    path = write(tmp_path, "e.json", "extension", payload)
    assert main(["ext-sdp-witness", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_unwritable_cert_path_exits_2(tmp_path, capsys, flags):
    path = write(tmp_path, "s.json", "simplicial", simplicial_payload())
    assert main([*flags, "--cert", str(tmp_path / "missing" / "cert.json"), "check-simplicial", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_directory_as_problem_path_exits_2(tmp_path, capsys):
    assert main(["check-simplicial", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
        ("shen", "hom", {"source": 3, "target": simplicial_payload(), "columns": [[[1, 0]]]}),
        ("sdp-witness", "relation", {"simplicial": 7, "coeffs": [], "vectors": []}),
        ("colimit-eq", "tower", {"group": 5, "delta_gens": [], "ranks": [1], "maps": []}),
        ("extend", "tower", dict(tower_payload(), repeat_last="no")),
    ],
    ids=["delta_gens_str", "shifts_str", "rank_bool", "source_number", "simplicial_number",
         "group_number", "repeat_last_str"],
)
def test_non_integer_fields_exit_2(tmp_path, capsys, command, kind, payload):
    path = write(tmp_path, "p.json", kind, payload)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "names",
    ["ab", [1, None], ["e", "e"], ["1"], None],
    ids=["string", "non_strings", "repeated", "short", "null"],
)
def test_bad_group_names_exit_2(tmp_path, capsys, names):
    group = dict(z2_payload(), names=names)
    path = write(tmp_path, "s.json", "simplicial", dict(simplicial_payload(), group=group))
    assert main(["check-simplicial", path]) == 2
    assert capsys.readouterr().err == "error: group: names must be a list of 2 distinct strings\n"


def test_deeply_nested_problem_file_exits_2(tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "simplicial", "payload": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(["check-simplicial", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: JSON nested too deeply to decode\n")


def test_deeply_nested_unit_flag_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.json", "simplicial", simplicial_payload())
    depth = 5000
    assert main(["realize", path, "--unit", "[" * depth + "]" * depth]) == 2
    assert capsys.readouterr() == ("", "error: --unit: JSON nested too deeply to decode\n")


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def crash(group):
        raise RuntimeError("boom")

    monkeypatch.setattr(gammak0.cli, "group_stabilizer", crash)
    path = write(tmp_path, "s.json", "simplicial", simplicial_payload())
    assert main(["check-simplicial", path]) == 3
    assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")

    def interrupt(group):
        raise KeyboardInterrupt

    # only Exception is caught: a BaseException such as a time budget still propagates
    monkeypatch.setattr(gammak0.cli, "group_stabilizer", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["check-simplicial", path])


@pytest.mark.parametrize("key", ["01", " 1", "+1", "0_1"])
def test_non_canonical_element_key_exits_2(tmp_path, capsys, key):
    # int() reads each of these as element 1; only the canonical "1" names it
    payload = dict(perforated_payload(), a={"coeffs": {"0": 1, key: 1}})
    path = write(tmp_path, "u.json", "relation", payload)
    assert main(["unperf-witness", path]) == 2
    assert capsys.readouterr().err == f"error: coefficient: bad element index {key!r}\n"


def hom_payload(column):
    return {
        "source": simplicial_payload(rank=1),
        "target": simplicial_payload(rank=1),
        "columns": [[column]],
    }


def hom_with_target(target, source=None):
    return {"source": source or simplicial_payload(rank=1), "target": target, "columns": [[[1, 0]]]}


@pytest.mark.parametrize(
    "target, message",
    [
        ({"group": io.group_to_json(cyclic_group(3)), "delta_gens": [], "rank": 1},
         "hom: source and target must share group and stabilizer"),
        (simplicial_payload(rank=1, delta_gens=[1]), "hom: source and target must share group and stabilizer"),
        # equal to the source's group as Python values, but not as JSON
        (dict(simplicial_payload(), group=dict(z2_payload(), mul=[[0, True], [True, 0]])),
         "group: table entry True out of range"),
        (dict(simplicial_payload(), group=dict(z2_payload(), order=2.0)), "group: order must be an integer"),
        ({"group": z2_payload(), "delta_gens": []}, "simplicial: missing key 'rank'"),
        (simplicial_payload(rank=-1), "simplicial: rank must be a nonnegative integer"),
        (simplicial_payload(rank=True), "simplicial: rank must be a nonnegative integer"),
        ([], "simplicial: expected an object with key 'group'"),
    ],
    ids=["other_group", "other_stabilizer", "table_bool", "order_float", "rank_missing", "rank_negative",
         "rank_bool", "target_list"],
)
def test_hom_target_errors_exit_2(tmp_path, capsys, target, message):
    path = write(tmp_path, "hom.json", "hom", hom_with_target(target))
    assert main(["shen", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_hom_target_repeating_the_source_reuses_its_coset_space(monkeypatch):
    calls = []
    space_from_json = io.space_from_json
    monkeypatch.setattr(io, "space_from_json", lambda *a: calls.append(a) or space_from_json(*a))
    source = {"group": io.group_to_json(cyclic_group(4)), "delta_gens": [0, 2], "rank": 1}
    same = io.hom_from_json(hom_with_target(source, source))
    assert len(calls) == 1 and same.target.space is same.source.space
    # the stabilizer listed in another order is other JSON: it is built again, and accepted
    reordered = io.hom_from_json(hom_with_target(dict(source, delta_gens=[2, 0]), source))
    assert len(calls) == 3 and reordered == same


def ring_payload(*components):
    return {
        "group": z2_payload(),
        "delta_gens": [],
        "components": [{"size": len(shifts), "shifts": shifts} for shifts in components],
    }


@pytest.mark.parametrize(
    "command, kind, payload, extra, message",
    [
        ("realize", "simplicial", simplicial_payload(), ["--unit", "[[true, 2]]"],
         "--unit: each coordinate needs 2 integers"),
        (
            "check-simplicial",
            "simplicial",
            dict(simplicial_payload(), group={"order": 2, "mul": [[False, True], [True, False]]}),
            [],
            "group: table entry False out of range",
        ),
        ("check-simplicial", "simplicial", dict(simplicial_payload(), group={"order": True, "mul": [[0]]}), [],
         "group: order must be an integer"),
        ("check-simplicial", "simplicial", simplicial_payload(delta_gens=[True]), [],
         "simplicial: delta_gens must be a list of integers"),
        ("extend", "tower", dict(tower_payload(), ranks=[1, True]), [],
         "tower: ranks must be a list of nonnegative integers"),
        ("shen", "hom", hom_payload([True, 1]), [], "map column: each coordinate needs 2 integers"),
        ("shen", "hom", dict(hom_payload(None), columns=[[True, 1]]), [], "map column: expected 1 coordinates"),
        ("k0", "ring", ring_payload([0, True]), [], "ring: component size/shifts malformed"),
        (
            "colimit-eq",
            "tower",
            dict(tower_payload(), p={"level": True, "value": [[1, 0]]}, q={"level": 0, "value": [[1, 0]]}),
            [],
            "p: level must be a nonnegative integer",
        ),
        (
            "sdp-witness",
            "relation",
            {"simplicial": simplicial_payload(), "coeffs": [{"coeffs": {"0": True}}], "vectors": [[[0, 0]]]},
            [],
            "coefficient: bad coefficient True",
        ),
        ("ext-sdp-witness", "extension", ext_payload(t=True), [], "pair: t needs 1 integers"),
    ],
    ids=["unit", "mul_table", "order", "delta_gens", "tower_ranks", "map_column", "flat_map_column",
         "shifts", "level", "coefficient", "ext_t"],
)
def test_bool_integer_fields_exit_2(tmp_path, capsys, command, kind, payload, extra, message):
    # lists are checked by the set of their element types, which must still reject bool
    path = write(tmp_path, "p.json", kind, payload)
    assert main([command, path, *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_k0_homog_dim_at_mass_20000(tmp_path, capsys):
    path = write(tmp_path, "ring.json", "ring", ring_payload([0] * 9000 + [1] * 6000, [1] * 5000))
    assert main(["--json", "k0", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["unit_class"] == [[9000, 6000], [0, 5000]]
    assert data["homog_dim_identity"] == 9000**2 + 6000**2 + 5000**2


def nilpotent_tower_payload():
    """Repeating tower e1 -> e2 -> 0 over Z/2: p = e1 and q = 0 agree from level 2 on."""
    return {
        "group": z2_payload(),
        "delta_gens": [],
        "ranks": [2, 2],
        "maps": [{"columns": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}],
        "repeat_last": True,
        "p": {"level": 0, "value": [[1, 0], [0, 0]]},
        "q": {"level": 0, "value": [[0, 0], [0, 0]]},
    }


def colimit_payload(p, q):
    return dict(tower_payload(), p={"level": 0, "value": [p]}, q={"level": 0, "value": [q]})


# (flags, command, problem files, trailing args, exit code) for every subcommand
CLI_CASES = {
    "check-simplicial": ([], "check-simplicial", [("simplicial", simplicial_payload(rank=2))], [], 0),
    "check-simplicial-unit": (
        [], "check-simplicial", [("simplicial", dict(simplicial_payload(), unit=[[1, 1]]))], [], 0
    ),
    "sdp-witness": ([], "sdp-witness", [("relation", sdp_relation_payload())], [], 0),
    "unperf-witness": ([], "unperf-witness", [("relation", perforated_payload())], [], 0),
    "shen": ([], "shen", [("hom", hom_payload([1, 1]))], [], 0),
    "realize": ([], "realize", [("simplicial", simplicial_payload())], ["--unit", "[2,1]"], 0),
    "realize-tower": ([], "realize-tower", [("tower", tower_payload(mode="unit"))], [], 0),
    "k0": ([], "k0", [("ring", ring_payload([0, 0, 1]))], [], 0),
    "graded-iso-true": ([], "graded-iso", [("ring", ring_payload([0, 1])), ("ring", ring_payload([1, 0]))], [], 0),
    "graded-iso-false": ([], "graded-iso", [("ring", ring_payload([0, 1])), ("ring", ring_payload([0, 0]))], [], 1),
    "extend": ([], "extend", [("tower", tower_payload())], [], 0),
    "ext-sdp-witness": ([], "ext-sdp-witness", [("extension", ext_payload())], [], 0),
    "colimit-eq-equal": (["--horizon", "2"], "colimit-eq", [("tower", colimit_payload([1, -1], [0, 0]))], [], 0),
    "colimit-eq-unknown": (["--horizon", "1"], "colimit-eq", [("tower", colimit_payload([1, 0], [0, 0]))], [], 2),
    "colimit-eq-not-equal": (
        ["--horizon", "1"],
        "colimit-eq",
        [("tower", dict(colimit_payload([1, 0], [2, 0]), maps=[{"columns": [[[1, 0]]]}]))],
        [],
        1,
    ),
    "colimit-eq-repeating": ([], "colimit-eq", [("tower", nilpotent_tower_payload())], [], 0),
}


@pytest.mark.parametrize("flags, command, files, extra, code", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_cert_file_equals_json_stdout(tmp_path, capsys, flags, command, files, extra, code):
    paths = [write(tmp_path, f"{n}.json", kind, payload) for n, (kind, payload) in enumerate(files)]
    cert = tmp_path / "cert.json"
    assert main(["--json", "--cert", str(cert), *flags, command, *paths, *extra]) == code
    assert cert.read_bytes() == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("flags, command, files, extra, code", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_json_output_names_no_element(tmp_path, capsys, monkeypatch, flags, command, files, extra, code):
    """Under --json the text report, and with it every element name, is never built."""
    paths = [write(tmp_path, f"{n}.json", kind, payload) for n, (kind, payload) in enumerate(files)]
    argv = ["--json", *flags, command, *paths, *extra]
    assert main(argv) == code
    expected = capsys.readouterr().out
    named = []
    monkeypatch.setattr(FiniteGroup, "name_of", lambda group, g: named.append(g) or str(g))
    assert main(argv) == code
    assert capsys.readouterr().out == expected
    assert named == []


def test_m1_cert_is_the_bare_witness(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    found = write(
        tmp_path,
        "found.json",
        "relation",
        {"simplicial": simplicial_payload(), "a": {"coeffs": {"0": 1}}, "x": [[1, 0]]},
    )
    assert main(["--json", "--cert", str(cert), "unperf-witness", found, "--m1"]) == 0
    witness = json.loads(capsys.readouterr().out)["m1_witness"]
    assert witness["m"] == 1
    assert cert.read_text(encoding="utf-8") == io.dump_json(witness)
    cert.unlink()
    refuted = write(tmp_path, "refuted.json", "relation", perforated_payload())
    assert main(["--json", "--cert", str(cert), "unperf-witness", refuted, "--m1"]) == 1
    assert json.loads(capsys.readouterr().out) == {"m1_witness": None}
    assert not cert.exists()


def test_m1_exit_codes_name_the_answer(tmp_path, capsys):
    """Exit 1 only on an exact refutation; an instance that the box cannot
    decide exits 2 and names its box, with no certificate either way."""
    cert = tmp_path / "cert.json"
    z5 = {"order": 5, "mul": [[(i + j) % 5 for j in range(5)] for i in range(5)]}
    refuted = write(
        tmp_path,
        "z5.json",
        "relation",
        {
            "simplicial": {"group": z5, "delta_gens": [], "rank": 2},
            "a": {"coeffs": {str(g): 1 for g in range(5)}},
            "x": [[1, -1, 0, 0, 0], [1, 0, 0, 0, 0]],
        },
    )
    # its coefficient box would hold 34,420,736 candidates, past the budget
    assert main(["--json", "--cert", str(cert), "unperf-witness", refuted, "--m1"]) == 1
    assert capsys.readouterr().out == '{"m1_witness":null}\n'
    assert main(["unperf-witness", refuted, "--m1"]) == 1
    assert capsys.readouterr().out == "no single-term witness: refuted by the augmentation\n"
    # x = 1 - x has mass 0, so eps(b) = 0 leaves b free: undecided in the box
    undecided = write(
        tmp_path,
        "free.json",
        "relation",
        {"simplicial": simplicial_payload(), "a": {"coeffs": {"0": 1, "1": 2}}, "x": [[1, -1]]},
    )
    assert main(["--json", "--cert", str(cert), "unperf-witness", undecided, "--m1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"m1_witness": None, "box": 4}
    assert main(["unperf-witness", undecided, "--m1"]) == 2
    assert capsys.readouterr().out == "undecided: no single-term witness inside the box of bound 4\n"
    assert not cert.exists()


def test_m1_answers_decided_by_the_augmentation(tmp_path, capsys):
    """The augmentation's own answers through the CLI: a refutation by its
    linear solve, a witness it meets where the box is past the budget, and a
    refutation over a single coset, where b acts through eps(b) alone."""
    cert = tmp_path / "cert.json"
    z5_table = {"order": 5, "mul": [[(i + j) % 5 for j in range(5)] for i in range(5)]}
    z5 = {"group": z5_table, "delta_gens": [], "rank": 1}
    x = [[2, -1, 0, 0, 0]]
    # a = 1: the lone b = x*g^-c for each target e_c has a negative projection
    solved = write(tmp_path, "solved.json", "relation", {"simplicial": z5, "a": {"coeffs": {"0": 1}}, "x": x})
    assert main(["--json", "--cert", str(cert), "unperf-witness", solved, "--m1"]) == 1
    assert capsys.readouterr().out == '{"m1_witness":null}\n'
    assert not cert.exists()
    # a = the sum of Z/5: b = 2g - g^2 with y = e_4, its box of 184,528,125 candidates unsearched
    total = {"coeffs": {str(g): 1 for g in range(5)}}
    met = write(tmp_path, "met.json", "relation", {"simplicial": z5, "a": total, "x": x})
    assert main(["--json", "--cert", str(cert), "unperf-witness", met, "--m1"]) == 0
    witness = json.loads(capsys.readouterr().out)["m1_witness"]
    assert witness == {"m": 1, "b": [{"coeffs": {"1": 2, "2": -1}}], "y": [[[0, 0, 0, 0, 1]]]}
    assert cert.read_text(encoding="utf-8") == io.dump_json(witness)
    group = io.simplicial_from_json(z5)
    G = group.space.parent
    w = SdpWitness(
        m=1,
        b=((io.ring_elt_from_json(G, witness["b"][0]),),),
        y=(io.vector_from_json(group, witness["y"][0]),),
    )
    assert verify_unperforation_witness(group, io.ring_elt_from_json(G, total), io.vector_from_json(group, x), w)
    cert.unlink()
    # over Z/2 with one coset, eps(b) = -1 is forced and pi(a*b) = eps(a)*eps(b) = -1
    single = write(
        tmp_path,
        "single.json",
        "relation",
        {"simplicial": simplicial_payload(delta_gens=[1]), "a": {"coeffs": {"0": 1}}, "x": [[-1]]},
    )
    assert main(["--json", "--cert", str(cert), "unperf-witness", single, "--m1"]) == 1
    assert capsys.readouterr().out == '{"m1_witness":null}\n'
    assert not cert.exists()


def test_m1_witness_is_reverified_before_it_is_emitted(tmp_path, capsys, monkeypatch):
    search = gammak0.cli.search_unperforation_witness_m1

    def tampered(group, a, x):
        w = search(group, a, x)
        y = list(w.y[0].flat)
        y[0] += 1
        return SdpWitness(m=1, b=w.b, y=(GammaVector(group, tuple(y)),))

    monkeypatch.setattr(gammak0.cli, "search_unperforation_witness_m1", tampered)
    cert = tmp_path / "cert.json"
    found = write(
        tmp_path,
        "found.json",
        "relation",
        {"simplicial": simplicial_payload(), "a": {"coeffs": {"0": 1}}, "x": [[1, 0]]},
    )
    for flags in ([], ["--json"]):
        assert main([*flags, "--cert", str(cert), "unperf-witness", found, "--m1"]) == 2
        assert capsys.readouterr() == ("", "witness failed verification: decomposition_mismatch\n")
        assert not cert.exists()


# the arguments each subcommand takes besides its problem path, and its help line
SUBCOMMANDS = {
    "check-simplicial": ([], "validate a simplicial descriptor"),
    "sdp-witness": ([], "decompose a zero relation"),
    "unperf-witness": (["--m1"], "unperforation witness for a*x >= 0"),
    "shen": ([], "factor a positive map with controlled kernel"),
    "realize": (["--unit", "[1]"], "matricial descriptor for a unit-ed group"),
    "realize-tower": ([], "levelwise ring tower for a group tower"),
    "k0": ([], "class data of a matricial descriptor"),
    "graded-iso": (["other.json"], "decide graded isomorphism of two descriptors"),
    "extend": ([], "extend an interval-mode tower"),
    "ext-sdp-witness": ([], "decomposition witness in an extension"),
    "colimit-eq": ([], "horizon-bounded colimit equality"),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_parses_exactly_its_own_arguments(command, capsys):
    own, summary = SUBCOMMANDS[command]
    parser = build_parser()
    args = parser.parse_args([command, "p.json", *own])
    assert (args.command, args.path) == (command, "p.json")
    for extra, _ in SUBCOMMANDS.values():
        if extra and extra != own:
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args([command, "p.json", *own, *extra])
            assert exit_.value.code == 2, extra
    with pytest.raises(SystemExit) as exit_:
        parser.parse_args([command, "--help"])
    assert exit_.value.code == 0
    assert summary in capsys.readouterr().out


def fresh_run(argv):
    """Exit code and stdout of ``argv`` as the first call of a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(gammak0.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gammak0.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def test_main_keeps_no_option_between_calls(tmp_path, capsys):
    tower = write(tmp_path, "t.json", "tower", nilpotent_tower_payload())
    relation = write(tmp_path, "u.json", "relation", perforated_payload())
    simplicial = write(tmp_path, "s.json", "simplicial", dict(simplicial_payload(), unit=[[1, 1]]))
    pairs = [
        (["--horizon", "1", "colimit-eq", tower], ["colimit-eq", tower]),
        (["unperf-witness", relation, "--m1"], ["unperf-witness", relation]),
        (["realize", simplicial, "--unit", "[2,1]"], ["realize", simplicial]),
    ]
    for first, second in pairs:
        expected = {0: fresh_run(first), 1: fresh_run(second)}
        assert expected[0] != expected[1]  # the option changes the answer
        for which, argv in ((0, first), (1, second), (0, first), (1, second)):
            code = main(argv)
            assert (code, capsys.readouterr().out) == expected[which], argv


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


# Integers stay small. A matricial component stores one shift per diagonal
# slot, so realize-tower allocates as many slots as a unit has mass; a large
# integer would only measure that growth, not the loaders.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(-2, 2, allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def json_paths(value, path=()):
    """Positions inside a JSON value, as tuples of keys and indices.

    Only the first element of each list is visited: the loaders read the
    elements of one list alike.
    """
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value[:1]) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def replace_at(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = replace_at(value[path[0]], path[1:], new)
    return out


@pytest.mark.parametrize("flags, command, files, extra, code", CLI_CASES.values(), ids=CLI_CASES.keys())
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES, as_json=st.booleans())
def test_fuzzed_field_ends_in_an_exit_code(flags, command, files, extra, code, value, as_json):
    """Each field of a valid problem in turn replaced by a small JSON value:
    exit 0, 1 or 2, never a raise."""
    with tempfile.TemporaryDirectory() as tmp:
        cert = str(Path(tmp) / "cert.json")
        for which, (kind, payload) in enumerate(files):
            for path in json_paths(payload):
                docs = [(k, replace_at(p, path, value) if n == which else p) for n, (k, p) in enumerate(files)]
                paths = [write(Path(tmp), f"{n}.json", k, p) for n, (k, p) in enumerate(docs)]
                argv = [*(["--json"] if as_json else []), "--cert", cert, *flags, command, *paths, *extra]
                with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
                    assert main(argv) in (0, 1, 2), (which, path)
