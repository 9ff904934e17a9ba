"""Command-line front end: load JSON problem files, run checks, emit certificates.

Exit codes: 0 on success or a true answer, 1 on a false or refuted answer,
2 on an undecided answer (``colimit-eq`` unknown, ``unperf-witness --m1``
undecided) and on any input or validation error, 3 on an internal error (an
unexpected exception, reported on one line without a traceback).  Reports are
deterministic for a fixed input; pass --json for machine-readable output and
--cert to write the certificate of the run, which is the --json output itself
except under ``unperf-witness --m1``.

One table in ``build_parser`` gives each subcommand its problem kind, handler
and help; ``main`` loads the problem file and hands its payload to the
handler.  A witness is emitted only after it passes its own check.  The
parser is built once per process, so ``main`` may be called repeatedly.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import serialize as io
from .errors import EngineError
from .extension import ext_sdp_witness, extend_tower
from .graded_matricial import graded_iso, homog_dim, k0_of_matricial
from .hom_realization import realize_simplicial, realize_tower, verify_hom_spec
from .limits import colimit_eq
from .ordered_simplicial import group_stabilizer, is_order_unit
from .sdp_engine import (
    M1Undecided,
    sdp_witness,
    search_unperforation_witness_m1,
    unperforation_witness,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from .shen import shen_step
from .serialize import dump_json


def _emit(args, report, data, cert: bool = True) -> None:
    """Write ``data`` to the --cert path unless ``cert`` is false, then print
    the report, so a path that cannot be written leaves no report.  ``report``
    returns the text lines and is called only without --json.  ``data`` is
    encoded once, so the certificate is byte-identical to the --json output."""
    text = dump_json(data) if args.json or (cert and args.cert) else ""
    if cert and args.cert:
        Path(args.cert).write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)
    else:
        for line in report():
            sys.stdout.write(line + "\n")


def _emit_verified(args, check, line, data, cert=None) -> int:
    """Emit a witness with the one report ``line`` only if its ``check``
    holds; otherwise write the reason to stderr and return 2, with no report
    and no certificate.  ``cert``, when given, is written to the --cert path
    in place of ``data``."""
    if not check:
        sys.stderr.write(f"witness failed verification: {check.reason}\n")
        return 2
    if cert is not None and args.cert:
        Path(args.cert).write_text(dump_json(cert), encoding="utf-8")
    _emit(args, lambda: [line], data, cert=cert is None)
    return 0


def _cmd_check_simplicial(args, payload) -> int:
    group = io.simplicial_from_json(payload)
    space = group.space
    stab = group_stabilizer(group)
    data = {
        "rank": group.rank,
        "order": space.parent.order,
        "delta": list(space.sub.members),
        "normal": space.is_normal,
        "cosets": space.num_cosets,
        "module_stabilizer": list(stab.members),
    }
    unit_lines = []
    if "unit" in payload:
        unit = io.vector_from_json(group, payload["unit"], context="unit")
        ok = data["unit_is_order_unit"] = is_order_unit(group, unit)
        unit_lines.append(f"unit is order-unit: {ok}")
    _emit(
        args,
        lambda: [
            f"rank: {group.rank}",
            f"group order: {space.parent.order}",
            f"stabilizer subgroup: {[space.parent.name_of(g) for g in space.sub.members]}",
            f"normal: {space.is_normal}",
            f"cosets: {space.num_cosets}",
            f"module stabilizer: {[space.parent.name_of(g) for g in stab.members]}",
            *unit_lines,
        ],
        data,
    )
    return 0


def _cmd_sdp_witness(args, payload) -> int:
    group, a, x = io.relation_from_json(payload)
    w = sdp_witness(group, a, x)
    line = f"decomposition witness with m={w.m}; verified"
    return _emit_verified(args, verify_sdp_witness(group, a, x, w), line, io.sdp_witness_to_json(w))


def _cmd_unperf_witness(args, payload) -> int:
    group, a, x = io.unperf_from_json(payload)
    if args.m1:
        found = search_unperforation_witness_m1(group, a, x)
        if found is None:
            _emit(
                args,
                lambda: ["no single-term witness: refuted by the augmentation"],
                {"m1_witness": None},
                cert=False,
            )
            return 1
        if isinstance(found, M1Undecided):
            _emit(
                args,
                lambda: [f"undecided: no single-term witness inside the box of bound {found.box}"],
                {"m1_witness": None, "box": found.box},
                cert=False,
            )
            return 2
        check = verify_unperforation_witness(group, a, x, found)
        data = io.unperf_witness_to_json(found)
        return _emit_verified(args, check, "single-term witness found", {"m1_witness": data}, cert=data)
    w = unperforation_witness(group, a, x)
    check = verify_unperforation_witness(group, a, x, w)
    line = f"unperforation witness with m={w.m}; verified"
    return _emit_verified(args, check, line, io.unperf_witness_to_json(w))


def _cmd_shen(args, payload) -> int:
    g1 = io.hom_from_json(payload)
    fact = shen_step(g1)
    data = io.shen_to_json(fact)
    _emit(
        args,
        lambda: [
            f"factored through rank {fact.middle.rank}",
            "postconditions hold by construction",
        ],
        data,
    )
    return 0


def _cmd_realize(args, payload) -> int:
    group = io.simplicial_from_json(payload)
    if args.unit is not None:
        unit = io.vector_from_json(group, io.parse_json(args.unit, "--unit"), context="--unit")
    elif "unit" in payload:
        unit = io.vector_from_json(group, payload["unit"], context="unit")
    else:
        raise io.SchemaError("realize: provide a unit in the payload or via --unit")
    ring = realize_simplicial(group, unit).ring
    _emit(
        args,
        lambda: [
            f"ring: {ring.describe()}",
            f"components: {ring.num_components}",
            "unit class reproduced exactly",
        ],
        io.ring_to_json(ring),
    )
    return 0


def _cmd_realize_tower(args, payload) -> int:
    tower = io.tower_from_json(payload)
    realized = realize_tower(tower)
    for n, spec in enumerate(realized.specs):
        verdict = verify_hom_spec(spec)
        if not verdict:
            sys.stderr.write(f"spec {n} failed certificate verification: {verdict.reason}\n")
            return 2
    data = {
        "rings": [io.ring_to_json(r) for r in realized.rings],
        "specs": [io.hom_spec_to_json(s) for s in realized.specs],
    }
    _emit(
        args,
        lambda: [f"level {n}: {r.describe()}" for n, r in enumerate(realized.rings)]
        + [f"{len(realized.specs)} connecting specs; certificates verified"],
        data,
    )
    return 0


def _cmd_k0(args, payload) -> int:
    ring = io.ring_from_json(payload)
    unit = k0_of_matricial(ring)
    space = ring.space
    data = {
        "rank": unit.group.rank,
        "delta": list(space.sub.members),
        "unit_class": io.vector_to_json(unit),
        "homog_dim_identity": homog_dim(ring, space.parent.identity),
    }
    _emit(
        args,
        lambda: [
            f"rank: {unit.group.rank}",
            f"stabilizer subgroup: {[space.parent.name_of(g) for g in space.sub.members]}",
            f"unit class: {data['unit_class']}",
        ],
        data,
    )
    return 0


def _cmd_graded_iso(args, payload) -> int:
    first = io.ring_from_json(payload)
    second = io.ring_from_json(io.load_problem(args.other, "ring"))
    same = graded_iso(first, second)
    data = {"isomorphic": same}
    _emit(args, lambda: [f"graded isomorphic: {same}"], data)
    return 0 if same else 1


def _cmd_extend(args, payload) -> int:
    tower = io.tower_from_json(payload)
    levels = extend_tower(tower)
    data = {
        "levels": len(levels),
        "unit": io.ext_elt_to_json(levels[0], levels[0].order_unit()),
        "squares_verified": True,  # the squares of f (+) id commute by construction
    }
    _emit(args, lambda: [f"extended {len(levels)} levels; connecting maps positive by construction"], data)
    return 0


def _cmd_ext_sdp(args, payload) -> int:
    ext, a, elts = io.ext_relation_from_json(payload)
    w = ext_sdp_witness(ext, a, elts)
    line = f"extension decomposition witness with m={w.m}; verified"
    return _emit_verified(args, verify_sdp_witness(ext, a, elts, w), line, io.sdp_witness_to_json(w, ext))


def _cmd_colimit_eq(args, payload) -> int:
    tower = io.tower_from_json(payload)
    if "p" not in payload or "q" not in payload:
        raise io.SchemaError("tower: colimit-eq needs elements 'p' and 'q'")
    p = io.colimit_elt_from_json(tower, payload["p"], context="p")
    q = io.colimit_elt_from_json(tower, payload["q"], context="q")
    answer = colimit_eq(tower, p, q, args.horizon)
    data = {"kind": answer.kind, "level": answer.level, "reason": answer.reason}
    _emit(args, lambda: [f"colimit equality: {answer.kind} (level {answer.level})"], data)
    if answer.kind == "equal":
        return 0
    if answer.kind == "not_equal_up_to":
        return 1
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma-k0",
        description="Exact checks and constructions for ordered modules over "
        "finite group rings and graded matricial rings.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--cert", metavar="PATH", help="write the certificate JSON here")
    parser.add_argument(
        "--horizon", type=int, default=8, help="level bound for colimit queries"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (  # (name, kind of the problem file, handler, help line)
        ("check-simplicial", "simplicial", _cmd_check_simplicial, "validate a simplicial descriptor"),
        ("sdp-witness", "relation", _cmd_sdp_witness, "decompose a zero relation"),
        ("unperf-witness", "relation", _cmd_unperf_witness, "unperforation witness for a*x >= 0"),
        ("shen", "hom", _cmd_shen, "factor a positive map with controlled kernel"),
        ("realize", "simplicial", _cmd_realize, "matricial descriptor for a unit-ed group"),
        ("realize-tower", "tower", _cmd_realize_tower, "levelwise ring tower for a group tower"),
        ("k0", "ring", _cmd_k0, "class data of a matricial descriptor"),
        ("graded-iso", "ring", _cmd_graded_iso, "decide graded isomorphism of two descriptors"),
        ("extend", "tower", _cmd_extend, "extend an interval-mode tower"),
        ("ext-sdp-witness", "extension", _cmd_ext_sdp, "decomposition witness in an extension"),
        ("colimit-eq", "tower", _cmd_colimit_eq, "horizon-bounded colimit equality"),
    )
    parsers = {}
    for name, kind, func, summary in commands:
        p = parsers[name] = sub.add_parser(name, help=summary, description=summary)
        p.add_argument("path")
        p.set_defaults(kind=kind, func=func)
    parsers["unperf-witness"].add_argument(
        "--m1",
        action="store_true",
        help="single-term witness instead: exit 0 with the witness, 1 when the "
        "augmentation refutes it, 2 with the searched box when undecided",
    )
    parsers["realize"].add_argument("--unit", help="order-unit as a JSON vector")
    parsers["graded-iso"].add_argument("other")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, io.load_problem(args.path, args.kind))
    except (EngineError, ValueError, OSError) as exc:  # UnicodeDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug, not an answer: exit 1 would read as "false"
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
