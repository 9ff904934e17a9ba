"""Per-layer tracing of ``gammak0`` from outside the package.

``Tracer.install`` wraps every public function of each layer module, in the
module that defines it and wherever another module imported it by name, and
the public methods and arithmetic operators of the layer's classes. Each
call records a span (name, start, end, parent) in flat arrays; nothing is
aggregated while the workload runs. ``Tracer.layer_metrics`` then derives,
per layer, the call count, self time (span duration minus the time covered
by its child spans and minus the wrapper's own calibrated cost), share of
all self time, and calls that raised. ``uninstall`` restores every patched
attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array
from pathlib import Path

LAYERS = (
    "finite_group", "group_ring", "ordered_simplicial", "gamma_maps", "intlinalg",
    "sdp_engine", "shen", "limits", "graded_matricial", "hom_realization",
    "extension", "serialize", "cli",
)

# Operators that carry the arithmetic of vectors and ring elements.
TRACED_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.failed_spans = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    # -- counters fed by hooks --

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping --

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, post=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, failed = self.span_start, self.span_end, self.failed_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gammak0.{layer}") for layer in LAYERS}
        importers = list(modules.values()) + [importlib.import_module("gammak0")]
        hooks = self._hooks()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj, hooks.get(f"{layer}.{attr}"))
                    for other in importers:  # the defining module and by-name importers
                        if vars(other).get(attr) is obj:
                            self._patch(other, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> dict:
        def lattice_out(args, result):
            self.peak("intlinalg.max_cols", args[1] if len(args) > 1 else 0)
            bits = max((abs(v).bit_length() for row in result for v in row), default=0)
            self.peak("intlinalg.out_bits_max", bits)

        def colimit(args, result):
            if result.kind == "unknown":
                self.bump("limits.unknown")

        def ring_slots(args, result):
            for arg in args:
                comps = getattr(arg, "components", None)
                if comps is not None:
                    self.bump("graded_matricial.slots", sum(c.size for c in comps))

        def copies(args, result):
            self.bump("hom_realization.copies", len(result.certificate))

        def bytes_out(args, result):
            self.bump("serialize.bytes_out", len(result.encode()))

        return {
            "intlinalg.hnf": lattice_out,
            "intlinalg.kernel_basis": lattice_out,
            "limits.colimit_eq": colimit,
            "graded_matricial.homog_dim": ring_slots,
            "graded_matricial.k0_of_matricial": ring_slots,
            "graded_matricial.graded_iso": ring_slots,
            "hom_realization.hom_realizable": copies,
            "serialize.dump_json": bytes_out,
        }

    # -- analysis --

    @staticmethod
    def calibrate(calls: int = 20000) -> tuple[float, float]:
        """Seconds the wrapper adds inside each span and to its parent, per child.

        Measured on an empty function called from a traced loop, the way a
        profiler calibrates; the medians of five trials are returned.
        """
        inner, outer = [], []
        for _ in range(5):
            probe = Tracer()
            leaf = probe._wrap("probe.leaf", lambda: None)

            def loop():
                for _ in range(calls):
                    leaf()

            probe._wrap("probe.loop", loop)()
            durations = [e - s for s, e in zip(probe.span_start, probe.span_end)]
            children = sum(durations[1:])
            inner.append(children / calls)
            outer.append((durations[0] - children) / calls)
        return statistics.median(inner), statistics.median(outer)

    def self_times(self, cost: tuple[float, float] = (0.0, 0.0)) -> list[float]:
        """Duration minus the time covered by child spans, per span.

        ``cost`` is the wrapper's own time inside a span and in its parent per
        child (see ``calibrate``); it is subtracted, never below zero.
        """
        inner, per_child = cost
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [inner] * len(durations)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += durations[idx] + per_child
        return [max(0.0, d - c) for d, c in zip(durations, covered)]

    def layer_metrics(self, cost: tuple[float, float] = (0.0, 0.0)) -> dict[str, float]:
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        for nid, st in zip(self.span_name, self.self_times(cost)):
            layer = layer_of[nid]
            calls[layer] += 1
            self_s[layer] += st
        for idx in self.failed_spans:
            errors[layer_of[self.span_name[idx]]] += 1
        total = sum(self_s.values()) or 1.0
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / total
            out[f"{layer}.errors"] = errors[layer]
        pushers = {self._name_ids.get(n) for n in ("limits.colimit_eq", "limits.Tower.push")}
        apply_id = self._name_ids.get("gamma_maps.map_apply")
        out["limits.levels_pushed"] = sum(
            1 for nid, parent in zip(self.span_name, self.span_parent)
            if nid == apply_id and parent >= 0 and self.span_name[parent] in pushers
        )
        for key in ("intlinalg.out_bits_max", "intlinalg.max_cols", "limits.unknown",
                    "graded_matricial.slots", "hom_realization.copies", "serialize.bytes_out"):
            out[key] = self.counters.get(key, 0)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index (-1 at the root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, parent, start, end in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                fh.write(f"[{nid},{start:.9f},{end:.9f},{parent}]\n")
