"""Outside-in tracer for exolink's layers.

`install` imports the package and replaces each function in `TARGETS` by a
timing wrapper: at its defining module or class, and at every module
attribute of the package that is bound to the same object (the names that
``from .x import f`` created).  Nothing inside the package changes on disk;
an untraced interpreter never imports this module.

Each call becomes a span (name, start, end, parent, operation id) kept in
memory.  Self time is the span's duration minus the part covered by its
child spans; the wrapper's own bookkeeping is charged to neither.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time


def _tietze_counts(_args, result) -> dict:
    log = result[1]
    return {"moves": len(log.steps), "exhausted": int(log.exhausted)}


def _trace_steps(args, _result) -> dict:
    return {"steps": len(args[0])}


def _json_bytes(_args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute or Class.method, span name, count distinct arguments,
#  extra counters taken from the arguments and the result)
TARGETS = (
    ("groupring", "GroupRingElement.__mul__", "groupring.mul", False, None),
    ("groupring", "equal_up_to_units", "groupring.equal_up_to_units", False, None),
    ("knots", "alexander_poly", "knots.alexander_poly", True, None),
    ("lattice", "congruence_diagonal", "lattice.congruence_diagonal", False, None),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form", True, None),
    ("lattice", "SmithCertificate.verify", "lattice.smith_verify", False, None),
    ("lattice", "invariants", "lattice.invariants", True, None),
    ("lattice", "determinant", "lattice.determinant", False, None),
    ("lattice", "find_nonspin_witness", "lattice.find_nonspin_witness", False, None),
    ("grouppres", "GroupPresentation.abelianization", "grouppres.abelianization", True, None),
    ("grouppres", "tietze_simplify", "grouppres.tietze_simplify", False, _tietze_counts),
    ("grouppres", "recognize_free", "grouppres.recognize_free", False, None),
    ("grouppres", "recognize_surface", "grouppres.recognize_surface", False, None),
    ("manifold", "ManifoldRecord.__post_init__", "manifold.validate", False, None),
    ("manifold", "admissible_from_spec", "manifold.admissible_from_spec", False, None),
    ("manifold", "canonical_json", "manifold.canonical_json", False, _json_bytes),
    ("manifold", "record_to_json", "manifold.record_to_json", False, None),
    ("surgery", "build_from_trace", "surgery.build_from_trace", True, _trace_steps),
    ("surgery", "sphere_surgery", "surgery.sphere_surgery", False, None),
    (
        "surgery",
        "dissolve_knot_surgery_after_stabilization",
        "surgery.dissolve_knot_surgery_after_stabilization",
        False,
        None,
    ),
    ("surgery", "knot_surgery", "surgery.knot_surgery", False, None),
    ("surgery", "fiber_sum", "surgery.fiber_sum", False, None),
    ("surgery", "loop_surgery", "surgery.loop_surgery", False, None),
    ("surgery", "connected_sum", "surgery.connected_sum", False, None),
    ("pipeline", "run_recipe", "pipeline.run_recipe", False, None),
    ("pipeline", "verify_trace_report", "pipeline.verify_trace_report", False, None),
    ("pipeline", "parse_knots_arg", "pipeline.parse_knots_arg", False, None),
    ("cli", "main", "cli.main", False, None),
)


def freeze(value):
    """A hashable stand-in for an argument tuple (lists and dicts included)."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    return value


class Tracer:
    """Spans and per-function counters of one operation, held in memory."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[list] = []  # [span index, seconds covered by child spans]
        self.stats: dict[str, dict] = {}
        self.seen: dict[str, set] = {}

    def wrap(self, fn, name: str, distinct: bool, extra):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        seen = self.seen.setdefault(name, set()) if distinct else None
        spans, stack, op_id = self.spans, self.stack, self.op_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name_id, start, end, parent, op_id)
                stat["calls"] += 1
                stat["self_s"] += end - start - frame[1]
                stat["total_s"] += end - start
                if seen is not None:
                    seen.add(freeze(args))
                if extra is not None and result is not None:
                    for key, value in extra(args, result).items():
                        stat[key] = stat.get(key, 0) + value
                if stack:
                    stack[-1][1] += clock() - start

        return traced

    def summary(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            row = dict(stat)
            if name in self.seen:
                row["distinct"] = len(self.seen[name])
            out[name] = row
        return out

    def dump_spans(self, path: str) -> None:
        doc = {"op": self.op_id, "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every target at its definition and at each of its bindings."""
    modules = {name: importlib.import_module(f"exolink.{name}") for name, *_ in TARGETS}
    package = [m for key, m in sys.modules.items() if key.split(".")[0] == "exolink"]
    for module, path, name, distinct, extra in TARGETS:
        owner, attr, holders = modules[module], path, package
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name)
            holders = [owner]
        original = vars(owner)[attr]
        wrapped = tracer.wrap(original, name, distinct, extra)
        rebound = 0
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    rebound += 1
        if not rebound:
            raise RuntimeError(f"could not wrap {module}.{path}")
