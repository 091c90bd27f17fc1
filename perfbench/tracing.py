"""Wrappers the benchmark installs around psurf's public functions.

Nothing here edits psurf.  A wrapper replaces a function in every namespace
where psurf looks the name up: the defining module, each `psurf.*` module
that imported it by name, and the class for methods.  `SplitClock` times the
three public splitters (split latency is an end-to-end metric); `Tracer`
records one span per call at every layer boundary for the traced run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import sys
import threading
import time

SPLITTERS = ("split_plus_star_minus", "split_minus_star_plus", "split_plus_minusfree")


def _resolve(target):
    """(owner, attribute) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Patches:
    """Install wrappers by identity of the original object; undo them all."""

    def __init__(self):
        self._undo = []

    def wrap(self, target, make_wrapper):
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make_wrapper(original)
        sites = [owner]
        if not isinstance(owner, type):
            sites += [m for n, m in sorted(sys.modules.items())
                      if (n == "psurf" or n.startswith("psurf.")) and m is not owner]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapper)
                    self._undo.append((site, name, original))

    def remove(self):
        for site, name, original in reversed(self._undo):
            setattr(site, name, original)
        self._undo.clear()


class SplitClock:
    """Latency of every outermost call to a public splitter, in seconds."""

    def __init__(self):
        self.latencies = []
        self._depth = threading.local()
        self._patches = Patches()

    def install(self):
        for name in SPLITTERS:
            self._patches.wrap(f"psurf.birkhoff:{name}", self._timed)

    def remove(self):
        self._patches.remove()

    def _timed(self, fn):
        depth, out, clock = self._depth, self.latencies, time.perf_counter

        def timed(*args, **kwargs):
            level = getattr(depth, "level", 0)
            depth.level = level + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth.level = level
                if level == 0:
                    out.append(clock() - start)
        return functools.update_wrapper(timed, fn, updated=())


def _export_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# span name -> (wrapped targets, attribute recorder or None)
SPANS = {
    "cli.main": (["psurf.cli:main"], lambda a, k, r: r),
    "cli.config": (["psurf.cli:_parse_config", "psurf.cli:RunConfig"], None),
    "cli.report": (["psurf.cli:_write_report"], None),
    "surface.reconstruct": (["psurf.surface:reconstruct_frames"],
                            lambda a, k, r: (r.x.size * r.y.size, "basepoint" in k)),
    "surface.sym": (["psurf.surface:sym_immersion"], None),
    "surface.geometry": (["psurf.surface:geometry_report"], None),
    "surface.export": (["psurf.surface:write_obj", "psurf.surface:write_csv"], _export_bytes),
    "frames.axis": (["psurf.frames:integrate_axis"], lambda a, k, r: r.drift),
    "frames.direct_solve": (["psurf.frames:direct_frame_solve"], None),
    "potentials.axis_data": (["psurf.potentials:x_axis_data", "psurf.potentials:y_axis_data"], None),
    "potentials.equivariance": (["psurf.potentials:check_equivariance"], None),
    "oracle.goursat": (["psurf.oracle:goursat_solve"], None),
    "symmetry.certify": (["psurf.symmetry:certify_from_potentials"],
                         lambda a, k, r: (r[0].get("surface_residual", 0.0),
                                          r[0].get("monodromy_spread", 0.0))),
    "symmetry.image": (["psurf.symmetry:_image_grid"], None),
    "symmetry.monodromy": (["psurf.symmetry:measure_monodromy"], None),
    "birkhoff.split": ([f"psurf.birkhoff:{name}" for name in SPLITTERS],
                       lambda a, k, r: (r.residual, r.tail_norm)),
    # psurf.birkhoff calls np.linalg.lstsq, so the name lives in numpy.linalg
    "birkhoff.lstsq": (["numpy.linalg:lstsq"], None),
    "loops.mul": (["psurf.loops:LaurentLoop.__mul__"],
                  lambda a, k, r: r.coeffs.shape[0] if hasattr(r, "coeffs") else 0),
    "loops.evaluate": (["psurf.loops:LaurentLoop.evaluate"], None),
}

# spans each workload must fire at least once per traced operation
EXPECTED = {
    "soliton_build": ["cli.main", "cli.config", "cli.report", "surface.reconstruct",
                      "surface.sym", "surface.geometry", "surface.export", "frames.axis",
                      "frames.direct_solve", "potentials.axis_data", "oracle.goursat",
                      "birkhoff.split", "birkhoff.lstsq", "loops.mul", "loops.evaluate"],
    "amsler_certify": ["cli.main", "cli.config", "cli.report", "surface.reconstruct",
                       "surface.sym", "frames.axis", "potentials.axis_data",
                       "potentials.equivariance", "symmetry.certify", "symmetry.image",
                       "symmetry.monodromy", "birkhoff.split", "birkhoff.lstsq",
                       "loops.mul", "loops.evaluate"],
}


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, op, attributes]."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count()
        self._stack = threading.local()
        self._patches = Patches()

    def install(self):
        for name, (targets, recorder) in SPANS.items():
            for target in targets:
                self._patches.wrap(target, functools.partial(self._traced, name, recorder))

    def remove(self):
        self._patches.remove()

    def _traced(self, name, recorder, fn):
        spans, ids, local, clock = self.spans, self._ids, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("ids", [])
            span = [next(ids), name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if recorder is not None:
                span[6] = recorder(args, kwargs, result)
            return result
        return functools.update_wrapper(traced, fn, updated=())

    def write(self, path):
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), default=float) + "\n")


def layer_metrics(spans, n_ops):
    """Per-layer metrics per traced operation, from the span list."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def named(name):
        return [s for s in spans if s[1] == name]

    def parent_name(s):
        return by_id[s[4]][1] if s[4] in by_id else None

    def total(ss):
        return sum(s[3] - s[2] for s in ss) / n_ops

    def self_time(ss):
        return sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in ss) / n_ops

    def peak(values):
        return float(max(values, default=0.0))

    def recorded(ss, i=None):
        vals = [s[6] for s in ss if s[6] is not None]
        return vals if i is None else [v[i] for v in vals]

    mul, evaluate = named("loops.mul"), named("loops.evaluate")
    splits = named("birkhoff.split")
    outer = [s for s in splits if parent_name(s) != "birkhoff.split"]
    lstsq = named("birkhoff.lstsq")
    axis = named("frames.axis")
    recon = named("surface.reconstruct")
    image = [s for s in recon if parent_name(s) == "symmetry.image"]
    target = [s for s in recon if parent_name(s) == "symmetry.certify" and s[6] and s[6][1]]
    certify = named("symmetry.certify")
    exports = named("surface.export")
    return {
        "loops.mul_calls": len(mul) / n_ops,
        "loops.mul_s": total(mul),
        "loops.mul_out_coeffs_mean": float(sum(recorded(mul)) / len(mul)) if mul else 0.0,
        "loops.evaluate_calls": len(evaluate) / n_ops,
        "loops.evaluate_s": total(evaluate),
        "birkhoff.split_calls": len(outer) / n_ops,
        "birkhoff.split_self_s": self_time(splits),
        "birkhoff.solve_s": total(lstsq),
        "birkhoff.solves_per_split": len(lstsq) / len(outer) if outer else 0.0,
        "birkhoff.residual_max": peak(recorded(outer, 0)),
        "birkhoff.tail_max": peak(recorded(outer, 1)),
        "frames.axis_calls": len(axis) / n_ops,
        "frames.axis_s": total(axis),
        "frames.drift_max": peak(recorded(axis)),
        "frames.direct_solve_s": total(named("frames.direct_solve")),
        "potentials.axis_data_s": total(named("potentials.axis_data")),
        "potentials.equivariance_s": total(named("potentials.equivariance")),
        "surface.reconstruct_calls": len(recon) / n_ops,
        "surface.reconstruct_self_s": self_time(recon),
        "surface.nodes": sum(recorded(recon, 0)) / n_ops,
        "surface.sym_s": total(named("surface.sym")),
        "surface.geometry_calls": len(named("surface.geometry")) / n_ops,
        "surface.geometry_s": total(named("surface.geometry")),
        "surface.export_s": total(exports),
        "surface.export_bytes": sum(recorded(exports)) / n_ops,
        "oracle.goursat_s": total(named("oracle.goursat")),
        "symmetry.certify_self_s": self_time(certify),
        "symmetry.image_nodes": sum(recorded(image, 0)) / n_ops,
        "symmetry.target_nodes": sum(recorded(target, 0)) / n_ops,
        "symmetry.target_s": total(target),
        "symmetry.monodromy_s": total(named("symmetry.monodromy")),
        "symmetry.surface_residual": peak(recorded(certify, 0)),
        "symmetry.monodromy_spread": peak(recorded(certify, 1)),
        "cli.config_s": total(named("cli.config")),
        "cli.report_s": total(named("cli.report")),
        "cli.exit_code": peak(recorded(named("cli.main"))),
    }


def coverage_problems(workload, spans, n_ops, metrics, splits_per_op=None):
    """Structural checks that catch a wrapper installed in the wrong namespace."""
    problems = []
    fired = {}
    for s in spans:
        fired.setdefault(s[1], set()).add(s[5])
    for name in EXPECTED[workload]:
        missing = n_ops - len(fired.get(name, ()))
        if missing:
            problems.append(f"span {name} did not fire in {missing} of {n_ops} traced operations")
    calls = metrics["birkhoff.split_calls"]
    if workload in ("soliton_build", "amsler_certify") and calls != metrics["surface.nodes"]:
        problems.append(f"birkhoff.split_calls {calls:g} != surface.nodes "
                        f"{metrics['surface.nodes']:g}")
    if splits_per_op is not None and calls != splits_per_op:
        problems.append(f"birkhoff.split_calls {calls:g} != {splits_per_op} per operation")
    if workload == "amsler_certify" and not (metrics["symmetry.image_nodes"] > 0
                                             and metrics["symmetry.target_nodes"] > 0):
        problems.append("no image or interpolation-target reconstruction was traced")
    return problems


LOC_MODULES = ("__init__", "birkhoff", "cli", "frames", "loops", "oracle", "potentials",
               "surface", "symmetry")


def loc_metrics(package_dir):
    """Non-blank source lines per module (0 once a module is gone); the total
    covers every module of the package, new ones included."""
    counts = {}
    for fname in sorted(os.listdir(package_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(package_dir, fname), encoding="utf-8") as fh:
                counts[fname[:-3]] = sum(1 for line in fh if line.strip())
    out = {f"loc.{m}": counts.get(m, 0) for m in LOC_MODULES}
    out["loc.total"] = sum(counts.values())
    return out
