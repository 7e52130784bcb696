"""Per-layer tracing from outside twinroot.

Tracer.install() wraps the functions and methods each twinroot module
defines, in their module and in every other twinroot module that imported
them.  A call that crosses from one layer (module) into another opens a span
(name, start, end, parent); spans are kept in compact arrays until the run
ends.  Leaf calls made millions of times (field add and mul, polynomial
arithmetic, matrix hashing, integer matrix products) are counted and timed
into their layer but not recorded as spans.  A layer's self time is the time
of its spans and leaf calls minus the time of the calls they make into other
layers, so the layers' self times and the harness's own time add up to the
traced wall time of the phase.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import replace

LAYERS = ("bench", "gcm", "weyl", "roots", "cone", "fields", "laurent", "chevalley", "descent", "trd", "cli")
ARITHMETIC = {"__mul__", "__add__", "__sub__", "__neg__", "__hash__"}
LEAVES = {
    "weyl.mat_mul", "weyl.mat_vec", "weyl.root_sign", "weyl.identity_matrix",
    "fields.GaloisField._digits", "fields.GaloisField._undigits", "fields.GaloisField.add",
    "fields.GaloisField.mul", "fields.GaloisField.neg", "fields.GaloisField.sub", "fields.GaloisField.inv",
    "fields.GaloisField.frobenius", "fields.GaloisField.trace", "fields.GaloisField.norm",
    "laurent.LaurentPoly.__mul__", "laurent.LaurentPoly.__add__", "laurent.LaurentPoly.__sub__",
    "laurent.LaurentPoly.__neg__", "laurent.LaurentPoly.__hash__", "laurent.LaurentPoly.scale",
    "laurent.LaurentPoly.shift", "laurent.LaurentPoly.is_zero", "laurent.LaurentPoly.is_one",
    "laurent.LaurentPoly.coeff", "laurent.LaurentPoly.is_unit", "laurent.LaurentPoly.is_monomial",
    "laurent.LaurentPoly.bar", "laurent.LaurentPoly.unit_inverse", "laurent.LaurentPoly.of",
    "laurent.LaurentPoly.zero", "laurent.LaurentPoly.one", "laurent.LaurentPoly.const",
    "laurent.LaurentPoly.monomial", "laurent.LaurentMatrix.__hash__", "laurent.LaurentMatrix.entry",
}
CALLS = {
    "weyl.mat_mul.calls": "weyl.mat_mul",
    "weyl.matrix_order.calls": "weyl.matrix_order",
    "fields.add.calls": "fields.GaloisField.add",
    "fields.mul.calls": "fields.GaloisField.mul",
    "laurent.matrix_mul.calls": "laurent.LaurentMatrix.__mul__",
    "laurent.poly_mul.calls": "laurent.LaurentPoly.__mul__",
    "laurent.inverse.calls": "laurent.LaurentMatrix.inverse",
    "laurent.hash.calls": "laurent.LaurentMatrix.__hash__",
    "chevalley.bruhat_weyl.calls": "chevalley.LoopGroup.bruhat_weyl",
    "descent.sigma.calls": "descent.HermitianDescentDatum.sigma",
}
INCLUSIVE_MS = {
    "weyl.from_word.ms": "weyl.from_word",
    "weyl.enumerate_ball.ms": "weyl.enumerate_ball",
    "roots.is_prenilpotent_pair.ms": "roots.is_prenilpotent_pair",
    "roots.closed_interval.ms": "roots.closed_interval",
    "roots.nibbling_sequence.ms": "roots.nibbling_sequence",
    "cone.relative_coxeter.ms": "cone.relative_coxeter",
    "laurent.matrix_mul.ms": "laurent.LaurentMatrix.__mul__",
    "laurent.inverse.ms": "laurent.LaurentMatrix.inverse",
    "chevalley.bruhat_cell.ms": "chevalley.LoopGroup.bruhat_cell",
    "chevalley.birkhoff_cell.ms": "chevalley.LoopGroup.birkhoff_cell",
    "descent.root_group.ms": "descent.HermitianDescentDatum.root_group",
    "trd.check_trd.ms": "trd.check_trd",
    "trd.check_rsd.ms": "trd.check_rsd",
    "trd.building_ball.ms": "trd.building_ball",
}
TIMED = set(INCLUSIVE_MS.values()) | {"cli.dispatch"}
TALLIES = ("weyl.enumerate_ball.elements", "trd.check_rsd.products", "trd.building_ball.chambers",
           "trd.building_ball.borel_tests", "trd.building_ball.matches")


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []  # wrapped function keys, e.g. "laurent.LaurentMatrix.__mul__"
        self.calls = []
        self.depth = []
        self.inclusive = []
        self.self_time = [0.0] * len(LAYERS)
        self.tally = dict.fromkeys(TALLIES, 0)
        self.layer = 0
        self.child = [0.0]  # time spent in other layers, per open frame
        self.cur = -1
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    # --- installation ------------------------------------------------------------

    def install(self):
        from twinroot import cli, cone, chevalley, descent, fields, gcm, laurent, roots, trd, weyl

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (gcm, weyl, roots, cone, fields, laurent,
                                                                chevalley, descent, trd, cli)}
        self._hook(weyl, trd)
        for short, mod in modules.items():
            layer = LAYERS.index(short)
            for name, obj in list(vars(mod).items()):
                if _own_function(obj, mod):
                    wrapped = self._wrap(obj, layer, f"{short}.{name}")
                    for other in modules.values():  # names imported with `from .x import f`
                        for alias, val in list(vars(other).items()):
                            if val is obj:
                                setattr(other, alias, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("__") and attr not in ARITHMETIC:
                            continue
                        key = f"{short}.{obj.__name__}.{attr}"
                        if isinstance(val, staticmethod):
                            setattr(obj, attr, staticmethod(self._wrap(val.__func__, layer, key)))
                        elif _own_function(val, mod):
                            setattr(obj, attr, self._wrap(val, layer, key))

    def _hook(self, weyl, trd):
        """Tallies that need the arguments or the result of a call."""
        tally = self.tally
        enumerate_ball, building_ball, check_rsd = weyl.enumerate_ball, trd.building_ball, trd.check_rsd

        @functools.wraps(enumerate_ball)
        def ball_hook(*a, **k):
            out = enumerate_ball(*a, **k)
            if self.on:
                tally["weyl.enumerate_ball.elements"] += len(out)
            return out

        @functools.wraps(building_ball)
        def building_hook(oracle, *a, **k):
            if not self.on:
                return building_ball(oracle, *a, **k)
            in_borel = oracle.in_borel

            def counted(sign, g):
                hit = in_borel(sign, g)
                tally["trd.building_ball.borel_tests"] += 1
                tally["trd.building_ball.matches"] += bool(hit)
                return hit

            out = building_ball(replace(oracle, in_borel=counted), *a, **k)
            tally["trd.building_ball.chambers"] += len(out.chambers)
            return out

        @functools.wraps(check_rsd)
        def rsd_hook(oracle, *a, **k):
            if not self.on:
                return check_rsd(oracle, *a, **k)
            mul = oracle.mul

            def counted(x, y):
                tally["trd.check_rsd.products"] += 1
                return mul(x, y)

            return check_rsd(replace(oracle, mul=counted), *a, **k)

        weyl.enumerate_ball, trd.building_ball, trd.check_rsd = ball_hook, building_hook, rsd_hook

    def _wrap(self, fn, layer, key):
        i = len(self.names)
        self.names.append(key)
        self.calls.append(0)
        self.depth.append(0)
        self.inclusive.append(0.0)
        leaf = key in LEAVES
        timed = key in TIMED
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not self.on:
                return fn(*a, **k)
            calls[i] += 1
            if self.layer == layer and not timed:
                return fn(*a, **k)
            return self._enter(i, layer, leaf, timed, fn, a, k)

        return wrapper

    def _enter(self, i, layer, leaf, timed, fn, a, k):
        boundary = self.layer != layer
        if timed:
            depth = self.depth[i]
            self.depth[i] = depth + 1
        if boundary:
            prev_layer, prev_cur = self.layer, self.cur
            self.layer = layer
            self.child.append(0.0)
            if not leaf:
                sid = len(self.span_start)
                self.span_name.append(i)
                self.span_parent.append(prev_cur)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.cur = sid
        t0 = time.perf_counter()
        if boundary and not leaf:
            self.span_start[sid] = t0
        try:
            return fn(*a, **k)
        finally:
            t1 = time.perf_counter()
            d = t1 - t0
            if timed:
                self.depth[i] = depth
                if depth == 0:
                    self.inclusive[i] += d
            if boundary:
                self.self_time[layer] += d - self.child.pop()
                self.child[-1] += d
                self.layer = prev_layer
                if not leaf:
                    self.span_end[sid] = t1
                    self.cur = prev_cur

    def start(self):
        self.tally.update(dict.fromkeys(TALLIES, 0))
        self.on = True

    def stop(self):
        self.on = False

    # --- results --------------------------------------------------------------------

    def metrics(self, phase_s: float, untraced_s: float) -> dict:
        idx = {name: i for i, name in enumerate(self.names)}
        out = {}
        for layer, t in zip(LAYERS[1:], self.self_time[1:]):
            out[f"{layer}.self_ms"] = _m(t * 1000, "ms")
        for metric, key in CALLS.items():
            out[metric] = _m(self.calls[idx[key]], "count")
        for metric, key in INCLUSIVE_MS.items():
            out[metric] = _m(self.inclusive[idx[key]] * 1000, "ms")
        for key in TALLIES[:-1]:
            out[key] = _m(self.tally[key], "count")
        tests = self.tally["trd.building_ball.borel_tests"]
        matches = self.tally["trd.building_ball.matches"]
        out["trd.building_ball.match_ratio"] = _m(matches / tests if tests else 0.0, "ratio")
        layers_ms = sum(self.self_time[1:]) * 1000
        out["trace.phase_ms"] = _m(phase_s * 1000, "ms")
        out["trace.untraced_phase_ms"] = _m(untraced_s * 1000, "ms")
        out["trace.overhead_ms"] = _m((phase_s - untraced_s) * 1000, "ms")
        out["trace.harness_ms"] = _m(phase_s * 1000 - layers_ms, "ms")
        out["trace.spans"] = _m(len(self.span_start), "count")
        return out

    def dump(self, path, metrics):
        """Write the metrics and every recorded span (name, parent, start, end in µs)."""
        base = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"metrics": metrics, "names": self.names}) + "\n")
            for name, parent, start, end in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write(f"[{name},{parent},{(start - base) * 1e6:.1f},{(end - base) * 1e6:.1f}]\n")


def _own_function(obj, mod) -> bool:
    fn = getattr(obj, "__wrapped__", obj)  # functools.lru_cache keeps the function here
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__ and obj is not getattr(mod, "main", None)


def _m(value, unit):
    return {"value": value, "unit": unit}


def cli_metrics(src, samples, tracer, workload, n_ops) -> dict:
    """cli.import_ms: importing twinroot.cli in a fresh process (median of
    `samples`); cli.dispatch_ms: in-process cli.dispatch per invocation;
    cli.process_ms: wall time per child invocation of the timed list."""
    code = "import time; t = time.perf_counter(); import twinroot.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    imports = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=60, check=True)
        imports.append(float(proc.stdout) * 1000)
    idx = tracer.names.index("cli.dispatch")
    dispatch_ms = tracer.inclusive[idx] * 1000 / n_ops if tracer.calls[idx] else 0.0
    process_ms = 0.0
    if workload.traced_ops is not None:
        from harness import run_ops

        process_ms = statistics.fmean(run_ops(workload.ops)[2]) * 1000
    return {
        "cli.import_ms": _m(statistics.median(imports), "ms"),
        "cli.dispatch_ms": _m(dispatch_ms, "ms"),
        "cli.process_ms": _m(process_ms, "ms"),
    }
