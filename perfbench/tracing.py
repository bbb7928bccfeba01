"""Span tracing of nlosc's layers, installed from outside the package.

A :class:`Tracer` replaces each traced function at the module attribute its
callers look it up through, records one span per call (name, start, end,
parent span, op id and a few counts taken from the arguments or the result)
and keeps the spans in memory.  :func:`layer_metrics` turns the spans into the
per-layer metrics.  Nothing here runs unless a tracer is installed, so
untraced runs call the package unchanged.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _steps(args, kwargs, result):
    return {"steps": int(result[2])}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["y"]))}


def _entries(args, kwargs, result):
    size = int(np.shape(result)[0])
    return {"entries": size * (size + 1) // 2}


# (layer name, lookup sites, count extractor, outermost call only).  A site is
# the module attribute a caller resolves at call time: oracle and classical
# bind integrate_adaptive by name at import, radial calls its own globals, the
# benchmark calls the names re-exported by the package.
LAYERS = [
    ("kernels.integrate_adaptive", [("nlosc.oracle", "integrate_adaptive"), ("nlosc.classical", "integrate_adaptive")], _steps, False),
    ("oracle.shoot_eigenvalue", [("nlosc", "shoot_eigenvalue"), ("nlosc.oracle", "shoot_eigenvalue")], _iterations, False),
    ("radial.gram_matrix", [("nlosc", "gram_matrix"), ("nlosc.radial", "gram_matrix")], _entries, False),
    ("radial.normalize", [("nlosc", "normalize"), ("nlosc.radial", "normalize")], None, False),
    ("radial.build_state", [("nlosc", "build_state"), ("nlosc.radial", "build_state")], None, False),
    ("radial.inner_product", [("nlosc", "inner_product"), ("nlosc.radial", "inner_product")], None, False),
    # eval_state on an array calls itself once per point through the module
    # global, so only the outermost call gets a span
    ("radial.eval_state", [("nlosc", "eval_state"), ("nlosc.radial", "eval_state")], _points, True),
    ("orthopoly.jacobi", [("nlosc.radial", "jacobi"), ("nlosc.orthopoly", "jacobi")], None, False),
    ("classical.integrate_1d", [("nlosc", "integrate_1d"), ("nlosc.classical", "integrate_1d")], None, False),
    ("classical.integrate_planar", [("nlosc", "integrate_planar"), ("nlosc.classical", "integrate_planar")], None, False),
    ("cli.run", [("nlosc.cli", "run")], None, False),
]


class Tracer:
    """In-memory span recorder; :meth:`install` and :meth:`uninstall` patch
    and restore every lookup site in :data:`LAYERS` that exists."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, measure, outermost):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if outermost and stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "op": tracer.op,
            }
            tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span["end"] = time.perf_counter()
            if measure is not None:
                # a count the tracer cannot read is its own failure, not the op's
                try:
                    span.update(measure(args, kwargs, result))
                except (LookupError, TypeError, AttributeError, ValueError) as exc:
                    span["measure_error"] = repr(exc)
            return result

        return traced

    def install(self):
        for name, sites, measure, outermost in LAYERS:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, measure, outermost))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans):
    """Span id -> duration minus the time its direct child spans cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def _ratio(num, den):
    return num / den if den else 0.0


CLI_SUBCOMMANDS = ("spectrum", "states", "veff", "limit", "classical")


def layer_metrics(spans, cli_walls):
    """Per-layer metrics from one run's spans.

    ``cli_walls`` maps a subcommand to the fresh-process wall times of its
    traced commands.  A layer the workload never calls reports zeros.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    def under(span, ancestor):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == ancestor:
                return True
        return False

    m = {}
    k = "kernels.integrate_adaptive"
    steps = total(k, "steps")
    m[f"{k}.calls"] = (calls(k), "count")
    m[f"{k}.self_s"] = (self_s(k), "s")
    m[f"{k}.steps"] = (steps, "count")
    m[f"{k}.us_per_step"] = (_ratio(1e6 * self_s(k), steps), "us/step")
    m[f"{k}.steps_per_call"] = (_ratio(steps, calls(k)), "step/call")

    o = "oracle.shoot_eigenvalue"
    solves = sum(1 for s in by_name.get(k, []) if under(s, o))
    returned = [s for s in by_name.get(o, []) if "iterations" in s]
    m[f"{o}.calls"] = (calls(o), "count")
    m[f"{o}.self_s"] = (self_s(o), "s")
    m[f"{o}.solves_per_call"] = (_ratio(solves, calls(o)), "solve/call")
    m[f"{o}.iterations"] = (_ratio(sum(s["iterations"] for s in returned), len(returned)), "iter/call")

    ip = "radial.inner_product"
    in_gram = sum(1 for s in by_name.get(ip, []) if under(s, "radial.gram_matrix"))
    m[f"{ip}.calls"] = (calls(ip), "count")
    m[f"{ip}.self_s"] = (self_s(ip), "s")
    m[f"{ip}.us_per_call"] = (_ratio(1e6 * self_s(ip), calls(ip)), "us/call")
    m[f"{ip}.calls_per_gram_entry"] = (_ratio(in_gram, total("radial.gram_matrix", "entries")), "call/entry")
    for name in ("radial.gram_matrix", "radial.normalize", "radial.build_state", "orthopoly.jacobi",
                 "classical.integrate_1d", "classical.integrate_planar"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")

    ev = "radial.eval_state"
    m[f"{ev}.points_per_s"] = (_ratio(total(ev, "points"), sum(s["end"] - s["start"] for s in by_name.get(ev, []))), "point/s")

    runs = {}
    for s in by_name.get("cli.run", []):
        runs.setdefault(s["subcommand"], []).append(s["end"] - s["start"])
    for sub in CLI_SUBCOMMANDS:
        walls = cli_walls.get(sub, [])
        m[f"cli.{sub}.wall_s"] = (float(np.median(walls)) if walls else 0.0, "s")
        m[f"cli.{sub}.run_s"] = (float(np.median(runs[sub])) if sub in runs else 0.0, "s")
    return m
