"""Span recorder and work counters for the traced benchmark run.

The recorder wraps public vibrosync functions from outside the package: each
wrapper replaces the function in every vibrosync module namespace that binds
it (``cli``, ``stability_cert`` and ``vib_design`` import names directly), so
a call is recorded whichever module it is made from.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, function) pairs that get a span named <module>.<fn>, without the
# leading underscore of a private module; each yields <span>.calls and
# <span>.self_frac
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("graph_core", "select_spanning_tree"),
    ("graph_core", "build_incidence"),
    ("graph_core", "check_invariance"),
    ("linalg", "conjugated_average"),
    ("linalg", "robustness"),
    ("linalg", "is_m_matrix"),
    ("_trig", "transition_series"),
    ("_trig", "conjugated_mean"),
    ("vib_design", "design_linear"),
    ("vib_design", "design_cluster"),
    ("vib_design", "kuramoto_modifiable"),
    ("kuramoto_dynamics", "linearize"),
    ("kuramoto_dynamics", "simulate"),
    ("kuramoto_dynamics", "sample_perturbed_trajectories"),
    ("kuramoto_dynamics", "classify_partial_stability"),
    ("kuramoto_dynamics", "perturbation_bounds"),
    ("stability_cert", "certify"),
    ("stability_cert", "averaged_jacobians"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_design"),
    ("cli", "cmd_simulate"),
    ("cli", "trajectory_csv"),
)

# Spans the benchmark itself opens around set-up and each operation; their
# self time is the part of the run no layer span covers.
ROOTS = ("bench.setup", "bench.op")

def span_name(mod_name: str, fn_name: str) -> str:
    return f"{mod_name.lstrip('_')}.{fn_name}"


# name -> (unit, better); the order is the order of BENCHMARK.json.  Layer
# time is reported as a share of the traced time, trace.traced_s: a layer
# that a workload never calls reads 0 as a share rather than as a constant
# time, and its self seconds are <span>.self_frac * trace.traced_s.
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _span in (span_name(*pair) for pair in SPANNED):
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_frac"] = ("frac", "lower")
PER_LAYER.update({
    "kuramoto_dynamics.rk4_sample_steps": ("count", "lower"),
    "kuramoto_dynamics.sample_steps_per_ref": ("1/ref", "higher"),
    "kuramoto_dynamics.rk4_single_steps": ("count", "lower"),
    "kuramoto_dynamics.single_steps_per_ref": ("1/ref", "higher"),
    "linalg.solve_calls": ("count", "lower"),
    "vib_design.verified_frac": ("frac", "higher"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
})


def rk4_steps(t_end: float, dt: float) -> int:
    """Fixed RK4 steps the phase-network integrator takes for one horizon."""
    if t_end <= 0:
        return 0
    return max(1, int(math.ceil(t_end / dt - 1e-12)))


class Recorder:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result
        return wrapper

    def self_times(self) -> Tuple[Counter, Counter]:
        """Per-name call counts and self seconds (duration minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - c
        return calls, self_s

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans,
                                    "counters": dict(self.counters)}))


def _steps_hook(counter: str, fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def after(counters, args, kwargs, result):
        t_end = sig.bind(*args, **kwargs).arguments.get(
            "t_end", sig.parameters["t_end"].default)
        trajs = result if isinstance(result, list) else [result]
        counters[counter] += sum(rk4_steps(t_end, tr.dt) if tr.dt else 0
                                 for tr in trajs)
    return after


def _verified_hook(counters, args, kwargs, result):
    counters["vib_design.verified"] += int(bool(result.verified))


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every SPANNED function and ``numpy.linalg.solve`` while inside."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "vibrosync" or name.startswith("vibrosync."))]
    undo: List[Tuple[object, str, object]] = []
    for mod_name, fn_name in SPANNED:
        orig = getattr(importlib.import_module(f"vibrosync.{mod_name}"), fn_name)
        after = None
        if fn_name == "sample_perturbed_trajectories":
            after = _steps_hook("kuramoto_dynamics.rk4_sample_steps", orig)
        elif fn_name == "simulate":
            after = _steps_hook("kuramoto_dynamics.rk4_single_steps", orig)
        elif fn_name == "design_linear":
            after = _verified_hook
        wrapper = rec.wrap(span_name(mod_name, fn_name), orig, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, orig))

    solve = np.linalg.solve

    @functools.wraps(solve)
    def counted_solve(*args, **kwargs):
        rec.counters["linalg.solve_calls"] += 1
        return solve(*args, **kwargs)

    np.linalg.solve = counted_solve
    undo.append((np.linalg, "solve", solve))

    try:
        yield rec
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def per_layer_metrics(rec: Recorder, untraced_s: float, traced_s: float,
                      reference_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric from the recorded spans and counters.

    ``untraced_s`` and ``traced_s`` are the summed latencies of the same
    operations run without and with the recorder installed; ``reference_s``
    is the mean time of the reference kernel during the run.
    """
    calls, self_s = rec.self_times()
    c = rec.counters
    total = sum(end - start for name, start, end, parent in rec.spans
                if parent < 0 and name in ROOTS)
    out: Dict[str, float] = {}
    for key in (span_name(*pair) for pair in SPANNED):
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_frac"] = self_s[key] / total

    def steps_per_ref(span: str, steps: int) -> float:
        return steps * reference_s / self_s[span] if steps else 0.0

    sample_steps = c["kuramoto_dynamics.rk4_sample_steps"]
    single_steps = c["kuramoto_dynamics.rk4_single_steps"]
    designs = calls["vib_design.design_linear"]
    out.update({
        "kuramoto_dynamics.rk4_sample_steps": sample_steps,
        "kuramoto_dynamics.sample_steps_per_ref": steps_per_ref(
            "kuramoto_dynamics.sample_perturbed_trajectories", sample_steps),
        "kuramoto_dynamics.rk4_single_steps": single_steps,
        "kuramoto_dynamics.single_steps_per_ref": steps_per_ref(
            "kuramoto_dynamics.simulate", single_steps),
        "linalg.solve_calls": c["linalg.solve_calls"],
        "vib_design.verified_frac": c["vib_design.verified"] / designs if designs else 1.0,
        "cli.artifact_bytes": c["cli.artifact_bytes"],
        "trace.traced_s": total,
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.coverage_frac": 1.0 - sum(self_s[name] for name in ROOTS) / total,
    })
    assert list(out) == list(PER_LAYER)
    return out
