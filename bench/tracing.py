"""Span tracing of the nomadas layers from outside the package.

The tracer wraps the functions each module exposes to the others, under
the name the caller looks up: modules import names directly, so
``allocators.opad_cases`` is patched rather than ``mutual_sic.opad_cases``.
Every wrapped call records a span (name, start, end, parent span, drop id)
in memory; counters read only arguments and returned objects (the step
log, ``phase_iterations``, ``OpaResult``, ``SolveReport``, array sizes).
A layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# layer of each module; scenario.drop_users counts as channel work
LAYER_OF_MODULE = {
    "nomadas.scenario": "channel",
    "nomadas.channel": "channel",
    "nomadas.allocators": "allocators",
    "nomadas.waterfill": "waterfill",
    "nomadas.mutual_sic": "mutual_sic",
    "nomadas.optimal_pa": "optimal_pa",
    "nomadas.solver": "solver",
    "nomadas.audit": "audit",
    "nomadas.harness": "harness",
}
LAYERS = ("channel", "allocators", "waterfill", "mutual_sic", "optimal_pa",
          "solver", "audit", "harness")

# modules whose imported names are patched; audit is left out so the
# helpers it calls count as audit time, not as allocator work
CALLERS = ("channel", "allocators", "mutual_sic", "optimal_pa", "harness")

# phase function -> tag it writes into state.log / state.phase_iterations
PHASES = {
    "worst_best_h": "wbh",
    "oma_phase": "oma",
    "uc_extension_phase": "uc",
    "single_sic_pairing": "single",
    "mutual_sic_pairing": "mutual",
}

# the waterfill functions allocators imports, reported one by one
WATERFILL_FNS = ("_lpo_core", "rate_second", "rate_single", "waterline_add",
                 "waterline_rate_shift")

DROP_SPAN = "bench.drop"


class Tracer:
    """In-memory span store plus counters, one per traced run."""

    def __init__(self, auto_drop: bool = False):
        # auto_drop: each generate_channel call starts a new drop, for
        # runs driven by the harness where the benchmark sees no drops
        self.auto_drop = auto_drop
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.drop = []
        self._stack = []
        self.drop_id = -1
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.drop.append(self.drop_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def durations(self) -> np.ndarray:
        return np.asarray(self.end) - np.asarray(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its children."""
        dur = self.durations()
        parent = np.asarray(self.parent, dtype=int)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def root_wall(self) -> float:
        """Traced wall time: the summed durations of the root spans."""
        dur = self.durations()
        return float(dur[np.asarray(self.parent, dtype=int) < 0].sum())

    def self_by_name(self) -> dict:
        out = defaultdict(float)
        for name, s in zip(self.names, self.self_times()):
            out[name] += float(s)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON, names interned into a table."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": table,
            "fields": ["name", "start_s", "end_s", "parent", "drop"],
            "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p, d]
                      for n, s, e, p, d in zip(self.names, self.start,
                                               self.end, self.parent,
                                               self.drop)],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """Traced stand-in for fn.

    ``before(args, kwargs)`` returns (ctx, args, kwargs), possibly with
    replaced arguments; ``after(ctx, args, result, seconds)`` reads the
    outcome.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        ctx = None
        if before is not None:
            ctx, args, kwargs = before(args, kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(ctx, args, out, tracer.end[idx] - tracer.start[idx])
        return out

    return traced


def _hooks(tracer: Tracer) -> dict:
    """Counter hooks keyed by span name."""
    counts, samples = tracer.counts, tracer.samples

    def alg_after(ctx, args, res, dur):
        alg = args[1].algorithm
        samples[f"run_algorithm.{alg}"].append(dur)
        counts["warnings"] += len(res.warnings)

    def phase_hooks(fn_name, tag):
        def before(args, kwargs):
            state = args[0]
            prev = state.phase_iterations.get(tag, (0, 0))[0]
            return (len(state.log), prev), args, kwargs

        def after(ctx, args, out, dur):
            state = args[0]
            start, prev = ctx
            steps = state.log[start:]
            counts[f"{fn_name}.steps"] += len(steps)
            counts[f"{fn_name}.accepted"] += sum(s.accepted for s in steps)
            counts[f"{fn_name}.iterations"] += \
                state.phase_iterations.get(tag, (0, 0))[0] - prev
        return before, after

    def rows_after(ctx, args, out, dur):
        counts["opad_cases.rows"] += int(np.asarray(args[0][0]).size)

    def opa_before(args, kwargs):
        return counts["solve_system.calls"], args, kwargs

    def opa_after(ctx, args, res, dur):
        counts["opa.calls"] += 1
        counts["opa.converged"] += bool(res.converged)
        counts["opa.active_set_solves"] += counts["solve_system.calls"] - ctx
        samples["opa.residual"].append(float(res.residual_norm))

    def solve_before(args, kwargs):
        # the residual is the caller's closure: its evaluations are
        # counted and timed as the caller's layer, not the solver's
        f = args[0]
        name = f"{LAYER_OF_MODULE.get(f.__module__, 'bench')}.{f.__name__}"

        def counted(x):
            counts["solve_system.f_evals"] += 1
            idx = tracer.open(name)
            try:
                return f(x)
            finally:
                tracer.close(idx)
        return None, (counted,) + tuple(args[1:]), kwargs

    def solve_after(ctx, args, report, dur):
        counts["solve_system.calls"] += 1
        counts["solve_system.newton_iters"] += report.iterations
        counts["solve_system.unknowns"] += int(np.asarray(args[1]).size)

    def channel_before(args, kwargs):
        if tracer.auto_drop:
            tracer.drop_id += 1
        return None, args, kwargs

    def audit_after(ctx, args, violations, dur):
        counts["audit.results"] += 1
        counts["audit.violations"] += len(violations)

    hooks = {
        "channel.generate_channel": (channel_before, None),
        "allocators.run_algorithm": (None, alg_after),
        "mutual_sic.opad_cases": (None, rows_after),
        "optimal_pa.optimal_power_allocation": (opa_before, opa_after),
        "solver.solve_system": (solve_before, solve_after),
        "audit.audit_result": (None, audit_after),
    }
    for fn_name, tag in PHASES.items():
        hooks[f"allocators.{fn_name}"] = phase_hooks(fn_name, tag)
    return hooks


def _targets(nm) -> list:
    """(owner, attribute, span name) for every patched lookup."""
    targets = [
        (nm.channel, "generate_channel", "channel.generate_channel"),
        (nm.allocators, "run_algorithm", "allocators.run_algorithm"),
        (nm.allocators.AllocationState, "total_power",
         "allocators.total_power"),
        (nm.optimal_pa, "optimal_power_allocation",
         "optimal_pa.optimal_power_allocation"),
        (nm.audit, "audit_result", "audit.audit_result"),
        (nm.harness, "run_monte_carlo", "harness.run_monte_carlo"),
    ]
    targets += [(nm.allocators, fn, f"allocators.{fn}") for fn in PHASES]
    # names a module imported from another nomadas module
    for caller in CALLERS:
        mod = getattr(nm, caller)
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ != mod.__name__ \
                    and obj.__module__ in LAYER_OF_MODULE:
                layer = LAYER_OF_MODULE[obj.__module__]
                targets.append((mod, attr, f"{layer}.{obj.__name__}"))
    return targets


@contextmanager
def installed(tracer: Tracer, nm):
    """Patch every target with a traced wrapper; restore on exit."""
    hooks = _hooks(tracer)
    saved = []
    try:
        for owner, attr, name in _targets(nm):
            fn = vars(owner)[attr]
            before, after = hooks.get(name, (None, None))
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, before, after))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, drops: int, algorithms) -> dict:
    """Per-layer metric values of a traced run over ``drops`` drops.

    Algorithms and functions a workload never reaches read 0.
    """
    c, s = tracer.counts, tracer.samples
    self_s = tracer.self_by_name()
    nd = max(drops, 1)
    calls = defaultdict(int)
    for name in tracer.names:
        calls[name] += 1

    def ms_per_drop(name):
        return 1e3 * self_s.get(name, 0.0) / nd

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["channel.generate_channel.ms_per_drop"] = \
        ms_per_drop("channel.generate_channel")
    m["channel.drop_users.ms_per_drop"] = ms_per_drop("channel.drop_users")
    for alg in algorithms:
        d = s.get(f"run_algorithm.{alg}")
        m[f"allocators.run_algorithm.{alg}.ms_p50"] = \
            1e3 * statistics.median(d) if d else 0.0
    for fn in PHASES:
        steps = c[f"{fn}.steps"]
        m[f"allocators.{fn}.ms_per_drop"] = ms_per_drop(f"allocators.{fn}")
        m[f"allocators.{fn}.steps"] = steps / nd
        m[f"allocators.{fn}.accept_ratio"] = ratio(c[f"{fn}.accepted"], steps)
        if PHASES[fn] != "wbh":   # the only phase without an iteration count
            m[f"allocators.{fn}.iterations"] = c[f"{fn}.iterations"] / nd
    m["allocators.total_power.calls_per_drop"] = \
        calls["allocators.total_power"] / nd
    m["allocators.total_power.ms_per_drop"] = \
        ms_per_drop("allocators.total_power")
    m["allocators.warnings_per_drop"] = c["warnings"] / nd

    n_cases = calls["mutual_sic.opad_cases"]
    m["mutual_sic.opad_cases.calls_per_drop"] = n_cases / nd
    m["mutual_sic.opad_cases.rows_per_drop"] = c["opad_cases.rows"] / nd
    m["mutual_sic.opad_cases.ms_per_drop"] = ms_per_drop(
        "mutual_sic.opad_cases")
    m["mutual_sic.opad_cases.us_per_row"] = ratio(
        1e6 * self_s.get("mutual_sic.opad_cases", 0.0), c["opad_cases.rows"])
    m["mutual_sic.opad_optimize.calls_per_drop"] = \
        calls["mutual_sic.opad_optimize"] / nd
    m["mutual_sic.opad_optimize.ms_per_drop"] = ms_per_drop(
        "mutual_sic.opad_optimize")

    for fn in WATERFILL_FNS:
        m[f"waterfill.{fn}.calls_per_drop"] = calls[f"waterfill.{fn}"] / nd
        m[f"waterfill.{fn}.ms_per_drop"] = ms_per_drop(f"waterfill.{fn}")

    opa = "optimal_pa.optimal_power_allocation"
    m[f"{opa}.ms_per_drop"] = ms_per_drop(opa)
    m[f"{opa}.converged_frac"] = ratio(c["opa.converged"], c["opa.calls"])
    m[f"{opa}.residual_max"] = max(s["opa.residual"], default=0.0)
    m[f"{opa}.active_set_solves_per_call"] = ratio(
        c["opa.active_set_solves"], c["opa.calls"])

    n_solve = c["solve_system.calls"]
    m["solver.solve_system.calls_per_drop"] = n_solve / nd
    m["solver.solve_system.ms_per_drop"] = ms_per_drop("solver.solve_system")
    m["solver.solve_system.newton_iters_per_call"] = ratio(
        c["solve_system.newton_iters"], n_solve)
    m["solver.solve_system.f_evals_per_call"] = ratio(
        c["solve_system.f_evals"], n_solve)
    m["solver.solve_system.unknowns_mean"] = ratio(
        c["solve_system.unknowns"], n_solve)

    m["audit.audit_result.ms_per_result"] = ratio(
        1e3 * self_s.get("audit.audit_result", 0.0), c["audit.results"])
    m["audit.audit_result.violations"] = c["audit.violations"]

    by_layer = layer_self_ms(tracer, nd)
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms_per_drop"] = by_layer.get(layer, 0.0)
    return m


def layer_self_ms(tracer: Tracer, drops: int) -> dict:
    """Self milliseconds per drop of each layer, the benchmark's own too."""
    out = defaultdict(float)
    for name, sec in tracer.self_by_name().items():
        out[name.split(".", 1)[0]] += 1e3 * sec / max(drops, 1)
    return dict(out)
