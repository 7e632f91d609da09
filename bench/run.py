"""Paired-drop benchmark of the nomadas allocators.

    python3 bench/run.py --workload paper-9M --seed 0 --seconds 50 --trace 0

One client runs a closed loop in one process: the next channel drop starts
only after every algorithm of the workload has finished the previous one.
Each drop is timed from outside the package, by calling its public
functions: ``generate_channel`` and then ``run_algorithm`` once per
algorithm, as ``harness._run_point`` does. The pool workload calls
``run_monte_carlo`` instead. Every allocation is checked outside the timed
region (see checks.py) and any failure makes the exit code nonzero.

``--trace 0`` prints the end-to-end metrics. The times of serial workloads
are scaled to a quiet host by a probe of the host's speed run next to them
(hostspeed.py); the unscaled values are in the report line. ``--trace 1`` runs the same
drops untraced and then traced (see tracing.py) and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The benchmark imports the package
from ``src/`` next to this directory and never sets BLAS thread variables:
default BLAS threading is part of what users get.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import checks
import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 0          # the seed the committed reference covers
WARMUP_SEED = 0           # the warm-up drop is the same for every seed
SETUP_REPS = 5            # set-up probes per run; setup_s is their median
POOL_TRIALS = 80          # trials per timed run_monte_carlo call (pool)
POOL_TWIN_TRIALS = 16     # trials of the serial twin a pooled call must equal
SETUP_PROBES = 3          # host-speed probes after each set-up probe
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark input family; drops come from the seed.

    ``scenario`` holds overrides of the default Scenario, ``algorithms``
    is empty for all eleven, ``tail_pct`` is the drop_ms_tail percentile.
    """

    name: str
    scenario: dict
    algorithms: tuple = ()
    pool: bool = False
    tail_pct: float = 90.0


# The reasons for each workload are in BENCHMARK.json. Each tail percentile
# leaves at least 10 drops above it in a 50 s run on a 2-core box. It is
# fixed, so that every run of a workload reports the same percentile; the
# report gives the number of drops above it. opa-12M and dense-40u run by
# hand only (see README.md): on a shared 2-core host a full check's run count
# times 50 s leaves no room for them.
WORKLOADS = {w.name: w for w in (
    Workload("paper-9M", {}, tail_pct=85.0),
    Workload("opa-12M", {"rate_demand_bps": 12e6},
             ("SRRH-LPO", "SRRH-OPA"), tail_pct=90.0),
    Workload("dense-40u", {"num_users": 40, "num_subcarriers": 128,
                           "rate_demand_bps": 5e6},
             ("SRRH-LPO", "MutSIC-DPA", "MutSIC-SOPAd", "MutSIC-OPAd",
              "MutAndSingSIC"), tail_pct=50.0),
    Workload("pool-9M", {}, pool=True),
)}

END_TO_END_UNITS = {
    "drops_per_s": "drops/s",
    "drop_ms_p50": "ms",
    "drop_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SUFFIX_UNITS = (
    (".ms_per_drop", "ms/drop"), (".self_ms_per_drop", "ms/drop"),
    (".ms_p50", "ms"), (".steps", "steps/drop"), (".iterations", "iters/drop"),
    (".accept_ratio", "ratio"), (".calls_per_drop", "calls/drop"),
    (".rows_per_drop", "rows/drop"), (".us_per_row", "us/row"),
    (".warnings_per_drop", "warnings/drop"), (".converged_frac", "ratio"),
    (".residual_max", "max-norm"), (".active_set_solves_per_call",
                                    "solves/call"),
    (".newton_iters_per_call", "iters/call"),
    (".f_evals_per_call", "evals/call"), (".unknowns_mean", "unknowns"),
    (".ms_per_result", "ms/result"), (".violations", "count"),
    ("harness.run_monte_carlo.s", "s"), ("harness.pool_speedup", "ratio"),
    ("bench.trace_overhead", "ratio"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class Program:
    """The package under test, imported from SRC, and one workload."""

    def __init__(self, workload: Workload):
        if not (SRC / "nomadas" / "__init__.py").is_file():
            raise SystemExit(f"benchmark: package source not found under "
                             f"{SRC}")
        sys.path.insert(0, str(SRC))
        import numpy as np
        import nomadas
        self.np, self.nm = np, nomadas
        self.workload = workload
        self.scenario = nomadas.Scenario(**workload.scenario)
        self.algorithms = tuple(workload.algorithms) or nomadas.ALGORITHMS
        self.workers = len(os.sched_getaffinity(0))

    def rng(self, seed: int, drop: int):
        """Generator of timed drop ``drop`` of ``seed``."""
        return self.np.random.default_rng([seed, 1, drop])

    def run_drop(self, rng) -> list:
        """One serial drop: a channel, then every algorithm on it.

        Looks the functions up on their modules at every call, so a traced
        run reaches the wrappers; a raised exception is kept as the result.
        """
        nm = self.nm
        channel = nm.channel.generate_channel(self.scenario, rng)
        out = []
        for alg in self.algorithms:
            try:
                out.append(nm.allocators.run_algorithm(
                    channel, nm.AlgorithmConfig(alg)))
            except Exception as exc:   # counted as a failed allocation
                out.append(exc)
        return out

    def run_config(self, seed: int, trials: int = None, workers: int = None):
        """Harness config of the pool workload, POOL_TRIALS trials by
        default and one worker per core."""
        return self.nm.RunConfig(self.scenario, algorithms=self.algorithms,
                                 trials=trials or POOL_TRIALS,
                                 base_seed=seed,
                                 workers=workers or self.workers)

    def warm_up(self) -> None:
        """One untimed drop, or one pooled trial per worker.

        It does not depend on the seed, so that set-up time does not vary
        with the drops a seed happens to draw.
        """
        if self.workload.pool:
            self.nm.harness.run_monte_carlo(
                self.run_config(WARMUP_SEED, trials=self.workers))
        else:
            self.run_drop(self.np.random.default_rng([WARMUP_SEED, 0]))


# -- measurement --------------------------------------------------------------

def time_drop(prog: Program, seed: int, i: int, checker: checks.Checker,
              tracer=None) -> float:
    """Wall time of drop ``i``; its results are checked afterwards."""
    rng = prog.rng(seed, i)
    if tracer is not None:
        tracer.drop_id = i
        span = tracer.open(tracing.DROP_SPAN)
    t0 = time.perf_counter()
    results = prog.run_drop(rng)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    checker.check_drop(i, prog.algorithms, results)
    return dt


def measure_serial(prog: Program, seed: int, seconds: float,
                   checker: checks.Checker):
    """Per-drop wall times of drops 0, 1, ... until ``seconds`` are spent,
    and the host-speed probe taken after each drop."""
    times, probes = [], []
    while sum(times) + sum(probes) / 1e3 < seconds:
        times.append(time_drop(prog, seed, len(times), checker))
        probes.append(hostspeed.probe_ms())
    return times, probes


def measure_pool(prog: Program, seed: int, seconds: float,
                 checker: checks.Checker, reference=None, trials=None):
    """Serial twin run, then pooled calls for about ``seconds``.

    The twin runs the first POOL_TWIN_TRIALS trials serially, untimed; the
    same trials of every pooled call must reproduce its records exactly.
    Calls stop at the call boundary nearest to ``seconds``. Returns (twin
    trials, twin wall s, list of pooled call wall s).
    """
    run_mc = prog.nm.harness.run_monte_carlo
    cfg = prog.run_config(seed, trials=trials)
    twin_cfg = replace(cfg, trials=min(cfg.trials, POOL_TWIN_TRIALS),
                       workers=1)
    t0 = time.perf_counter()
    twin_rows = [checks.record_row(r) for r in run_mc(twin_cfg)]
    twin_s = time.perf_counter() - t0
    ref_rows = reference["records"] if reference is not None else None
    calls = []
    while not calls or sum(calls) + calls[-1] / 2 < seconds:
        t0 = time.perf_counter()
        pooled = run_mc(cfg)
        calls.append(time.perf_counter() - t0)
        checker.check_rows([checks.record_row(r) for r in pooled],
                           twin_rows, ref_rows)
    return twin_cfg.trials, twin_s, calls


def tail(np, times_ms: list, pct: float):
    """(value at percentile ``pct``, number of drops above it)."""
    value = float(np.percentile(times_ms, pct))
    return value, sum(t > value for t in times_ms)


def measure_setup(workload: Workload, reps: int = SETUP_REPS):
    """Set-up probes, each a fresh interpreter: start, import, then the
    warm-up drop. Timed from before the interpreter is started to the end of
    the warm-up on the monotonic clock, which Linux shares between
    processes. ``scaled_setup_s`` is scaled by host-speed probes the child
    runs afterwards."""
    samples = []
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             json.dumps(asdict(workload))],
            capture_output=True, text=True, timeout=170, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = sample.pop("ready") - t0
        sample["scaled_setup_s"] = sample["setup_s"] * hostspeed.scale(
            sample["probe_ms"])
        samples.append(sample)
    return samples


def setup_probe(spec: str) -> None:
    t0 = time.perf_counter()
    prog = Program(Workload(**json.loads(spec)))
    t1 = time.perf_counter()
    prog.warm_up()
    t2 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1,
                      "ready": ready,
                      "probe_ms": [hostspeed.probe_ms()
                                   for _ in range(SETUP_PROBES)]}))


def peak_rss_mb(pool: bool) -> float:
    """Peak RSS of this process; for a pool, also of its waited-for
    children (pool workers and set-up probes)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# -- environment --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(prog: Program, seed: int) -> dict:
    return {
        "nproc": prog.workers,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": prog.np.__version__,
        "blas": _blas(prog.np),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- metric assembly ----------------------------------------------------------

# per-layer metrics measured by run_traced rather than from spans
RUN_LAYER_METRICS = ("harness.run_monte_carlo.s", "harness.pool_speedup",
                     "bench.trace_overhead")


def per_layer_names(algorithms) -> list:
    """Every per-layer metric name, in output order."""
    return list(tracing.layer_metrics(tracing.Tracer(), 1, algorithms)) \
        + list(RUN_LAYER_METRICS)


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def run_end_to_end(prog: Program, seed: int, seconds: float,
                   checker: checks.Checker, reference, setup_reps: int):
    wl = prog.workload
    report = {}
    if wl.pool:
        _, _, times = measure_pool(prog, seed, seconds, checker, reference)
        report.update(pool_workers=prog.workers, pool_trials=POOL_TRIALS,
                      pool_calls=len(times),
                      drop_ms_basis="pooled call wall time / trials")
    else:
        times, probes = measure_serial(prog, seed, seconds, checker)
        report.update(drops=len(times), drop_ms_basis="one drop")
    setup = measure_setup(wl, setup_reps)
    unscaled = drop_times(prog.np, wl, times)
    unscaled["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    if wl.pool:
        # two busy cores do not follow the one-core probe (README.md)
        values, host_speed = dict(unscaled), None
    else:
        scales = hostspeed.rolling_scales(probes)
        values = drop_times(prog.np, wl,
                            [t * s for t, s in zip(times, scales)])
        values["setup_s"] = statistics.median(s["scaled_setup_s"]
                                              for s in setup)
        host_speed = statistics.median(scales)
    values["peak_rss_mb"] = peak_rss_mb(wl.pool)
    report.update(tail_pct=100.0 if wl.pool else wl.tail_pct,
                  tail_beyond=values.pop("tail_beyond"),
                  host_speed=host_speed, unscaled=unscaled,
                  setup_samples=setup)
    del unscaled["tail_beyond"]
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, \
        report


def drop_times(np, wl: Workload, seconds: list) -> dict:
    """drops_per_s, drop_ms_p50 and drop_ms_tail of per-drop times, or of
    per-call times of the pool, whose tail is the slowest call."""
    per = POOL_TRIALS if wl.pool else 1
    ms = [1e3 * s / per for s in seconds]
    if wl.pool:
        tail_ms, beyond = max(ms), 0
    else:
        tail_ms, beyond = tail(np, ms, wl.tail_pct)
    return {"drops_per_s": 1e3 * len(ms) / sum(ms),
            "drop_ms_p50": statistics.median(ms),
            "drop_ms_tail": tail_ms, "tail_beyond": beyond}


def run_traced(prog: Program, seed: int, seconds: float,
               checker: checks.Checker, reference):
    """Per-layer metrics from the same drops run untraced and traced."""
    wl = prog.workload
    report = {}
    values = {"harness.run_monte_carlo.s": 0.0, "harness.pool_speedup": 0.0}
    if wl.pool:
        # pooled, serial and traced serial calls all run the twin's trials
        drops, serial_s, calls = measure_pool(
            prog, seed, seconds / 2, checker, trials=POOL_TWIN_TRIALS)
        tracer = tracing.Tracer(auto_drop=True)
        with tracing.installed(tracer, prog.nm):
            prog.nm.harness.run_monte_carlo(
                prog.run_config(seed, trials=drops, workers=1))
        untraced_s, traced_s = serial_s, tracer.root_wall()
        pool_rate = drops * len(calls) / sum(calls)
        values["harness.run_monte_carlo.s"] = statistics.median(calls)
        values["harness.pool_speedup"] = pool_rate / (drops / serial_s)
        report.update(pool_speedup_base=(
            f"serial run_monte_carlo of the same {drops} trials, "
            f"{drops / serial_s:.4g} drops/s; pooled with "
            f"{prog.workers} workers, {pool_rate:.4g} drops/s"))
    else:
        # each drop runs untraced and traced back to back, in alternating
        # order, so slow spells of a shared machine hit both sides alike
        tracer = tracing.Tracer()
        untraced, traced = [], []
        while sum(untraced) < seconds / 2:
            i = len(untraced)
            for with_trace in (i % 2 == 1, i % 2 == 0):
                if with_trace:
                    with tracing.installed(tracer, prog.nm):
                        traced.append(time_drop(prog, seed, i, checker,
                                                tracer))
                else:
                    untraced.append(time_drop(prog, seed, i, checker))
        drops = len(untraced)
        untraced_s, traced_s = sum(untraced), sum(traced)
    values["bench.trace_overhead"] = traced_s / untraced_s
    values.update(tracing.layer_metrics(tracer, drops, prog.nm.ALGORITHMS))
    metrics = {name: _metric(values[name], unit_of(name))
               for name in per_layer_names(prog.nm.ALGORITHMS)}
    layers = tracing.layer_self_ms(tracer, drops)
    program_layers = {k: v for k, v in layers.items() if k != "bench"}
    top = max(program_layers, key=program_layers.get)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json.gz"
    tracer.write(spans_path)
    report.update(traced_drops=drops, top_self_time_layer=top,
                  layer_self_ms_per_drop=layers,
                  untraced_drops_per_s=drops / untraced_s,
                  traced_drops_per_s=drops / traced_s,
                  spans=len(tracer.names),
                  spans_file=os.path.relpath(spans_path, ROOT))
    return metrics, report


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        reference: dict = None, setup_reps: int = SETUP_REPS) -> dict:
    """Measure one workload; returns the report and the result object."""
    prog = Program(workload)
    prog.warm_up()
    checker = checks.Checker(prog.nm.audit, reference)
    if trace:
        metrics, report = run_traced(prog, seed, seconds, checker, reference)
    else:
        metrics, report = run_end_to_end(prog, seed, seconds, checker,
                                         reference, setup_reps)
    summary = checker.summary()
    if workload.pool:
        summary["reference"] = (
            f"the first {min(POOL_TWIN_TRIALS, POOL_TRIALS)} trials of each "
            f"pooled call equal to a serial run_monte_carlo twin"
            + (", every pooled record against the committed reference"
               if reference is not None and not trace else
               "; no committed reference compared"))
    report = {"workload": workload.name, "trace": int(trace),
              "seconds": seconds, "environment": environment(prog, seed),
              "checks": summary, **report}
    result = {"correct": checker.rejected == 0,
              "attempted": checker.attempted,
              "failed": checker.rejected,
              "metrics": metrics}
    return {"report": report, "result": result}


def reference_for(workload: str, seed: int):
    """This workload's committed reference, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    return checks.load_reference()["workloads"].get(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), reference_for(args.workload, args.seed))
    report, result = out["report"], out["result"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    shown = dict(result["metrics"])
    if not args.trace:
        shown["fail_frac"] = report["checks"]["fail_frac"]
        shown["ref_mismatch_frac"] = report["checks"]["ref_mismatch_frac"]
    for name, m in shown.items():
        print(f"  {name:58s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"  top self-time layer: {report['top_self_time_layer']}")
    for msg in report["checks"]["messages"]:
        print(f"  check: {msg}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json", "w") as fh:
        json.dump(out, fh, indent=1)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
