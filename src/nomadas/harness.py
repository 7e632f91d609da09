"""Monte Carlo harness: many channel drops, many algorithms, CSV output.

Each trial draws one channel realization (seeded as base_seed XOR trial
index so runs are reproducible and trials are independent) and runs every
requested algorithm on that same realization, which is what makes the
per-trial power ratios between algorithms meaningful.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .allocators import ALGORITHMS, AlgorithmConfig, run_algorithm
from .channel import generate_channel
from .scenario import Scenario

# sweep axis -> (the Scenario field it replaces, that field's type)
SWEEP_AXES = {
    "rate": ("rate_demand_bps", float),
    "users": ("num_users", int),
    "rrhs": ("num_rrhs", int),
    "subcarriers": ("num_subcarriers", int),
}


@dataclass(frozen=True)
class RunConfig:
    """One harness invocation: scenario, algorithm set, sweep, seeds."""

    scenario: Scenario
    algorithms: tuple = ("OMA-DAS", "SRRH", "SRRH-LPO")
    trials: int = 200
    base_seed: int = 0
    sweep_axis: str = "rate"
    sweep_values: tuple = ()    # empty: single point from the scenario
    rho_w: float = 1e-3
    mu: float = 0.01
    ftpa_alpha: float = 0.5
    workers: int = 1

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        if self.trials < 1 or self.workers < 1:
            raise ValueError("trials and workers must be positive")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one algorithm on one channel drop."""

    sweep_axis: str
    sweep_value: float
    algorithm: str
    trial: int
    seed: int
    total_power_w: float
    nonmux_sc: int
    mutsic_sc: int
    singsic_sc: int
    failed: bool
    error: str = ""
    warnings: str = ""      # AllocationResult.warnings joined by "; "


@dataclass(frozen=True)
class AggregateRow:
    """Mean statistics of one (algorithm, sweep point) cell."""

    algorithm: str
    sweep_axis: str
    sweep_value: float
    n_trials: int
    n_failed: int
    mean_power_w: float
    std_power_w: float
    mean_nonmux_sc: float
    mean_mutsic_sc: float
    mean_singsic_sc: float


def apply_sweep(scenario: Scenario, axis: str, value) -> Scenario:
    """Scenario with one swept parameter replaced."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    field, kind = SWEEP_AXES[axis]
    return scenario.with_(**{field: kind(value)})


def _run_point(config: RunConfig, value: float, trial: int):
    """All algorithms on the channel drop for one (sweep value, trial)."""
    scen = apply_sweep(config.scenario, config.sweep_axis, value)
    seed = config.base_seed ^ trial
    channel = generate_channel(scen, np.random.default_rng(seed))
    out = []
    for alg in config.algorithms:
        acfg = AlgorithmConfig(alg, rho_w=config.rho_w, mu=config.mu,
                               ftpa_alpha=config.ftpa_alpha)
        try:
            res = run_algorithm(channel, acfg)
            out.append(TrialRecord(config.sweep_axis, float(value), alg,
                                   trial, seed, res.total_power_w,
                                   res.nonmux_sc, res.mutsic_sc,
                                   res.singsic_sc, False,
                                   warnings="; ".join(res.warnings)))
        except Exception as exc:
            out.append(TrialRecord(config.sweep_axis, float(value), alg,
                                   trial, seed, float("nan"), 0, 0, 0,
                                   True, repr(exc)))
    return out


def sweep_points(config: RunConfig) -> tuple:
    """The swept values, or the scenario's own value of the axis."""
    if config.sweep_values:
        return tuple(config.sweep_values)
    return (getattr(config.scenario, SWEEP_AXES[config.sweep_axis][0]),)


def run_monte_carlo(config: RunConfig) -> list:
    """All trial records, ordered by (sweep value, trial, algorithm)."""
    values = sweep_points(config)
    cells = [(v, t) for v in values for t in range(config.trials)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_run_point, [config] * len(cells),
                                   [c[0] for c in cells],
                                   [c[1] for c in cells]))
    else:
        chunks = [_run_point(config, v, t) for v, t in cells]
    records = []
    for chunk in chunks:
        records.extend(chunk)
    return records


def aggregate(records) -> list:
    """Per-cell means over non-failed trials, insertion-ordered."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.sweep_value), []).append(rec)
    rows = []
    for (alg, value), recs in groups.items():
        ok = [r for r in recs if not r.failed]
        n_failed = len(recs) - len(ok)
        if ok:
            powers = np.array([r.total_power_w for r in ok])
            rows.append(AggregateRow(
                alg, recs[0].sweep_axis, value, len(ok), n_failed,
                float(powers.mean()), float(powers.std()),
                float(np.mean([r.nonmux_sc for r in ok])),
                float(np.mean([r.mutsic_sc for r in ok])),
                float(np.mean([r.singsic_sc for r in ok]))))
        else:
            rows.append(AggregateRow(alg, recs[0].sweep_axis, value, 0,
                                     n_failed, float("nan"), float("nan"),
                                     float("nan"), float("nan"),
                                     float("nan")))
    return rows


TRIAL_COLUMNS = ("sweep_axis", "sweep_value", "algorithm", "trial", "seed",
                 "total_power_w", "nonmux_sc", "mutsic_sc", "singsic_sc",
                 "failed", "error", "warnings")
AGGREGATE_COLUMNS = ("algorithm", "sweep_axis", "sweep_value", "n_trials",
                     "n_failed", "mean_power_w", "std_power_w",
                     "mean_nonmux_sc", "mean_mutsic_sc", "mean_singsic_sc")


def write_trial_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for r in records:
            writer.writerow([r.sweep_axis, repr(float(r.sweep_value)),
                             r.algorithm, r.trial, r.seed,
                             repr(float(r.total_power_w)),
                             r.nonmux_sc, r.mutsic_sc, r.singsic_sc,
                             int(r.failed), r.error, r.warnings])


def read_trial_csv(path) -> list:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != TRIAL_COLUMNS:
            raise ValueError(f"unexpected trial CSV header "
                             f"{reader.fieldnames}")
        for row in reader:
            records.append(TrialRecord(
                row["sweep_axis"], float(row["sweep_value"]),
                row["algorithm"], int(row["trial"]), int(row["seed"]),
                float(row["total_power_w"]), int(row["nonmux_sc"]),
                int(row["mutsic_sc"]), int(row["singsic_sc"]),
                bool(int(row["failed"])), row["error"], row["warnings"]))
    return records


def write_aggregate_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for r in rows:
            writer.writerow([r.algorithm, r.sweep_axis,
                             repr(float(r.sweep_value)),
                             r.n_trials, r.n_failed,
                             repr(float(r.mean_power_w)),
                             repr(float(r.std_power_w)),
                             repr(float(r.mean_nonmux_sc)),
                             repr(float(r.mean_mutsic_sc)),
                             repr(float(r.mean_singsic_sc))])


def read_aggregate_csv(path) -> list:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != AGGREGATE_COLUMNS:
            raise ValueError(f"unexpected aggregate CSV header "
                             f"{reader.fieldnames}")
        for row in reader:
            rows.append(AggregateRow(
                row["algorithm"], row["sweep_axis"],
                float(row["sweep_value"]), int(row["n_trials"]),
                int(row["n_failed"]), float(row["mean_power_w"]),
                float(row["std_power_w"]), float(row["mean_nonmux_sc"]),
                float(row["mean_mutsic_sc"]),
                float(row["mean_singsic_sc"])))
    return rows
