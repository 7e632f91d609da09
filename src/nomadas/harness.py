"""Monte Carlo harness: many channel drops, many algorithms, CSV output.

Trial t of a run with base seed b draws its channel from the seed
trial_seed(b, t) = (b << 32) | t, so runs are reproducible, base seed 0
draws trial t from seed t, and two base seeds never share a drop.
Every requested algorithm runs on that same drop, which is what makes
the per-trial power ratios between algorithms meaningful, and the phases
algorithms share run once per drop.

run_monte_carlo splits each sweep value's trials into chunks of about
CHUNK_TRIALS consecutive trials, a whole multiple of `workers` of them,
and runs each chunk's drops in lockstep (allocators.run_lockstep): each
drop keeps its own phase store, and at each tick the price requests of
the drops that wait on the same kind of pricing share one kernel call.
Each outcome becomes its TrialRecord as soon as it completes; the
records equal those of per-trial runs. A chunk of one trial is a lone
drop, which run_lockstep runs as one run_algorithm call per algorithm;
once run_algorithm is replaced by name, each drop of a chunk runs alone
(_run_chunk). run_trial runs one trial through allocators.run_algorithms;
the invariant audit and the oracle command draw their drops through it,
one at a time. Each TrialRecord carries its algorithm's step counts per
phase and its joint power optimization's iterations and residual.
write_csv and read_csv store the record dataclasses, one column per
field.
"""

from __future__ import annotations

import csv
import math
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import allocators
from .allocators import (ALGORITHMS, run_algorithm, run_algorithms,
                         run_lockstep)
from .channel import generate_channel
from .scenario import Scenario

# run_monte_carlo splits each sweep value's trials into a whole multiple of
# `workers` chunks of about this many consecutive trials, each run in
# lockstep: more drops per chunk share more of each pricing call, and keep
# more pair tables in memory at once
CHUNK_TRIALS = 8

# sweep axis -> the Scenario field it replaces
SWEEP_AXES = {
    "rate": "rate_demand_bps",
    "users": "num_users",
    "rrhs": "num_rrhs",
    "subcarriers": "num_subcarriers",
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
    workers: int = 1

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"repeated algorithm in {self.algorithms}")
        if self.trials < 1 or self.workers < 1:
            raise ValueError("trials and workers must be positive")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        for value in self.sweep_values:     # raises for an invalid point
            apply_sweep(self.scenario, self.sweep_axis, value)


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
    steps: str = ""         # AllocationResult.steps
    opa_iterations: int = 0
    opa_residual: float = math.nan
    opa_solves: int = 0

    # NaN-aware equality: field-by-field equality holds for a NaN cell (a
    # failed trial's total, the residual without an OPA) only while both
    # records share the NaN object, which pickling or a CSV read replaces
    def _key(self) -> tuple:
        return tuple("NaN" if isinstance(v, float) and math.isnan(v) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if type(other) is not TrialRecord:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class AggregateRow:
    """Mean statistics of one (algorithm, sweep point) cell."""

    algorithm: str
    sweep_axis: str
    sweep_value: float
    n_trials: int
    n_failed: int
    n_warned: int           # trials that carry a warning
    mean_power_w: float
    std_power_w: float
    mean_nonmux_sc: float
    mean_mutsic_sc: float
    mean_singsic_sc: float
    paired_saving: float    # against the run's first algorithm (aggregate)


def apply_sweep(scenario: Scenario, axis: str, value) -> Scenario:
    """Scenario with one swept parameter replaced; Scenario checks the
    value (a count must be integral)."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return scenario.with_(**{SWEEP_AXES[axis]: value})


def trial_seed(base_seed: int, trial: int) -> int:
    """Seed of a trial's channel drop; each base seed owns 2**32 trials."""
    return (base_seed << 32) | trial


def run_trial(scenario: Scenario, algorithms, base_seed: int, trial: int):
    """Every algorithm on the channel drop of one trial, as one family.

    Returns (seed, [(algorithm, AllocationResult or the exception its
    allocation raised)]), in the order of `algorithms`.
    """
    seed = trial_seed(base_seed, trial)
    channel = generate_channel(scenario, np.random.default_rng(seed))
    return seed, list(run_algorithms(channel, algorithms).items())


def _record(cell, alg: str, trial: int, seed: int, res) -> TrialRecord:
    """The TrialRecord of one algorithm's AllocationResult, or of the
    exception its allocation raised, at cell (sweep axis, value)."""
    if isinstance(res, Exception):
        return TrialRecord(*cell, alg, trial, seed, float("nan"), 0, 0, 0,
                           True, repr(res))
    return TrialRecord(*cell, alg, trial, seed, res.total_power_w,
                       res.nonmux_sc, res.mutsic_sc, res.singsic_sc, False,
                       warnings="; ".join(res.warnings), steps=res.steps,
                       opa_iterations=res.opa_iterations,
                       opa_residual=res.opa_residual,
                       opa_solves=res.opa_solves)


def _run_chunk(config: RunConfig, value: float, trials) -> list:
    """Trial records of all algorithms for consecutive trials of one sweep
    value, in (trial, algorithm) order: the trials' drops run in lockstep
    (run_lockstep), and each outcome becomes its record as it completes.
    Once allocators.run_algorithm is replaced by name (a tracer's wrapper),
    each drop is drawn and run on its own instead, so the replacement sees
    each drop's generate_channel call and then that drop's run_algorithm
    calls."""
    scen = apply_sweep(config.scenario, config.sweep_axis, value)
    cell = (config.sweep_axis, float(value))
    parts = [trials] if allocators.run_algorithm is run_algorithm \
        else [[t] for t in trials]
    records = []
    for part in parts:
        seeds = [trial_seed(config.base_seed, t) for t in part]
        channels = [generate_channel(scen, np.random.default_rng(s))
                    for s in seeds]
        rows = [[] for _ in part]
        for i, alg, res in run_lockstep(channels, config.algorithms):
            rows[i].append(_record(cell, alg, part[i], seeds[i], res))
        records += [rec for row in rows for rec in row]
    return records


def _chunks(config: RunConfig) -> list:
    """(sweep value, trials) of every chunk, in order: each value's trials
    split into a whole multiple of `workers` runs of consecutive trials,
    CHUNK_TRIALS long or about, less the empty ones."""
    per_value = config.workers * max(
        1, round(config.trials / (CHUNK_TRIALS * config.workers)))
    return [(v, part.tolist()) for v in sweep_points(config)
            for part in np.array_split(np.arange(config.trials), per_value)
            if part.size]


def sweep_points(config: RunConfig) -> tuple:
    """The swept values, or the scenario's own value of the axis."""
    if config.sweep_values:
        return tuple(config.sweep_values)
    return (getattr(config.scenario, SWEEP_AXES[config.sweep_axis]),)


def run_monte_carlo(config: RunConfig) -> list:
    """All trial records, ordered by (sweep value, trial, algorithm); the
    trials run in chunks (_chunks, _run_chunk), in one process or spread
    over `workers` processes."""
    chunks = _chunks(config)
    args = ([config] * len(chunks), *zip(*chunks))
    if config.workers > 1:
        # imported here, so that importing the package loads no pool; a
        # forked pool starts all its workers, so no more than there are
        # chunks
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(config.workers, len(chunks))) as pool:
            done = list(pool.map(_run_chunk, *args))
    else:
        done = list(map(_run_chunk, *args))
    return [rec for chunk in done for rec in chunk]


def aggregate(records) -> list:
    """Per-cell means over non-failed trials, insertion-ordered, with the
    counts of failed trials and of trials that carry a warning.

    The paired saving of a cell is taken against the first record's
    algorithm at the same sweep value.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.sweep_value), []).append(rec)
    ref = records[0].algorithm if records else None
    rows = []
    for (alg, value), recs in groups.items():
        ok = [r for r in recs if not r.failed]
        counts = (len(ok), len(recs) - len(ok),
                  sum(bool(r.warnings) for r in recs))
        if not ok:
            rows.append(AggregateRow(alg, recs[0].sweep_axis, value, *counts,
                                     *[float("nan")] * 6))
            continue
        powers = np.array([r.total_power_w for r in ok])
        rows.append(AggregateRow(
            alg, recs[0].sweep_axis, value, *counts,
            float(powers.mean()), float(powers.std()),
            float(np.mean([r.nonmux_sc for r in ok])),
            float(np.mean([r.mutsic_sc for r in ok])),
            float(np.mean([r.singsic_sc for r in ok])),
            _paired_saving(ok, groups.get((ref, value), ()))))
    return rows


def _paired_saving(ok, ref_recs) -> float:
    """1 - sum(power) / sum(reference power) on the trials both completed."""
    ref = {r.trial: r.total_power_w for r in ref_recs if not r.failed}
    pairs = [(r.total_power_w, ref[r.trial]) for r in ok if r.trial in ref]
    if not pairs:
        return float("nan")
    power, ref_power = np.sum(pairs, axis=0)
    return float(1.0 - power / ref_power)


# CSV cells: floats as repr(float(x)), which reads back exactly, bools as 0/1
_FORMAT = {float: lambda x: repr(float(x)), bool: int}
_PARSE = {bool: lambda text: bool(int(text))}


def _columns(kind) -> list:
    """(name, annotated type) of every field of a record dataclass."""
    hints = typing.get_type_hints(kind)
    return [(f.name, hints[f.name]) for f in fields(kind)]


def write_csv(kind, rows, path) -> None:
    """Rows of the dataclass `kind`, one column per field, header first."""
    columns = _columns(kind)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([_FORMAT.get(t, str)(getattr(row, name))
                             for name, t in columns])


def read_csv(kind, path) -> list:
    """Rows written by write_csv; a header other than kind's fields raises."""
    columns = _columns(kind)
    parsers = [_PARSE.get(t, t) for _, t in columns]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != [name for name, _ in columns]:
            raise ValueError(f"unexpected {kind.__name__} CSV header "
                             f"{header}")
        return [kind(*(parse(cell) for parse, cell in zip(parsers, line)))
                for line in reader]
