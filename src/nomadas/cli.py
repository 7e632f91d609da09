"""Command-line front end.

Subcommands:
  simulate   Monte Carlo run at the scenario's own operating point.
  sweep      Monte Carlo run across an axis (rate, users, rrhs, subcarriers).
  audit      Run algorithms on fresh drops and check every invariant.
  oracle     Compare greedy allocations against the reference optimizers.

simulate and sweep write per-trial CSVs and, optionally, aggregate CSVs.
audit and oracle exit nonzero when a check fails, so both are usable as
smoke tests in automation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .allocators import ALGORITHMS, AlgorithmConfig, run_algorithm
from .audit import run_invariant_audit
from .channel import generate_channel
from .harness import (SWEEP_AXES, RunConfig, aggregate, run_monte_carlo,
                      write_aggregate_csv, write_trial_csv)
from .optimal_pa import (OracleInfeasible, constrained_mutual_pa_oracle,
                         optimal_power_allocation)
from .scenario import Scenario, load_scenario


def _parse_algorithms(text: str) -> tuple:
    if text.strip().lower() == "all":
        return ALGORITHMS
    algs = tuple(a.strip() for a in text.split(",") if a.strip())
    for a in algs:
        if a not in ALGORITHMS:
            raise SystemExit(f"unknown algorithm {a!r}; choose from "
                             f"{', '.join(ALGORITHMS)} or 'all'")
    return algs


def _scenario_from(args) -> Scenario:
    scen = load_scenario(args.config) if args.config else Scenario()
    if getattr(args, "rate", None) is not None:
        scen = scen.with_(rate_demand_bps=args.rate)
    return scen


def _add_common(p):
    p.add_argument("--config", help="scenario JSON file (defaults built in)")
    p.add_argument("--algorithms", default="OMA-DAS,SRRH,SRRH-LPO",
                   help="comma-separated algorithm names, or 'all'")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)


def _cmd_run(args) -> int:
    """simulate and sweep; simulate sweeps the scenario's own rate."""
    values = args.values.split(",") if args.values else ()
    config = RunConfig(scenario=_scenario_from(args),
                       algorithms=_parse_algorithms(args.algorithms),
                       trials=args.trials, base_seed=args.seed,
                       sweep_axis=args.axis,
                       sweep_values=tuple(float(v) for v in values),
                       workers=args.workers)
    records = run_monte_carlo(config)
    write_trial_csv(records, args.out)
    rows = aggregate(records)
    if args.aggregate_out:
        write_aggregate_csv(rows, args.aggregate_out)
    for row in rows:
        print(f"{row.algorithm:>14s}  {row.sweep_axis}={row.sweep_value:g}  "
              f"mean {row.mean_power_w:.6e} W  over {row.n_trials} trials "
              f"({row.n_failed} failed)")
    return 0


def _cmd_audit(args) -> int:
    scen = _scenario_from(args)
    report = run_invariant_audit(scen, _parse_algorithms(args.algorithms),
                                 args.trials, args.seed)
    print(f"checked {report.results_checked} allocations, "
          f"{len(report.violations)} violations")
    for alg, trial, msg in report.violations[:50]:
        print(f"  {alg} trial {trial}: {msg}")
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    """Greedy allocations must never beat the reference optimizers."""
    failures = 0
    checked_opa = checked_mut = 0
    scen = Scenario(cell_radius_m=300.0, num_users=3, num_rrhs=3,
                    num_subcarriers=8, rate_demand_bps=2e6)
    for t in range(args.trials):
        channel = generate_channel(scen, np.random.default_rng(
            args.seed ^ t))
        lpo = run_algorithm(channel, AlgorithmConfig("SRRH-LPO"))
        opa = optimal_power_allocation(lpo.state)
        if opa.converged:
            checked_opa += 1
            if opa.total_power_w > lpo.total_power_w * (1 + 1e-9):
                failures += 1
                print(f"trial {t}: joint optimum above greedy "
                      f"({opa.total_power_w:.6e} > "
                      f"{lpo.total_power_w:.6e})")
        dpa = run_algorithm(channel, AlgorithmConfig("MutSIC-DPA"))
        if dpa.state.mutuals and len(dpa.state.mutuals) <= 3:
            try:
                oracle = constrained_mutual_pa_oracle(dpa.state)
            except OracleInfeasible:
                continue
            checked_mut += 1
            if oracle.total_power_w > dpa.total_power_w * (1 + 1e-9):
                failures += 1
                print(f"trial {t}: window-constrained optimum above "
                      f"greedy ({oracle.total_power_w:.6e} > "
                      f"{dpa.total_power_w:.6e})")
    print(f"joint power optimum checked on {checked_opa} drops, "
          f"window-constrained optimum on {checked_mut} drops, "
          f"{failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomadas",
        description="Downlink power-minimization simulator for NOMA over "
                    "distributed antenna systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo at one operating point")
    _add_common(p)
    p.add_argument("--rate", type=float, help="override rate demand (bit/s)")
    p.add_argument("--out", required=True, help="per-trial CSV path")
    p.add_argument("--aggregate-out", help="aggregate CSV path")
    p.set_defaults(func=_cmd_run, axis="rate", values=None)

    p = sub.add_parser("sweep", help="Monte Carlo across a parameter axis")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")
    p.add_argument("--out", required=True, help="per-trial CSV path")
    p.add_argument("--aggregate-out", help="aggregate CSV path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("audit", help="invariant checks on fresh drops")
    _add_common(p)
    p.add_argument("--rate", type=float, help="override rate demand (bit/s)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("oracle", help="greedy vs reference optimizers")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
