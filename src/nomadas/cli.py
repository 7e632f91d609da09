"""Command-line front end.

Subcommands:
  simulate   Monte Carlo run at the scenario's own operating point.
  sweep      Monte Carlo run across an axis (rate, users, rrhs, subcarriers).
  audit      Run algorithms on fresh drops and check every invariant.
  oracle     Compare greedy allocations against the reference optimizers.

simulate and sweep write per-trial CSVs and, optionally, aggregate CSVs,
and print each algorithm's saving against the first one in --algorithms
and, for SRRH-OPA, the Newton steps and active-set solves of its joint
power allocation summed over the trials.
oracle checks SRRH-LPO against the joint power optimum on every drop and
MutSIC-DPA against the window-constrained optimum on every drop with a
mutual pair; a solve that does not converge is counted and printed, never
dropped. Every subcommand exits nonzero when a trial fails or a check does
not hold, so all four are usable as smoke tests in automation. Invalid
scenarios and run settings end in a one-line error.
"""

from __future__ import annotations

import argparse
import sys

from .allocators import ALGORITHMS, PLANS
from .audit import run_invariant_audit
from .harness import (SWEEP_AXES, AggregateRow, RunConfig, TrialRecord,
                      aggregate, run_monte_carlo, run_trial, write_csv)
from .optimal_pa import mutual_power_optimum, optimal_power_allocation
from .scenario import Scenario, load_scenario


# the oracle command's cell: dense enough that MutSIC-DPA pairs users
ORACLE_CELL = Scenario(cell_radius_m=300.0, num_users=6, num_rrhs=4,
                       num_subcarriers=8, rate_demand_bps=12e6)


def _parse_algorithms(text: str) -> tuple:
    if text.strip().lower() == "all":
        return ALGORITHMS
    algs = tuple(a.strip() for a in text.split(",") if a.strip())
    for a in algs:
        if a not in ALGORITHMS:
            raise SystemExit(f"unknown algorithm {a!r}; choose from "
                             f"{', '.join(ALGORITHMS)} or 'all'")
        if algs.count(a) > 1:
            raise SystemExit(f"algorithm {a!r} given twice")
    return algs


def _scenario_from(args) -> Scenario:
    try:
        scen = load_scenario(args.config) if args.config else Scenario()
        if getattr(args, "rate", None) is not None:
            scen = scen.with_(rate_demand_bps=args.rate)
    except ValueError as exc:
        raise SystemExit(f"invalid scenario: {exc}") from None
    return scen


def _int_at_least(least: int, message: str):
    """An argparse type: an integer of at least `least`, else `message`."""
    def parse(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"{message}: {text}")
        return int(text)
    return parse


_seed = _int_at_least(0, "seed must be non-negative")
_positive = _int_at_least(1, "must be positive")  # 0 trials check nothing


def _add_common(p):
    p.add_argument("--config", help="scenario JSON file (defaults built in)")
    p.add_argument("--algorithms", default="OMA-DAS,SRRH,SRRH-LPO",
                   help="comma-separated algorithm names, or 'all'")
    p.add_argument("--trials", type=_positive, default=50)
    p.add_argument("--seed", type=_seed, default=0)


def _cmd_run(args) -> int:
    """simulate and sweep; simulate sweeps the scenario's own rate."""
    values = args.values.split(",") if args.values else ()
    try:
        config = RunConfig(scenario=_scenario_from(args),
                           algorithms=_parse_algorithms(args.algorithms),
                           trials=args.trials, base_seed=args.seed,
                           sweep_axis=args.axis,
                           sweep_values=tuple(float(v) for v in values),
                           workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"invalid run settings: {exc}") from None
    records = run_monte_carlo(config)
    write_csv(TrialRecord, records, args.out)
    rows = aggregate(records)
    if args.aggregate_out:
        write_csv(AggregateRow, rows, args.aggregate_out)
    for row in rows:
        print(f"{row.algorithm:>14s}  {row.sweep_axis}={row.sweep_value:g}  "
              f"mean {row.mean_power_w:.6e} W  saving "
              f"{row.paired_saving:+6.1%} vs {config.algorithms[0]}  "
              f"plain/mutual/single sc {row.mean_nonmux_sc:.1f}/"
              f"{row.mean_mutsic_sc:.1f}/{row.mean_singsic_sc:.1f}  "
              f"over {row.n_trials} trials ({row.n_failed} failed, "
              f"{row.n_warned} warned)")
    for alg in config.algorithms:
        opa = [r for r in records if r.algorithm == alg and not r.failed]
        if PLANS[alg][2] and opa:
            print(f"{alg:>14s}  joint power allocation: "
                  f"{sum(r.opa_iterations for r in opa)} Newton steps in "
                  f"{sum(r.opa_solves for r in opa)} active-set solves "
                  f"over {len(opa)} trials")
    return 1 if any(row.n_failed for row in rows) else 0


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
    # optimum -> [drops checked, solves that did not converge]
    counts = {"joint power optimum": [0, 0],
              "window-constrained optimum": [0, 0]}
    for t in range(args.trials):
        _, results = run_trial(ORACLE_CELL, ("SRRH-LPO", "MutSIC-DPA"),
                               args.seed, t)
        (_, lpo), (_, dpa) = results
        crashed = [r for r in (lpo, dpa) if isinstance(r, Exception)]
        if crashed:
            failures += 1
            print(f"trial {t}: allocation crashed: {crashed[0]!r}")
            continue
        checks = [("joint power optimum", lpo, optimal_power_allocation)]
        if dpa.state.pairs:
            checks.append(("window-constrained optimum", dpa,
                           mutual_power_optimum))
        for name, greedy, optimize in checks:
            opt = optimize(greedy.state)
            if not opt.converged:
                counts[name][1] += 1
                print(f"trial {t}: {name} did not converge")
                continue
            counts[name][0] += 1
            if opt.total_power_w > greedy.total_power_w * (1 + 1e-9):
                failures += 1
                print(f"trial {t}: {name} above greedy "
                      f"({opt.total_power_w:.6e} > "
                      f"{greedy.total_power_w:.6e})")
    (opa, opa_bad), (mut, mut_bad) = counts.values()
    print(f"joint power optimum checked on {opa} drops ({opa_bad} "
          f"unconverged), window-constrained optimum on {mut} drops "
          f"({mut_bad} unconverged), {failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomadas",
        description="Downlink power-minimization simulator for NOMA over "
                    "distributed antenna systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo at one operating point")
    _add_common(p)
    p.add_argument("--workers", type=_positive, default=1)
    p.add_argument("--rate", type=float, help="override rate demand (bit/s)")
    p.add_argument("--out", required=True, help="per-trial CSV path")
    p.add_argument("--aggregate-out", help="aggregate CSV path")
    p.set_defaults(func=_cmd_run, axis="rate", values=None)

    p = sub.add_parser("sweep", help="Monte Carlo across a parameter axis")
    _add_common(p)
    p.add_argument("--workers", type=_positive, default=1)
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
    p.add_argument("--trials", type=_positive, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
