"""Command-line front end: subcommands, CSV outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import nomadas
from nomadas import ALGORITHMS
from nomadas import allocators, cli, optimal_pa
from nomadas.audit import AuditReport
from nomadas.cli import _parse_algorithms, build_parser, main
from nomadas.harness import AggregateRow, TrialRecord, read_csv, run_trial
from nomadas.optimal_pa import OpaResult

DEFAULT_ALGS = ("OMA-DAS", "SRRH", "SRRH-LPO")


@pytest.fixture()
def config_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "cell_radius_m": 500.0, "num_users": 6, "num_rrhs": 4,
        "num_subcarriers": 16, "bandwidth_hz": 10e6, "noise_psd": 4e-21,
        "rate_demand_bps": 3e6}))
    return str(path)


def test_parse_algorithms_all():
    assert _parse_algorithms("all") == ALGORITHMS
    assert _parse_algorithms(" ALL ") == ALGORITHMS


def test_parse_algorithms_list():
    assert _parse_algorithms("OMA-DAS, SRRH") == ("OMA-DAS", "SRRH")


def test_parse_algorithms_unknown():
    with pytest.raises(SystemExit, match="unknown algorithm"):
        _parse_algorithms("SRRH-LP0")


def test_parse_algorithms_repeated():
    with pytest.raises(SystemExit, match="'SRRH' given twice"):
        _parse_algorithms("SRRH,OMA-DAS,SRRH")


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    assert "command" in capsys.readouterr().err


def test_simulate_writes_trials(tmp_path, config_json, capsys):
    out = tmp_path / "trials.csv"
    rc = main(["simulate", "--config", config_json, "--trials", "2",
               "--out", str(out)])
    assert rc == 0
    records = read_csv(TrialRecord, out)
    assert len(records) == 2 * len(DEFAULT_ALGS)
    assert {r.algorithm for r in records} == set(DEFAULT_ALGS)
    assert not any(r.failed for r in records)
    assert "mean" in capsys.readouterr().out


def test_simulate_rate_override_and_aggregate(tmp_path, config_json):
    out = tmp_path / "trials.csv"
    agg = tmp_path / "agg.csv"
    rc = main(["simulate", "--config", config_json, "--trials", "2",
               "--rate", "2e6", "--algorithms", "OMA-DAS",
               "--out", str(out), "--aggregate-out", str(agg)])
    assert rc == 0
    records = read_csv(TrialRecord, out)
    assert all(r.sweep_value == 2e6 for r in records)
    rows = read_csv(AggregateRow, agg)
    assert len(rows) == 1
    assert rows[0].n_trials == 2 and rows[0].n_failed == 0


def test_sweep_covers_all_values(tmp_path, config_json):
    out = tmp_path / "sweep.csv"
    agg = tmp_path / "agg.csv"
    rc = main(["sweep", "--config", config_json, "--axis", "users",
               "--values", "4,6", "--trials", "2",
               "--algorithms", "OMA-DAS,SRRH", "--out", str(out),
               "--aggregate-out", str(agg)])
    assert rc == 0
    records = read_csv(TrialRecord, out)
    assert len(records) == 2 * 2 * 2
    assert {r.sweep_value for r in records} == {4.0, 6.0}
    rows = read_csv(AggregateRow, agg)
    assert len(rows) == 4


def test_summary_names_point_and_failures(tmp_path, config_json, capsys):
    rc = main(["simulate", "--config", config_json, "--trials", "1",
               "--algorithms", "OMA-DAS", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert "rate=3e+06" in capsys.readouterr().out


def test_summary_prints_paired_saving_and_subcarriers(tmp_path, config_json,
                                                     capsys):
    agg = tmp_path / "agg.csv"
    rc = main(["simulate", "--config", config_json, "--trials", "2",
               "--algorithms", "OMA-DAS,SRRH", "--out",
               str(tmp_path / "t.csv"), "--aggregate-out", str(agg)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    for line, row in zip(lines, read_csv(AggregateRow, agg)):
        assert f"saving {row.paired_saving:+6.1%} vs OMA-DAS" in line
        assert (f"plain/mutual/single sc {row.mean_nonmux_sc:.1f}/"
                f"{row.mean_mutsic_sc:.1f}/{row.mean_singsic_sc:.1f}") in line
    assert "saving  +0.0% vs OMA-DAS" in lines[0]


def test_summary_prints_joint_power_allocation_work(tmp_path, config_json,
                                                   capsys):
    """The summary adds one line for SRRH-OPA: the Newton steps and the
    active-set solves of its joint power allocation, summed over the
    trials' records; algorithms without one print no such line."""
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--config", config_json, "--trials", "3",
               "--algorithms", "OMA-DAS,SRRH-OPA", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    opa = [r for r in read_csv(TrialRecord, out) if r.algorithm == "SRRH-OPA"]
    steps, solves = (sum(getattr(r, f) for r in opa)
                     for f in ("opa_iterations", "opa_solves"))
    assert solves >= len(opa) == 3
    assert lines[2:] == [f"      SRRH-OPA  joint power allocation: {steps} "
                         f"Newton steps in {solves} active-set solves over "
                         f"3 trials"]


def test_sweep_prints_failed_trials(tmp_path, config_json, monkeypatch,
                                    capsys):
    def boom(state):
        raise RuntimeError("planted")

    monkeypatch.setattr(allocators, "worst_best_h", boom)
    rc = main(["sweep", "--config", config_json, "--axis", "rate",
               "--values", "2e6", "--trials", "2", "--algorithms", "OMA-DAS",
               "--out", str(tmp_path / "sweep.csv")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "rate=2e+06" in out
    assert "(2 failed, 0 warned)" in out


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "unused.csv"], ["audit"], ["oracle"]])
def test_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "seed must be non-negative" in capsys.readouterr().err


_RUNS = {"simulate": ["simulate", "--out", "unused.csv"],
         "sweep": ["sweep", "--axis", "rate", "--values", "1e6", "--out",
                   "unused.csv"],
         "audit": ["audit"], "oracle": ["oracle"]}


@pytest.mark.parametrize("command, option, value", [
    (c, "--trials", v) for c in _RUNS for v in ("0", "-3")] + [
    (c, "--workers", "0") for c in ("simulate", "sweep")])
def test_non_positive_count_is_a_usage_error(command, option, value,
                                             capsys):
    """Zero trials would pass every check without running one."""
    with pytest.raises(SystemExit) as exc:
        main(_RUNS[command] + [option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be positive: {value}" \
        in capsys.readouterr().err


def test_audit_clean_run_exits_zero(config_json, capsys):
    rc = main(["audit", "--config", config_json, "--trials", "2",
               "--algorithms", "all"])
    assert rc == 0
    assert "0 violations" in capsys.readouterr().out


def test_audit_violations_exit_nonzero(monkeypatch, config_json, capsys):
    def fake(scenario, algorithms, trials, base_seed=0):
        return AuditReport(1, (("SRRH", 0, "planted"),))

    monkeypatch.setattr(cli, "run_invariant_audit", fake)
    rc = main(["audit", "--config", config_json, "--trials", "1"])
    assert rc == 1
    assert "planted" in capsys.readouterr().out


def test_oracle_exits_zero(capsys):
    rc = main(["oracle", "--trials", "3"])
    assert rc == 0
    assert "0 failures" in capsys.readouterr().out


def test_oracle_checks_window_constrained_optimum(capsys):
    rc = main(["oracle", "--trials", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    checked = re.search(r"window-constrained optimum on (\d+) drops", out)
    assert int(checked.group(1)) > 0


@pytest.mark.parametrize("converges", [True, False],
                         ids=["solver", "unconverged"])
def test_oracle_counts_every_mutual_drop(converges, monkeypatch, capsys):
    """A drop with a mutual pair is checked or counted as unconverged."""
    trials = 20
    mutual = sum(bool(res.state.pairs) for t in range(trials) for _, res in
                 run_trial(cli.ORACLE_CELL, ("MutSIC-DPA",), 0, t)[1])
    if not converges:
        def unconverged(state):
            P = state.power_tensor()
            return OpaResult(P, float(P.sum()), False, 0, float("inf"))

        monkeypatch.setattr(cli, "mutual_power_optimum", unconverged)
    rc = main(["oracle", "--trials", str(trials)])
    assert rc == 0
    out = capsys.readouterr().out
    checked, bad = map(int, re.search(
        r"window-constrained optimum on (\d+) drops \((\d+) unconverged\)",
        out).groups())
    assert mutual > 0 and checked + bad == mutual
    assert bad == (0 if converges else mutual)
    assert out.count("window-constrained optimum did not converge") == bad


def test_summary_counts_warned_trials(tmp_path, config_json, monkeypatch,
                                      capsys):
    """Every SRRH-OPA trial falls back to its waterfilled powers when the
    last active-set solve does not converge: each warns, none fails, and
    the summary and the aggregate CSV count the warned trials."""
    real = optimal_pa.solve_system

    def unconverged(f, z0, **kwargs):
        return replace(real(f, z0, **kwargs), converged=False)

    monkeypatch.setattr(optimal_pa, "solve_system", unconverged)
    out, agg = tmp_path / "t.csv", tmp_path / "agg.csv"
    rc = main(["simulate", "--config", config_json, "--trials", "3",
               "--algorithms", "SRRH-LPO,SRRH-OPA", "--out", str(out),
               "--aggregate-out", str(agg)])
    assert rc == 0
    records = read_csv(TrialRecord, out)
    assert [bool(r.warnings) for r in records] == [False, True] * 3
    assert not any(r.failed for r in records)
    lpo, opa = read_csv(AggregateRow, agg)
    assert (lpo.n_failed, lpo.n_warned) == (0, 0)
    assert (opa.n_trials, opa.n_failed, opa.n_warned) == (3, 0, 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("over 3 trials (0 failed, 0 warned)")
    assert lines[1].endswith("over 3 trials (0 failed, 3 warned)")


def test_audit_takes_no_workers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--workers", "7"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_oracle_counts_allocation_crashes(monkeypatch, capsys):
    def boom(state):
        raise RuntimeError("planted")

    monkeypatch.setattr(allocators, "worst_best_h", boom)
    rc = main(["oracle", "--trials", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "allocation crashed" in out and "2 failures" in out


def _run_module(*args):
    """`python -m nomadas *args` in a child process that imports the
    package this run imported, installed or not."""
    src = str(Path(nomadas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "nomadas", *args], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point(tmp_path, config_json):
    out = tmp_path / "trials.csv"
    proc = _run_module("simulate", "--config", config_json, "--trials", "1",
                       "--algorithms", "OMA-DAS", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(TrialRecord, out)) == 1


@pytest.mark.parametrize("args, message", [
    (["simulate", "--rate=-1e6", "--trials", "1"],
     "invalid scenario: cell radius and rate demand must be positive"),
    (["sweep", "--axis", "users", "--values=100", "--trials", "1"],
     "invalid run settings: needs at least one subcarrier per user"),
    (["sweep", "--axis", "users", "--values=2.5", "--trials", "1"],
     "invalid run settings: num_users must be an integer, got 2.5"),
    (["sweep", "--axis", "rate", "--values=-1e6", "--trials", "1"],
     "invalid run settings: cell radius and rate demand must be positive"),
], ids=["rate", "sweep-users", "sweep-users-fraction", "sweep-rate"])
def test_invalid_scenario_is_a_one_line_error(args, message, tmp_path):
    out = tmp_path / "trials.csv"
    proc = _run_module(*args, "--out", str(out))
    assert proc.returncode != 0
    assert proc.stderr == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"rate_demand_bps": "9e6"},
     "invalid scenario: rate_demand_bps must be a number, got '9e6'"),
    ({"rate_demand_bps": True},
     "invalid scenario: rate_demand_bps must be a number, got True"),
    ({"num_users": False},
     "invalid scenario: num_users must be a number, got False"),
], ids=["string", "bool", "bool-count"])
def test_config_value_of_wrong_type_is_a_one_line_error(config, message,
                                                        tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    proc = _run_module("audit", "--config", str(path), "--trials", "1")
    assert proc.returncode != 0
    assert proc.stderr == message + "\n"


def test_missing_config_file_is_a_one_line_error(tmp_path):
    path = tmp_path / "no" / "such.json"
    proc = _run_module("audit", "--config", str(path), "--trials", "1")
    assert proc.returncode != 0
    assert proc.stderr == (f"invalid scenario: cannot read {path}: "
                           "No such file or directory\n")
