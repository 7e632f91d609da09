"""Monte Carlo harness: sweeps, trial records, aggregation, CSV persistence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nomadas import AlgorithmConfig, generate_channel, run_algorithm
from nomadas import harness, optimal_pa
from nomadas.harness import (AGGREGATE_COLUMNS, TRIAL_COLUMNS, AggregateRow,
                             RunConfig, TrialRecord, aggregate, apply_sweep,
                             read_aggregate_csv, read_trial_csv,
                             run_monte_carlo, sweep_points, write_aggregate_csv,
                             write_trial_csv)

from conftest import SMALL

ALGS = ("OMA-DAS", "SRRH", "SRRH-LPO")


# -- configuration ------------------------------------------------------------

def test_config_rejects_unknown_axis():
    with pytest.raises(ValueError, match="sweep axis"):
        RunConfig(SMALL, sweep_axis="power")


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="algorithm"):
        RunConfig(SMALL, algorithms=("OMA-DAS", "SRHH"))


@pytest.mark.parametrize("field", [dict(trials=0), dict(workers=0)])
def test_config_rejects_nonpositive_counts(field):
    with pytest.raises(ValueError, match="positive"):
        RunConfig(SMALL, **field)


@pytest.mark.parametrize("axis,value,attr", [
    ("rate", 5e6, "rate_demand_bps"),
    ("users", 9, "num_users"),
    ("rrhs", 7, "num_rrhs"),
    ("subcarriers", 32, "num_subcarriers"),
])
def test_apply_sweep_axes(axis, value, attr):
    swept = apply_sweep(SMALL, axis, value)
    assert getattr(swept, attr) == value
    assert swept.seed == SMALL.seed


def test_apply_sweep_unknown_axis():
    with pytest.raises(ValueError, match="sweep axis"):
        apply_sweep(SMALL, "noise", 1.0)


def test_sweep_points_default_to_scenario():
    assert sweep_points(RunConfig(SMALL)) == (SMALL.rate_demand_bps,)
    assert sweep_points(RunConfig(SMALL, sweep_axis="users")) == (
        SMALL.num_users,)


def test_sweep_points_explicit():
    cfg = RunConfig(SMALL, sweep_axis="rrhs", sweep_values=(4, 5, 7))
    assert sweep_points(cfg) == (4, 5, 7)


# -- trial execution -----------------------------------------------------------

@pytest.fixture(scope="module")
def records():
    cfg = RunConfig(SMALL, ALGS, trials=4, base_seed=11,
                    sweep_axis="rate", sweep_values=(2e6, 3e6))
    return run_monte_carlo(cfg)


def test_record_count_and_order(records):
    assert len(records) == 2 * 4 * len(ALGS)
    keys = [(r.sweep_value, r.trial, r.algorithm) for r in records]
    expect = [(v, t, a) for v in (2e6, 3e6) for t in range(4) for a in ALGS]
    assert keys == expect


def test_trial_seeds_xor_base(records):
    for r in records:
        assert r.seed == 11 ^ r.trial


def test_algorithms_share_channel_per_trial(records):
    """Every algorithm in a trial must see the same drop: re-run one."""
    by_trial = {}
    for r in records:
        by_trial.setdefault((r.sweep_value, r.trial), []).append(r)
    for (value, trial), recs in by_trial.items():
        assert len({r.seed for r in recs}) == 1
    sample = [r for r in records if r.sweep_value == 3e6 and r.trial == 2]
    scen = apply_sweep(SMALL, "rate", 3e6)
    ch = generate_channel(scen, np.random.default_rng(11 ^ 2))
    for r in sample:
        res = run_algorithm(ch, AlgorithmConfig(r.algorithm))
        assert res.total_power_w == r.total_power_w


def test_run_is_deterministic(records):
    cfg = RunConfig(SMALL, ALGS, trials=4, base_seed=11,
                    sweep_axis="rate", sweep_values=(2e6, 3e6))
    assert run_monte_carlo(cfg) == records


def test_worker_pool_matches_serial():
    cfg = dict(scenario=SMALL, algorithms=("OMA-DAS", "SRRH"), trials=2,
               base_seed=3)
    serial = run_monte_carlo(RunConfig(**cfg))
    pooled = run_monte_carlo(RunConfig(**cfg, workers=2))
    assert pooled == serial


def test_failures_are_captured(monkeypatch):
    real = run_algorithm

    def flaky(channel, acfg):
        if acfg.algorithm == "SRRH":
            raise RuntimeError("injected")
        return real(channel, acfg)

    monkeypatch.setattr(harness, "run_algorithm", flaky)
    recs = run_monte_carlo(RunConfig(SMALL, ("OMA-DAS", "SRRH"), trials=3))
    bad = [r for r in recs if r.algorithm == "SRRH"]
    good = [r for r in recs if r.algorithm == "OMA-DAS"]
    assert all(r.failed and "injected" in r.error for r in bad)
    assert all(math.isnan(r.total_power_w) for r in bad)
    assert all(not r.failed and r.error == "" for r in good)


def test_warnings_reach_trial_records(monkeypatch):
    real = run_algorithm

    def warned(channel, acfg):
        res = real(channel, acfg)
        if acfg.algorithm == "SRRH":
            return replace(res, warnings=("first, note", "second"))
        return res

    monkeypatch.setattr(harness, "run_algorithm", warned)
    recs = run_monte_carlo(RunConfig(SMALL, ("OMA-DAS", "SRRH"), trials=2))
    assert all(r.warnings == "first, note; second"
               for r in recs if r.algorithm == "SRRH")
    assert all(r.warnings == "" for r in recs if r.algorithm == "OMA-DAS")


def test_opa_fallback_warning_reaches_trial_records(monkeypatch):
    """The SRRH-OPA fallback says how far its Newton solve got."""
    def stalled(state):
        p = state.power_tensor()
        return optimal_pa.OpaResult(p, float(p.sum()), False, 7, 3.1e-5)

    monkeypatch.setattr(optimal_pa, "optimal_power_allocation", stalled)
    recs = run_monte_carlo(RunConfig(SMALL, ("SRRH-OPA",), trials=2))
    assert len(recs) == 2
    for r in recs:
        assert not r.failed
        assert r.warnings == ("optimal power allocation did not converge "
                              "(7 Newton iterations, KKT residual 3.1e-05); "
                              "keeping waterfilled powers")


# -- aggregation ---------------------------------------------------------------

def _rec(alg, value, trial, power, failed=False):
    return TrialRecord("rate", value, alg, trial, trial, power,
                       4, 0, 1, failed, "boom" if failed else "")


def test_aggregate_means_and_failures():
    recs = [_rec("SRRH", 1e6, 0, 2.0), _rec("SRRH", 1e6, 1, 4.0),
            _rec("SRRH", 1e6, 2, float("nan"), failed=True),
            _rec("OMA-DAS", 1e6, 0, 8.0)]
    rows = aggregate(recs)
    assert [r.algorithm for r in rows] == ["SRRH", "OMA-DAS"]
    srrh = rows[0]
    assert srrh.n_trials == 2 and srrh.n_failed == 1
    assert srrh.mean_power_w == pytest.approx(3.0)
    assert srrh.std_power_w == pytest.approx(1.0)
    assert srrh.mean_nonmux_sc == pytest.approx(4.0)
    assert rows[1].mean_power_w == pytest.approx(8.0)


def test_aggregate_all_failed_is_nan_row():
    rows = aggregate([_rec("SRRH", 1e6, t, float("nan"), failed=True)
                      for t in range(3)])
    assert len(rows) == 1
    assert rows[0].n_trials == 0 and rows[0].n_failed == 3
    assert math.isnan(rows[0].mean_power_w)


def test_aggregate_splits_sweep_values(records):
    rows = aggregate(records)
    assert len(rows) == 2 * len(ALGS)
    for row in rows:
        subset = [r.total_power_w for r in records
                  if r.algorithm == row.algorithm
                  and r.sweep_value == row.sweep_value]
        assert row.mean_power_w == pytest.approx(np.mean(subset), rel=1e-12)


# -- CSV persistence -------------------------------------------------------------

def test_trial_csv_roundtrip(records, tmp_path):
    path = tmp_path / "trials.csv"
    mixed = list(records) + [_rec("SRRH", 9e9, 0, float("nan"), failed=True)]
    write_trial_csv(mixed, path)
    back = read_trial_csv(path)
    assert len(back) == len(mixed)
    for a, b in zip(mixed, back):
        for col in TRIAL_COLUMNS:
            va, vb = getattr(a, col), getattr(b, col)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb, col


def test_trial_csv_roundtrip_keeps_warnings(tmp_path):
    path = tmp_path / "trials.csv"
    recs = [replace(_rec("SRRH", 1e6, t, 1.5), warnings=w)
            for t, w in enumerate(["", "one warning",
                                   'quoted "text", comma; and more'])]
    write_trial_csv(recs, path)
    assert path.read_text().splitlines()[0].endswith(",warnings")
    assert read_trial_csv(path) == recs


def test_aggregate_csv_roundtrip(records, tmp_path):
    path = tmp_path / "agg.csv"
    rows = aggregate(records)
    write_aggregate_csv(rows, path)
    assert read_aggregate_csv(path) == rows


def test_trial_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("algorithm,total\nSRRH,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trial_csv(path)


def test_aggregate_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TRIAL_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_aggregate_csv(path)


def test_aggregate_row_columns_cover_dataclass():
    assert AGGREGATE_COLUMNS == tuple(AggregateRow.__dataclass_fields__)
    assert TRIAL_COLUMNS == tuple(TrialRecord.__dataclass_fields__)
