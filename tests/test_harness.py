"""Monte Carlo harness: sweeps, trial records, aggregation, CSV persistence."""

import concurrent.futures
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from nomadas import AlgorithmConfig, Scenario, generate_channel, run_algorithm
from nomadas.allocators import run_algorithms
from nomadas import harness, optimal_pa
from nomadas.harness import (AggregateRow, RunConfig, TrialRecord, aggregate,
                             apply_sweep, read_csv, run_monte_carlo,
                             sweep_points, trial_seed, write_csv)

from conftest import SMALL

ALGS = ("OMA-DAS", "SRRH", "SRRH-LPO")


# -- configuration ------------------------------------------------------------

def test_config_rejects_unknown_axis():
    with pytest.raises(ValueError, match="sweep axis"):
        RunConfig(SMALL, sweep_axis="power")


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="algorithm"):
        RunConfig(SMALL, algorithms=("OMA-DAS", "SRHH"))


def test_config_rejects_repeated_algorithm():
    """A repeated name would count its trials twice in aggregate."""
    with pytest.raises(ValueError, match="repeated"):
        RunConfig(SMALL, ("OMA-DAS", "OMA-DAS"), trials=2)


@pytest.mark.parametrize("field", [dict(trials=0), dict(workers=0)])
def test_config_rejects_nonpositive_counts(field):
    with pytest.raises(ValueError, match="positive"):
        RunConfig(SMALL, **field)


@pytest.mark.parametrize("axis, value, message", [
    ("users", 100, "subcarrier per user"), ("rate", -1e6, "rate demand")])
def test_config_rejects_invalid_sweep_point(axis, value, message):
    """A bad point fails when the run is configured, not in a worker."""
    with pytest.raises(ValueError, match=message):
        RunConfig(SMALL, sweep_axis=axis, sweep_values=(2, value))


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="base_seed"):
        RunConfig(SMALL, base_seed=-1)


def test_trial_seed_base_zero_is_trial_index():
    assert [trial_seed(0, t) for t in range(100)] == list(range(100))


def test_trial_seeds_of_distinct_bases_are_disjoint():
    base0 = {trial_seed(0, t) for t in range(100)}
    base1 = {trial_seed(1, t) for t in range(100)}
    assert not base0 & base1


@pytest.mark.parametrize("axis,value,attr", [
    ("rate", 5e6, "rate_demand_bps"),
    ("users", 9, "num_users"),
    ("rrhs", 7, "num_rrhs"),
    ("subcarriers", 32, "num_subcarriers"),
])
def test_apply_sweep_axes(axis, value, attr):
    swept = apply_sweep(SMALL, axis, value)
    assert getattr(swept, attr) == value
    assert swept.cell_radius_m == SMALL.cell_radius_m


def test_count_axes_take_integral_values_only():
    """A fractional count is an error, not a silently truncated run; an
    integral float runs as its int."""
    assert apply_sweep(SMALL, "users", 5.0).num_users == 5
    for axis in ("users", "rrhs", "subcarriers"):
        with pytest.raises(ValueError, match="must be an integer"):
            apply_sweep(SMALL, axis, 2.5)
    with pytest.raises(ValueError, match="must be an integer"):
        RunConfig(SMALL, sweep_axis="users", sweep_values=(4, 2.5))


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


def test_trial_seeds_follow_trial_seed(records):
    for r in records:
        assert r.seed == trial_seed(11, r.trial)


def test_algorithms_share_channel_per_trial(records):
    """Every algorithm in a trial must see the same drop: re-run one."""
    by_trial = {}
    for r in records:
        by_trial.setdefault((r.sweep_value, r.trial), []).append(r)
    for (value, trial), recs in by_trial.items():
        assert len({r.seed for r in recs}) == 1
    sample = [r for r in records if r.sweep_value == 3e6 and r.trial == 2]
    scen = apply_sweep(SMALL, "rate", 3e6)
    ch = generate_channel(scen, np.random.default_rng(trial_seed(11, 2)))
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


def test_pool_has_no_more_workers_than_cells(monkeypatch):
    """A fork pool starts every worker up front, so workers=8 over two
    cells asks for two. The recording pool stand-in starts no process."""
    asked = []

    class Recording:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    cfg = dict(scenario=SMALL, algorithms=("OMA-DAS",), trials=2,
               base_seed=3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    pooled = run_monte_carlo(RunConfig(**cfg, workers=8))
    assert asked == [2]
    assert pooled == run_monte_carlo(RunConfig(**cfg))
    run_monte_carlo(RunConfig(**cfg, workers=8, sweep_values=(2e6, 3e6)))
    assert asked == [2, 4]


def test_worker_pool_matches_serial_with_joint_power_allocation(monkeypatch):
    """Paper-cell SRRH-OPA in two pool workers gives the serial records,
    whole: the joint optimization's iterations and KKT residual too, on
    trials whose KKT systems reach 100 unknowns."""
    cfg = dict(scenario=Scenario(), algorithms=("SRRH-LPO", "SRRH-OPA"),
               trials=4, base_seed=2)
    unknowns = []
    real = optimal_pa.solve_system

    def counted(f, z0, **kwargs):
        unknowns.append(np.size(z0))
        return real(f, z0, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(optimal_pa, "solve_system", counted)
        serial = run_monte_carlo(RunConfig(**cfg))
    assert max(unknowns) >= 100
    pooled = run_monte_carlo(RunConfig(**cfg, workers=2))
    assert pooled == serial
    opa = [(r.opa_iterations, r.opa_residual) for r in serial
           if r.algorithm == "SRRH-OPA"]
    assert [(r.opa_iterations, r.opa_residual) for r in pooled
            if r.algorithm == "SRRH-OPA"] == opa
    assert not any(r.failed or r.warnings for r in serial)


def test_failures_are_captured(monkeypatch):
    real = run_algorithms

    def flaky(channel, algorithms):
        out = real(channel, algorithms)
        out["SRRH"] = RuntimeError("injected")
        return out

    monkeypatch.setattr(harness, "run_algorithms", flaky)
    recs = run_monte_carlo(RunConfig(SMALL, ("OMA-DAS", "SRRH"), trials=3))
    bad = [r for r in recs if r.algorithm == "SRRH"]
    good = [r for r in recs if r.algorithm == "OMA-DAS"]
    assert all(r.failed and "injected" in r.error for r in bad)
    assert all(math.isnan(r.total_power_w) for r in bad)
    assert all(not r.failed and r.error == "" for r in good)


def test_warnings_reach_trial_records(monkeypatch):
    real = run_algorithms

    def warned(channel, algorithms):
        out = real(channel, algorithms)
        out["SRRH"] = replace(out["SRRH"], warnings=("first, note", "second"))
        return out

    monkeypatch.setattr(harness, "run_algorithms", warned)
    recs = run_monte_carlo(RunConfig(SMALL, ("OMA-DAS", "SRRH"), trials=2))
    assert all(r.warnings == "first, note; second"
               for r in recs if r.algorithm == "SRRH")
    assert all(r.warnings == "" for r in recs if r.algorithm == "OMA-DAS")


def test_opa_fallback_warning_reaches_trial_records(monkeypatch):
    """The SRRH-OPA fallback says how far its Newton solve got."""
    def stalled(state):
        p = state.power_tensor()
        return optimal_pa.OpaResult(p, float(p.sum()), False, 7, 3.1e-5, 3)

    monkeypatch.setattr(optimal_pa, "optimal_power_allocation", stalled)
    recs = run_monte_carlo(RunConfig(SMALL, ("SRRH-OPA",), trials=2))
    assert len(recs) == 2
    for r in recs:
        assert not r.failed
        assert r.warnings == ("optimal power allocation did not converge "
                              "(7 Newton iterations, KKT residual 3.1e-05); "
                              "keeping waterfilled powers")
        assert (r.opa_iterations, r.opa_residual, r.opa_solves) \
            == (7, 3.1e-5, 3)


def test_step_and_opa_telemetry_reach_trial_records():
    """steps counts each phase's accepted and total steps of the state's
    log; only SRRH-OPA reports a joint optimization, converged or not."""
    algs = ("OMA-DAS", "MutAndSingSIC", "SRRH-OPA")
    recs = run_monte_carlo(RunConfig(SMALL, algs, trials=2, base_seed=5))
    scen = SMALL
    for r in recs:
        ch = generate_channel(scen, np.random.default_rng(r.seed))
        res = run_algorithm(ch, AlgorithmConfig(r.algorithm))
        tags = {}
        for step in res.state.log:
            tags.setdefault(step.phase, []).append(step.accepted)
        assert r.steps == " ".join(f"{tag}:{sum(acc)}/{len(acc)}"
                                   for tag, acc in tags.items())
        assert r.steps.startswith("wbh:6/6 oma:")
        if r.algorithm == "SRRH-OPA":
            # converged, possibly at its starting point (0 iterations)
            assert not r.warnings and r.opa_iterations >= 0
            assert 0.0 <= r.opa_residual < 1e-6 and r.opa_solves >= 1
        else:
            assert r.opa_iterations == r.opa_solves == 0
            assert math.isnan(r.opa_residual)
    assert any(" mutual:" in r.steps and " single:" in r.steps for r in recs
               if r.algorithm == "MutAndSingSIC")


# -- aggregation ---------------------------------------------------------------

def _rec(alg, value, trial, power, failed=False):
    return TrialRecord("rate", value, alg, trial, trial, power,
                       4, 0, 1, failed, "boom" if failed else "")


def test_trial_record_equality_is_nan_aware():
    """Equal records holding distinct NaN objects compare and hash equal;
    a difference in any other field still tells them apart."""
    rec = _rec("SRRH", 1e6, 0, float("nan"), failed=True)
    twin = pickle.loads(pickle.dumps(rec))
    assert twin.total_power_w is not rec.total_power_w
    assert twin == rec and hash(twin) == hash(rec)
    assert len({rec, twin}) == 1
    for change in (dict(trial=1), dict(error=""), dict(steps="wbh:1/1"),
                   dict(opa_residual=0.0), dict(total_power_w=1.0)):
        other = replace(twin, **change)
        assert other != rec and rec != other, change
    assert rec != ("rate", 1e6)


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


def test_paired_saving_is_relative_mean_saving_without_failures(records):
    assert not any(r.failed for r in records)
    rows = aggregate(records)
    ref = {r.sweep_value: r.mean_power_w for r in rows
           if r.algorithm == ALGS[0]}
    for row in rows:
        want = (ref[row.sweep_value] - row.mean_power_w) / ref[row.sweep_value]
        assert row.paired_saving == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert all(r.paired_saving == 0.0 for r in rows if r.algorithm == ALGS[0])


def test_paired_saving_skips_trials_the_reference_failed(monkeypatch):
    real = run_algorithms
    calls = []

    def fail_second_reference(channel, algorithms):
        out = real(channel, algorithms)
        calls.append(1)
        if len(calls) == 2:
            out["OMA-DAS"] = RuntimeError("injected")
        return out

    monkeypatch.setattr(harness, "run_algorithms", fail_second_reference)
    recs = run_monte_carlo(RunConfig(SMALL, ("OMA-DAS", "SRRH"), trials=3))
    power = {(r.algorithm, r.trial): r.total_power_w for r in recs}
    assert [r.trial for r in recs if r.failed] == [1]
    ref_row, srrh_row = aggregate(recs)
    paired = sum(power["SRRH", t] for t in (0, 2)) \
        / sum(power["OMA-DAS", t] for t in (0, 2))
    assert srrh_row.paired_saving == pytest.approx(1.0 - paired, rel=1e-12)
    assert srrh_row.n_trials == 3 and ref_row.n_failed == 1
    assert ref_row.paired_saving == 0.0


# -- CSV persistence -------------------------------------------------------------

# one failed NaN row, quoted error and warning text, floats that need all
# their digits; the expected bytes pin column order, number formats and
# csv quoting of both files
GOLDEN_RECORDS = [
    TrialRecord("rate", 9e6, "OMA-DAS", 0, 0, 0.1 + 0.2, 40, 0, 0, False),
    TrialRecord("rate", 9e6, "SRRH", 0, 0, 0.25, 30, 0, 10, False, "",
                'opa did not converge; keeping "waterfilled", powers'),
    TrialRecord("rate", 9e6, "OMA-DAS", 1, 1, 1e-300, 41, 0, 0, False),
    TrialRecord("rate", 9e6, "SRRH", 1, 1, float("nan"), 0, 0, 0, True,
                "RuntimeError('boom, \"quoted\"')"),
    TrialRecord("rate", 1.2e7, "OMA-DAS", 0, 0, 2.5, 64, 0, 0, False),
    TrialRecord("rate", 1.2e7, "SRRH", 0, 0, 1.75, 50, 0, 14, False, "", "",
                "wbh:6/6 oma:40/52 single:9/21", 4, 2.5e-13, 2),
]
GOLDEN_TRIAL_CSV = (
    "sweep_axis,sweep_value,algorithm,trial,seed,total_power_w,nonmux_sc,"
    "mutsic_sc,singsic_sc,failed,error,warnings,steps,opa_iterations,"
    "opa_residual,opa_solves",
    "rate,9000000.0,OMA-DAS,0,0,0.30000000000000004,40,0,0,0,,,,0,nan,0",
    'rate,9000000.0,SRRH,0,0,0.25,30,0,10,0,,"opa did not converge; '
    'keeping ""waterfilled"", powers",,0,nan,0',
    "rate,9000000.0,OMA-DAS,1,1,1e-300,41,0,0,0,,,,0,nan,0",
    'rate,9000000.0,SRRH,1,1,nan,0,0,0,1,"RuntimeError(\'boom, '
    '""quoted""\')",,,0,nan,0',
    "rate,12000000.0,OMA-DAS,0,0,2.5,64,0,0,0,,,,0,nan,0",
    "rate,12000000.0,SRRH,0,0,1.75,50,0,14,0,,,"
    "wbh:6/6 oma:40/52 single:9/21,4,2.5e-13,2",
)
GOLDEN_AGGREGATE_CSV = (
    "algorithm,sweep_axis,sweep_value,n_trials,n_failed,n_warned,"
    "mean_power_w,std_power_w,mean_nonmux_sc,mean_mutsic_sc,mean_singsic_sc,"
    "paired_saving",
    "OMA-DAS,rate,9000000.0,2,0,0,0.15000000000000002,0.15000000000000002,"
    "40.5,0.0,0.0,0.0",
    "SRRH,rate,9000000.0,1,1,1,0.25,0.0,30.0,0.0,10.0,0.16666666666666674",
    "OMA-DAS,rate,12000000.0,1,0,0,2.5,0.0,64.0,0.0,0.0,0.0",
    "SRRH,rate,12000000.0,1,0,0,1.75,0.0,50.0,0.0,14.0,0.30000000000000004",
)


@pytest.mark.parametrize("kind,rows,lines", [
    (TrialRecord, GOLDEN_RECORDS, GOLDEN_TRIAL_CSV),
    (AggregateRow, aggregate(GOLDEN_RECORDS), GOLDEN_AGGREGATE_CSV),
])
def test_csv_golden_text(kind, rows, lines, tmp_path):
    path = tmp_path / "golden.csv"
    write_csv(kind, rows, path)
    assert path.read_bytes() == "".join(f"{ln}\r\n" for ln in lines).encode()
    assert read_csv(kind, path) == rows


def test_trial_csv_roundtrip(records, tmp_path):
    path = tmp_path / "trials.csv"
    mixed = list(records) + [_rec("SRRH", 9e9, 0, float("nan"), failed=True)]
    write_csv(TrialRecord, mixed, path)
    assert read_csv(TrialRecord, path) == mixed


def test_trial_csv_roundtrip_keeps_warnings(tmp_path):
    path = tmp_path / "trials.csv"
    recs = [replace(_rec("SRRH", 1e6, t, 1.5), warnings=w)
            for t, w in enumerate(["", "one warning",
                                   'quoted "text", comma; and more'])]
    write_csv(TrialRecord, recs, path)
    assert ",warnings," in path.read_text().splitlines()[0]
    assert read_csv(TrialRecord, path) == recs


def test_aggregate_csv_roundtrip(records, tmp_path):
    path = tmp_path / "agg.csv"
    rows = aggregate(records)
    write_csv(AggregateRow, rows, path)
    assert read_csv(AggregateRow, path) == rows


def test_trial_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("algorithm,total\nSRRH,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(TrialRecord, path)


def test_aggregate_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TrialRecord.__dataclass_fields__) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(AggregateRow, path)


def test_aggregate_row_columns_cover_dataclass(tmp_path):
    """With no rows the file is the header alone: one column per field."""
    for kind in (TrialRecord, AggregateRow):
        path = tmp_path / f"{kind.__name__}.csv"
        write_csv(kind, [], path)
        assert path.read_text() == ",".join(kind.__dataclass_fields__) + "\n"
        assert read_csv(kind, path) == []
