"""Invariant audit: clean allocations pass, tampered ones are caught."""

import numpy as np
import pytest

from nomadas import ALGORITHMS, AlgorithmConfig, generate_channel, run_algorithm
from nomadas import allocators
from nomadas.allocators import StepRecord
from nomadas.audit import AuditReport, audit_result, run_invariant_audit

from conftest import SMALL

LOADED = SMALL.with_(rate_demand_bps=10e6, num_users=12)


def fresh(algorithm, seed=17, scenario=LOADED):
    ch = generate_channel(scenario, np.random.default_rng(seed))
    return run_algorithm(ch, AlgorithmConfig(algorithm, rho_w=0.0))


# -- clean allocations audit clean ---------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clean_result_has_no_violations(algorithm):
    for seed in (17, 18, 19):
        assert audit_result(fresh(algorithm, seed)) == []


def test_run_invariant_audit_all_algorithms():
    report = run_invariant_audit(SMALL, ALGORITHMS, trials=3, base_seed=2)
    assert report.ok
    assert report.results_checked == 3 * len(ALGORITHMS)
    assert report.violations == ()


def test_report_ok_reflects_violations():
    assert not AuditReport(1, (("SRRH", 0, "boom"),)).ok


def test_audit_counts_crashes(monkeypatch):
    def boom(state):
        raise RuntimeError("injected")

    monkeypatch.setattr(allocators, "worst_best_h", boom)
    report = run_invariant_audit(SMALL, ("OMA-DAS",), trials=2)
    assert not report.ok
    assert len(report.violations) == 2
    assert all("crashed" in msg for _, _, msg in report.violations)


# -- tampering is detected -------------------------------------------------------

def _assigned_slot(result):
    ks, ns, rs, _ = result.state.links()
    return ks[0], ns[0], rs[0]


def test_detects_negative_power():
    res = fresh("OMA-DAS")
    k, n, r = _assigned_slot(res)
    res.power_w[k, n, r] = -1e-6
    msgs = audit_result(res)
    assert any("negative" in m for m in msgs)


def test_detects_power_on_unassigned_slot():
    res = fresh("OMA-DAS")
    k, n, r = _assigned_slot(res)
    res.power_w[k, n, (r + 1) % res.state.gains.shape[2]] = 1e-9
    assert any("unassigned" in m for m in audit_result(res))


def test_detects_missed_demand():
    res = fresh("OMA-DAS")
    k, n, r = _assigned_slot(res)
    res.power_w[k, n, r] *= 0.5
    assert any("misses demand" in m for m in audit_result(res))


def test_detects_waterline_drift():
    res = fresh("OMA-DAS")
    k, _, _ = _assigned_slot(res)
    res.state.waterline[k] *= 1.01
    assert any("waterline" in m for m in audit_result(res))


def test_detects_counter_mismatch():
    res = fresh("OMA-DAS")
    res.nonmux_sc -= 1
    res.mutsic_sc += 1
    assert any("counters" in m for m in audit_result(res))


def test_detects_bad_greedy_step():
    res = fresh("OMA-DAS")
    res.state.log.append(StepRecord("wsh", 0, 0, True, +1e-6, 1.0, 1.0))
    msgs = audit_result(res)
    assert any("not below -rho" in m for m in msgs)


def test_detects_optimistic_prediction():
    res = fresh("OMA-DAS")
    res.state.log.append(StepRecord("wsh", 0, 0, True, -1e-2, 1.0, 1.0 - 1e-6))
    assert any("!= predicted" in m for m in audit_result(res))


def test_detects_loop_budget_overrun():
    res = fresh("OMA-DAS")
    phase = next(iter(res.state.phase_iterations))
    iters, limit = res.state.phase_iterations[phase]
    res.state.phase_iterations[phase] = (limit + 1, limit)
    assert any("bound" in m for m in audit_result(res))


def _with_pairs(algorithm):
    for seed in range(17, 60):
        res = fresh(algorithm, seed)
        if res.state.pairs:
            return res
    pytest.fail(f"no drop produced a pair for {algorithm}")


def test_detects_broken_power_order_in_pair():
    res = _with_pairs("SRRH-LPO")
    sp = res.state.pairs[0]
    assert sp.r1 == sp.r2
    res.power_w[sp.k2, sp.n, sp.r2] = res.power_w[sp.k1, sp.n, sp.r1] * 0.5
    assert any("below p1" in m for m in audit_result(res))


def test_detects_mutual_pair_outside_window():
    res = _with_pairs("MutSIC-SOPAd")
    mp = res.state.pairs[0]
    assert mp.r1 != mp.r2
    g21 = float(res.state.gains[mp.k2, mp.n, mp.r1])
    g22 = float(res.state.gains[mp.k2, mp.n, mp.r2])
    hi = res.power_w[mp.k1, mp.n, mp.r1] * g21 / g22
    res.power_w[mp.k2, mp.n, mp.r2] = hi * 2.0
    assert any("outside" in m for m in audit_result(res))


def test_uc_shared_subcarriers_tolerated_only_for_uc():
    for seed in range(17, 80):
        res = fresh("MutSIC-UC", seed)
        if (res.state.holders() == 2).any():
            break
    else:
        pytest.fail("no drop produced a shared subcarrier")
    assert audit_result(res) == []
    res.algorithm = "OMA-DAS"
    assert any("two sole owners" in m for m in audit_result(res))
