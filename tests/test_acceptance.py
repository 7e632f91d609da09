"""Full-scale acceptance checks for the complete allocator family.

Everything here runs at the production operating point (15 users, 64
subcarriers, 4 radio heads, 10 MHz) on paired channel drops, plus the
independent-oracle equivalences at their stated tolerances. Each numbered
check prints one line with the measured values and PASS/FAIL; the whole
module finishes in about three minutes on one core.
"""

import math

import numpy as np
import pytest

from nomadas import (ALGORITHMS, AlgorithmConfig, InfeasibleWaterline,
                     Scenario, run_algorithm)
from nomadas.audit import run_invariant_audit
from nomadas.harness import RunConfig, aggregate, run_monte_carlo
from nomadas.mutual_sic import _dp1, _dp2, dpa_adjust, opad_cases
from nomadas.optimal_pa import optimal_power_allocation
from nomadas.waterfill import (_lpo_core, delta_power_noma, delta_power_oma,
                               rate_second, waterline_add, waterline_from_rate,
                               waterline_rate_shift)

from conftest import drops
from oracles import (SIGMA2_REF, bisection_waterline,
                     constrained_mutual_pa_oracle, edge_stationarity,
                     grid_best_second_power, opa_kkt_residual,
                     pairing_delta_closed_over_grid, sample_pair_instance,
                     total_power_at_rate)

FIG_ALGS = ("OMA-CAS", "NOMA-CAS", "OMA-DAS", "SRRH", "SRRH-LPO", "SRRH-OPA")
EXTENDED = FIG_ALGS + ("MutSIC-SOPAd", "MutAndSingSIC")
MUTUAL_SET = ("SRRH-LPO", "MutSIC-UC", "MutSIC-DPA", "MutSIC-OPAd",
              "MutSIC-SOPAd")
S_SC = 64
SC_BW = 156250.0


def _check(label, ok, detail):
    line = f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def _point(algorithms, rate_bps, trials=200, **overrides):
    cfg = RunConfig(Scenario().with_(rate_demand_bps=rate_bps, **overrides),
                    algorithms, trials=trials, base_seed=0)
    records = run_monte_carlo(cfg)
    return records, {r.algorithm: r for r in aggregate(records)}


@pytest.fixture(scope="module")
def run5():
    return _point(FIG_ALGS, 5e6)


@pytest.fixture(scope="module")
def run9():
    return _point(EXTENDED, 9e6)


@pytest.fixture(scope="module")
def run12():
    return _point(EXTENDED, 12e6)


@pytest.fixture(scope="module")
def run13():
    # the joint per-pair optimizer is the slowest variant; 50 drops
    return _point(MUTUAL_SET, 13e6, trials=50)


@pytest.fixture(scope="module")
def run_rrhs():
    cfg = RunConfig(Scenario().with_(rate_demand_bps=9e6),
                    ("SRRH-LPO", "MutAndSingSIC"), trials=200, base_seed=0,
                    sweep_axis="rrhs", sweep_values=(4, 5, 7))
    records = run_monte_carlo(cfg)
    return records, {(r.algorithm, r.sweep_value): r
                     for r in aggregate(records)}


@pytest.fixture(scope="module")
def run_dense():
    cfg = RunConfig(Scenario().with_(rate_demand_bps=5e6,
                                     num_subcarriers=128),
                    ("SRRH-LPO", "MutAndSingSIC"), trials=50, base_seed=0,
                    sweep_axis="users", sweep_values=(36, 40))
    records = run_monte_carlo(cfg)
    return records, {(r.algorithm, r.sweep_value): r
                     for r in aggregate(records)}


def _per_trial(records, field="total_power_w"):
    per = {}
    for r in records:
        per.setdefault(r.trial, {})[r.algorithm] = getattr(r, field)
    return per


# -- 1: configuration ordering ----------------------------------------------------

def test_c1_distributed_beats_central(run5, run9, run12):
    ordered = True
    ratios = []
    for _, rows in (run5, run9, run12):
        m = {a: rows[a].mean_power_w for a in FIG_ALGS}
        ordered &= m["OMA-CAS"] > m["NOMA-CAS"] > m["OMA-DAS"] > m["SRRH"] \
            > m["SRRH-LPO"]
        ordered &= m["SRRH-OPA"] <= m["SRRH-LPO"] * (1.0 + 1e-9)
        ratios.append(m["OMA-CAS"] / m["OMA-DAS"])
    ok = ordered and all(8.0 <= r <= 30.0 for r in ratios)
    _check("criterion 1", ok,
           "mean-power ordering held at 5/9/12 Mbps; central-to-distributed "
           "ratio " + "/".join(f"{r:.1f}" for r in ratios) + " (want 8-30)")


# -- 2: same-RRH pairing gains at 12 Mbps -----------------------------------------

def test_c2_single_sic_gains(run12):
    _, rows = run12
    base = rows["OMA-DAS"].mean_power_w
    gain = {a: (base - rows[a].mean_power_w) / base * 100
            for a in ("SRRH", "SRRH-LPO", "SRRH-OPA")}
    ftpa = rows["SRRH"].mean_power_w
    lpo = rows["SRRH-LPO"].mean_power_w
    opa = rows["SRRH-OPA"].mean_power_w
    lpo_vs_ftpa = (ftpa - lpo) / ftpa * 100
    lpo_opa_gap = (lpo - opa) / lpo * 100
    ok = abs(gain["SRRH"] - 17.6) <= 8 and abs(gain["SRRH-LPO"] - 24.5) <= 8 \
        and abs(gain["SRRH-OPA"] - 26.1) <= 8 \
        and abs(lpo_vs_ftpa - 7.7) <= 5 and 0.0 <= lpo_opa_gap <= 5.0
    _check("criterion 2", ok,
           f"gains vs OMA-DAS {gain['SRRH']:.1f}/{gain['SRRH-LPO']:.1f}/"
           f"{gain['SRRH-OPA']:.1f}% (want 17.6/24.5/26.1 +-8); "
           f"LPO vs FTPA {lpo_vs_ftpa:.1f}% (want 7.7 +-5); "
           f"LPO-to-OPA gap {lpo_opa_gap:.2f}% (want <=5)")


# -- 3: cross-RRH mutual-SIC gains ------------------------------------------------

def test_c3_mutual_sic_gains_at_13mbps(run13):
    _, rows = run13
    lpo = rows["SRRH-LPO"].mean_power_w
    want = (("MutSIC-DPA", 56.1), ("MutSIC-SOPAd", 63.9),
            ("MutSIC-OPAd", 72.9))
    gains = {a: (lpo - rows[a].mean_power_w) / lpo * 100 for a, _ in want}
    ok = all(abs(gains[a] - w) <= 10 for a, w in want)
    _check("criterion 3 (13 Mbps gains)", ok,
           ", ".join(f"{a} {gains[a]:.1f}% (want {w} +-10)"
                     for a, w in want))


def test_c3_unconstrained_bound_every_drop(run13):
    records, _ = run13
    per = _per_trial(records)
    below = sum(
        v["MutSIC-UC"] < min(v["MutSIC-DPA"], v["MutSIC-SOPAd"],
                             v["MutSIC-OPAd"])
        for v in per.values())
    ok = below == len(per)
    _check("criterion 3 (decoding-free bound)", ok,
           f"unconstrained benchmark below every constrained variant on "
           f"{below}/{len(per)} drops")


def test_c3_joint_pairing_gain_at_12mbps(run12):
    _, rows = run12
    sopad = rows["MutSIC-SOPAd"].mean_power_w
    ms = rows["MutAndSingSIC"].mean_power_w
    gain = (sopad - ms) / sopad * 100
    ok = abs(gain - 15.2) <= 8
    _check("criterion 3 (combined pairing)", ok,
           f"Mut&SingSIC vs MutSIC-SOPAd {gain:.1f}% (want 15.2 +-8)")


# -- 4: subcarrier multiplexing statistics ---------------------------------------

def test_c4_multiplexing_statistics(run9, run12):
    parts = []
    ok = True
    for label, (records, rows), single_want, mut_want in (
            ("9 Mbps", run9, 25.0, 17.0), ("12 Mbps", run12, 32.0, 23.0)):
        single = rows["SRRH-LPO"].mean_singsic_sc / S_SC * 100
        mut = rows["MutSIC-SOPAd"].mean_mutsic_sc / S_SC * 100
        per = _per_trial(records, "mutsic_sc")
        same = all(v["MutAndSingSIC"] == v["MutSIC-SOPAd"]
                   for v in per.values())
        ok &= abs(single - single_want) <= 10 and \
            abs(mut - mut_want) <= 8 and same
        parts.append(f"{label}: single-SIC {single:.1f}% "
                     f"(want {single_want} +-10), mutual {mut:.1f}% "
                     f"(want {mut_want} +-8), pair counts preserved {same}")
    _check("criterion 4", ok, "; ".join(parts))


# -- 5: scaling shapes -------------------------------------------------------------

def test_c5_radio_head_scaling(run_rrhs):
    _, rows = run_rrhs
    parts = []
    ok = True
    for alg in ("SRRH-LPO", "MutAndSingSIC"):
        m = [rows[alg, float(R)].mean_power_w for R in (4, 5, 7)]
        ok &= m[0] > m[1] > m[2] and (m[0] - m[1]) > (m[1] - m[2])
        parts.append(f"{alg} {m[0]:.3f}/{m[1]:.3f}/{m[2]:.3f} W")
    _check("criterion 5 (radio heads 4/5/7)", ok,
           "power monotone with the 4->5 drop largest: " + ", ".join(parts))


def test_c5_dense_load_pairing_gain(run_dense):
    _, rows = run_dense
    parts = []
    ok = True
    for K, want in ((36, 69.8), (40, 78.2)):
        lpo = rows["SRRH-LPO", float(K)].mean_power_w
        ms = rows["MutAndSingSIC", float(K)].mean_power_w
        gain = (lpo - ms) / lpo * 100
        ok &= abs(gain - want) <= 10
        parts.append(f"K={K}: {gain:.1f}% (want {want} +-10)")
    # Known shortfall, left red on purpose: the measured gain is stable
    # across independent 50-drop blocks (54-57% at K=36, 61-64% at K=40),
    # every closed form is grid-exact at dense load, and the candidate
    # screens were verified to fire only where the physics dictates. The
    # target band inherits the absolute power scale, which the scenario's
    # placement and path-loss constants pin only up to a distribution whose
    # heavy upper tail moves 50-trial means by several points.
    _check("criterion 5 (128 subcarriers, 5 Mbps)", ok, "; ".join(parts))


# -- 6: oracle equivalences --------------------------------------------------------

def test_c6a_waterlines_match_bisection():
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(1, 9))
        gains = 10.0 ** rng.uniform(-11.0, -6.0, n)
        rate = rng.uniform(0.5, 30.0) * n * SC_BW
        try:
            w = waterline_from_rate(gains, rate, SIGMA2_REF, SC_BW)
        except InfeasibleWaterline:
            continue
        wb = bisection_waterline(gains, rate, SIGMA2_REF, SC_BW)
        worst = max(worst, abs(w - wb) / wb)
        checked += 1
    _check("criterion 6a", worst <= 1e-9,
           f"closed-form waterline vs bisection on {checked} sole sets, "
           f"worst relative gap {worst:.2e} (tol 1e-9)")


def test_c6b_deltas_match_recomputation():
    rng = np.random.default_rng(103)
    s2 = SIGMA2_REF
    worst = 0.0

    # sole-set extension; the allocator grows sole sets in descending gain
    # order (or floor-guards the add), so every member stays active across
    # the extension and the sampler must stay in that regime too
    checked = 0
    while checked < 400:
        n = int(rng.integers(1, 9))
        g = 10.0 ** rng.uniform(-11.0, -6.0, n)
        w = (s2 / g.min()) * 10.0 ** rng.uniform(0.05, 2.5)
        rate = float(np.sum(SC_BW * np.log2(w * g / s2)))
        g_new = (s2 / w) * 10.0 ** rng.uniform(0.05, 2.0)
        w_new = waterline_add(w, n, g_new, s2)
        if w_new < s2 / g.min():
            continue
        checked += 1
        dp = delta_power_oma(w, w_new, n, g_new, s2)
        before = total_power_at_rate(g, rate, s2, SC_BW)
        after = total_power_at_rate(np.append(g, g_new), rate, s2, SC_BW)
        worst = max(worst, abs(dp - (after - before)) / (before + after))

    # rate offload onto a multiplexed subcarrier
    for _ in range(300):
        n = int(rng.integers(1, 9))
        g = 10.0 ** rng.uniform(-11.0, -6.0, n)
        w = (s2 / g.min()) * 10.0 ** rng.uniform(0.1, 2.5)
        rate = float(np.sum(SC_BW * np.log2(w * g / s2)))
        g2 = 10.0 ** rng.uniform(-11.0, -6.0)
        p1 = 10.0 ** rng.uniform(-9.0, -5.0)
        headroom = n * SC_BW * math.log2(w * g.min() / s2)
        r2 = rng.uniform(0.1, 0.9) * headroom
        p2 = (2.0 ** (r2 / SC_BW) - 1.0) * (p1 + s2 / g2)
        w_new = waterline_rate_shift(w, -r2, n, SC_BW)
        dp = delta_power_noma(w, w_new, n, p2)
        before = total_power_at_rate(g, rate, s2, SC_BW)
        moved = float(rate_second(p2, p1, g2, s2, SC_BW))
        after = total_power_at_rate(g, rate - moved, s2, SC_BW) + p2
        worst = max(worst, abs(dp - (after - before)) / (before + after))

    # mutual pair at shifted powers, both users re-waterfilled
    for _ in range(300):
        inst = sample_pair_instance(rng)
        gains, n1, n2 = inst["gains"], inst["n1"], inst["n2"]
        w1, w2, p1i = inst["w1"], inst["w2"], inst["p1i"]
        p1 = p1i * rng.uniform(0.5, 2.0)
        lo = p1 * gains.g11 / gains.g12
        hi = p1 * gains.g21 / gains.g22
        p2 = rng.uniform(lo, hi)
        rate1_old = SC_BW * math.log2(1.0 + p1i * gains.g11 / s2)
        rate1_new = SC_BW * math.log2(1.0 + p1 * gains.g11 / s2)
        rate2 = SC_BW * math.log2(1.0 + p2 * gains.g22 / s2)
        w1_new = w1 * 2.0 ** ((rate1_old - rate1_new) / (SC_BW * (n1 - 1)))
        w2_new = w2 * 2.0 ** (-rate2 / (SC_BW * n2))
        g1rest = max(gains.g11, s2 / w1_new) \
            * 10.0 ** rng.uniform(0.05, 2.0, n1 - 1)
        g2set = (s2 / w2_new) * 10.0 ** rng.uniform(0.05, 2.0, n2)
        dp1 = float(_dp1(np.array([p1]), gains.g11, s2, w1, np.array([p1i]),
                         n1)[0])
        dp2 = float(_dp2(np.array([p2]), gains.g22, s2, w2, n2)[0])
        g1all = np.append(g1rest, gains.g11)
        r1_total = float(np.sum(SC_BW * np.log2(w1 * g1all / s2)))
        before1 = total_power_at_rate(g1all, r1_total, s2, SC_BW)
        after1 = total_power_at_rate(g1rest, r1_total - rate1_new, s2,
                                     SC_BW) + p1
        worst = max(worst, abs(dp1 - (after1 - before1))
                    / (before1 + after1))
        r2_total = float(np.sum(SC_BW * np.log2(w2 * g2set / s2)))
        before2 = total_power_at_rate(g2set, r2_total, s2, SC_BW)
        after2 = total_power_at_rate(g2set, r2_total - rate2, s2,
                                     SC_BW) + p2
        worst = max(worst, abs(dp2 - (after2 - before2))
                    / (before2 + after2))

    _check("criterion 6b", worst <= 1e-9,
           f"closed-form power deltas vs from-scratch recomputation on "
           f"1000 instances, worst relative gap {worst:.2e} (tol 1e-9)")


def test_c6c_local_power_optimum_vs_grid():
    rng = np.random.default_rng(107)
    mu = 0.01
    s2 = SIGMA2_REF
    unclamped = rejected = 0
    worst = -math.inf
    for _ in range(300):
        g2 = 10.0 ** rng.uniform(-11.0, -6.0)
        p1 = 10.0 ** rng.uniform(-9.0, -5.0)
        n = int(rng.integers(1, 10))
        w = (p1 + s2 / g2) * 10.0 ** rng.uniform(0.05, 3.0)
        p2, reject = _lpo_core(w, np.array([p1]), np.array([g2]), s2, n, mu)
        p2 = float(p2[0])
        rejected += bool(reject[0])
        clamped = p2 == p1 * (1.0 + mu)
        lo = p1 * (1.0 + mu) if clamped else p1
        _, grid_dp = grid_best_second_power(w, p1, g2, s2, n, lo=lo)
        dp = pairing_delta_closed_over_grid(w, p1, g2, s2, n, p2)
        worst = max(worst, (dp - grid_dp) / (abs(grid_dp) + 1e-24))
        unclamped += not clamped
    ok = worst <= 1e-9 and unclamped >= 150 and rejected == 0
    _check("criterion 6c", ok,
           f"closed-form second power vs 10^4-point grid on 300 instances "
           f"({unclamped} interior optima), worst normalized excess "
           f"{worst:.2e} (tol 1e-9)")


def test_c6d_joint_pair_optimum():
    rng = np.random.default_rng(109)
    checked = edges = 0
    worst_excess = -math.inf
    worst_resid = 0.0
    draws = 0
    while checked < 1000:
        draws += 1
        assert draws < 20000, "sampler starved"
        inst = sample_pair_instance(rng)
        gains, s2, mu = inst["gains"], inst["sigma2_w"], inst["mu"]
        garr = tuple(np.array([g]) for g in tuple(gains))
        w1, w2 = np.array([inst["w1"]]), np.array([inst["w2"]])
        p1i = np.array([inst["p1i"]])
        n1, n2 = inst["n1"], inst["n2"]
        w_add = waterline_add(w2, n2, gains.g22, s2)
        p2_ref, window_ok = dpa_adjust(w_add - s2 / gains.g22, garr, p1i, mu)
        p1, p2, dp1, dp2, case = opad_cases(garr, s2, w1, w2, p1i, n1, n2,
                                            mu)
        if not window_ok[0] or case[0] == 0:
            continue
        dp_ref = float(_dp1(p1i, gains.g11, s2, w1, p1i, n1)[0]
                       + _dp2(p2_ref, gains.g22, s2, w2, n2)[0])
        checked += 1
        scale = abs(dp_ref) + inst["p1i"] + float(p2_ref[0])
        worst_excess = max(worst_excess,
                           (float(dp1[0] + dp2[0]) - dp_ref) / scale)
        if case[0] in (2, 3):
            edges += 1
            c = (1.0 + mu) * gains.g11 / gains.g12 if case[0] == 2 \
                else (1.0 - mu) * gains.g21 / gains.g22
            worst_resid = max(worst_resid, abs(float(edge_stationarity(
                p1[0], c, gains.g11, gains.g22, s2, inst["w2"],
                inst["p1i"], n1, n2))))
    ok = worst_excess <= 1e-9 and worst_resid < 1e-8
    _check("criterion 6d", ok,
           f"joint pair optimum never above clamped waterfill on {checked} "
           f"instances (worst normalized excess {worst_excess:.2e}); "
           f"{edges} edge solutions, worst stationarity residual "
           f"{worst_resid:.2e} (tol 1e-8)")


def test_c6e_joint_reoptimization_of_singles(run12):
    records, _ = run12
    per = _per_trial(records)
    above_paired = sum(
        v["SRRH-OPA"] > v["SRRH-LPO"] * (1.0 + 1e-9) for v in per.values())
    worst = 0.0
    conv = above_fresh = 0
    n_drops = 50
    scen = Scenario().with_(rate_demand_bps=12e6)
    for ch in drops(scen, n_drops, base_seed=7000):
        lpo = run_algorithm(ch, AlgorithmConfig("SRRH-LPO"))
        opa = optimal_power_allocation(lpo.state)
        above_fresh += opa.total_power_w > lpo.total_power_w * (1.0 + 1e-9)
        if opa.converged:
            conv += 1
            worst = max(worst, opa_kkt_residual(lpo.state, opa))
    ok = above_paired == 0 and above_fresh == 0 and conv == n_drops \
        and worst < 1e-6
    _check("criterion 6e", ok,
           f"stationarity residual worst {worst:.2e} on {conv}/{n_drops} "
           f"converged fresh drops (tol 1e-6); re-optimized total never "
           f"above the greedy baseline ({len(per)} paired + {n_drops} "
           f"fresh drops)")


def test_c6f_window_branch_oracle():
    scen = Scenario(cell_radius_m=300.0, num_users=6, num_rrhs=4,
                    num_subcarriers=8, rate_demand_bps=12e6)
    found = 0
    worst = -math.inf
    for ch in drops(scen, 400, base_seed=5):
        res = run_algorithm(ch, AlgorithmConfig("MutSIC-SOPAd", rho_w=0.0))
        if not 1 <= len(res.state.pairs) <= 2:
            continue
        oracle = constrained_mutual_pa_oracle(res.state)
        worst = max(worst, (oracle.total_power_w - res.total_power_w)
                    / res.total_power_w)
        found += 1
        if found == 100:
            break
    ok = found == 100 and worst <= 1e-7
    _check("criterion 6f", ok,
           f"window-branch oracle vs sequential allocation on {found} small "
           f"instances (8 subcarriers, <=2 pairs), worst relative excess "
           f"{worst:.2e}")


# -- 7: invariant audit -------------------------------------------------------------

def test_c7_invariant_audit():
    report = run_invariant_audit(Scenario(), ALGORITHMS, trials=100,
                                 base_seed=0)
    ok = report.ok and report.results_checked == 100 * len(ALGORITHMS)
    _check("criterion 7", ok,
           f"{report.results_checked} allocations audited across "
           f"{len(ALGORITHMS)} algorithms x 100 drops, "
           f"{len(report.violations)} violations")
