"""Joint power optimization for fixed assignments: the single-SIC KKT
solve, and the mutual-SIC barrier solve against the window-branch
enumeration."""

from dataclasses import replace

import numpy as np
import pytest

from nomadas import (AlgorithmConfig, Scenario, generate_channel,
                     run_algorithm, solver)
from nomadas import optimal_pa
from nomadas.allocators import ALGORITHMS, run_algorithms
from nomadas.harness import trial_seed
from nomadas.optimal_pa import mutual_power_optimum, optimal_power_allocation
from nomadas.waterfill import rate_second, rate_single

from conftest import TINY, drops, sole_links
from oracles import constrained_mutual_pa_oracle, opa_kkt_residual

DENSE_TINY = TINY.with_(num_users=6, rate_demand_bps=12e6, num_rrhs=4)


def rates_from(state, P):
    """Per-user rates of a power tensor under the state's assignment."""
    G, s2, bw = state.gains, state.sigma2_w, state.sc_bw_hz
    rates = np.zeros(state.num_users)
    for p in state.pairs:
        p1, p2 = P[p.k1, p.n, p.r1], P[p.k2, p.n, p.r2]
        # a same-RRH joiner decodes under the incumbent's power
        heard = p1 if p.r1 == p.r2 else 0.0
        rates[p.k1] += rate_single(p1, G[p.k1, p.n, p.r1], s2, bw)
        rates[p.k2] += rate_second(p2, heard, G[p.k2, p.n, p.r2], s2, bw)
    for k, n, r in zip(*sole_links(state)):
        rates[k] += rate_single(P[k, n, r], G[k, n, r], s2, bw)
    return rates


def _state(algorithm, seed=1, scenario=DENSE_TINY):
    ch = generate_channel(scenario, np.random.default_rng(seed))
    return run_algorithm(ch, AlgorithmConfig(algorithm, rho_w=0.0)).state


# -- domain guards ----------------------------------------------------------------

def test_opa_rejects_mutual_pairs():
    for seed in range(40):
        st = _state("MutSIC-DPA", seed)
        if st.pairs:
            with pytest.raises(ValueError, match="mutual"):
                optimal_power_allocation(st)
            return
    pytest.fail("no drop produced a mutual pair")


def test_oracle_rejects_single_sic_pairs():
    for seed in range(40):
        st = _state("SRRH-LPO", seed)
        if st.pairs:
            for optimum in (mutual_power_optimum,
                            constrained_mutual_pa_oracle):
                with pytest.raises(ValueError, match="same-RRH"):
                    optimum(st)
            return
    pytest.fail("no drop produced a single-SIC pair")


# -- sole-only assignments: waterfilling is already optimal --------------------------

def test_opa_keeps_waterfilling_without_pairs():
    st = _state("OMA-DAS", 2)
    before = st.total_power()
    res = optimal_power_allocation(st)
    assert res.converged
    assert res.total_power_w == pytest.approx(before, rel=1e-6)
    assert opa_kkt_residual(st, res) < 1e-6


def test_oracle_matches_waterfilling_without_pairs():
    st = _state("OMA-DAS", 2)
    res = constrained_mutual_pa_oracle(st)
    assert len(res.branches) == 1
    assert res.total_power_w == pytest.approx(st.total_power(), rel=1e-6)
    barrier = mutual_power_optimum(st)
    assert barrier.converged
    assert barrier.total_power_w == pytest.approx(st.total_power(), rel=1e-9)


# -- paired assignments ----------------------------------------------------------------

def test_opa_improves_singles_and_keeps_rates():
    seen = 0
    for seed in range(30):
        st = _state("SRRH-LPO", seed)
        if not st.pairs:
            continue
        seen += 1
        before = st.total_power()
        res = optimal_power_allocation(st)
        assert res.total_power_w <= before * (1.0 + 1e-9)
        if res.converged:
            assert opa_kkt_residual(st, res) < 1e-6
            assert rates_from(st, res.power_w) == pytest.approx(
                st.demands, rel=1e-6)
        if seen >= 10:
            break
    assert seen >= 5


def test_opa_power_tensor_consistent():
    st = _state("SRRH-LPO", 1)
    res = optimal_power_allocation(st)
    assert res.total_power_w == pytest.approx(float(res.power_w.sum()),
                                              rel=1e-12)
    assert (res.power_w >= 0.0).all()


# -- the block-eliminated Newton step -------------------------------------------

# every halving of the Newton step the line search may try, t = 1 .. 2^-30
LINE_SEARCH_TRIES = 31


@pytest.fixture(scope="module")
def paper_lpo_states():
    """SRRH-LPO assignments of 10 paper-cell drops (sole + single-SIC)."""
    return [run_algorithm(ch, AlgorithmConfig("SRRH-LPO")).state
            for ch in drops(Scenario(), 10)]


def _start_point(state, monkeypatch):
    """The z0 that optimal_power_allocation hands its first Newton solve."""
    starts = []

    def capture(f, z0, **kwargs):
        starts.append(np.array(z0, dtype=float))
        return solver.solve_system(f, z0, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(optimal_pa, "solve_system", capture)
        optimal_power_allocation(state)
    return starts[0]


@pytest.mark.parametrize("bordered", [False, True],
                         ids=["eliminated", "bordered"])
def test_newton_step_solves_difference_jacobian(paper_lpo_states,
                                                    monkeypatch, bordered):
    """The block-eliminated step solves the system of the central-difference
    Jacobian J, at perturbed points with multipliers of both signs and with
    forced pins: J step + f is within 1e-6 of each row's scale |J| |step|
    + |f|. (J is the independent oracle; its solve is no forward oracle,
    as these Jacobians' condition numbers reach 1e8 and J's entries carry
    differencing errors of about 1e-8.) Bordered: every unpinned pair
    keeps its rate step next to the multipliers, as a pair whose 2x2 block
    is singular to working precision does."""
    if bordered:
        monkeypatch.setattr(optimal_pa, "SINGULAR_GAP", np.inf)
    rng = np.random.default_rng(53)
    checked_pins = 0
    for st in paper_lpo_states[:4]:
        assert st.pairs
        _, lay = optimal_pa._kkt_layout(st)
        ns, npair = lay.slot_u.size, lay.pair_u.size
        z0 = _start_point(st, monkeypatch)
        lam = z0[ns + npair:]
        points = [z0]
        for _ in range(3):
            z = z0 + 0.05 * rng.standard_normal(z0.size) * np.abs(z0)
            # multipliers of both signs, as exploratory steps produce
            z[ns + npair:] = lam * rng.choice([-1.0, 1.0], lam.size)
            points.append(z)
        for forced in (False, True):
            pin_x = np.zeros(ns, dtype=bool)
            pin_y = np.zeros(npair, dtype=bool)
            if forced:
                pin_x[rng.choice(ns, 5, replace=False)] = True
                pin_x[lay.pair_slot[0]] = True
                pin_y[rng.choice(npair, min(npair, 2), replace=False)] = True
                checked_pins += 1
            residual, newton_step = optimal_pa._kkt_system(lay, pin_x, pin_y)
            for z in points:
                f = residual(z)
                step = newton_step(z, f)
                jac = solver._jacobian(residual, z, f)
                scale = np.abs(jac) @ np.abs(step) + np.abs(f)
                assert np.all(np.abs(jac @ step + f) <= 1e-6 * scale)
                # a pinned rate's row is the rate itself
                pinned = np.concatenate([pin_x, pin_y])
                assert np.array_equal(step[:ns + npair][pinned],
                                      -f[:ns + npair][pinned])
    assert checked_pins == 4


def test_opa_newton_steps_use_no_differences(paper_lpo_states, monkeypatch):
    """Residual calls per solve stay within the line search's budget.

    Central differences would add 2n calls per Newton step, more than the
    line search's 31 tries once n > 15.
    """
    solves = []

    def counted_solve(f, z0, **kwargs):
        calls = {"f": 0}

        def counted(z):
            calls["f"] += 1
            return f(z)

        report = solver.solve_system(counted, z0, **kwargs)
        solves.append((np.size(z0), report, calls["f"]))
        return report

    monkeypatch.setattr(optimal_pa, "solve_system", counted_solve)
    for st in paper_lpo_states:
        optimal_power_allocation(st)
    assert solves
    for n, report, f_evals in solves:
        assert n > LINE_SEARCH_TRIES // 2
        steps = report.iterations + (not report.converged)
        assert f_evals <= 1 + steps * LINE_SEARCH_TRIES
    assert max(report.iterations for _, report, _ in solves) >= 1


def test_opa_totals_match_difference_jacobian(paper_lpo_states, monkeypatch):
    """Without the step, solve_system solves the central-difference
    Jacobian densely: the same optima. With it, no difference runs."""
    def no_differences(*args):
        raise AssertionError("central differences used despite step")

    with monkeypatch.context() as m:
        m.setattr(solver, "_jacobian", no_differences)
        stepped = [optimal_power_allocation(st) for st in paper_lpo_states]

    def without_step(f, z0, step=None, **kwargs):
        return solver.solve_system(f, z0, **kwargs)

    monkeypatch.setattr(optimal_pa, "solve_system", without_step)
    for st, res in zip(paper_lpo_states, stepped):
        fd = optimal_power_allocation(st)
        assert res.converged and fd.converged
        assert res.total_power_w == pytest.approx(fd.total_power_w,
                                                  rel=1e-10, abs=0.0)


def _recording_solve(monkeypatch):
    """Shapes of the matrices np.linalg.solve gets from now on."""
    shapes = []
    real = np.linalg.solve

    def solve(a, b):
        shapes.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return shapes


def test_opa_converges_through_singular_pair_blocks(monkeypatch):
    """On 12 Mb/s paper-cell drops 73 and 191 (base seed 0) a pair's second
    rate falls during the first solve until its 2x2 KKT block is singular
    to working precision. Eliminated, that block stalled the solve;
    bordered, it converges to a KKT point that meets the demands."""
    scen = Scenario(rate_demand_bps=12e6)
    for t in (73, 191):
        ch = generate_channel(scen, np.random.default_rng(trial_seed(0, t)))
        st = run_algorithm(ch, AlgorithmConfig("SRRH-LPO")).state
        with monkeypatch.context() as m:
            shapes = _recording_solve(m)
            res = optimal_power_allocation(st)
        assert max(rows for rows, _ in shapes) > st.num_users
        assert res.converged
        assert opa_kkt_residual(st, res) < 1e-6
        assert rates_from(st, res.power_w) == pytest.approx(st.demands,
                                                            rel=1e-6)
        assert res.total_power_w < st.total_power()


def test_opa_iterations_count_every_active_set_solve(monkeypatch):
    """On 12 Mb/s drop 73 (base seed 0, SRRH-LPO state) the active-set loop
    solves twice, in 19 and 5 Newton steps: the result, and SRRH-OPA's
    record, count all 24, not the last solve's 5. A fallback return counts
    every solve as well, the one that failed included."""
    ch = generate_channel(Scenario(rate_demand_bps=12e6),
                          np.random.default_rng(trial_seed(0, 73)))
    st = run_algorithm(ch, AlgorithmConfig("SRRH-LPO")).state
    steps = []
    real = optimal_pa.solve_system

    def counted(f, z0, **kwargs):
        report = real(f, z0, **kwargs)
        steps.append(report.iterations)
        return report

    with monkeypatch.context() as m:
        m.setattr(optimal_pa, "solve_system", counted)
        res = optimal_power_allocation(st)
    assert steps == [19, 5]
    assert res.converged and res.iterations == 24
    assert run_algorithm(ch, AlgorithmConfig("SRRH-OPA")).opa_iterations \
        == 24

    def second_fails(f, z0, **kwargs):
        report = counted(f, z0, **kwargs)
        return replace(report, converged=len(steps) < 2)

    steps.clear()
    monkeypatch.setattr(optimal_pa, "solve_system", second_fails)
    res = optimal_power_allocation(st)
    assert steps == [19, 5]
    assert not res.converged and res.iterations == 24
    assert np.array_equal(res.power_w, st.power_tensor())


def test_production_path_solves_no_kkt_sized_system(monkeypatch):
    """All 11 algorithms on a dense-40u drop (40 users, 128 subcarriers,
    5 Mb/s), where SRRH-OPA's KKT systems have 100 or more unknowns: every
    matrix np.linalg.solve gets is the reduced system in the multipliers,
    K x K plus a row and column per bordered pair, and stays below 100
    unknowns, where OpenBLAS starts to thread its LU."""
    scen = Scenario(num_users=40, num_subcarriers=128, rate_demand_bps=5e6)
    unknowns = []
    real = optimal_pa.solve_system

    def counted(f, z0, **kwargs):
        unknowns.append(np.size(z0))
        return real(f, z0, **kwargs)

    monkeypatch.setattr(optimal_pa, "solve_system", counted)
    shapes = _recording_solve(monkeypatch)
    results = run_algorithms(next(drops(scen, 1)), ALGORITHMS)
    assert not any(isinstance(r, Exception) for r in results.values())
    K = scen.num_users
    assert shapes and min(unknowns) >= 100
    assert all(rows == cols and K <= rows < 100 for rows, cols in shapes)
    assert sum(rows == K for rows, _ in shapes) > len(shapes) / 2


# -- branch oracle against the sequential allocator ---------------------------------

def test_oracle_never_above_sequential():
    """Global optimum of the frozen assignment never loses to the greedy."""
    found = 0
    for ch in drops(DENSE_TINY, 120, base_seed=5):
        res = run_algorithm(ch, AlgorithmConfig("MutSIC-SOPAd", rho_w=0.0))
        m = len(res.state.pairs)
        if not 1 <= m <= 2:
            continue
        found += 1
        oracle = constrained_mutual_pa_oracle(res.state)
        assert oracle.total_power_w <= res.total_power_w * (1.0 + 1e-7)
        assert len(oracle.branches) == 3 ** m
        assert oracle.branch.converged and oracle.branch.feasible
        assert oracle.total_power_w == pytest.approx(
            float(oracle.power_w.sum()), rel=1e-12)
        if found >= 25:
            break
    assert found >= 25


def test_oracle_meets_demands():
    for ch in drops(DENSE_TINY, 120, base_seed=9):
        res = run_algorithm(ch, AlgorithmConfig("MutSIC-SOPAd", rho_w=0.0))
        if not res.state.pairs:
            continue
        oracle = constrained_mutual_pa_oracle(res.state)
        assert rates_from(res.state, oracle.power_w) == pytest.approx(
            res.state.demands, rel=1e-6)
        return
    pytest.fail("no drop produced a mutual pair")


# -- the barrier solve against the enumeration and the greedy ------------------

MUTUAL_MODES = ("MutSIC-DPA", "MutSIC-SOPAd", "MutSIC-OPAd")


def window_excess(state, P):
    """Largest relative distance of a pair's p2 outside its window."""
    G = state.gains
    worst = 0.0
    for p in state.pairs:
        p1, p2 = P[p.k1, p.n, p.r1], P[p.k2, p.n, p.r2]
        lo = p1 * G[p.k1, p.n, p.r1] / G[p.k1, p.n, p.r2]
        hi = p1 * G[p.k2, p.n, p.r1] / G[p.k2, p.n, p.r2]
        worst = max(worst, (lo - p2) / p2, (p2 - hi) / p2)
    return worst


def test_mutual_optimum_matches_enumeration():
    """On 1-3 pairs the barrier solve equals every branch of the window
    enumeration's best, meets the demands and keeps the windows."""
    checked = 0
    for alg in MUTUAL_MODES:
        for ch in drops(DENSE_TINY, 40, base_seed=5):
            st = run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0)).state
            if not 1 <= len(st.pairs) <= 3:
                continue
            res = mutual_power_optimum(st)
            ref = constrained_mutual_pa_oracle(st)
            assert res.converged
            assert res.total_power_w == pytest.approx(ref.total_power_w,
                                                      rel=1e-8)
            assert res.total_power_w == pytest.approx(
                float(res.power_w.sum()), rel=1e-12)
            assert rates_from(st, res.power_w) == pytest.approx(
                st.demands, rel=1e-6)
            assert window_excess(st, res.power_w) <= 1e-12
            assert (res.power_w >= 0.0).all()
            checked += 1
    assert checked >= 50


def test_mutual_optimum_never_above_greedy_at_paper_scale():
    """Paper-cell drops carry 10-20 pairs, far beyond the enumeration."""
    for alg in MUTUAL_MODES:
        for ch in drops(Scenario(), 5, base_seed=2):
            res = run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
            assert res.state.pairs
            opt = mutual_power_optimum(res.state)
            assert opt.converged
            assert res.total_power_w >= opt.total_power_w * (1.0 - 1e-9)
            assert rates_from(res.state, opt.power_w) == pytest.approx(
                res.state.demands, rel=1e-6)
            assert window_excess(res.state, opt.power_w) <= 1e-12


def test_mutual_optimum_without_interior_keeps_input_powers():
    """A pair whose window is empty has no strictly feasible point: the
    solve reports it instead of raising."""
    for ch in drops(DENSE_TINY, 40, base_seed=5):
        st = run_algorithm(ch, AlgorithmConfig("MutSIC-DPA")).state
        if st.pairs:
            break
    p = st.pairs[0]
    gains = st.gains.copy()
    # g21 / g22 = g11 / g12 / 2: the upper edge below the lower one
    gains[p.k2, p.n, p.r1] = 0.5 * gains[p.k2, p.n, p.r2] \
        * gains[p.k1, p.n, p.r1] / gains[p.k1, p.n, p.r2]
    st = st.fork()
    st.gains = gains
    res = mutual_power_optimum(st)
    assert not res.converged
    assert np.array_equal(res.power_w, st.power_tensor())
    assert res.total_power_w == float(st.power_tensor().sum())
