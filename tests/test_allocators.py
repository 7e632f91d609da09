"""End-to-end behavior of the allocation algorithms on small channels."""

import math
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from nomadas import (ALGORITHMS, AlgorithmConfig, AllocationState,
                     InfeasibleWaterline, Pair, Scenario, generate_channel,
                     mutual_sic_feasible, run_algorithm)
from nomadas import allocators
from nomadas.allocators import (_freeze_pair, oma_phase, price_rows,
                                worst_best_h)
from nomadas.waterfill import rate_second, rate_single

from conftest import SMALL, drops, sole_links

# heavy spectral load so the pairing phases actually fire; zero acceptance
# threshold because desk-scale powers sit far below the default 1 mW
LOADED = SMALL.with_(rate_demand_bps=10e6, num_users=12)
N_DROPS = 6


@pytest.fixture(scope="module")
def batch():
    """Every algorithm on a common set of loaded channel drops."""
    out = {}
    for i, ch in enumerate(drops(LOADED, N_DROPS, base_seed=17)):
        for alg in ALGORITHMS:
            out[alg, i] = run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
    return out


def achieved_rates(result):
    """Per-user rates recomputed from final powers and the pair records."""
    st = result.state
    G, s2, bw = st.gains, st.sigma2_w, st.sc_bw_hz
    P = result.power_w
    rates = np.zeros(st.num_users)
    for p in st.pairs:
        p1, p2 = P[p.k1, p.n, p.r1], P[p.k2, p.n, p.r2]
        # a same-RRH joiner decodes under the incumbent's power
        heard = p1 if p.r1 == p.r2 else 0.0
        rates[p.k1] += rate_single(p1, G[p.k1, p.n, p.r1], s2, bw)
        rates[p.k2] += rate_second(p2, heard, G[p.k2, p.n, p.r2], s2, bw)
    for k, n, r in zip(*sole_links(st)):
        rates[k] += rate_single(P[k, n, r], G[k, n, r], s2, bw)
    return rates


def occupancy(result):
    """Users with positive power per subcarrier."""
    return (result.power_w.sum(axis=2) > 0.0).sum(axis=0)


# -- universal contracts ----------------------------------------------------------

@pytest.mark.parametrize("alg", ALGORITHMS)
def test_rate_demands_met_exactly(batch, alg):
    rel = 1e-6 if alg == "SRRH-OPA" else 1e-9
    for i in range(N_DROPS):
        res = batch[alg, i]
        assert achieved_rates(res) == pytest.approx(
            np.full(LOADED.num_users, LOADED.rate_demand_bps), rel=rel)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_powers_nonnegative_finite(batch, alg):
    for i in range(N_DROPS):
        P = batch[alg, i].power_w
        assert np.isfinite(P).all()
        assert (P >= 0.0).all()


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_at_most_two_users_per_subcarrier(batch, alg):
    for i in range(N_DROPS):
        assert occupancy(batch[alg, i]).max() <= 2


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_links_list_every_transmitting_link_once(batch, alg):
    """links(): the sole holdings by (user, subcarrier, RRH) at their
    waterline powers, then each pair's first link, then each pair's second
    link, both in pairs order; scattered, they are power_tensor()."""
    for i in range(N_DROPS):
        st = batch[alg, i].state
        ks, ns, rs, p = st.links()
        m = len(st.pairs)
        assert len({*zip(ks, ns, rs)}) == ks.size
        P = st.power_tensor()
        assert {*zip(*np.nonzero(P))} <= {*zip(ks, ns, rs)}
        dense = np.zeros(P.shape)
        dense[ks, ns, rs] = p
        assert dense.tobytes() == P.tobytes()
        sole = slice(0, ks.size - 2 * m)
        assert np.array_equal(st.owner[ns[sole], rs[sole]], ks[sole])
        assert (st.owner >= 0).sum() == ks.size - 2 * m
        assert np.array_equal(np.lexsort((rs[sole], ns[sole], ks[sole])),
                              np.arange(ks.size - 2 * m))
        assert np.array_equal(
            p[sole], st.waterline[ks[sole]]
            - st.sigma2_w / st.gains[ks[sole], ns[sole], rs[sole]])
        ends = [(q.k1, q.n, q.r1, q.p1_w) for q in st.pairs] \
            + [(q.k2, q.n, q.r2, q.p2_w) for q in st.pairs]
        assert list(zip(ks, ns, rs, p))[ks.size - 2 * m:] == ends


def _links_from_lists(state):
    """links() as it was built from per-pair tuple lists: the sole
    holdings through np.nonzero, the pairs' ends as two lists, stacked
    as floats and cast back."""
    ks, ns, rs = np.nonzero(
        state.owner == np.arange(state.num_users)[:, None, None])
    p = state.waterline[ks] - state.sigma2_w / state.gains[ks, ns, rs]
    ends = [(q.k1, q.n, q.r1, q.p1_w) for q in state.pairs] \
        + [(q.k2, q.n, q.r2, q.p2_w) for q in state.pairs]
    k, n, r, p = np.vstack([np.column_stack([ks, ns, rs, p]),
                            np.reshape(ends, (-1, 4))]).T
    return k.astype(int), n.astype(int), r.astype(int), p


def test_links_equal_the_list_built_arrays(batch):
    """links() converts the pair records in one array call; its four arrays
    equal the list-built ones in dtype, order and bits for every
    algorithm on the loaded drops, with pairs of both kinds and MutSIC-UC's
    two-holder subcarriers among them."""
    for (alg, i), res in batch.items():
        st = res.state
        for got, want in zip(st.links(), _links_from_lists(st)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    states = [res.state for res in batch.values()]
    assert any((st.holders() == 2).any() for st in states)
    assert any(q.r1 == q.r2 for st in states for q in st.pairs)
    assert any(q.r1 != q.r2 for st in states for q in st.pairs)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_subcarrier_counters_sum(batch, alg):
    for i in range(N_DROPS):
        res = batch[alg, i]
        assert res.nonmux_sc + res.mutsic_sc + res.singsic_sc \
            == LOADED.num_subcarriers
        assert min(res.nonmux_sc, res.mutsic_sc, res.singsic_sc) >= 0


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_phase_iterations_within_bounds(batch, alg):
    for i in range(N_DROPS):
        for phase, (iters, limit) in \
                batch[alg, i].state.phase_iterations.items():
            assert 0 <= iters <= limit, phase


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_accepted_steps_decrease_total(batch, alg):
    """Greedy phases only keep steps that lower total transmit power."""
    for i in range(N_DROPS):
        for rec in batch[alg, i].state.log:
            if rec.accepted and rec.phase != "wbh":
                assert rec.total_after_w < rec.total_before_w


def _scalar_user_powers(state):
    """Each user's power from its sole holdings in owner, one at a time:
    n * waterline - floor_sum + frozen power, the frozen power alone when
    the user holds nothing alone."""
    out = []
    for k in range(state.num_users):
        n = int(np.count_nonzero(state.owner == k))
        p = float(state.frozen_power[k])
        if n:
            p = float(n * state.waterline[k] - state.floor_sum[k]
                      + state.frozen_power[k])
        out.append(p)
    return np.array(out)


def test_user_powers_equal_scalar_loop(batch):
    """user_powers repeats a count of the holdings in owner bit for bit."""
    emptied = 0
    for res in batch.values():
        st = res.state
        assert np.array_equal(st.user_powers(), _scalar_user_powers(st))
        emptied += int(np.count_nonzero(st.n_sole == 0))
    assert emptied > 0     # users whose sole set a pairing phase emptied


def test_user_powers_equal_scalar_loop_at_every_step(monkeypatch):
    """Same check after every logged step, NaN waterlines included.

    Before the first phase has reached a user, its sole set is empty and
    its waterline NaN; its power is then the frozen power alone.
    """
    ch = next(drops(LOADED, 1, base_seed=17))
    fresh = AllocationState(ch, False, 1e-3)
    assert np.isnan(fresh.waterline).all()
    assert np.array_equal(fresh.user_powers(), _scalar_user_powers(fresh))
    log = AllocationState._log
    seen_nan = 0

    def checked_log(state, *args):
        nonlocal seen_nan
        seen_nan += int(np.isnan(state.waterline).any())
        assert np.array_equal(state.user_powers(),
                              _scalar_user_powers(state))
        log(state, *args)

    monkeypatch.setattr(AllocationState, "_log", checked_log)
    for alg in ALGORITHMS:
        run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
    assert seen_nan > 0


def test_occupancy_arrays_consistent_at_every_step(monkeypatch):
    """The incremental bookkeeping equals a from-scratch one after every
    logged step.

    n_sole counts each user's entries in owner; a subcarrier is free
    exactly when nobody holds it and no frozen pair sits on it; floor_sum
    matches a from-scratch sum over the holdings to 1e-12 of the largest
    one; two users hold one subcarrier only under MutSIC-UC, and then
    through different RRHs (owner has one entry per RRH); weakest holds the
    two smallest sole gains, inf-padded; best_free returns the first
    strongest link over free subcarriers x rrhs, in (n, rrhs) order.

    An accepted oma step adds a gain no larger than the user's weakest
    sole gain before it: every holding so far was the user's best free
    link when taken, and the free set only shrinks. So the floor check of
    uc_extension_phase could never bind in oma_phase.
    """
    ch = next(drops(LOADED, 1, base_seed=17))
    log = AllocationState._log
    checked = shared = oma = 0
    before = (None, None)       # a state and its weakest at its last step

    def checked_log(state, *args):
        nonlocal checked, shared, oma, before
        own, K = state.owner, state.num_users
        phase, k, n, accepted = args[:4]
        if phase == "oma" and accepted:
            assert before[0] is state
            assert state.gains[k, n, own[n] == k].item() <= before[1][k, 0]
            oma += 1
        before = (state, state.weakest.copy())
        assert np.array_equal(state.n_sole,
                              np.bincount(own[own >= 0], minlength=K))
        frozen = {p.n for p in state.pairs}
        for n in range(state.num_subcarriers):
            assert state.free[n] == ((own[n] < 0).all() and n not in frozen)
            users = own[n][own[n] >= 0]
            assert users.size <= 2
            if users.size == 2:
                shared += 1
                assert running == "MutSIC-UC"
                assert users[0] != users[1]
        ks, ns, rs = np.nonzero(own[None] == np.arange(K)[:, None, None])
        scratch = np.bincount(ks, weights=state.sigma2_w
                              / state.gains[ks, ns, rs], minlength=K)
        assert np.abs(state.floor_sum - scratch).max() \
            <= 1e-12 * scratch.max()
        for k in range(K):
            low = np.sort(state.sole_gains(k))[:2]
            assert np.array_equal(state.weakest[k],
                                  np.r_[low, np.full(2 - low.size, np.inf)])
            links = [(n, int(r)) for n in np.flatnonzero(state.free)
                     for r in state.rrhs]
            assert state.best_free(k) == max(
                links, key=lambda link: state.gains[k][link], default=None)
        checked += 1
        log(state, *args)

    monkeypatch.setattr(AllocationState, "_log", checked_log)
    for running in ALGORITHMS:
        run_algorithm(ch, AlgorithmConfig(running, rho_w=0.0))
    assert checked > 0 and shared > 0 and oma > 0


def test_best_free_breaks_ties_like_an_argmax_scan():
    """On gains drawn from three values, so that most links tie, the cursor
    picks what np.argmax over (free n ascending, rrhs order) picks, while
    subcarriers leave the free set in random order."""
    ch = next(drops(SMALL, 1, base_seed=5))
    rng = np.random.default_rng(6)
    levels = ch.gains.max() * np.array([1.0, 0.5, 0.25])
    tied = replace(ch, gains=rng.choice(levels, ch.gains.shape))
    for central in (True, False):
        state = AllocationState(tied, central, 1e-3)
        while state.free.any():
            free = np.flatnonzero(state.free)
            for k in range(state.num_users):
                sub = tied.gains[k][free[:, None], state.rrhs[None, :]]
                ni, ri = np.unravel_index(int(np.argmax(sub)), sub.shape)
                assert state.best_free(k) == (free[ni], state.rrhs[ri])
            state._add_sole(int(rng.integers(state.num_users)),
                            int(rng.choice(free)), int(rng.choice(state.rrhs)))
        assert state.best_free(0) is None


def test_descend_breaks_power_ties_by_lowest_index(tiny_channel):
    """The most power-hungry active user proposes first, the lowest index
    among equals; every logged total is the sum of the user powers."""
    state = AllocationState(tiny_channel, False, 1e-3)
    state.frozen_power[:] = (2.0, 3.0, 3.0)
    proposed = []

    def propose(k):
        proposed.append(k)
        if len(proposed) > 1:
            return -1, math.nan, None

        def commit():       # user 1 drops to a tie with user 0
            state.frozen_power[k] = 2.0
            return 5, -1.0, (k,)
        return 5, -1.0, commit

    allocators._solo(allocators._descend(state, "tie", 4, lambda: True,
                                         propose))
    assert proposed == [1, 2, 0, 1]
    assert [(s.user, s.accepted) for s in state.log] \
        == [(1, True), (2, False), (0, False), (1, False)]
    assert [(s.total_before_w, s.total_after_w) for s in state.log] \
        == [(8.0, 7.0)] + [(7.0, 7.0)] * 3
    assert state.phase_iterations["tie"] == (4, 4)


def test_served_users_meet_demand_at_every_step(monkeypatch):
    """Frozen rate plus waterfilled sole rate equals the demand throughout.

    After every logged step, each user that holds a subcarrier alone or a
    frozen share has frozen_rate plus the rate its sole holdings carry at
    its waterline equal to its demand, to 1e-9 relative: every freeze
    writes values that keep the books balanced, not just the final one.
    """
    log = AllocationState._log
    checked = 0

    def checked_log(state, *args):
        nonlocal checked
        s2, K = state.sigma2_w, state.num_users
        ks, ns, rs = sole_links(state)
        g = state.gains[ks, ns, rs]
        sole = rate_single(state.waterline[ks] - s2 / g, g, s2,
                           state.sc_bw_hz)
        rates = state.frozen_rate + np.bincount(ks, weights=sole,
                                                minlength=K)
        served = (state.n_sole > 0) | (state.frozen_rate > 0)
        assert rates[served] == pytest.approx(state.demands[served],
                                              rel=1e-9)
        checked += int(served.sum())
        log(state, *args)

    monkeypatch.setattr(AllocationState, "_log", checked_log)
    paper = generate_channel(Scenario(), np.random.default_rng(0))
    for ch, rho_w in ((next(drops(LOADED, 1, base_seed=17)), 0.0),
                      (paper, 1e-3)):
        for alg in ALGORITHMS:
            run_algorithm(ch, AlgorithmConfig(alg, rho_w=rho_w))
    assert checked > 0


def test_freeze_pair_rejects_joiner_below_floor(small_channel):
    """A joiner waterline below its weakest sole floor raises before any
    bookkeeping changes."""
    state = AllocationState(small_channel, False, 1e-3)
    worst_best_h(state)
    oma_phase(state)
    ks, ns, rs = sole_links(state)
    k1, n, r1 = int(ks[0]), int(ns[0]), int(rs[0])
    k2 = int(ks[ks != k1][0])
    r2 = (r1 + 1) % small_channel.scenario.num_rrhs
    p1 = float(state.waterline[k1] - state.sigma2_w
               / state.gains[k1, n, r1])
    rate1 = float(rate_single(p1, state.gains[k1, n, r1], state.sigma2_w,
                              state.sc_bw_hz))
    floor = state.sigma2_w / state.sole_gains(k2).min()
    owner = state.owner.copy()
    pair = Pair(n, k1, r1, p1, rate1, k2, r2, 1e-9, 1e5)
    with pytest.raises(InfeasibleWaterline):
        _freeze_pair(state, pair, state.waterline[k1], 0.5 * floor)
    assert np.array_equal(state.owner, owner)
    assert not state.pairs and not state.frozen_rate.any()


def _candidate_rows(state, k2, same_rrh=False):
    """Reference candidate builder: one Python tuple per (n, r2) row, r2
    the incumbent's RRH for same-RRH pairing, every other RRH otherwise."""
    G, s2 = state.gains, state.sigma2_w
    S, R = state.owner.shape
    held = [(n, r, int(state.owner[n, r])) for n in range(S)
            for r in range(R) if state.owner[n, r] >= 0]
    rows = []
    for n in range(S):
        on_n = [(k, r) for (m, r, k) in held if m == n]
        if len(on_n) != 1 or on_n[0][0] == k2:
            continue
        k1, r1 = on_n[0]
        mine = [G[k, m, r] for (m, r, k) in held if k == k1]
        rest = [G[k, m, r] for (m, r, k) in held if k == k1 and m != n]
        rest_floor = s2 / min(rest) if rest else 0.0
        for r2 in state.rrhs:
            if (r2 == r1) == same_rrh:
                rows.append((n, k1, r1, r2, G[k1, n, r1], G[k1, n, r2],
                             G[k2, n, r1], G[k2, n, r2], state.waterline[k1],
                             len(mine), rest_floor))
    return rows


def _compare_table_rows(alg, same_rrh, monkeypatch):
    """Run alg on loaded drops; at every proposal of a same_rrh (or a
    cross-RRH) pairing phase, compare the joiner's live pair-table rows and
    what pricing them reads with the row loop, less the rows that can never
    pair: g2 >= g1 on the shared RRH, mutual_sic_feasible false across
    RRHs. Returns the number of rows compared."""
    cheapest = allocators._PairTable.cheapest
    compared = 0

    def checked(table, k2, active):
        nonlocal compared
        if table.same_rrh == same_rrh:
            rows = np.flatnonzero(table.live & (table.k2 == k2))
            g, w1, n1, rest_floor = table.inputs(rows)[:4]
            got = (table.n[rows], table.k1[rows], table.r1[rows],
                   table.r2[rows]) + g + (w1, n1, rest_floor)
            want = [row for row in _candidate_rows(table.state, k2, same_rrh)
                    if (row[7] < row[4] if same_rrh
                        else mutual_sic_feasible(row[4:8]))]
            assert np.array_equal(
                np.array(got, dtype=float).T.reshape(-1, 11),
                np.array(want, dtype=float).reshape(-1, 11))
            compared += len(want)
        return cheapest(table, k2, active)

    monkeypatch.setattr(allocators._PairTable, "cheapest", checked)
    for ch in drops(LOADED, 3, base_seed=17):
        run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
    return compared


@pytest.mark.parametrize("alg", ["MutSIC-DPA", "MutSIC-OPAd",
                                 "MutAndSingSIC"])
def test_mutual_candidates_equal_reference_rows(alg, monkeypatch):
    """The mutual phase's table rows repeat the row loop: same rows once
    the infeasible ones are left out, same order, same priced inputs."""
    assert _compare_table_rows(alg, False, monkeypatch) > 0


@pytest.mark.parametrize("alg", ["NOMA-CAS", "SRRH", "SRRH-LPO",
                                 "MutAndSingSIC"])
def test_single_candidates_equal_reference_rows(alg, monkeypatch):
    """The same-RRH phase's table rows repeat the row loop: same rows once
    those with g2 >= g1 are left out, same order, same priced inputs."""
    assert _compare_table_rows(alg, True, monkeypatch) > 0


@pytest.mark.parametrize("alg", ["SRRH", "SRRH-LPO", "MutSIC-DPA",
                                 "MutSIC-OPAd", "MutSIC-SOPAd"])
def test_pair_table_clean_rows_equal_fresh_prices(alg, monkeypatch):
    """Every mode (ftpa, lpo, dpa, opad, sopad): once a proposal has
    re-priced the stale rows, every live clean row of an active joiner
    holds, bitwise, what pricing it afresh from the state gives. A commit
    that left a row it changed clean would show here. Same-RRH rows price
    the incumbent at its sole power p1i and leave its waterline w1."""
    cheapest = allocators._PairTable.cheapest
    checked = 0

    def check(table, k2, active):
        nonlocal checked
        out = yield from cheapest(table, k2, active)
        ready = active & (table.state.n_sole > 0)
        rows = np.flatnonzero(table.live & ~table.dirty & ready[table.k2])
        if rows.size:
            assert np.array_equal(table.values[:, rows],
                                  np.array(price_rows(*table.request(rows))),
                                  equal_nan=True)
            if table.same_rrh:
                # a same-RRH price never moves the incumbent: p1 is its
                # sole power and w1_new its waterline, bitwise
                g, w1 = table.inputs(rows)[:2]
                assert np.array_equal(table.values[1, rows],
                                      w1 - table.state.sigma2_w / g[0])
                assert np.array_equal(table.values[4, rows], w1)
        checked += rows.size
        # the count that ends the phase tracks the subcarriers held alone
        assert table.held == (table.state.holders() == 1).sum()
        return out

    monkeypatch.setattr(allocators._PairTable, "cheapest", check)
    accepted = 0
    for ch in drops(LOADED, N_DROPS, base_seed=17):
        res = run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
        accepted += sum(s.accepted for s in res.state.log
                        if s.phase in ("single", "mutual"))
    assert checked > 0 and accepted > 0


@pytest.mark.parametrize("alg", ["SRRH", "SRRH-LPO", "MutSIC-DPA",
                                 "MutSIC-OPAd", "MutSIC-SOPAd"])
def test_pair_table_prices_the_proposer_on_demand(alg, monkeypatch):
    """Every mode (ftpa, lpo, dpa, opad, sopad): a proposal may leave other
    joiners' rows dirty, but once it is answered every live row of the
    proposer is clean and holds, bitwise, a fresh pricing of it."""
    cheapest = allocators._PairTable.cheapest
    checked = 0

    def check(table, k2, active):
        nonlocal checked
        out = yield from cheapest(table, k2, active)
        if table.state.n_sole[k2] > 0:
            rows = np.flatnonzero(table.live & (table.k2 == k2))
            assert not table.dirty[rows].any()
            if rows.size:
                assert np.array_equal(
                    table.values[:, rows],
                    np.array(price_rows(*table.request(rows))),
                    equal_nan=True)
            checked += rows.size
        return out

    monkeypatch.setattr(allocators._PairTable, "cheapest", check)
    for ch in drops(LOADED, N_DROPS, base_seed=17):
        run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
    assert checked > 0


def test_opad_table_skips_proposals_with_clean_rows(monkeypatch):
    """On the pinned paper drops, MutSIC-OPAd's table prices fewer times
    than once per phase run up front and once after every accepted step,
    as it did when every commit made the next proposal price: a proposer
    whose own rows no commit touched prices nothing."""
    calls = 0

    def counted(*request):
        nonlocal calls
        calls += 1
        return price_rows(*request)

    monkeypatch.setattr(allocators, "price_rows", counted)
    runs, accepted = 2, 0
    for d in range(runs):
        ch = generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
        res = run_algorithm(ch, AlgorithmConfig("MutSIC-OPAd"))
        accepted += sum(s.accepted for s in res.state.log
                        if s.phase == "mutual")
    assert 0 < calls < runs + accepted


@pytest.mark.parametrize("alg,drop_ids,calls", [
    ("MutSIC-DPA", (0, 1), 25),     # 33 when every commit dirtied them
    ("SRRH-LPO", (8, 10), 35),      # 38
])
def test_table_price_calls_on_pinned_paper_drops(alg, drop_ids, calls,
                                                 monkeypatch):
    """The price calls of one dpa and one lpo table on pinned paper drops.
    A commit in these modes leaves the incumbent's waterline as it was, so
    the rows it is the incumbent of stay clean and price nothing."""
    count = 0

    def counted(*request):
        nonlocal count
        count += 1
        return price_rows(*request)

    monkeypatch.setattr(allocators, "price_rows", counted)
    for d in drop_ids:
        ch = generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
        run_algorithm(ch, AlgorithmConfig(alg))
    assert count == calls


@pytest.mark.parametrize("mode,same_rrh", [
    ("ftpa", True), ("lpo", True), ("dpa", False), ("opad", False),
    ("sopad", False)])
def test_pair_table_commit_dirties_the_rows_it_moved(mode, same_rrh):
    """A commit of row (k1 incumbent, k2 joiner) dirties every live row
    that k2 joins or is the incumbent of and every live row k1 joins. The
    rows k1 is the incumbent of read only k1's waterline: ftpa, lpo and
    dpa steps write it back unchanged, so those rows stay clean; an opad
    price or a sopad refine moves it, so there they turn dirty."""
    checked = 0
    for ch in drops(LOADED, 3, base_seed=17):
        state = AllocationState(ch, False, 0.0)
        worst_best_h(state)
        oma_phase(state)
        table = allocators._PairTable(state, mode, same_rrh)
        for row in range(table.n.size):
            k1, k2 = table.k1[row], table.k2[row]
            by_k1 = (table.k1 == k1) & (table.k2 != k2)
            if (by_k1 & (table.n != table.n[row])).any():
                break
        else:
            continue
        table.dirty[:] = False
        table.commit(row)
        live = table.live
        moved = live & ((table.k1 == k2) | (table.k2 == k1)
                        | (table.k2 == k2))
        by_k1 &= live & ~moved
        assert by_k1.any()
        assert table.dirty[moved].all()
        assert table.dirty[by_k1].all() == (mode in ("opad", "sopad"))
        assert table.dirty[by_k1].any() == (mode in ("opad", "sopad"))
        assert not table.dirty[live & ~moved & ~by_k1].any()
        checked += 1
    assert checked == 3


def test_one_candidate_set_per_start_state_on_pinned_paper_drops(
        monkeypatch):
    """All 11 algorithms in ALGORITHMS order on one channel build one
    candidate set per start state and geometry: same-RRH from the CAS and
    the DAS OMA states, across RRHs from the DAS one, same-RRH from
    SOPAd's state for MutAndSingSIC; 4 per drop, where each pairing run
    built its own (7). SOPAd selects from DPA's start-state prices, so it
    asks for no selection price before its first commit, and it asks for
    an opad refine only where a commit of its own moved the row: a
    pristine row's refine reads OPAd's start-state prices."""
    counts = dict.fromkeys(("builds", "early", "refines", "pristine",
                            "accepted", "commits"), 0)
    running = None

    class Counted(allocators._Candidates):
        def __init__(self, *args):
            counts["builds"] += 1
            super().__init__(*args)

    def priced(*request):
        if running == "MutSIC-SOPAd":
            if request[0] == "opad":
                counts["refines"] += 1
            elif counts["commits"] == 0:
                counts["early"] += 1
        return price_rows(*request)

    table = allocators._PairTable
    commit, refine = table.commit, table.refine

    def committed(table, row):
        counts["commits"] += running == "MutSIC-SOPAd"
        return commit(table, row)

    def refined(table, row):
        if table.pristine[row] and "opad" in table.prices:
            counts["pristine"] += 1
        return (yield from refine(table, row))

    run = allocators.run_algorithm

    def ran(channel, config):
        nonlocal running
        running, counts["commits"] = config.algorithm, 0
        res = run(channel, config)
        if running == "MutSIC-SOPAd":
            counts["accepted"] += sum(s.accepted for s in res.state.log
                                      if s.phase == "mutual")
        return res

    monkeypatch.setattr(allocators, "_Candidates", Counted)
    monkeypatch.setattr(allocators, "price_rows", priced)
    monkeypatch.setattr(allocators._PairTable, "commit", committed)
    monkeypatch.setattr(allocators._PairTable, "refine", refined)
    monkeypatch.setattr(allocators, "run_algorithm", ran)
    for d in range(4):
        ch = generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
        allocators.run_algorithms(ch, ALGORITHMS)
    assert counts["builds"] == 4 * 4
    assert counts["early"] == 0
    assert counts["pristine"] > 0
    assert counts["refines"] == counts["accepted"] - counts["pristine"]
    # 42 refine requests when every refine asked for one
    assert (counts["accepted"], counts["pristine"]) == (42, 9)


@pytest.mark.parametrize("scenario,count,rho_w", [
    (Scenario(), 6, AlgorithmConfig.rho_w), (LOADED, N_DROPS, 0.0)])
def test_refines_from_start_state_prices_equal_fresh_ones(
        scenario, count, rho_w, monkeypatch):
    """A sopad refine of a row no commit of its run has moved reads the
    opad prices OPAd's first pricing left at the start state. Each such
    refine, and each other, equals bit for bit a fresh one-row opad
    pricing of the row from the state at refine time."""
    refine = allocators._PairTable.refine
    from_start, differ = 0, []

    def check(table, row):
        nonlocal from_start
        fresh = price_rows(*table.request(np.array([row]), "opad"))
        from_start += bool(table.pristine[row]
                           and "opad" in table.prices)
        got = yield from refine(table, row)
        if np.array(got, dtype=float).tobytes() \
                != np.array([a[0] for a in fresh]).tobytes():
            differ.append((row, got, fresh))
        return got

    monkeypatch.setattr(allocators._PairTable, "refine", check)
    for ch in drops(scenario, count, base_seed=17):
        outcomes = allocators.run_algorithms(ch, ALGORITHMS, rho_w)
        assert not any(isinstance(res, Exception)
                       for res in outcomes.values())
    assert differ == []
    assert from_start > 0


def test_uc_link_masks_equal_rebuilt_ones_after_every_commit(monkeypatch):
    """uc_extension_phase keeps its open-link masks across proposals and
    updates them per commit (_UcLinks.add). After every commit, on loaded
    drops at rho_w 0, each user's open links equal the mask rebuilt from
    state.owner: a free subcarrier on every RRH, a subcarrier one other
    user holds on every other RRH. The phase runs after oma_phase, as
    MutSIC-UC runs it, where nearly every commit shares a subcarrier, and
    straight after worst_best_h, where most take a free one."""
    links_class = allocators._UcLinks
    commits, held_after = 0, {1: 0, 2: 0}

    class Checked(links_class):
        def add(self, k, n, ri):
            nonlocal commits
            super().add(k, n, ri)
            st = self.state
            own = st.owner[:, st.rrhs]
            held = own >= 0
            for user in range(st.num_users):
                other = (held.sum(axis=1) == 1) & (own.max(axis=1) != user)
                want = st.free[:, None] | (other[:, None] & ~held)
                assert np.array_equal(self.open(user), want)
            commits += 1
            held_after[int(held[n].sum())] += 1

    monkeypatch.setattr(allocators, "_UcLinks", Checked)
    for ch in drops(LOADED, N_DROPS, base_seed=17):
        run_algorithm(ch, AlgorithmConfig("MutSIC-UC", rho_w=0.0))
        state = AllocationState(ch, False, 0.0)
        worst_best_h(state)
        allocators.uc_extension_phase(state)
    assert commits == sum(held_after.values())
    assert held_after[1] > 0 and held_after[2] > 0


def test_total_matches_power_tensor(batch):
    for (alg, i), res in batch.items():
        assert res.total_power_w == pytest.approx(float(res.power_w.sum()),
                                                  rel=1e-12)
        assert res.per_user_power_w == pytest.approx(
            res.power_w.sum(axis=(1, 2)), rel=1e-12)


# -- orderings guaranteed by shared greedy trajectories -----------------------------

def test_pairing_never_hurts_oma_baseline(batch):
    for i in range(N_DROPS):
        base = batch["OMA-DAS", i].total_power_w
        for alg in ("SRRH", "SRRH-LPO", "MutSIC-UC", "MutSIC-DPA",
                    "MutSIC-OPAd", "MutSIC-SOPAd", "MutAndSingSIC"):
            assert batch[alg, i].total_power_w <= base * (1.0 + 1e-12)


def test_noma_cas_never_above_oma_cas(batch):
    for i in range(N_DROPS):
        assert batch["NOMA-CAS", i].total_power_w \
            <= batch["OMA-CAS", i].total_power_w * (1.0 + 1e-12)


def test_extra_single_phase_never_hurts_sopad(batch):
    for i in range(N_DROPS):
        assert batch["MutAndSingSIC", i].total_power_w \
            <= batch["MutSIC-SOPAd", i].total_power_w * (1.0 + 1e-12)


def test_opa_refinement_never_hurts_lpo(batch):
    for i in range(N_DROPS):
        assert batch["SRRH-OPA", i].total_power_w \
            <= batch["SRRH-LPO", i].total_power_w * (1.0 + 1e-9)


def test_lpo_beats_ftpa_per_drop(batch):
    for i in range(N_DROPS):
        assert batch["SRRH-LPO", i].total_power_w \
            <= batch["SRRH", i].total_power_w * (1.0 + 1e-12)


def test_distributed_beats_colocated(batch):
    for i in range(N_DROPS):
        assert batch["OMA-DAS", i].total_power_w \
            < batch["OMA-CAS", i].total_power_w


# -- structure of the pair records ---------------------------------------------------

def test_single_pairs_same_rrh_ordered(batch):
    """Same-RRH pairs: the joiner is the weaker and stronger-powered user,
    and the incumbent's frozen rate is its interference-free rate."""
    seen = 0
    for alg in ("SRRH", "SRRH-LPO", "MutAndSingSIC"):
        for i in range(N_DROPS):
            st = batch[alg, i].state
            for sp in st.pairs:
                if alg == "MutAndSingSIC" and sp.r1 != sp.r2:
                    continue
                seen += 1
                assert sp.r1 == sp.r2
                g1 = st.gains[sp.k1, sp.n, sp.r1]
                g2 = st.gains[sp.k2, sp.n, sp.r2]
                assert g2 < g1
                assert sp.p2_w >= sp.p1_w
                assert sp.k1 != sp.k2
                assert sp.rate1_bps == rate_single(sp.p1_w, g1, st.sigma2_w,
                                                   st.sc_bw_hz)
    assert seen >= 10


def test_mutual_pairs_cross_rrh(batch):
    seen = 0
    for alg in ("MutSIC-DPA", "MutSIC-OPAd", "MutSIC-SOPAd"):
        for i in range(N_DROPS):
            st = batch[alg, i].state
            for mp in st.pairs:
                seen += 1
                assert mp.r1 != mp.r2
                assert mp.k1 != mp.k2
                assert mp.p1_w > 0.0 and mp.p2_w > 0.0
                assert mp.rate1_bps > 0.0 and mp.rate2_bps > 0.0
    assert seen >= 5


def test_srrh_lpo_never_mutual(batch):
    for i in range(N_DROPS):
        res = batch["SRRH-LPO", i]
        assert res.mutsic_sc == 0
        assert all(p.r1 == p.r2 for p in res.state.pairs)


def test_uc_shares_cross_rrh_only(batch):
    shared = 0
    for i in range(N_DROPS):
        st = batch["MutSIC-UC", i].state
        holders = {}
        for k, n, r in zip(*sole_links(st)):
            holders.setdefault(n, []).append((k, r))
        for n, occ in holders.items():
            assert len(occ) <= 2
            if len(occ) == 2:
                shared += 1
                assert occ[0][0] != occ[1][0]
                assert occ[0][1] != occ[1][1]
    assert shared >= 5


def test_cas_uses_center_rrh_only(batch):
    for alg in ("OMA-CAS", "NOMA-CAS"):
        for i in range(N_DROPS):
            P = batch[alg, i].power_w
            assert (P[:, :, 1:] == 0.0).all()
            assert P[:, :, 0].sum() > 0.0


# -- reductions and limiting cases ---------------------------------------------------

def test_huge_threshold_collapses_to_first_phase():
    ch = generate_channel(SMALL, np.random.default_rng(2))
    totals = {}
    for alg in ALGORITHMS:
        res = run_algorithm(ch, AlgorithmConfig(alg, rho_w=1e9))
        totals[alg] = res.total_power_w
        if alg == "OMA-DAS":
            assert all(n == 1 for n in res.state.n_sole)
    # every DAS algorithm degenerates to the same one-subcarrier-per-user
    # assignment; CAS variants agree with each other on the center RRH
    ref = totals["OMA-DAS"]
    for alg in ("SRRH", "SRRH-LPO", "MutSIC-UC", "MutSIC-DPA",
                "MutSIC-OPAd", "MutSIC-SOPAd", "MutAndSingSIC"):
        assert totals[alg] == pytest.approx(ref, rel=1e-12)
    assert totals["SRRH-OPA"] == pytest.approx(ref, rel=1e-6)
    assert totals["NOMA-CAS"] == pytest.approx(totals["OMA-CAS"], rel=1e-12)


def test_single_rrh_reductions():
    """Without a second RRH the cross-RRH modes reduce to their cores."""
    sc = LOADED.with_(num_rrhs=1)
    ch = generate_channel(sc, np.random.default_rng(3))
    res = {alg: run_algorithm(ch, AlgorithmConfig(alg, rho_w=0.0))
           for alg in ("OMA-DAS", "SRRH-LPO", "MutSIC-UC", "MutSIC-DPA",
                       "MutSIC-OPAd", "MutSIC-SOPAd", "MutAndSingSIC")}
    for alg in ("MutSIC-UC", "MutSIC-DPA", "MutSIC-OPAd", "MutSIC-SOPAd"):
        assert np.array_equal(res[alg].power_w, res["OMA-DAS"].power_w), alg
    assert np.array_equal(res["MutAndSingSIC"].power_w,
                          res["SRRH-LPO"].power_w)


def test_single_user_flat_channel_spreads_evenly():
    sc = Scenario(num_users=1, num_subcarriers=8, num_rrhs=2,
                  rate_demand_bps=2e6)
    ch = generate_channel(sc, np.random.default_rng(0), fading=False,
                          shadowing=False, pathloss=False)
    res = run_algorithm(ch, AlgorithmConfig("OMA-DAS", rho_w=0.0))
    q = sc.rate_demand_bps / sc.sc_bw_hz
    expected = 8 * sc.sigma2_w * (2.0 ** (q / 8) - 1.0)
    assert res.total_power_w == pytest.approx(expected, rel=1e-12)
    # flat gains: one slot per subcarrier, all at the same power
    per_sc = res.power_w.sum(axis=(0, 2))
    assert per_sc == pytest.approx(np.full(8, expected / 8), rel=1e-12)


def test_deterministic_given_channel(small_channel):
    # two cold calls: each on its own channel object, so neither goes on
    # from the other's phase states
    for alg in ("OMA-DAS", "MutAndSingSIC", "SRRH-OPA"):
        a = run_algorithm(replace(small_channel), AlgorithmConfig(alg, 0.0))
        b = run_algorithm(replace(small_channel), AlgorithmConfig(alg, 0.0))
        assert np.array_equal(a.power_w, b.power_w)


# -- dispatch: which phases each algorithm runs ---------------------------------------

# the calls run_algorithm makes after worst_best_h and oma_phase, in order
PHASE_CALLS = {
    "OMA-CAS": [],
    "NOMA-CAS": [("single_sic_pairing", "ftpa")],
    "OMA-DAS": [],
    "SRRH": [("single_sic_pairing", "ftpa")],
    "SRRH-LPO": [("single_sic_pairing", "lpo")],
    "SRRH-OPA": [("single_sic_pairing", "lpo"),
                 ("optimal_power_allocation",)],
    "MutSIC-UC": [("uc_extension_phase",)],
    "MutSIC-DPA": [("mutual_sic_pairing", "dpa")],
    "MutSIC-OPAd": [("mutual_sic_pairing", "opad")],
    "MutSIC-SOPAd": [("mutual_sic_pairing", "sopad")],
    "MutAndSingSIC": [("mutual_sic_pairing", "sopad"),
                      ("single_sic_pairing", "lpo")],
}


# the calls run_algorithm makes when called on one channel object in
# ALGORITHMS order: each distinct phase prefix runs once, the joint power
# optimization at every call that asks for it
WARM_CALLS = {
    "OMA-CAS": [("worst_best_h",), ("oma_phase",)],
    "NOMA-CAS": [("single_sic_pairing", "ftpa")],
    "OMA-DAS": [("worst_best_h",), ("oma_phase",)],
    "SRRH": [("single_sic_pairing", "ftpa")],
    "SRRH-LPO": [("single_sic_pairing", "lpo")],
    "SRRH-OPA": [("optimal_power_allocation",)],
    "MutSIC-UC": [("uc_extension_phase",)],
    "MutSIC-DPA": [("mutual_sic_pairing", "dpa")],
    "MutSIC-OPAd": [("mutual_sic_pairing", "opad")],
    "MutSIC-SOPAd": [("mutual_sic_pairing", "sopad")],
    "MutAndSingSIC": [("single_sic_pairing", "lpo")],
}


def test_phases_reached_through_module_names(tiny_channel, monkeypatch):
    """Patching a phase by name, as a tracer does, sees every call."""
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(state, *args):
            assert isinstance(state, AllocationState)
            calls.append((name,) + args)
            return fn(state, *args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("worst_best_h", "oma_phase", "uc_extension_phase",
                 "single_sic_pairing", "mutual_sic_pairing"):
        counting(allocators, name)
    counting(allocators.optimal_pa, "optimal_power_allocation")
    assert set(PHASE_CALLS) == set(ALGORITHMS)
    for alg in ALGORITHMS:
        calls.clear()
        run_algorithm(replace(tiny_channel), AlgorithmConfig(alg))
        assert calls == [("worst_best_h",), ("oma_phase",)] \
            + PHASE_CALLS[alg], alg
    assert tuple(WARM_CALLS) == ALGORITHMS
    for alg in ALGORITHMS:
        calls.clear()
        run_algorithm(tiny_channel, AlgorithmConfig(alg))
        assert calls == WARM_CALLS[alg], alg
    # a family run makes the same calls, and leaves its phase states to
    # the calls after it
    family = replace(tiny_channel)
    calls.clear()
    allocators.run_algorithms(family, ALGORITHMS)
    assert calls == [c for alg in ALGORITHMS for c in WARM_CALLS[alg]]
    for alg in ALGORITHMS:
        calls.clear()
        run_algorithm(family, AlgorithmConfig(alg))
        assert calls == WARM_CALLS[alg][-1:] * (alg == "SRRH-OPA"), alg


# -- family runs: shared phases, forked states -----------------------------------------

def _fingerprint(res):
    """Every observable of a result, floats by repr: equal fingerprints
    mean bit-identical results (NaN retirement steps included)."""
    st = res.state
    log = [(s.phase, s.user, s.subcarrier, s.accepted, s.predicted_dp_w,
            s.total_before_w, s.total_after_w) for s in st.log]
    return repr((res.algorithm, res.total_power_w, res.power_w.tobytes(),
                 res.per_user_power_w.tobytes(), res.nonmux_sc,
                 res.mutsic_sc, res.singsic_sc, res.warnings,
                 res.opa_iterations, res.opa_residual, log,
                 st.phase_iterations, st.rho_w, st.pairs))


FAMILY_ORDERS = (
    ALGORITHMS,
    ALGORITHMS[::-1],
    ("MutAndSingSIC",),
    ("SRRH-OPA", "OMA-CAS"),
    tuple(str(a) for a in np.random.default_rng(3).permutation(ALGORITHMS)),
)


def _cold(ch, alg, rho_w=AlgorithmConfig.rho_w):
    """The fingerprint of a run on a channel object no call has seen. It
    is this thread's last channel afterwards: a test of warm calls on ch
    takes its cold fingerprints first."""
    return _fingerprint(run_algorithm(replace(ch), AlgorithmConfig(alg,
                                                                   rho_w)))


@pytest.mark.parametrize("scenario,count", [(Scenario(), 2), (SMALL, 3)])
@pytest.mark.parametrize("rho_w", [1e-3, 0.0])
def test_family_run_equals_solo_runs(scenario, count, rho_w):
    """A family run and solo calls on one channel object, each call going
    on from the phase states of the calls before it, equal cold calls."""
    for ch in drops(scenario, count, base_seed=29):
        solo = {alg: _cold(ch, alg, rho_w) for alg in ALGORITHMS}
        for order in FAMILY_ORDERS:
            family = allocators.run_algorithms(ch, order, rho_w)
            assert tuple(family) == order
            assert len({id(res.state) for res in family.values()}) \
                == len(order)
            for alg, res in family.items():
                assert _fingerprint(res) == solo[alg], (alg, order)
            warm = replace(ch)
            results = [run_algorithm(warm, AlgorithmConfig(alg, rho_w))
                       for alg in order]
            for alg, res in zip(order, results):
                assert _fingerprint(res) == solo[alg], (alg, order)
            assert len({id(res.state) for res in results}) == len(order)


def test_warm_calls_with_alternating_rho_w_equal_cold():
    ch = next(drops(Scenario(), 1, base_seed=31))
    cold = {(alg, rho_w): _cold(ch, alg, rho_w) for alg in ALGORITHMS
            for rho_w in (1e-3, 0.0)}
    for i, alg in enumerate(ALGORITHMS + ALGORITHMS[::-1]):
        rho_w = (1e-3, 0.0)[i % 2]
        res = run_algorithm(ch, AlgorithmConfig(alg, rho_w))
        assert _fingerprint(res) == cold[alg, rho_w], (alg, rho_w)


def test_results_do_not_depend_on_the_gains_layout():
    """generate_channel's gains are not C-contiguous; a C-contiguous copy
    of them gives bit-identical results."""
    for ch in drops(Scenario(), 2, base_seed=43):
        assert not ch.gains.flags.c_contiguous
        contiguous = replace(ch, gains=np.ascontiguousarray(ch.gains))
        for alg in ALGORITHMS:
            assert _cold(ch, alg) == _cold(contiguous, alg), alg


# -- run_algorithm's phase states: what must miss ---------------------------------------

def _warm_up(ch, rho_w=AlgorithmConfig.rho_w):
    """Every algorithm by solo calls on ch: {algorithm: result}."""
    return {alg: run_algorithm(ch, AlgorithmConfig(alg, rho_w))
            for alg in ALGORITHMS}


def _family(ch, rho_w=AlgorithmConfig.rho_w):
    return allocators.run_algorithms(ch, ALGORITHMS, rho_w)


def test_gains_are_read_only_and_replaced_gains_miss():
    """A channel holds a read-only copy of its gains: a write raises, the
    caller's array stays writable and its own, and a channel with edited
    gains is another object, whose calls miss and equal cold ones."""
    ch = next(drops(LOADED, 1, base_seed=33))
    edited = ch.gains.copy()
    edited[[0, 1]] = edited[[1, 0]]     # users 0 and 1 swap places
    twin = replace(ch, gains=edited)
    for channel in (ch, twin):
        with pytest.raises(ValueError):
            channel.gains[0, 0, 0] = 1.0
    assert edited.flags.writeable and np.array_equal(twin.gains, edited)
    before = {alg: _cold(ch, alg, 0.0) for alg in ALGORITHMS}
    after = {alg: _cold(twin, alg, 0.0) for alg in ALGORITHMS}
    assert after != before
    for run in (_warm_up, _family):
        run(ch, 0.0)
        for alg, res in run(replace(ch, gains=edited), 0.0).items():
            assert _fingerprint(res) == after[alg], (run.__name__, alg)
    edited[...] = 0.0       # reaches neither channel
    for alg, res in _family(twin, 0.0).items():
        assert _fingerprint(res) == after[alg], alg


def test_phase_replaced_after_a_warm_call_runs(monkeypatch):
    """A phase replaced by name misses: the replacement runs, and so do
    the phases after it."""
    ch = next(drops(Scenario(), 1, base_seed=35))
    unpatched = _cold(ch, "MutSIC-SOPAd")
    real = allocators.mutual_sic_pairing
    modes = []

    def dpa_only(state, mode):
        modes.append(mode)
        real(state, "dpa")

    monkeypatch.setattr(allocators, "mutual_sic_pairing", dpa_only)
    patched = {alg: _cold(ch, alg) for alg in ("MutSIC-SOPAd",
                                                "MutAndSingSIC")}
    assert patched["MutSIC-SOPAd"] != unpatched
    monkeypatch.setattr(allocators, "mutual_sic_pairing", real)
    _warm_up(ch)
    monkeypatch.setattr(allocators, "mutual_sic_pairing", dpa_only)
    modes.clear()
    for alg, want in patched.items():
        assert _fingerprint(run_algorithm(ch, AlgorithmConfig(alg))) == want
    assert modes == ["sopad"]   # once, then MutAndSingSIC goes on from it


def test_mutated_result_state_does_not_reach_later_calls():
    ch = next(drops(LOADED, 1, base_seed=37))
    cold = {alg: _cold(ch, alg, 0.0) for alg in ALGORITHMS}
    for alg in ALGORITHMS:
        st = run_algorithm(ch, AlgorithmConfig(alg, 0.0)).state
        for shared in (st.gains, st.by_gain):     # shared by every fork
            with pytest.raises(ValueError):
                shared[0, 0] = 1
        for pair in st.pairs[:1]:                  # shared too: frozen
            with pytest.raises(FrozenInstanceError):
                pair.p1_w = 0.0
        for value in vars(st).values():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                value[...] = 0
            elif isinstance(value, (list, dict)):
                value.clear()
        st.log.append(None)
        for other in ALGORITHMS:
            res = run_algorithm(ch, AlgorithmConfig(other, 0.0))
            assert _fingerprint(res) == cold[other], (alg, other)


def test_raised_phase_is_not_kept(monkeypatch):
    ch = next(drops(Scenario(), 1, base_seed=39))
    cold = {alg: _cold(ch, alg) for alg in ALGORITHMS}
    real = allocators.oma_phase
    raised = []

    def failing(state):
        raised.append(len(state.rrhs))
        raise RuntimeError("planted")

    run_algorithm(ch, AlgorithmConfig("OMA-CAS"))
    monkeypatch.setattr(allocators, "oma_phase", failing)
    for alg in ("SRRH", "SRRH-LPO"):
        with pytest.raises(RuntimeError, match="planted"):
            run_algorithm(ch, AlgorithmConfig(alg))
    assert len(raised) == 2
    monkeypatch.setattr(allocators, "oma_phase", real)
    for alg in ALGORITHMS:
        res = run_algorithm(ch, AlgorithmConfig(alg))
        assert _fingerprint(res) == cold[alg], alg


def test_threads_alternating_on_two_channels_equal_cold(monkeypatch):
    """Four threads, two per channel, take turns call by call under a
    short switch interval; each gets cold results and keeps its own
    channel's states."""
    chs = list(drops(SMALL, 2, base_seed=41))
    cold = [{alg: _cold(ch, alg, 0.0) for alg in ALGORITHMS} for ch in chs]
    real = allocators.worst_best_h
    roots = []

    def counting(state):
        roots.append(state.channel)
        real(state)

    monkeypatch.setattr(allocators, "worst_best_h", counting)
    turn = threading.Barrier(4, timeout=60)
    got = [{} for _ in range(4)]

    def calls(t):
        for alg in ALGORITHMS:
            turn.wait()
            res = run_algorithm(chs[t % 2], AlgorithmConfig(alg, 0.0))
            got[t][alg] = _fingerprint(res)

    threads = [threading.Thread(target=calls, args=(t,)) for t in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert got == cold + cold
    # two roots (CAS and DAS) per thread
    assert sorted(map(id, roots)) == sorted(map(id, 4 * chs))


def test_phase_failure_reaches_only_the_algorithms_below(small_channel,
                                                          monkeypatch):
    """A shared LPO pairing that raises fails the three algorithms that
    run it, through the name the runner looks up; the rest are untouched."""
    solo = {alg: _fingerprint(run_algorithm(small_channel,
                                            AlgorithmConfig(alg)))
            for alg in ALGORITHMS}
    real = allocators.single_sic_pairing
    planted = RuntimeError("planted")

    def failing(state, mode):
        if mode == "lpo":
            raise planted
        return real(state, mode)

    monkeypatch.setattr(allocators, "single_sic_pairing", failing)
    family = allocators.run_algorithms(small_channel, ALGORITHMS)
    below = {"SRRH-LPO", "SRRH-OPA", "MutAndSingSIC"}
    for alg, res in family.items():
        if alg in below:
            assert res is planted, alg
        else:
            assert _fingerprint(res) == solo[alg], alg


def test_das_root_failure_spares_cas(small_channel, monkeypatch):
    real = allocators.oma_phase

    def failing_on_das(state):
        if len(state.rrhs) > 1:
            raise RuntimeError("planted")
        real(state)

    monkeypatch.setattr(allocators, "oma_phase", failing_on_das)
    family = allocators.run_algorithms(small_channel, ALGORITHMS)
    for alg, res in family.items():
        central = allocators.PLANS[alg][0]
        assert isinstance(res, RuntimeError) != central, alg
    assert sum(isinstance(r, RuntimeError) for r in family.values()) == 9
    with pytest.raises(RuntimeError, match="planted"):
        run_algorithm(small_channel, AlgorithmConfig("SRRH"))


def test_opa_failure_leaves_srrh_lpo_intact(small_channel, monkeypatch):
    lpo = _fingerprint(run_algorithm(small_channel,
                                     AlgorithmConfig("SRRH-LPO")))

    def failing(state):
        raise RuntimeError("planted")

    monkeypatch.setattr(allocators.optimal_pa, "optimal_power_allocation",
                        failing)
    family = allocators.run_algorithms(small_channel,
                                       ("SRRH-OPA", "SRRH-LPO"))
    assert isinstance(family["SRRH-OPA"], RuntimeError)
    assert _fingerprint(family["SRRH-LPO"]) == lpo


def test_fork_is_independent_of_its_parent():
    ch = next(drops(LOADED, 1, base_seed=17))
    state = AllocationState(ch, False, 0.0)
    worst_best_h(state)
    # oma on a fork advances the fork's cursors and moves its weakest gains
    first = pickle.dumps(vars(state))
    grown = state.fork()
    oma_phase(grown)
    assert (grown.cursor > state.cursor).any()
    assert not np.array_equal(grown.weakest, state.weakest)
    assert pickle.dumps(vars(state)) == first
    oma_phase(state)
    before = pickle.dumps(vars(state))
    twin = state.fork()
    assert twin.channel is state.channel and twin.rho_w == state.rho_w
    # exactly the read-only arrays, never changed, are shared
    arrays = {name: value for name, value in vars(state).items()
              if isinstance(value, np.ndarray)}
    shared = {name for name, value in arrays.items()
              if getattr(twin, name) is value}
    assert shared == {name for name, value in arrays.items()
                      if not value.flags.writeable} == {"gains", "by_gain"}
    for name, value in vars(twin).items():
        if name in arrays and name not in shared:
            value[...] = 0
        elif isinstance(value, list):
            value.append(None)
        elif isinstance(value, dict):
            value["oma"] = (-1, -1)
    assert pickle.dumps(vars(state)) == before
    # a phase run on a fork leaves the parent as it was too
    other = state.fork()
    allocators.single_sic_pairing(other, "lpo")
    assert other.pairs and pickle.dumps(vars(state)) == before


def test_run_algorithms_rejects_repeated_names(tiny_channel):
    with pytest.raises(ValueError, match="repeated"):
        allocators.run_algorithms(tiny_channel, ("OMA-DAS", "SRRH",
                                                 "OMA-DAS"))


# -- first phase in isolation ---------------------------------------------------------

def test_first_phase_gives_everyone_one_subcarrier(small_channel):
    state = AllocationState(small_channel, False, 1e-3)
    worst_best_h(state)
    sc = small_channel.scenario
    assert all(n == 1 for n in state.n_sole)
    assert state.free.sum() == sc.num_subcarriers - sc.num_users
    assert (state.holders() == 1).sum() == sc.num_users
    for k in range(sc.num_users):
        g, = state.sole_gains(k)
        p = state.waterline[k] - state.sigma2_w / g
        assert rate_single(p, g, state.sigma2_w, state.sc_bw_hz) \
            == pytest.approx(sc.rate_demand_bps, rel=1e-9)


def test_first_phase_weakest_user_picks_first(small_channel):
    state = AllocationState(small_channel, False, 1e-3)
    worst_best_h(state)
    first_user = state.log[0].user
    best_links = small_channel.gains.max(axis=(1, 2))
    assert first_user == int(np.argmin(best_links))
    # and it received its own best link
    g, = state.sole_gains(first_user)
    assert g == best_links[first_user]


# -- configuration validation ----------------------------------------------------------

def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        AlgorithmConfig("SRRH-LP0")


@pytest.mark.parametrize("bad", [
    dict(rho_w=-1.0),
    dict(rho_w=math.nan),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError, match="rho_w"):
        AlgorithmConfig("SRRH", **bad)


def test_run_algorithms_rejects_nan_threshold(tiny_channel):
    with pytest.raises(ValueError, match="rho_w"):
        allocators.run_algorithms(tiny_channel, ALGORITHMS, rho_w=math.nan)
