"""Lockstep pricing: many drops through run_lockstep equal each drop alone."""

import dataclasses
import math

import numpy as np
import pytest

from nomadas import ALGORITHMS, AlgorithmConfig, Scenario, generate_channel
from nomadas import allocators
from nomadas.allocators import price_rows, run_algorithms, run_lockstep

from test_trajectory import CASES

DENSE = Scenario(num_users=40, num_subcarriers=128, rate_demand_bps=5e6)


def _bits(x):
    """A float as its exact bits, NaN included; anything else as it is."""
    return x.hex() if isinstance(x, float) else x


def _outcome(res):
    """Everything a run produced, comparable bit for bit: its step log
    (predicted dp and both totals too), phase iterations, power tensor,
    totals and counts; an exception as its repr."""
    if isinstance(res, Exception):
        return repr(res)
    log = [tuple(_bits(v) for v in dataclasses.astuple(step))
           for step in res.state.log]
    return (log, res.state.phase_iterations, res.power_w.tobytes(),
            res.per_user_power_w.tobytes(), _bits(res.total_power_w),
            res.nonmux_sc, res.mutsic_sc, res.singsic_sc, res.warnings,
            res.opa_iterations, _bits(res.opa_residual), res.opa_solves)


def _cells():
    """The pinned trajectory cells' drops, by acceptance threshold, with
    2 dense-40u drops beside the paper cells: several scenarios share a
    lockstep run."""
    by_rho = {}
    for scen, count, rho_w in CASES.values():
        by_rho.setdefault(rho_w, []).extend(
            generate_channel(scen, np.random.default_rng([0, 1, d]))
            for d in range(count))
    by_rho[AlgorithmConfig.rho_w] += [
        generate_channel(DENSE, np.random.default_rng([0, 1, d]))
        for d in range(2)]
    return by_rho


@pytest.fixture(scope="module")
def solo():
    """Each drop alone: (rho_w, channels, [{algorithm: outcome}])."""
    out = []
    for rho_w, channels in _cells().items():
        alone = [{alg: _outcome(res) for alg, res in run_algorithms(
            dataclasses.replace(ch), ALGORITHMS, rho_w).items()}
            for ch in channels]
        out.append((rho_w, channels, alone))
    return out


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_lockstep_equals_each_drop_alone(solo, chunk):
    """Every trajectory cell and 2 dense-40u drops, run in lockstep chunks
    of 1, 3 and 8 drops, give each drop's solo outcomes bit for bit, each
    drop's in the order of the algorithms."""
    for rho_w, channels, alone in solo:
        got = [{} for _ in channels]
        for lo in range(0, len(channels), chunk):
            part = channels[lo:lo + chunk]
            for i, alg, res in run_lockstep(part, ALGORITHMS, rho_w):
                got[lo + i][alg] = _outcome(res)
        for mine, want in zip(got, alone):
            assert list(mine) == list(ALGORITHMS)
            assert mine == want


def test_lockstep_joins_price_calls(monkeypatch):
    """8 paper drops in lockstep make fewer price_rows calls than the same
    drops one at a time, with the same outcomes: the requests of several
    drops meet in one call. The counts are deterministic."""
    calls = {"solo": 0, "lockstep": 0}
    how = "solo"

    def counted(*request):
        calls[how] += 1
        return price_rows(*request)

    monkeypatch.setattr(allocators, "price_rows", counted)
    channels = [generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
                for d in range(8)]
    alone = [{alg: _outcome(res) for alg, res in run_algorithms(
        ch, ALGORITHMS).items()} for ch in channels]
    how = "lockstep"
    got = [{} for _ in channels]
    for i, alg, res in run_lockstep(channels, ALGORITHMS):
        got[i][alg] = _outcome(res)
    assert got == alone
    assert 0 < calls["lockstep"] < calls["solo"] / 2


def test_lockstep_stores_only_what_a_later_algorithm_reads(monkeypatch):
    """In run_lockstep, an algorithm's run stores a state only at a phase
    path a later algorithm reads, and when a run starts, its drop's store
    holds only the paths, and the candidate sets (path, geometry), that
    this or a later algorithm reads. So a paper drop makes 15 forks, not
    21: none for the states after the CAS and DAS ftpa pairings, uc, dpa,
    opad and MutAndSingSIC's lpo, which nothing reads. The pairing runs
    from one state still share its sets."""
    reads = []
    for alg in ALGORITHMS:
        central, steps = allocators._plan_steps(alg)
        paths = [(central, *steps[:d]) for d in range(len(steps) + 1)]
        reads.append(set(paths[1:]) | {
            (path, fn is allocators.single_sic_pairing)
            for path, (fn, *_) in zip(paths, steps)
            if fn.__name__.endswith("_sic_pairing")})
    plan, fork = allocators._plan, allocators.AllocationState.fork
    unread, forks, shared = [], 0, 0

    def watched(kept, channel, config, *later):
        nonlocal shared
        j = ALGORITHMS.index(config.algorithm)
        sets = {(path, g) for path, (_, by_g) in kept.items() for g in by_g}
        unread.extend((set(kept) | sets) - set().union(*reads[j:]))
        shared += len(sets)
        before = set(kept)
        result = yield from plan(kept, channel, config, *later)
        unread.extend(set(kept) - before - set().union(*reads[j + 1:]))
        return result

    def counted(state):
        nonlocal forks
        forks += 1
        return fork(state)

    monkeypatch.setattr(allocators, "_plan", watched)
    monkeypatch.setattr(allocators.AllocationState, "fork", counted)
    channels = [generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
                for d in range(3)]
    got = {(i, alg): _outcome(res)
           for i, alg, res in run_lockstep(channels, ALGORITHMS)}
    assert unread == []
    assert forks == 15 * len(channels)
    assert shared > 0
    monkeypatch.undo()
    alone = {(i, alg): _outcome(res) for i, ch in enumerate(channels)
             for alg, res in run_algorithms(ch, ALGORITHMS).items()}
    assert got == alone


def test_joined_requests_fit_the_row_budget(monkeypatch):
    """A tick joins requests of JOIN_ROWS rows in all at most; a larger
    request is priced alone. The outcomes do not depend on the budget."""
    channels = [generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
                for d in range(6)]
    real = allocators._price_together
    joined = []

    def recorded(requests):
        joined.append([r[2][1].size for r in requests])
        return real(requests)

    monkeypatch.setattr(allocators, "_price_together", recorded)
    outcomes = {}
    for budget in (allocators.JOIN_ROWS, 200):
        monkeypatch.setattr(allocators, "JOIN_ROWS", budget)
        joined.clear()
        outcomes[budget] = {(i, alg): _outcome(res) for i, alg, res in
                            run_lockstep(channels, ALGORITHMS)}
        assert any(len(sizes) > 1 for sizes in joined)
        assert all(sum(sizes) <= budget for sizes in joined
                   if len(sizes) > 1)
    assert any(sum(sizes) > 200 for sizes in joined)
    assert outcomes[200] == outcomes[allocators.JOIN_ROWS]


def test_raise_in_a_joined_call_reaches_only_its_drop(monkeypatch):
    """A price call that raises on one drop's rows raises, when it joins
    other drops' rows, for that drop alone: the drops priced with it get
    their own outcomes, and the raising drop gets the exception its solo
    run raises."""
    channels = [generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
                for d in range(4)]
    target = channels[2].gains.ravel()
    joined_raises = 0

    def raising(mode, same_rrh, inputs, sigma2_w, sc_bw_hz):
        nonlocal joined_raises
        mine = np.isin(inputs[0][0], target)
        if mode == "opad" and mine.any():
            joined_raises += not mine.all()
            raise ValueError("injected")
        return price_rows(mode, same_rrh, inputs, sigma2_w, sc_bw_hz)

    clean = [{alg: _outcome(res) for alg, res in run_algorithms(
        ch, ALGORITHMS).items()} for ch in channels]
    monkeypatch.setattr(allocators, "price_rows", raising)
    alone = [{alg: _outcome(res) for alg, res in run_algorithms(
        dataclasses.replace(ch), ALGORITHMS).items()} for ch in channels]
    got = [{} for _ in channels]
    for i, alg, res in run_lockstep(channels, ALGORITHMS):
        got[i][alg] = _outcome(res)
    assert joined_raises > 0
    assert got == alone
    failed = {alg for alg, out in got[2].items() if out == "ValueError("
              "'injected')"}
    assert failed == {"MutSIC-OPAd", "MutSIC-SOPAd", "MutAndSingSIC"}
    assert [g for i, g in enumerate(got) if i != 2] \
        == [c for i, c in enumerate(clean) if i != 2]


def test_lockstep_outcomes_of_a_failing_phase(monkeypatch):
    """A phase replaced by name reaches every plan in lockstep too, and a
    raise in it is the outcome of each algorithm that runs it."""
    def failing(state, mode):
        raise RuntimeError(f"no {mode}")

    monkeypatch.setattr(allocators, "single_sic_pairing", failing)
    channels = [generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
                for d in range(3)]
    got = {(i, alg): res for i, alg, res in run_lockstep(channels,
                                                           ALGORITHMS)}
    for (i, alg), res in got.items():
        phases = allocators.PLANS[alg][1]
        single = [args for name, *args in phases
                  if name == "single_sic_pairing"]
        if single:
            assert repr(res) == repr(RuntimeError(f"no {single[0][0]}"))
        else:
            assert not isinstance(res, Exception)
            assert math.isfinite(res.total_power_w)


def test_lockstep_rejects_repeated_names():
    with pytest.raises(ValueError, match="repeated"):
        list(run_lockstep([], ("OMA-DAS", "OMA-DAS")))


def test_a_lone_drop_runs_as_run_algorithm_calls(monkeypatch):
    """One channel has no requests to join: run_lockstep makes one
    run_algorithm call per algorithm, in order, and no joined pricing
    (_price_together), and yields those calls' outcomes."""
    ch = generate_channel(Scenario(), np.random.default_rng([0, 1, 0]))
    copy = dataclasses.replace(ch)
    alone = {alg: _outcome(allocators.run_algorithm(copy,
                                                    AlgorithmConfig(alg)))
             for alg in ALGORITHMS}
    real = allocators.run_algorithm
    calls = []

    def counted(channel, config):
        calls.append((channel is ch, config.algorithm))
        return real(channel, config)

    def joined(requests):
        raise AssertionError("a lone drop priced requests together")

    monkeypatch.setattr(allocators, "run_algorithm", counted)
    monkeypatch.setattr(allocators, "_price_together", joined)
    got = [(i, alg, _outcome(res))
           for i, alg, res in run_lockstep([ch], ALGORITHMS)]
    assert calls == [(True, alg) for alg in ALGORITHMS]
    assert got == [(0, alg, alone[alg]) for alg in ALGORITHMS]


@pytest.mark.parametrize("name, mode", [("single_sic_pairing", "dpa"),
                                        ("mutual_sic_pairing", "bogus")])
def test_plans_check_the_pairing_mode(monkeypatch, name, mode):
    """A plan whose pairing phase names a mode its geometry has no rule for
    fails with the ValueError of the direct phase call, alone
    (run_algorithm) and on each drop of a lockstep run."""
    channels = [generate_channel(Scenario(), np.random.default_rng([0, 1, d]))
                for d in range(2)]
    with pytest.raises(ValueError, match="unknown") as direct:
        getattr(allocators, name)(
            allocators.AllocationState(channels[0], False, 1e-3), mode)
    monkeypatch.setitem(allocators.PLANS, "SRRH",
                        (False, ((name, mode),), False))
    with pytest.raises(ValueError) as planned:
        allocators.run_algorithm(dataclasses.replace(channels[0]),
                                 AlgorithmConfig("SRRH"))
    assert repr(planned.value) == repr(direct.value)
    got = {(i, alg): res for i, alg, res in
           run_lockstep(channels, ("OMA-DAS", "SRRH"))}
    assert [repr(got[i, "SRRH"]) for i in range(2)] \
        == [repr(direct.value)] * 2
    assert not any(isinstance(got[i, "OMA-DAS"], Exception)
                   for i in range(2))
