"""Pinned greedy trajectories: every algorithm's steps on fixed drops.

trajectory.json holds, per (scenario, drop, algorithm), a digest of the
step log's (phase, user, subcarrier, accepted) sequence, the per-phase
iteration counts and the total power. A refactor of the phases or of the
dispatch must reproduce all three, on cold calls (each on a channel object
of its own) and on warm ones (every algorithm on one channel object, each
call going on from the phases run before it). Only a change meant to alter
the greedy trajectory rewrites the file:

    PYTHONPATH=src:tests python tests/test_trajectory.py
"""

import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from nomadas import ALGORITHMS, AlgorithmConfig, Scenario, run_algorithm
from nomadas import allocators, generate_channel
from nomadas.allocators import AllocationState

from conftest import SMALL, TINY

PINNED = Path(__file__).with_name("trajectory.json")

# the desk-scale cells use a zero acceptance threshold so that their
# pairing phases take steps; the paper's cells (9 and 13 Mb/s) keep the
# default rho_w
CASES = {
    "tiny": (TINY, 3, 0.0),
    "small": (SMALL, 2, 0.0),
    "loaded": (SMALL.with_(rate_demand_bps=10e6, num_users=12), 2, 0.0),
    "paper": (Scenario(), 2, AlgorithmConfig.rho_w),
    "paper-13M": (Scenario(rate_demand_bps=13e6), 2, AlgorithmConfig.rho_w),
}


def step_digest(log) -> str:
    steps = [(s.phase, s.user, s.subcarrier, s.accepted) for s in log]
    return hashlib.sha256(repr(steps).encode()).hexdigest()[:16]


def trajectories(warm: bool = False) -> dict:
    out = {}
    for name, (scen, count, rho_w) in CASES.items():
        for d in range(count):
            channel = generate_channel(scen, np.random.default_rng([0, 1, d]))
            for alg in ALGORITHMS:
                res = run_algorithm(
                    channel if warm else dataclasses.replace(channel),
                    AlgorithmConfig(alg, rho_w=rho_w))
                out[f"{name}/{d}/{alg}"] = {
                    "steps": step_digest(res.state.log),
                    "phase_iterations": {
                        tag: list(v)
                        for tag, v in res.state.phase_iterations.items()},
                    "total_power_w": res.total_power_w,
                }
    return out


@pytest.fixture(scope="module")
def runs():
    """The trajectories of cold calls and of warm calls, by name."""
    return {"cold": trajectories(), "warm": trajectories(warm=True)}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_cases_cover_every_algorithm(runs, pinned):
    for got in runs.values():
        assert got.keys() == pinned.keys()
    assert {key.rsplit("/", 1)[1] for key in pinned} == set(ALGORITHMS)


def test_step_logs_match_pinned(runs, pinned):
    for how, got in runs.items():
        for key, want in pinned.items():
            assert got[key]["steps"] == want["steps"], (how, key)


def test_phase_iterations_match_pinned(runs, pinned):
    for how, got in runs.items():
        for key, want in pinned.items():
            assert got[key]["phase_iterations"] \
                == want["phase_iterations"], (how, key)


def test_totals_match_pinned(runs, pinned):
    for how, got in runs.items():
        for key, want in pinned.items():
            assert got[key]["total_power_w"] == pytest.approx(
                want["total_power_w"], rel=1e-10, abs=0.0), (how, key)


def test_logged_totals_are_fresh_power_sums(monkeypatch):
    """Cold calls on the pinned drops, all 11 algorithms: every logged
    total_after_w is, bit for bit, the sum of the user powers evaluated
    afresh, though a descent evaluates again only the users a step's commit
    names; and no accepted step changes the power of a user its commit did
    not name."""
    log, descend = AllocationState._log, allocators._descend
    counts = {"logged": 0, "commits": 0, "pairs": 0}

    def checked_log(state, tag, user, n, accepted, dp, before, after):
        assert after == float(state.user_powers().sum()), (tag, user)
        counts["logged"] += 1
        log(state, tag, user, n, accepted, dp, before, after)

    def answered(value):
        """A plain proposer's or commit's value, or a pricing one's, its
        price requests passed on."""
        return (yield from value) if inspect.isgenerator(value) else value

    def checked_descend(state, tag, limit, more, propose, active=None):
        def checked_propose(k):
            n, dp, commit = yield from answered(propose(k))
            if commit is None:
                return n, dp, commit

            def checked_commit():
                was = state.user_powers()
                n, dp, changed = yield from answered(commit())
                moved = np.flatnonzero(state.user_powers() != was)
                assert set(moved.tolist()) <= set(changed), (tag, changed)
                counts["commits"] += 1
                counts["pairs"] += len(changed) == 2
                return n, dp, changed
            return n, dp, checked_commit
        return descend(state, tag, limit, more, checked_propose, active)

    monkeypatch.setattr(AllocationState, "_log", checked_log)
    monkeypatch.setattr(allocators, "_descend", checked_descend)
    trajectories()
    assert counts["logged"] > counts["commits"] > counts["pairs"] > 0


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(trajectories().items())]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
