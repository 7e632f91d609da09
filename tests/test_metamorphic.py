"""Metamorphic relations of the full allocator family at full scale.

Relabelling users, subcarriers or the non-central RRHs of a drop must
relabel each algorithm's greedy step log and leave its total unchanged up
to summation order; scaling every gain and the noise power by 4 must leave
the totals bit-identical, since every power depends on gains over noise
alone. RRH 0 stays in place: it is the CAS antenna. Fixed seeded drops in
the paper cell (9 Mb/s) and at 13 Mb/s, all 11 algorithms through
run_algorithms.
"""

import numpy as np
import pytest

from nomadas import ALGORITHMS, ChannelTensor, Scenario, run_algorithms

from conftest import drops

CELLS = {"9M": Scenario(), "13M": Scenario(rate_demand_bps=13e6)}


def _outcomes(channel):
    return run_algorithms(channel, ALGORITHMS)


def _step_log(result):
    return [(s.phase, s.user, s.subcarrier, s.accepted)
            for s in result.state.log]


@pytest.fixture(scope="module", params=CELLS, ids=str)
def family(request):
    """(channel, outcomes) of 4 drops of one cell, base seed 3."""
    return [(ch, _outcomes(ch))
            for ch in drops(CELLS[request.param], 4, base_seed=3)]


def _relabelled(channel, axis, perm):
    """The channel with its users, subcarriers or RRHs in order perm."""
    gains = np.take(channel.gains, perm, axis=axis)
    user_xy = channel.user_xy[perm] if axis == 0 else channel.user_xy
    rrh_xy = channel.rrh_xy[perm] if axis == 2 else channel.rrh_xy
    return ChannelTensor(channel.scenario, gains, channel.sigma2_w, user_xy,
                         rrh_xy)


@pytest.mark.parametrize("axis", [0, 1, 2],
                         ids=["users", "subcarriers", "rrhs"])
def test_relabelling_relabels_step_logs(family, axis):
    rng = np.random.default_rng(axis)
    for channel, outcomes in family:
        size = channel.gains.shape[axis]
        # RRH 0 is the CAS antenna and stays first
        perm = np.concatenate([[0], 1 + rng.permutation(size - 1)]) \
            if axis == 2 else rng.permutation(size)
        new_of = np.argsort(perm)       # old label -> new label
        relabelled = _outcomes(_relabelled(channel, axis, perm))
        for alg in ALGORITHMS:
            res, twin = outcomes[alg], relabelled[alg]
            if isinstance(res, Exception):
                assert type(twin) is type(res), alg
                continue
            log = _step_log(res)
            if axis == 0:
                log = [(p, int(new_of[k]), n, a) for p, k, n, a in log]
            elif axis == 1:
                log = [(p, k, int(new_of[n]) if n >= 0 else n, a)
                       for p, k, n, a in log]
            assert _step_log(twin) == log, alg
            assert twin.total_power_w == pytest.approx(
                res.total_power_w, rel=1e-14, abs=0.0), alg


def test_gain_and_noise_scaling_keeps_totals(family):
    for channel, outcomes in family:
        scaled = _outcomes(ChannelTensor(
            channel.scenario, channel.gains * 4.0, channel.sigma2_w * 4.0,
            channel.user_xy, channel.rrh_xy))
        for alg in ALGORITHMS:
            res, twin = outcomes[alg], scaled[alg]
            if isinstance(res, Exception):
                assert type(twin) is type(res), alg
                continue
            assert twin.total_power_w == res.total_power_w, alg
