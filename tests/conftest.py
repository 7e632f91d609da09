"""Shared fixtures: small deterministic scenarios and channel drops."""

from __future__ import annotations

import numpy as np
import pytest

from nomadas import Scenario, generate_channel
from nomadas.harness import trial_seed

# small enough that every algorithm finishes in milliseconds, large enough
# that pairing phases actually trigger on most drops
TINY = Scenario(cell_radius_m=300.0, num_users=3, num_rrhs=3,
                num_subcarriers=8, rate_demand_bps=2e6)
SMALL = Scenario(cell_radius_m=500.0, num_users=6, num_rrhs=4,
                 num_subcarriers=16, rate_demand_bps=3e6)


@pytest.fixture
def tiny_scenario():
    return TINY


@pytest.fixture
def small_scenario():
    return SMALL


@pytest.fixture
def tiny_channel():
    return generate_channel(TINY, np.random.default_rng(1))


@pytest.fixture
def small_channel():
    return generate_channel(SMALL, np.random.default_rng(1))


def sole_links(state):
    """(user, subcarrier, RRH) arrays of a state's sole holdings: its
    links without the two links of each pair at the end."""
    ks, ns, rs, _ = state.links()
    end = ks.size - 2 * len(state.pairs)
    return ks[:end], ns[:end], rs[:end]


def drops(scenario, count, base_seed=0):
    """Deterministic sequence of channel realizations, seeded as the
    harness seeds its trials, so two base seeds never share a drop."""
    for t in range(count):
        yield generate_channel(scenario,
                               np.random.default_rng(trial_seed(base_seed, t)))
