"""Link gain generation: path loss, shadowing, fading."""

import copy
import math
import pickle

import numpy as np
import pytest

from nomadas import Scenario, generate_channel
from nomadas.channel import pathloss_gain, tap_powers

FLAT = dict(fading=False, shadowing=False, pathloss=False)


# -- path loss ----------------------------------------------------------------------

def test_pathloss_reference_distance():
    # 128.1 dB at one kilometer
    assert pathloss_gain(1000.0) == pytest.approx(10.0 ** -12.81)


def test_pathloss_decay_exponent():
    # doubling the distance costs the 3.76 power-law factor
    ratio = pathloss_gain(800.0) / pathloss_gain(400.0)
    assert ratio == pytest.approx(2.0 ** -3.76)


def test_pathloss_vectorized():
    g = pathloss_gain([100.0, 1000.0])
    assert g.shape == (2,)
    assert g[0] > g[1]


# -- power-delay profile ----------------------------------------------------------

def test_tap_powers_normalized():
    assert tap_powers().sum() == pytest.approx(1.0)


def test_tap_powers_exponential_decay():
    p = tap_powers()
    assert p.shape == (8,)
    # 100 ns spacing over a 500 ns RMS delay spread
    assert np.allclose(p[1:] / p[:-1], math.exp(-0.2))


# -- channel tensor ---------------------------------------------------------------

def test_tensor_shape_and_positivity(small_channel):
    sc = small_channel.scenario
    assert small_channel.gains.shape == (sc.num_users, sc.num_subcarriers,
                                         sc.num_rrhs)
    assert np.isfinite(small_channel.gains).all()
    assert (small_channel.gains > 0.0).all()
    assert small_channel.sigma2_w == sc.sigma2_w


def test_generate_channel_deterministic():
    sc = Scenario(num_users=5, num_subcarriers=16, num_rrhs=3)
    a = generate_channel(sc, np.random.default_rng(9))
    b = generate_channel(sc, np.random.default_rng(9))
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.user_xy, b.user_xy)


def test_generate_channel_rng_overrides_seed():
    sc = Scenario(num_users=5, num_subcarriers=16, num_rrhs=3)
    a = generate_channel(sc, np.random.default_rng(1))
    b = generate_channel(sc, np.random.default_rng(2))
    assert not np.array_equal(a.gains, b.gains)


def test_flat_mode_unit_gains():
    sc = Scenario(num_users=4, num_subcarriers=8, num_rrhs=2)
    t = generate_channel(sc, np.random.default_rng(0), **FLAT)
    assert np.array_equal(t.gains, np.ones((4, 8, 2)))


def test_pathloss_only_flat_across_subcarriers():
    sc = Scenario(num_users=4, num_subcarriers=8, num_rrhs=2)
    t = generate_channel(sc, np.random.default_rng(0), fading=False,
                         shadowing=False)
    assert np.allclose(t.gains, t.gains[:, :1, :])
    dist = np.sqrt(((t.user_xy[:, None, :] - t.rrh_xy[None, :, :]) ** 2)
                   .sum(-1))
    assert np.allclose(t.gains[:, 0, :], pathloss_gain(dist))


def test_fading_unit_mean_power():
    """|H|^2 averages to one: the profile only shapes, never amplifies."""
    sc = Scenario(num_users=50, num_subcarriers=64, num_rrhs=4)
    rng = np.random.default_rng(13)
    means = []
    for _ in range(50):
        t = generate_channel(sc, rng, shadowing=False, pathloss=False)
        means.append(t.gains.mean())
    assert np.mean(means) == pytest.approx(1.0, abs=0.02)


def test_shadowing_standard_deviation():
    sc = Scenario(num_users=60, num_subcarriers=64, num_rrhs=4)
    rng = np.random.default_rng(17)
    samples = []
    for _ in range(40):
        t = generate_channel(sc, rng, fading=False, pathloss=False)
        samples.append(10.0 * np.log10(t.gains[:, 0, :]).ravel())
    std = float(np.std(np.concatenate(samples)))
    assert std == pytest.approx(8.0, abs=0.3)


# -- copies -------------------------------------------------------------------------

@pytest.mark.parametrize("duplicate", [
    lambda ch: pickle.loads(pickle.dumps(ch)), copy.deepcopy],
    ids=["pickle", "deepcopy"])
def test_copied_channel_keeps_read_only_gains(duplicate):
    ch = generate_channel(Scenario(), np.random.default_rng(0))
    twin = duplicate(ch)
    assert not twin.gains.flags.writeable
    assert np.array_equal(twin.gains, ch.gains)
    assert twin.sigma2_w == ch.sigma2_w and twin.scenario == ch.scenario
