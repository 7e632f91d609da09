"""Link gain generation: path loss, lognormal shadowing, multipath fading.

Every (user, RRH) link draws one shadowing value and one 8-tap exponential
power-delay profile; the per-subcarrier frequency response comes from the
DFT of the taps. Gains are stored linear as |h|^2, already including path
loss and shadowing, in a dense (users, subcarriers, RRHs) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .scenario import Scenario, drop_users, place_rrhs

PATHLOSS_INTERCEPT_DB = 128.1
PATHLOSS_SLOPE_DB = 37.6  # per decade of distance in km (decay factor 3.76)

NUM_TAPS = 8
TAP_SPACING_S = 100e-9
RMS_DELAY_SPREAD_S = 500e-9


def pathloss_gain(distance_m):
    """Linear path-loss gain at the given distance(s) in meters."""
    d_km = np.asarray(distance_m, dtype=float) / 1000.0
    loss_db = PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB * np.log10(d_km)
    return 10.0 ** (-loss_db / 10.0)


def tap_powers(num_taps: int = NUM_TAPS, spacing_s: float = TAP_SPACING_S,
               rms_s: float = RMS_DELAY_SPREAD_S) -> np.ndarray:
    """Exponential power-delay profile, normalized to unit total power."""
    p = np.exp(-np.arange(num_taps) * spacing_s / rms_s)
    return p / p.sum()


@dataclass(frozen=True)
class ChannelTensor:
    """One channel realization for a scenario.

    gains has shape (num_users, num_subcarriers, num_rrhs) and holds linear
    |h|^2 per link and subcarrier; sigma2_w is the per-subcarrier noise
    power. Positions are kept for inspection and plotting. gains is a
    read-only copy of the array passed in, in its memory layout, so a
    channel's gains never change.
    """

    scenario: Scenario
    gains: np.ndarray
    sigma2_w: float
    user_xy: np.ndarray
    rrh_xy: np.ndarray

    def __post_init__(self):
        gains = np.array(self.gains)
        gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which makes the
        # copy's gains read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def generate_channel(scenario: Scenario, rng: np.random.Generator, *,
                     fading: bool = True, shadowing: bool = True,
                     pathloss: bool = True) -> ChannelTensor:
    """Draw geometry and link gains for one trial from rng.

    The same scenario and rng state always yield bit-identical output. The
    keyword switches disable individual effects for tests (all off gives a
    flat unit-gain tensor).
    """
    K, S, R = (scenario.num_users, scenario.num_subcarriers,
               scenario.num_rrhs)
    rrh_xy = place_rrhs(R, scenario.cell_radius_m)
    user_xy = drop_users(K, scenario.cell_radius_m, rng, rrh_xy,
                         scenario.min_distance_m)

    if pathloss:
        dist = np.sqrt(((user_xy[:, None, :] - rrh_xy[None, :, :]) ** 2)
                       .sum(-1))
        link = pathloss_gain(dist)
    else:
        link = np.ones((K, R))

    if shadowing:
        shadow_db = rng.normal(0.0, scenario.shadowing_db, (K, R))
        link = link * 10.0 ** (shadow_db / 10.0)

    if fading:
        p = tap_powers()
        taps = (rng.standard_normal((K, R, NUM_TAPS))
                + 1j * rng.standard_normal((K, R, NUM_TAPS)))
        taps *= np.sqrt(p / 2.0)
        # tap spacing is one sample at bandwidth B, so the per-subcarrier
        # response is the length-S DFT of the taps
        freq = np.fft.fft(taps, n=S, axis=-1)
        fade = np.abs(freq) ** 2
    else:
        fade = np.ones((K, R, S))

    gains = (link[:, :, None] * fade).transpose(0, 2, 1)
    return ChannelTensor(scenario=scenario, gains=gains,
                         sigma2_w=scenario.sigma2_w,
                         user_xy=user_xy, rrh_xy=rrh_xy)

