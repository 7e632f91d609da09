"""Waterline arithmetic for rate-constrained downlink power allocation.

A user holding a set of "sole" subcarriers at gains g_n meets its rate demand
with minimum power by waterfilling: every sole subcarrier is filled to a
common waterline w and transmits w - sigma2/g_n. All closed forms here are
exact consequences of that picture; the companion tests check them against a
bisection oracle and dense grids.

Gains are linear channel power gains (|h|^2 including path loss, shadowing
and fading), powers and sigma2 are in watts, rates in bit/s.
"""

from __future__ import annotations

import numpy as np

# absolute slack for power threshold comparisons (watts)
POWER_ATOL = 1e-15


class InfeasibleWaterline(RuntimeError):
    """A waterline update would drive some sole-subcarrier power negative."""


def rate_single(power_w, gain, sigma2_w, sc_bw_hz):
    """Interference-free subcarrier rate in bit/s.

    sc_bw_hz is the per-subcarrier bandwidth (total bandwidth / subcarriers).
    """
    if (np.asarray(power_w) < 0.0).any():
        raise ValueError("power must be non-negative")
    return sc_bw_hz * np.log2(1.0 + power_w * gain / sigma2_w)


def rate_second(p2_w, p1_w, gain2, sigma2_w, sc_bw_hz):
    """Rate of the second (weaker) user on a power-multiplexed subcarrier.

    The first user's signal at power p1_w is received as interference through
    the second user's own gain.
    """
    if (np.asarray(p2_w) < 0.0).any() or (np.asarray(p1_w) < 0.0).any():
        raise ValueError("powers must be non-negative")
    return sc_bw_hz * np.log2(1.0 + p2_w * gain2 / (p1_w * gain2 + sigma2_w))


def waterline_from_rate(gains, rate_bps, sigma2_w, sc_bw_hz):
    """Waterline that meets rate_bps exactly over the given sole gains.

    Computed in log space so large products of sigma2/g cannot underflow.
    Raises InfeasibleWaterline when the all-active solution would need a
    negative power on the weakest subcarrier.
    """
    g = np.asarray(gains, dtype=float)
    if g.size == 0:
        raise ValueError("need at least one sole subcarrier")
    q = rate_bps / sc_bw_hz
    w = float(np.exp((q * np.log(2.0) + np.log(sigma2_w / g).sum()) / g.size))
    if w < sigma2_w / g.min():
        raise InfeasibleWaterline(
            "waterline below the noise floor of the weakest sole subcarrier")
    return w


def admits_waterline_decrease(gain, waterline_w, sigma2_w):
    """True when adding this gain to the sole set lowers the waterline.

    Strict comparison: a gain exactly at the noise floor sigma2/w changes
    nothing and is not admitted.
    """
    return gain * waterline_w > sigma2_w


def waterline_add(waterline_w, n_current, gain, sigma2_w):
    """New waterline after extending an n_current-subcarrier sole set.

    Geometric mean of the old waterline (n_current times) and sigma2/gain
    (once); rate is conserved by construction.
    """
    return np.exp((n_current * np.log(waterline_w) + np.log(sigma2_w / gain))
                  / (n_current + 1))


def delta_power_oma(waterline_w, waterline_new_w, n_current, gain, sigma2_w):
    """Signed total-power change from adding one subcarrier to a sole set.

    Non-positive exactly when the added gain admits a waterline decrease.
    """
    return ((n_current + 1) * waterline_new_w - n_current * waterline_w
            - sigma2_w / gain)


def waterline_rate_shift(waterline_w, delta_rate_bps, n_sole, sc_bw_hz):
    """Waterline after the sole set's rate target moves by delta_rate_bps.

    A negative delta (rate offloaded to a new multiplexed subcarrier) lowers
    the waterline; callers check the result against the sole set's noise
    floor.
    """
    if np.asarray(n_sole).min() < 1:
        raise InfeasibleWaterline("rate shift needs a non-empty sole set")
    return waterline_w * 2.0 ** (delta_rate_bps / (sc_bw_hz * n_sole))


def delta_power_noma(waterline_w, waterline_new_w, n_sole, p2_w):
    """Signed total-power change from taking a subcarrier as second user.

    The beneficiary pays p2_w on the multiplexed subcarrier and saves
    n_sole * (w_old - w_new) on its sole set.
    """
    return n_sole * (waterline_new_w - waterline_w) + p2_w


def ftpa_power(p1_w, gain1, gain2, alpha):
    """Fractional-power rule for the second user: p1 * (g1/g2)^alpha.

    With gain2 < gain1 (the pairing precondition) this always lands at or
    above p1, so the multiplexing order is preserved.
    """
    return p1_w * (gain1 / gain2) ** alpha


def _row_power(base, exponent):
    """base ** exponent, each element as numpy computes it for one exponent
    shared by the whole call. numpy divides for a shared exponent of -1 and
    takes the square root for 0.5, but rounds differently through its
    general power when the exponent comes per element; doing the same per
    element keeps a row's value independent of the rows computed with it.
    """
    return np.where(exponent == -1.0, 1.0 / base,
                    np.where(exponent == 0.5, np.sqrt(base), base ** exponent))


def _lpo_core(waterline_w, p1_w, gain2, sigma2_w, n_sole, mu):
    """Power for the second user minimizing the beneficiary's total power.

    The unconstrained minimizer of delta_power_noma over p2 has a closed
    form; when it falls below p1 the multiplexing constraint binds and p2 is
    clamped just above p1 by the safety margin mu. Returns (p2, reject)
    arrays; rejected entries cannot reduce power at any p2 > 0 because the
    beneficiary's waterline already sits at or below the
    interference-plus-noise floor of the candidate.
    """
    ratio = waterline_w * gain2 / (p1_w * gain2 + sigma2_w)
    reject = ratio < 1.0
    safe = np.where(reject, 1.0, ratio)
    grown = _row_power(safe, n_sole / (n_sole + 1.0))
    p_star = (grown - 1.0) * (p1_w + sigma2_w / gain2)
    p2 = np.where(p_star >= p1_w, p_star, p1_w * (1.0 + mu))
    return p2, reject
