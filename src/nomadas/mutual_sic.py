"""Cross-RRH user pairing where both users cancel each other's signal.

A pair lives on one subcarrier n: the incumbent (user 1) keeps its serving
RRH r1 and the joiner (user 2) transmits from a different RRH r2. When the
gain geometry and the power ratio cooperate, both users decode and remove
the other's signal first, so both see interference-free rates.

Gain naming: gij is the linear gain from RRH j's transmission to user i,
i.e. g11 = |h(user1, r1)|^2, g12 = |h(user1, r2)|^2, g21 = |h(user2, r1)|^2,
g22 = |h(user2, r2)|^2. Every function takes the gains as the tuple
(g11, g12, g21, g22) of scalars or broadcasting arrays.

opad_cases is the one joint (p1, p2) optimizer: MutSIC-OPAd runs it on
every candidate row and MutSIC-SOPAd on its selected row alone. It prices
case 1 against the one window edge convexity leaves (both edges of an empty
margined window) with its own deltas (_dp1 + _dp2); the allocator's one
pair pricer then prices the powers it returns, as every mode's, by rate.
"""

from __future__ import annotations

import numpy as np

from .waterfill import (POWER_ATOL, _row_power, admits_waterline_decrease,
                        waterline_add)


def mutual_sic_feasible(gains):
    """Noise-free feasibility of mutual cancellation: g11*g22 <= g21*g12.

    Equivalent to the existence of a non-empty admissible power ratio
    window; boundaries count as feasible.
    """
    g11, g12, g21, g22 = gains
    return g11 * g22 <= g21 * g12


def rate_condition_terms(gains, p1_w, p2_w, sigma2_w):
    """Exact decodability margins of the two cross-SIC steps, and their scale.

    Both margins must be >= 0 at the operating powers for user 1 to decode
    user 2's signal (first term) and vice versa (second term); the
    allocator and the audit accept a margin down to -1e-9 * scale, where
    scale sums the margins' terms with every sign made positive. The
    feasibility test mutual_sic_feasible is the sigma2-free approximation
    of these signs.
    """
    g11, g12, g21, g22 = gains
    cross = g12 * g21 - g22 * g11
    x_minus_y = p1_w * p2_w * cross + sigma2_w * p2_w * (g12 - g22)
    z_minus_t = p1_w * p2_w * cross + sigma2_w * p1_w * (g21 - g11)
    scale = p1_w * p2_w * (g12 * g21 + g22 * g11) \
        + sigma2_w * (p2_w * (g12 + g22) + p1_w * (g21 + g11))
    return x_minus_y, z_minus_t, scale


def power_window(gains, p1_w):
    """Admissible interval for p2 given p1: both SIC orders must decode."""
    g11, g12, g21, g22 = gains
    return p1_w * g11 / g12, p1_w * g21 / g22


def dpa_adjust(p2_w, gains, p1_w, mu):
    """Clip a tentative p2 into the power window margined by mu.

    Returns (p2, ok): p2 clipped to [(1 + mu) * lo, (1 - mu) * hi], and ok
    False where the window is too narrow to hold both margined edges.
    """
    lo, hi = power_window(gains, p1_w)
    ok = (1.0 + mu) * lo <= (1.0 - mu) * hi + POWER_ATOL
    return np.clip(p2_w, (1.0 + mu) * lo, (1.0 - mu) * hi), ok


def _dp1(p1, g11, sigma2_w, w1, p1i, n1):
    """Incumbent's total-power delta when its pair power moves to p1.

    The subcarrier leaves the sole set at power p1 and the remaining
    n1 - 1 sole subcarriers re-waterfill to absorb the rate difference.
    """
    ratio = (sigma2_w + p1 * g11) / (sigma2_w + p1i * g11)
    shrink = _row_power(ratio, -1.0 / (n1 - 1.0))
    return (n1 - 1.0) * w1 * (shrink - 1.0) + p1 - p1i


def _dp2(p2, g22, sigma2_w, w2, n2):
    """Joiner's total-power delta from adding the pair at power p2."""
    shrink = _row_power(1.0 + p2 * g22 / sigma2_w, -1.0 / n2)
    return n2 * w2 * (shrink - 1.0) + p2


def _phi_terms(c, gains_arrays, sigma2_w, w2, p1i, n1, n2):
    """The parts of _phi that do not depend on p1."""
    g11, _, _, g22 = gains_arrays
    d1 = sigma2_w + p1i * g11
    db = c * (g22 / sigma2_w)
    e1 = -n1 / (n1 - 1.0)         # -m1
    e2 = -(n2 + 1.0) / n2         # -m2
    return sigma2_w, g11, d1, db, e1, e2, w2 * db


def _phi(p1, terms, slope=True):
    """phi(p1), with dphi/dp1 unless slope is False.

    (1 + c) - phi is the derivative of dp1(p1) + dp2(c*p1) in p1, the
    stationarity whose root is the edge optimum. phi = a^(-m1) +
    c*K*b^(-m2) is a sum of two decreasing power laws with
    a = (sigma2 + p1*g11) / (sigma2 + p1i*g11), b = 1 + c*p1*g22/sigma2,
    m1 = n1/(n1 - 1), m2 = (n2 + 1)/n2 and K = w2*g22/sigma2; terms come
    from _phi_terms.
    """
    sigma2_w, g11, d1, db, e1, e2, w2db = terms
    a = (sigma2_w + p1 * g11) / d1
    b = 1.0 + p1 * db
    t1 = a ** e1
    t2 = w2db * b ** e2
    if not slope:
        return t1 + t2
    return t1 + t2, e1 * t1 * g11 / (a * d1) + e2 * t2 * db / b


def _edge_case_roots(c, gains_arrays, sigma2_w, w1, w2, p1i, n1, n2,
                     admissible):
    """Vectorized safeguarded Newton for the edge-case stationarity roots.

    All arguments broadcast; returns (p1, ok) where ok marks admissible
    candidates with a bracketed positive root. Rows outside the
    `admissible` mask are never bracketed: an inadmissible row may have no
    bracket at all and would keep the grow or shrink loop running to its
    cap for every other row. The stationarity (1 + c) - phi(p1) is
    increasing in p1, negative near 0 under the admission precondition, and
    tends to 1 + c > 0, so a root exists whenever the numerics can bracket
    it: the bracket [lo, hi] holds phi(lo) > 1 + c > phi(hi), both finite,
    and is searched on phi alone. From the bracket's top, Newton steps are
    taken on log(phi) against log(p1), where the two power laws in phi are
    nearly straight; a step that leaves the bracket falls back to the
    bracket's geometric midpoint. A row stops once its raw Newton step is
    at most 4e-16 relative, or once the next point would not move it
    (rounding noise in phi can keep the raw step just above that), and the
    loop ends when every bracketed row has stopped or after 100 steps.
    """
    terms = _phi_terms(c, gains_arrays, sigma2_w, w2, p1i, n1, n2)
    target = 1.0 + c
    shape = np.broadcast(c, p1i, w1, w2, n1).shape
    lo = np.broadcast_to(p1i * 1e-12, shape).astype(float).copy()
    hi = np.broadcast_to(p1i * 1.0, shape).astype(float).copy()
    phi_lo = _phi(lo, terms, slope=False)
    phi_hi = _phi(hi, terms, slope=False)
    for _ in range(80):
        grow = admissible & (phi_hi >= target)
        if not grow.any():
            break
        hi = np.where(grow, hi * 4.0, hi)
        phi_hi = np.where(grow, _phi(hi, terms, slope=False), phi_hi)
    for _ in range(40):
        shrink = admissible & (phi_lo <= target)
        if not shrink.any():
            break
        lo = np.where(shrink, lo * 0.125, lo)
        phi_lo = np.where(shrink, _phi(lo, terms, slope=False), phi_lo)
    ok = admissible & (phi_lo > target) & (phi_hi < target) \
        & np.isfinite(phi_lo) & np.isfinite(phi_hi)
    lo = np.where(ok, lo, 1.0)
    hi = np.where(ok, hi, 2.0)
    p1 = hi.copy()
    running = ok.copy()
    # a step that overflows lands outside the bracket like any other
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(100):
            phi, dphi = _phi(p1, terms)
            below = phi > target
            lo = np.where(below, p1, lo)
            hi = np.where(below, hi, p1)
            step = np.log(target / phi) * phi / (p1 * dphi)
            nxt = p1 * np.exp(step)
            nxt = np.where((nxt > lo) & (nxt < hi), nxt, np.sqrt(lo * hi))
            running &= (np.abs(step) > 4e-16) & (nxt != p1)
            if not running.any():
                break
            p1 = np.where(running, nxt, p1)
    return p1, ok & (p1 > 0.0)


def opad_cases(gains_arrays, sigma2_w, w1, w2, p1i, n1, n2, mu):
    """Jointly optimal (p1, p2) of (arrays of) mutual pair candidates.

    Case 1 keeps p1 and waterfills p2 onto the joiner's sole set, as DPA
    does; cases 2 and 3 pin p2 to the lower or upper margined window edge
    and solve the stationarity for p1. As dp1 + dp2 is convex with its
    minimum at case 1's point (p1i, p2_1) and the margined window is a
    cone, a row prices case 1 against the one edge p2_1 lies beyond (the
    lower where p2_1 < lo - POWER_ATOL, else the upper), or against both
    edges where its margined window is empty (c_lo >= c_hi). The lowest
    feasible delta wins, the lowest case on ties; a NaN delta never wins.

    Every argument broadcasts. Returns (p1, p2, dp1, dp2, case) with case = 0
    and zero powers and deltas where no case is feasible. Candidates must
    already pass the waterline-decrease admission test (w2 * g22 > sigma2) and
    n1 >= 2, n2 >= 1; entries violating those are masked out here as well.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (
        *gains_arrays, w1, w2, p1i, n1, n2)))
    shape, size = args[0].shape, args[0].size
    g11, g12, g21, g22, w1, w2, p1i, n1, n2 = args = [a.ravel() for a in args]
    admissible = admits_waterline_decrease(g22, w2, sigma2_w) & (n1 >= 2) \
        & (n2 >= 1) & (p1i > 0.0)

    # silence inadmissible rows (n1 < 2) in the closed forms, masked later
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p2_1 = waterline_add(w2, n2, g22, sigma2_w) - sigma2_w / g22
        lo, hi = power_window((g11, g12, g21, g22), p1i)
        ok1 = (p2_1 >= lo - POWER_ATOL) & (p2_1 <= hi + POWER_ATOL) \
            & (p2_1 > 0.0) & admissible
        one = np.array([p1i, p2_1, np.zeros(size),    # dp1(p1i) = 0
                        _dp2(p2_1, g22, sigma2_w, w2, n2)])
        # each row's near edge (the lower for an empty margined window),
        # then each empty window's upper edge
        empty = (1.0 + mu) * g11 / g12 >= (1.0 - mu) * g21 / g22
        far = np.flatnonzero(empty)
        rows = [*args, admissible, ~((p2_1 < lo - POWER_ATOL) | empty)]
        if far.size:
            rows = [np.concatenate([a, a[far]]) for a in rows]
            rows[-1][size:] = True
        g11, g12, g21, g22, w1, w2, p1i, n1, n2, admissible, upper = rows
        # p2 = c * p1; a ray that leaves the window is never bracketed
        c = np.where(upper, (1.0 - mu) * g21 / g22, (1.0 + mu) * g11 / g12)
        ray = np.where(upper, c >= g11 / g12 * (1.0 - POWER_ATOL),
                       c <= g21 / g22 * (1.0 + POWER_ATOL))
        p1, ok = _edge_case_roots(c, (g11, g12, g21, g22), sigma2_w, w1, w2,
                                  p1i, n1, n2, admissible & ray)
        edge = np.array([p1, c * p1, _dp1(p1, g11, sigma2_w, w1, p1i, n1),
                         _dp2(c * p1, g22, sigma2_w, w2, n2)])
    total, total1 = (np.where(m & ~np.isnan(t), t, np.inf) for m, t in (
        (ok, edge[2] + edge[3]), (ok1, one[3])))
    if far.size:            # an empty window's lower edge wins ties
        swap = total[size:] < total[far]
        for a in (edge.T, total, upper):
            a[far[swap]] = a[size:][swap]
    pick1 = total1 <= total[:size]      # case 1 wins ties
    found = np.minimum(total1, total[:size]) < np.inf
    out = np.where(found, np.where(pick1, one, edge[:, :size]), 0.0)
    case = np.where(found, np.where(pick1, 1, 2 + upper[:size]), 0)
    return (*out.reshape((4,) + shape), case.reshape(shape))
