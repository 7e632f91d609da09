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
every candidate row and MutSIC-SOPAd on its selected row alone. It returns
the powers and the case of each row. It weighs case 1 against the one
window edge convexity leaves (both edges of an empty margined window) by
its own deltas (_dp1 + _dp2), computed only in calls where some row has
two cases to weigh; the allocator's one pair pricer then prices the powers
it returns, as every mode's, by rate.
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
    shrink = _row_power(ratio, -1.0 / (n1 - 1.0), -1.0)
    return (n1 - 1.0) * w1 * (shrink - 1.0) + p1 - p1i


def _dp2(p2, g22, sigma2_w, w2, n2):
    """Joiner's total-power delta from adding the pair at power p2."""
    shrink = _row_power(1.0 + p2 * g22 / sigma2_w, -1.0 / n2, -1.0)
    return n2 * w2 * (shrink - 1.0) + p2


def _phi(p1, terms, slope=True):
    """phi(p1), with p1 * dphi/dp1 unless slope is False.

    (1 + c) - phi is the derivative of dp1(p1) + dp2(c*p1) in p1, the
    stationarity whose root is the edge optimum. phi = a^(-m1) +
    c*K*b^(-m2) is a sum of two decreasing power laws with
    a = (sigma2 + p1*g11) / (sigma2 + p1i*g11), b = 1 + c*p1*g22/sigma2,
    m1 = n1/(n1 - 1), m2 = (n2 + 1)/n2 and K = w2*g22/sigma2; terms hold
    the parts that do not depend on p1 (a = s0 + p1*u, b = 1 + p1*db and
    ck = c*K), built by _edge_case_roots.
    """
    s0, u, db, e1, e2, ck = terms
    xu, xdb = p1 * u, p1 * db
    a = s0 + xu
    b = 1.0 + xdb
    t1 = a ** e1
    t2 = ck * b ** e2
    if not slope:
        return t1 + t2
    return t1 + t2, e1 * t1 * xu / a + e2 * t2 * xdb / b


def _edge_case_roots(c, g11, g22, sigma2_w, w2, p1i, n1, n2, admissible):
    """Vectorized safeguarded Newton for the edge-case stationarity roots.

    All arguments broadcast; returns (p1, ok) where ok marks admissible
    candidates with a bracketed positive root. The stationarity
    (1 + c) - phi(p1) increases in p1 from below 0 (under the admission
    precondition) towards 1 + c, so every admissible row has one root.
    Each power law of phi alone reaches 1 + c at a closed-form p1 where phi
    still exceeds 1 + c by the other law, so the larger of the two bounds
    the root from below: it is the bracket's foot and Newton's start, at no
    phi evaluation. Rows where neither bound is positive put the foot at
    p1i * 1e-12, shrink it on phi alone until phi there exceeds 1 + c and
    start at p1i; rows outside `admissible` (maybe unbracketable) never do.

    Newton steps on log(phi) against log(p1), where both laws are nearly
    straight. Each evaluation moves the foot or the top (unknown at first)
    and gives the next step; a step out of the bracket falls back to the
    geometric midpoint of the foot and min(top, 16 * foot). A row stops
    once it has applied a step of at most 1e-8 relative (leaving an error
    near its square); all stop after 100 steps. On the 946 opad_cases calls
    of 40 paper drops this takes 3.7 phi evaluations per call, where a
    start at p1i in a two-ended bracket took 2.0 on phi alone and 5.1
    Newton passes: 127 against 181 us per call (thread CPU time, 2-core
    Xeon VM).
    """
    # an inadmissible row can have n1 = 1, no bracket or no root, and can
    # step to 0, inf or nan; it stays out of ok
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d1, db = sigma2_w + p1i * g11, c * (g22 / sigma2_w)
        s0, u, ck = sigma2_w / d1, g11 / d1, w2 * db
        e1, e2 = -n1 / (n1 - 1.0), -(n2 + 1.0) / n2      # -m1, -m2
        terms = s0, u, db, e1, e2, ck
        target = 1.0 + c
        bound = np.maximum((target ** (1.0 / e1) - s0) / u,
                           ((target / ck) ** (1.0 / e2) - 1.0) / db)
        fallback = admissible & ~(bound > 0.0)
        lo = np.where(fallback, p1i * 1e-12, bound)
        unbracketed = fallback
        for _ in range(41):
            if not unbracketed.any():
                break
            phi_lo = _phi(lo, terms, slope=False)
            unbracketed = unbracketed & ~(phi_lo > target)
            lo = np.where(unbracketed, lo * 0.125, lo)
        ok = admissible & ~unbracketed
        running = ok.copy()
        p1 = np.where(fallback, p1i, lo)
        hi = np.full(p1.shape, np.finfo(float).max)
        for _ in range(100):
            phi, xdphi = _phi(p1, terms)
            below = phi > target
            lo = np.where(below, p1, lo)
            hi = np.where(below, hi, p1)
            step = np.log(target / phi) * phi / xdphi
            nxt = p1 * np.exp(step)
            newton = (nxt >= lo) & (nxt <= hi)
            if not newton.all():        # the midpoint only when used
                nxt = np.where(newton, nxt,
                               np.sqrt(lo * np.minimum(hi, 16 * lo)))
            p1 = np.where(running, nxt, p1)
            running &= ~newton | (np.abs(step) > 1e-8)
            if not running.any():
                break
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

    Only two kinds of row weigh two cases: a row whose case 1 is feasible
    and a row whose margined window is empty. A call without either has
    one candidate per row, its edge, so it computes no delta. An edge with
    a non-finite p2 (an infinite root, or c * p1 overflowing) has
    non-finite deltas and gets case 0; an edge with finite powers wins. Its
    deltas are finite too, unless a term overflows, which takes powers or
    waterlines near the top of the float range (about 1e300 W); there
    weighing them could have given case 0. On 1,350 recorded calls of
    paper, 13 Mb/s and dense drops, 68% of the calls had neither kind of
    row.

    Every argument broadcasts. Returns (p1, p2, case) with case = 0 and zero
    powers where no case is feasible. Candidates must already pass the
    waterline-decrease admission test (w2 * g22 > sigma2) and n1 >= 2,
    n2 >= 1; entries violating those are masked out here as well.
    """
    args = [np.asarray(a, dtype=float)
            for a in (*gains_arrays, w1, w2, p1i, n1, n2)]
    if any(a.shape != args[0].shape for a in args):
        args = np.broadcast_arrays(*args)
    shape, size = args[0].shape, args[0].size
    g11, g12, g21, g22, w1, w2, p1i, n1, n2 = [a.ravel() for a in args]
    admissible = admits_waterline_decrease(g22, w2, sigma2_w) & (n1 >= 2) \
        & (n2 >= 1) & (p1i > 0.0)

    # silence inadmissible rows (n1 < 2) in the closed forms, masked later
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p2_1 = waterline_add(w2, n2, g22, sigma2_w) - sigma2_w / g22
        lo, hi = power_window((g11, g12, g21, g22), p1i)
        ok1 = (p2_1 >= lo - POWER_ATOL) & (p2_1 <= hi + POWER_ATOL) \
            & (p2_1 > 0.0) & admissible
        # p2 = c * p1 on the lower or upper margined edge; a ray that
        # leaves the window is never bracketed
        c_lo, c_hi = (1.0 + mu) * g11 / g12, (1.0 - mu) * g21 / g22
        solvable_lo = admissible & (c_lo <= g21 / g22 * (1.0 + POWER_ATOL))
        solvable_hi = admissible & (c_hi >= g11 / g12 * (1.0 - POWER_ATOL))
        # each row's near edge (the lower for an empty margined window),
        # then each empty window's upper edge
        empty = c_lo >= c_hi
        upper = ~((p2_1 < lo - POWER_ATOL) | empty)
        c = np.where(upper, c_hi, c_lo)
        solvable = np.where(upper, solvable_hi, solvable_lo)
        far = np.flatnonzero(empty)
        if far.size:
            c, solvable, upper, g11, g22, w1, w2, p1i, n1, n2 = (
                np.concatenate([a, b[far]]) for a, b in (
                    (c, c_hi), (solvable, solvable_hi), (upper, empty),
                    *((a, a) for a in (g11, g22, w1, w2, p1i, n1, n2))))
        p1, ok = _edge_case_roots(c, g11, g22, sigma2_w, w2, p1i, n1, n2,
                                  solvable)
        p2 = c * p1
        if not (far.size or ok1.any()):
            # one candidate per row: its edge, where its powers are finite
            found = ok & np.isfinite(p2)
            return (*(np.where(found, a, 0.0).reshape(shape)
                      for a in (p1, p2)),
                    np.where(found, 2 + upper, 0).reshape(shape))
        total = _dp1(p1, g11, sigma2_w, w1, p1i, n1) \
            + _dp2(p2, g22, sigma2_w, w2, n2)
        # case 1's dp1(p1i) is 0
        total1 = _dp2(p2_1, g22[:size], sigma2_w, w2[:size], n2[:size])
    total, total1 = (np.where(m & ~np.isnan(t), t, np.inf) for m, t in (
        (ok, total), (ok1, total1)))
    edge = np.array([p1, p2])
    if far.size:            # an empty window's lower edge wins ties
        swap = total[size:] < total[far]
        for a in (edge.T, total, upper):
            a[far[swap]] = a[size:][swap]
    pick1 = total1 <= total[:size]      # case 1 wins ties
    found = np.minimum(total1, total[:size]) < np.inf
    out = np.where(found, np.where(pick1, (p1i[:size], p2_1),
                                   edge[:, :size]), 0.0)
    case = np.where(found, np.where(pick1, 1, 2 + upper[:size]), 0)
    return (*out.reshape((2,) + shape), case.reshape(shape))
