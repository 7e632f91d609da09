"""Cross-RRH user pairing where both users cancel each other's signal.

A pair lives on one subcarrier n: the incumbent (user 1) keeps its serving
RRH r1 and the joiner (user 2) transmits from a different RRH r2. When the
gain geometry and the power ratio cooperate, both users decode and remove
the other's signal first, so both see interference-free rates.

Gain naming: gij is the linear gain from RRH j's transmission to user i,
i.e. g11 = |h(user1, r1)|^2, g12 = |h(user1, r2)|^2, g21 = |h(user2, r1)|^2,
g22 = |h(user2, r2)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import NoRoot, solve_scalar
from .waterfill import POWER_ATOL, CandidateRejected


@dataclass(frozen=True)
class PairGains:
    """The four link gains of a candidate cross-RRH pair."""

    g11: float
    g12: float
    g21: float
    g22: float


@dataclass(frozen=True)
class PairPowers:
    """Powers of a pair plus the pre-pairing state needed for deltas.

    p1_initial_w is the incumbent's waterfilled power on the subcarrier
    before pairing; waterline1_w/waterline2_w are both users' sole-set
    waterlines at that moment.
    """

    p1_w: float
    p2_w: float
    p1_initial_w: float
    waterline1_w: float
    waterline2_w: float


@dataclass(frozen=True)
class OpadSolution:
    """Optimal pair powers and the resulting per-user power deltas."""

    p1_w: float
    p2_w: float
    dp1_w: float
    dp2_w: float
    case: int  # 1 unconstrained, 2 lower window edge, 3 upper window edge

    @property
    def dp_total_w(self):
        return self.dp1_w + self.dp2_w


def mutual_sic_feasible(gains: PairGains) -> bool:
    """Noise-free feasibility of mutual cancellation: g11*g22 <= g21*g12.

    Equivalent to the existence of a non-empty admissible power ratio
    window; boundaries count as feasible.
    """
    return bool(gains.g11 * gains.g22 <= gains.g21 * gains.g12)


def rate_condition_terms(gains: PairGains, powers: PairPowers, sigma2_w):
    """Exact decodability margins of the two cross-SIC steps.

    Both must be >= 0 at the operating powers for user 1 to decode user 2's
    signal (first term) and vice versa (second term). The feasibility test
    mutual_sic_feasible is the sigma2-free approximation of these signs.
    """
    p1, p2 = powers.p1_w, powers.p2_w
    cross = gains.g12 * gains.g21 - gains.g22 * gains.g11
    x_minus_y = p1 * p2 * cross + sigma2_w * p2 * (gains.g12 - gains.g22)
    z_minus_t = p1 * p2 * cross + sigma2_w * p1 * (gains.g21 - gains.g11)
    return x_minus_y, z_minus_t


def power_window(gains: PairGains, p1_w):
    """Admissible interval for p2 given p1: both SIC orders must decode."""
    return p1_w * gains.g11 / gains.g12, p1_w * gains.g21 / gains.g22


def dpa_adjust(p2_w, gains: PairGains, p1_w, mu):
    """Clamp a tentative p2 into the power window with safety margin mu.

    Values inside the window pass through unchanged; values outside are
    pinned just inside the violated edge. Rejects candidates whose window is
    too narrow to hold both margined edges.
    """
    lo, hi = power_window(gains, p1_w)
    if (1.0 + mu) * lo > (1.0 - mu) * hi + POWER_ATOL:
        raise CandidateRejected("power window narrower than the margins")
    if p2_w < lo:
        return (1.0 + mu) * lo
    if p2_w > hi:
        return (1.0 - mu) * hi
    return p2_w


def mutual_rates(powers: PairPowers, gains: PairGains, sigma2_w, sc_bw_hz):
    """Both users' rates on the paired subcarrier, interference-free."""
    r1 = sc_bw_hz * np.log2(1.0 + powers.p1_w * gains.g11 / sigma2_w)
    r2 = sc_bw_hz * np.log2(1.0 + powers.p2_w * gains.g22 / sigma2_w)
    return r1, r2


def _dp1(p1, g11, sigma2_w, w1, p1i, n1):
    """Incumbent's total-power delta when its pair power moves to p1.

    The subcarrier leaves the sole set at power p1 and the remaining
    n1 - 1 sole subcarriers re-waterfill to absorb the rate difference.
    """
    ratio = (sigma2_w + p1 * g11) / (sigma2_w + p1i * g11)
    return (n1 - 1.0) * w1 * (ratio ** (-1.0 / (n1 - 1.0)) - 1.0) + p1 - p1i


def _dp2(p2, g22, sigma2_w, w2, n2):
    """Joiner's total-power delta from adding the pair at power p2."""
    shrink = (1.0 + p2 * g22 / sigma2_w) ** (-1.0 / n2)
    return n2 * w2 * (shrink - 1.0) + p2


def sopa_deltas(powers: PairPowers, gains: PairGains, sigma2_w,
                n_sole1: int, n_sole2: int):
    """Per-user total-power deltas of a mutual pair at given powers.

    Closed forms assuming both users re-waterfill their sole sets after the
    pair is frozen. The incumbent must keep at least one sole subcarrier
    (n_sole1 >= 2) and the joiner needs a sole set to offload (n_sole2 >= 1).
    """
    if n_sole1 < 2:
        raise CandidateRejected("incumbent has no sole subcarrier left to "
                                "absorb its rate change")
    if n_sole2 < 1:
        raise CandidateRejected("joiner has no sole set to offload rate from")
    dp1 = _dp1(powers.p1_w, gains.g11, sigma2_w, powers.waterline1_w,
               powers.p1_initial_w, n_sole1)
    dp2 = _dp2(powers.p2_w, gains.g22, sigma2_w, powers.waterline2_w, n_sole2)
    return dp1, dp2


def _phi(p1, c, gains_arrays, sigma2_w, w1, w2, p1i, n1, n2):
    """phi(p1) and dphi/dp1, where (1 + c) - phi is the stationarity.

    phi = a^(-m1) + c*K*b^(-m2) is a sum of two decreasing power laws with
    a = (sigma2 + p1*g11) / (sigma2 + p1i*g11), b = 1 + c*p1*g22/sigma2,
    m1 = n1/(n1 - 1), m2 = (n2 + 1)/n2 and K = w2*g22/sigma2.
    """
    g11, _, _, g22 = gains_arrays
    d1 = sigma2_w + p1i * g11
    db = c * (g22 / sigma2_w)
    a = (sigma2_w + p1 * g11) / d1
    b = 1.0 + p1 * db
    e1 = -n1 / (n1 - 1.0)         # -m1
    e2 = -(n2 + 1.0) / n2         # -m2
    t1 = a ** e1
    t2 = w2 * db * b ** e2
    return t1 + t2, e1 * t1 * g11 / (a * d1) + e2 * t2 * db / b


def _stationarity(p1, c, gains_arrays, sigma2_w, w1, w2, p1i, n1, n2):
    """Derivative of dp1(p1) + dp2(c*p1) in p1; root is the edge optimum."""
    phi, _ = _phi(p1, c, gains_arrays, sigma2_w, w1, w2, p1i, n1, n2)
    return (1.0 + c) - phi


def opad_stationarity(p1_w, gains: PairGains, powers: PairPowers, sigma2_w,
                      n_sole1: int, n_sole2: int, mu, case: int):
    """Residual of the edge-case stationarity equation at p1_w.

    case 2 pins p2 to the margined lower window edge, case 3 to the upper
    one. Used by tests to confirm opad_optimize solved the right equation.
    """
    if case == 2:
        c = (1.0 + mu) * gains.g11 / gains.g12
    elif case == 3:
        c = (1.0 - mu) * gains.g21 / gains.g22
    else:
        raise ValueError("stationarity is defined for the edge cases 2 and 3")
    return float(_stationarity(
        p1_w, c, (gains.g11, gains.g12, gains.g21, gains.g22), sigma2_w,
        powers.waterline1_w, powers.waterline2_w, powers.p1_initial_w,
        n_sole1, n_sole2))


def _case1(gains_arrays, sigma2_w, w2, p1i, n2):
    """Unconstrained optimum: keep p1, waterfill p2 onto the joiner's set."""
    g11, g12, g21, g22 = gains_arrays
    p2 = (sigma2_w / g22) * ((w2 * g22 / sigma2_w) ** (n2 / (n2 + 1.0)) - 1.0)
    lo = p1i * g11 / g12
    hi = p1i * g21 / g22
    ok = (p2 >= lo - POWER_ATOL) & (p2 <= hi + POWER_ATOL) & (p2 > 0.0)
    return p2, ok


def _edge_case_roots(c, gains_arrays, sigma2_w, w1, w2, p1i, n1, n2,
                     admissible, iters=100):
    """Vectorized safeguarded Newton for the edge-case stationarity roots.

    All arguments broadcast; returns (p1, ok) where ok marks admissible
    candidates with a bracketed positive root. Rows outside the
    `admissible` mask are never bracketed: an inadmissible row may have no
    bracket at all and would keep the grow or shrink loop running to its
    cap for every other row. The stationarity (1 + c) - phi(p1) is
    increasing in p1, negative near 0 under the admission precondition, and
    tends to 1 + c > 0, so a root exists whenever the numerics can bracket
    it. From the bracket's top, Newton steps are taken on log(phi) against
    log(p1), where the two power laws in phi are nearly straight; a step
    that leaves the bracket falls back to the bracket's geometric midpoint.
    A row stops once its raw Newton step is at most 4e-16 relative, or once
    the next point would not move it (rounding noise in phi can keep the
    raw step just above that), and the loop ends when every bracketed row
    has stopped or after iters steps.
    """

    def g_of(p1):
        return _stationarity(p1, c, gains_arrays, sigma2_w, w1, w2, p1i,
                             n1, n2)

    shape = np.broadcast(c, p1i, w1, w2, n1).shape
    lo = np.broadcast_to(p1i * 1e-12, shape).astype(float).copy()
    hi = np.broadcast_to(p1i * 1.0, shape).astype(float).copy()
    glo = g_of(lo)
    ghi = g_of(hi)
    for _ in range(80):
        grow = admissible & (ghi <= 0.0)
        if not np.any(grow):
            break
        hi = np.where(grow, hi * 4.0, hi)
        ghi = np.where(grow, g_of(hi), ghi)
    for _ in range(40):
        shrink = admissible & (glo >= 0.0)
        if not np.any(shrink):
            break
        lo = np.where(shrink, lo * 0.125, lo)
        glo = np.where(shrink, g_of(lo), glo)
    ok = admissible & (glo < 0.0) & (ghi > 0.0) & np.isfinite(glo) \
        & np.isfinite(ghi)
    lo = np.where(ok, lo, 1.0)
    hi = np.where(ok, hi, 2.0)
    target = 1.0 + c
    p1 = hi.copy()
    running = ok.copy()
    for _ in range(iters):
        phi, dphi = _phi(p1, c, gains_arrays, sigma2_w, w1, w2, p1i, n1, n2)
        below = phi > target
        lo = np.where(below, p1, lo)
        hi = np.where(below, hi, p1)
        # a step that overflows lands outside the bracket like any other
        with np.errstate(over="ignore", divide="ignore"):
            step = np.log(target / phi) * phi / (p1 * dphi)
            nxt = p1 * np.exp(step)
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, np.sqrt(lo * hi))
        running &= (np.abs(step) > 4e-16) & (nxt != p1)
        if not running.any():
            break
        p1 = np.where(running, nxt, p1)
    return p1, ok & (p1 > 0.0)


def opad_cases(gains_arrays, sigma2_w, w1, w2, p1i, n1, n2, mu):
    """Evaluate all three window cases for (arrays of) pair candidates.

    gains_arrays is the tuple (g11, g12, g21, g22); every argument
    broadcasts. Returns (p1, p2, dp1, dp2, case) with case = 0 and zero
    powers and deltas where no case is feasible. Candidates must already
    satisfy the waterline-decrease admission test (w2 * g22 > sigma2) and
    n1 >= 2, n2 >= 1; entries violating those are masked out here as well.
    """
    g11, g12, g21, g22 = [np.asarray(a, dtype=float) for a in gains_arrays]
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    p1i = np.asarray(p1i, dtype=float)
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    shape = np.broadcast(g11, g12, g21, g22, w1, w2, p1i, n1, n2).shape
    garr = (g11, g12, g21, g22)

    admissible = (w2 * g22 > sigma2_w) & (n1 >= 2) & (n2 >= 1) & (p1i > 0.0)

    best_dp = np.full(shape, np.inf)
    best = {"p1": np.zeros(shape), "p2": np.zeros(shape),
            "dp1": np.zeros(shape), "dp2": np.zeros(shape),
            "case": np.zeros(shape, dtype=int)}

    def consider(case_id, p1, p2, ok):
        dp1 = np.where(ok, _dp1(p1, g11, sigma2_w, w1, p1i, n1), np.inf)
        dp2 = np.where(ok, _dp2(p2, g22, sigma2_w, w2, n2), np.inf)
        total = dp1 + dp2
        better = ok & admissible & (total < best_dp)
        best_dp[better] = total[better]
        best["p1"] = np.where(better, p1, best["p1"])
        best["p2"] = np.where(better, p2, best["p2"])
        best["dp1"] = np.where(better, dp1, best["dp1"])
        best["dp2"] = np.where(better, dp2, best["dp2"])
        best["case"] = np.where(better, case_id, best["case"])

    # inadmissible rows (n1 < 2 in particular) still flow through the
    # closed forms before they are masked, so silence their float noise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p2_1, ok1 = _case1(garr, sigma2_w, w2, p1i, n2)
        consider(1, np.broadcast_to(p1i, shape).astype(float), p2_1, ok1)

        c2 = (1.0 + mu) * g11 / g12
        ray2_ok = c2 <= g21 / g22 * (1.0 + POWER_ATOL)
        p1_2, ok2 = _edge_case_roots(c2, garr, sigma2_w, w1, w2, p1i, n1,
                                     n2, admissible)
        consider(2, p1_2, c2 * p1_2, ok2 & ray2_ok)

        c3 = (1.0 - mu) * g21 / g22
        ray3_ok = c3 >= g11 / g12 * (1.0 - POWER_ATOL)
        p1_3, ok3 = _edge_case_roots(c3, garr, sigma2_w, w1, w2, p1i, n1,
                                     n2, admissible)
        consider(3, p1_3, c3 * p1_3, ok3 & ray3_ok)

    return best["p1"], best["p2"], best["dp1"], best["dp2"], best["case"]


def opad_optimize(gains: PairGains, powers: PairPowers, sigma2_w,
                  n_sole1: int, n_sole2: int, mu) -> OpadSolution:
    """Jointly optimal (p1, p2) of a mutual pair under the power window.

    Case 1 keeps the incumbent's power and waterfills the joiner; when its
    p2 falls outside the window, the optimum sits on a margined window edge
    and the corresponding stationarity equation is solved for p1. The
    feasible case with the lowest joint delta wins; CandidateRejected if no
    case yields positive powers.
    """
    if n_sole1 < 2 or n_sole2 < 1:
        raise CandidateRejected("sole sets too small to re-optimize the pair")
    if not powers.waterline2_w * gains.g22 > sigma2_w:
        raise CandidateRejected("joiner waterline at or below the "
                                "candidate's noise floor")
    garr = (gains.g11, gains.g12, gains.g21, gains.g22)
    w1, w2 = powers.waterline1_w, powers.waterline2_w
    p1i = powers.p1_initial_w
    candidates = []

    p2_1, ok1 = _case1(garr, sigma2_w, w2, p1i, n_sole2)
    if ok1:
        candidates.append((1, p1i, float(p2_1)))

    for case_id, c, ray_ok in (
            (2, (1.0 + mu) * gains.g11 / gains.g12,
             (1.0 + mu) * gains.g11 / gains.g12
             <= gains.g21 / gains.g22 * (1.0 + POWER_ATOL)),
            (3, (1.0 - mu) * gains.g21 / gains.g22,
             (1.0 - mu) * gains.g21 / gains.g22
             >= gains.g11 / gains.g12 * (1.0 - POWER_ATOL))):
        if not ray_ok:
            continue

        def g_of(p1, c=c):
            return _stationarity(p1, c, garr, sigma2_w, w1, w2, p1i,
                                 float(n_sole1), float(n_sole2))

        try:
            report = solve_scalar(g_of, (p1i * 1e-9, p1i * 8.0),
                                  tol=1e-10, positive=True)
        except NoRoot:
            continue
        if report.converged and report.solution > 0.0:
            candidates.append((case_id, float(report.solution),
                               float(c * report.solution)))

    best = None
    for case_id, p1, p2 in candidates:
        if p1 <= 0.0 or p2 <= 0.0:
            continue
        dp1 = float(_dp1(p1, gains.g11, sigma2_w, w1, p1i, float(n_sole1)))
        dp2 = float(_dp2(p2, gains.g22, sigma2_w, w2, float(n_sole2)))
        if best is None or dp1 + dp2 < best.dp_total_w:
            best = OpadSolution(p1, p2, dp1, dp2, case_id)
    if best is None:
        raise CandidateRejected("no window case yields positive powers")
    return best
