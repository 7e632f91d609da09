"""Independent reference implementations used to cross-check closed forms.

Everything here deliberately avoids the closed-form shortcuts under test:
waterlines come from bisection on the monotone rate-of-waterline map, power
deltas from full recomputation of user totals, the local power optimum
from dense grid search, the mutual-SIC power optimum from one KKT solve
per active set of the pair windows (3^m of them, with central-difference
Jacobians), and the joint pair powers from all three of opad_cases's cases
on every row. Slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from nomadas.mutual_sic import _dp1, _dp2, _edge_case_roots, power_window
from nomadas.optimal_pa import LN2, OpaResult
from nomadas.solver import solve_system
from nomadas.waterfill import (POWER_ATOL, admits_waterline_decrease,
                               waterline_add)

# the four link gains of a cross-RRH pair, in the kernels' tuple order
PairGains = namedtuple("PairGains", "g11 g12 g21 g22")


def bisection_waterline(gains, rate_bps, sigma2_w, sc_bw_hz,
                        tol_rel=4e-16, max_iter=300):
    """Waterline meeting rate_bps over the sole set, by pure bisection.

    The total rate sum(sc_bw * log2(w * g / sigma2)) is strictly increasing
    in w, so bisection on w converges unconditionally. Assumes the all-active
    solution (every sole power positive), matching the closed form's domain.
    """
    g = np.asarray(gains, dtype=float)

    def rate_of(w):
        return float(np.sum(sc_bw_hz * np.log2(w * g / sigma2_w)))

    lo = sigma2_w / g.min()        # weakest subcarrier at zero power
    hi = max(2.0 * lo, sigma2_w / g.max() * 2.0 ** (rate_bps / sc_bw_hz))
    while rate_of(hi) < rate_bps:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if rate_of(mid) < rate_bps:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol_rel * hi:
            break
    return 0.5 * (lo + hi)


def total_power_at_rate(gains, rate_bps, sigma2_w, sc_bw_hz):
    """Waterfilled total power of a sole set at an exact rate target."""
    g = np.asarray(gains, dtype=float)
    w = bisection_waterline(g, rate_bps, sigma2_w, sc_bw_hz)
    return float(np.sum(w - sigma2_w / g))


def second_user_rate(p2_w, p1_w, gain2, sigma2_w, sc_bw_hz):
    return sc_bw_hz * np.log2(1.0 + p2_w * gain2 / (p1_w * gain2 + sigma2_w))


def pairing_delta_from_scratch(sole_gains, rate_bps, p1_w, gain2, p2_w,
                               sigma2_w, sc_bw_hz):
    """Total-power change of taking one multiplexed subcarrier at p2_w.

    Recomputes the user's sole-set total power before and after offloading
    the second-user rate, both via the bisection waterline.
    """
    before = total_power_at_rate(sole_gains, rate_bps, sigma2_w, sc_bw_hz)
    moved = float(second_user_rate(p2_w, p1_w, gain2, sigma2_w, sc_bw_hz))
    after = total_power_at_rate(sole_gains, rate_bps - moved, sigma2_w,
                                sc_bw_hz)
    return after + p2_w - before


def grid_best_second_power(waterline_w, p1_w, gain2, sigma2_w, n_sole,
                           grid_points=10_000, lo=None):
    """Brute-force minimizer of the pairing delta over p2 >= lo.

    Returns (best_p2, best_delta) over a dense geometric grid from lo
    (default: the first user's power) up to far beyond any plausible
    optimum.
    """
    if lo is None:
        lo = p1_w
    hi = max(10.0 * waterline_w * n_sole, 10.0 * p1_w)
    p2 = np.geomspace(max(lo, 1e-300), hi, grid_points)
    rate2 = second_user_rate(p2, p1_w, gain2, sigma2_w, 1.0)
    w_new = waterline_w * 2.0 ** (-rate2 / n_sole)
    delta = n_sole * (w_new - waterline_w) + p2
    i = int(np.argmin(delta))
    return float(p2[i]), float(delta[i])


def pairing_delta_closed_over_grid(waterline_w, p1_w, gain2, sigma2_w,
                                   n_sole, p2_w):
    """Pairing delta at one p2, same closed accounting the grid uses."""
    rate2 = second_user_rate(p2_w, p1_w, gain2, sigma2_w, 1.0)
    w_new = waterline_w * 2.0 ** (-rate2 / n_sole)
    return float(n_sole * (w_new - waterline_w) + p2_w)


# -- shared random-instance samplers ------------------------------------------

SIGMA2_REF = 6.25e-16   # noise power at the default bandwidth split


def sample_pair_instance(rng, require_window=True, mu=0.01):
    """One random cross-RRH pair candidate in the algorithms' regime.

    Returns a dict with the four gains, both users' waterlines, the
    incumbent's initial power and both sole-set sizes. The gain quadruple
    always passes the cross-product feasibility test; with require_window
    the margined power window is non-degenerate as well.
    """
    s2 = SIGMA2_REF
    while True:
        g11, g12, g21, g22 = 10.0 ** rng.uniform(-11.0, -6.0, 4)
        if g11 * g22 > g21 * g12:
            g12, g21 = g21, g12    # swapping the cross links flips the test
        if require_window and \
                (1.0 + mu) * g11 / g12 > (1.0 - mu) * g21 / g22:
            continue
        gains = PairGains(g11, g12, g21, g22)
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(1, 9))
        w1 = (s2 / g11) * 10.0 ** rng.uniform(0.1, 2.5)
        w2 = (s2 / g22) * 10.0 ** rng.uniform(0.1, 2.5)
        return {"gains": gains, "sigma2_w": s2, "w1": w1, "w2": w2,
                "p1i": w1 - s2 / g11, "n1": n1, "n2": n2, "mu": mu}


def edge_stationarity(p1, c, g11, g22, sigma2_w, w2, p1i, n1, n2):
    """d/dp1 [dp1(p1) + dp2(c*p1)], zero at the edge case's optimum.

    Written term by term from the two users' closed-form deltas: the
    incumbent's 1 - a^(-n1/(n1-1)) with
    a = (sigma2 + p1*g11) / (sigma2 + p1i*g11), plus c times the joiner's
    1 - w2*(g22/sigma2)*(1 + c*p1*g22/sigma2)^(-(n2+1)/n2).
    """
    a = (sigma2_w + p1 * g11) / (sigma2_w + p1i * g11)
    joiner = 1.0 - w2 * (g22 / sigma2_w) \
        * (1.0 + c * p1 * g22 / sigma2_w) ** (-(n2 + 1.0) / n2)
    return 1.0 - a ** (-n1 / (n1 - 1.0)) + c * joiner


def edge_root_bisection(c, g11, g22, sigma2_w, w2, p1i, n1, n2):
    """Root in p1 of edge_stationarity, by pure scalar bisection.

    The stationarity increases in p1, so halving a sign-change bracket
    until the midpoint no longer moves pins the root to the last
    representable bit.
    """

    def deriv(p1):
        return edge_stationarity(p1, c, g11, g22, sigma2_w, w2, p1i, n1, n2)

    lo, hi = 0.0, p1i
    while deriv(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def three_case_opad(gains_arrays, sigma2_w, w1, w2, p1i, n1, n2, mu):
    """mutual_sic.opad_cases priced by brute force over its three cases.

    Every row solves both margined window edges and the feasible case with
    the lowest dp1 + dp2 wins, the lowest case on ties; a NaN delta never
    wins. This ignores the convexity argument opad_cases rests on (only
    case 1 and one edge can win a row), so equal outputs check it; both
    share the closed forms and the edge root solver.
    """
    g11, g12, g21, g22 = [np.asarray(a, dtype=float) for a in gains_arrays]
    w1, w2, p1i, n1, n2 = (np.asarray(a, dtype=float)
                           for a in (w1, w2, p1i, n1, n2))
    shape = np.broadcast(g11, g12, g21, g22, w1, w2, p1i, n1, n2).shape
    garr = (g11, g12, g21, g22)
    admissible = admits_waterline_decrease(g22, w2, sigma2_w) & (n1 >= 2) \
        & (n2 >= 1) & (p1i > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p2_1 = waterline_add(w2, n2, g22, sigma2_w) - sigma2_w / g22
        lo, hi = power_window(garr, p1i)
        ok1 = (p2_1 >= lo - POWER_ATOL) & (p2_1 <= hi + POWER_ATOL) \
            & (p2_1 > 0.0)
        # both edges, p2 = c * p1 on the lower (case 2) and the upper
        # (case 3) margined edge; a ray that leaves the window is skipped
        c = np.stack([(1.0 + mu) * g11 / g12, (1.0 - mu) * g21 / g22])
        ray_ok = np.stack([c[0] <= g21 / g22 * (1.0 + POWER_ATOL),
                           c[1] >= g11 / g12 * (1.0 - POWER_ATOL)])
        p1_edge, ok_edge = _edge_case_roots(c, garr, sigma2_w, w1, w2, p1i,
                                            n1, n2, admissible & ray_ok)
        p1 = np.concatenate([np.broadcast_to(p1i, (1,) + shape), p1_edge])
        p2 = np.concatenate([np.broadcast_to(p2_1, (1,) + shape),
                             c * p1_edge])
        ok = np.concatenate([np.broadcast_to(ok1, (1,) + shape), ok_edge]) \
            & admissible
        dp1 = _dp1(p1, g11, sigma2_w, w1, p1i, n1)
        dp2 = _dp2(p2, g22, sigma2_w, w2, n2)
        total = dp1 + dp2
    total = np.where(ok & ~np.isnan(total), total, np.inf)
    pick = np.argmin(total, axis=0)[None]
    found = np.take_along_axis(total, pick, 0)[0] < np.inf
    p1, p2, dp1, dp2 = (np.where(found, np.take_along_axis(a, pick, 0)[0],
                                 0.0) for a in (p1, p2, dp1, dp2))
    return p1, p2, dp1, dp2, np.where(found, pick[0] + 1, 0)


def _link_tuples(state):
    """The state's links as (user, n, r, gain) tuples, in links() order."""
    ks, ns, rs, _ = state.links()
    return [(int(k), int(n), int(r), float(state.gains[k, n, r]))
            for k, n, r in zip(ks, ns, rs)]


def opa_kkt_residual(state, result: OpaResult) -> float:
    """Normalized KKT residual of an OpaResult, recomputed from scratch.

    Rebuilds rates from the result's power tensor and restores multipliers
    from per-user mean marginals over the transmitting slots. Slots at zero
    power are treated as pinned: they contribute their dual-infeasibility
    max(0, lambda - marginal at zero) instead of a stationarity row.
    """
    s2 = state.sigma2_w
    # slots: every link but the second links of the m same-RRH pairs,
    # which stack on the last m slots
    links = _link_tuples(state)
    m = len(state.pairs)
    slots = links[:len(links) - m]
    pairs = [(len(slots) - m + j, k2, g2)      # (slot index, user2, gain2)
             for j, (k2, _, _, g2) in enumerate(links[len(slots):])]
    K = state.num_users
    P = result.power_w
    x = np.array([math.log2(1.0 + P[k, n, r] * g / s2)
                  for (k, n, r, g) in slots])
    pair_of_slot = {p[0]: j for j, p in enumerate(pairs)}
    y = np.empty(len(pairs))
    marg_pair = np.empty(len(pairs))
    for j, (i, k2, g2) in enumerate(pairs):
        k1, n, r, g1 = slots[i]
        y[j] = math.log2(1.0 + P[k2, n, r] * g2
                         / (P[k1, n, r] * g2 + s2))
        marg_pair[j] = LN2 * 2.0 ** y[j] * ((2.0 ** x[i] - 1.0) * s2 / g1
                                            + s2 / g2)
    marg_slot = np.empty(len(slots))
    for i, (k, n, r, g) in enumerate(slots):
        j = pair_of_slot.get(i)
        yv = y[j] if j is not None else 0.0
        marg_slot[i] = LN2 * 2.0 ** (x[i] + yv) * s2 / g

    free_x = x > 1e-12
    free_y = y > 1e-12
    lam = np.zeros(K)
    cnt = np.zeros(K)
    for i, (k, n, r, g) in enumerate(slots):
        if free_x[i]:
            lam[k] += marg_slot[i]
            cnt[k] += 1.0
    for j, (i, k2, g2) in enumerate(pairs):
        if free_y[j]:
            lam[k2] += marg_pair[j]
            cnt[k2] += 1.0
    lam /= np.maximum(cnt, 1.0)

    res = []
    rates = np.zeros(K)
    for i, (k, n, r, g) in enumerate(slots):
        rates[k] += x[i]
        if free_x[i]:
            res.append((marg_slot[i] - lam[k]) / (1.0 + abs(lam[k])))
        else:
            res.append(max(0.0, lam[k] - marg_slot[i])
                       / (1.0 + abs(lam[k])))
    for j, (i, k2, g2) in enumerate(pairs):
        rates[k2] += y[j]
        if free_y[j]:
            res.append((marg_pair[j] - lam[k2]) / (1.0 + abs(lam[k2])))
        else:
            res.append(max(0.0, lam[k2] - marg_pair[j])
                       / (1.0 + abs(lam[k2])))
    q = state.demands / state.sc_bw_hz
    res.extend(((rates - q) / (1.0 + q)).tolist())
    return float(np.max(np.abs(res)))


class OracleInfeasible(RuntimeError):
    """No active-set branch of the oracle produced a valid KKT point."""


@dataclass(frozen=True)
class OracleBranch:
    """One active-set combination and its KKT solve outcome."""

    active: tuple
    total_power_w: float
    converged: bool
    feasible: bool


@dataclass(frozen=True)
class OracleResult:
    """Best branch of the constrained mutual-SIC power program."""

    total_power_w: float
    power_w: np.ndarray
    branch: OracleBranch
    branches: tuple


# -- mutual-SIC window-branch enumeration -------------------------------------

def constrained_mutual_pa_oracle(state) -> OracleResult:
    """Reference optimum for a fixed sole + mutual-SIC assignment.

    Enumerates all 3^m combinations of {inactive, lower edge, upper edge}
    for the m per-pair power windows, solves each branch's equality KKT
    system, keeps branches whose inactive constraints hold and whose
    multipliers are non-negative, and returns the cheapest. Intended for
    small instances only.
    """
    if any(p.r1 == p.r2 for p in state.pairs):
        raise ValueError("oracle does not handle same-RRH pairs")
    s2 = state.sigma2_w
    sc_bw = state.sc_bw_hz
    K = state.num_users
    mp = state.pairs
    m = len(mp)
    links = _link_tuples(state)
    soles = links[:len(links) - 2 * m]     # the sole holdings
    ns = len(soles)

    sole_user = np.array([s[0] for s in soles], dtype=int)
    sole_u = np.array([s[3] for s in soles]) / s2
    G = state.gains
    g11 = np.array([float(G[p.k1, p.n, p.r1]) for p in mp])
    g12 = np.array([float(G[p.k1, p.n, p.r2]) for p in mp])
    g21 = np.array([float(G[p.k2, p.n, p.r1]) for p in mp])
    g22 = np.array([float(G[p.k2, p.n, p.r2]) for p in mp])
    u11 = g11 / s2
    u22 = g22 / s2
    lo_ratio = g11 / g12
    hi_ratio = g21 / g22
    user1 = np.array([p.k1 for p in mp], dtype=int)
    user2 = np.array([p.k2 for p in mp], dtype=int)

    q = state.demands / sc_bw
    x0 = np.array([math.log2(max(state.waterline[k] * g / s2, 1.0))
                   for (k, n, r, g) in soles])
    a0 = np.array([p.rate1_bps / sc_bw for p in mp])
    b0 = np.array([p.rate2_bps / sc_bw for p in mp])

    def powers_of(x, a, b):
        return (2.0 ** x - 1.0) / sole_u, (2.0 ** a - 1.0) / u11, \
            (2.0 ** b - 1.0) / u22

    def solve_branch(active):
        act_idx = [j for j in range(m) if active[j] != 0]
        na = len(act_idx)
        act_arr = np.array(active, dtype=int) if m else np.zeros(0, int)
        # constraint gradients wrt (p1, p2): lo edge (lo_ratio, -1),
        # hi edge (-hi_ratio, 1); inactive pairs carry nu = 0
        c1 = np.where(act_arr == 1, lo_ratio, -hi_ratio)
        c2 = np.where(act_arr == 1, -1.0, 1.0)

        def residual(z):
            # exploratory newton steps can overflow the exponentials; the
            # resulting inf/nan rows are rejected by the line search
            with np.errstate(over="ignore", invalid="ignore"):
                x = z[:ns]
                a = z[ns:ns + m]
                b = z[ns + m:ns + 2 * m]
                lam = z[ns + 2 * m:ns + 2 * m + K]
                nu_full = np.zeros(m)
                if na:
                    nu_full[act_idx] = z[ns + 2 * m + K:]
                d_sole = LN2 * 2.0 ** x / sole_u
                da = LN2 * 2.0 ** a / u11
                db = LN2 * 2.0 ** b / u22
                f_sole = (d_sole - lam[sole_user]) \
                    / (1.0 + np.abs(lam[sole_user]))
                f_a = (da * (1.0 + nu_full * c1) - lam[user1]) \
                    / (1.0 + np.abs(lam[user1]))
                f_b = (db * (1.0 + nu_full * c2) - lam[user2]) \
                    / (1.0 + np.abs(lam[user2]))
                rates = np.bincount(sole_user, weights=x, minlength=K)
                if m:
                    rates = rates \
                        + np.bincount(user1, weights=a, minlength=K) \
                        + np.bincount(user2, weights=b, minlength=K)
                f_rate = (rates - q) / (1.0 + q)
                parts = [f_sole, f_a, f_b, f_rate]
                if na:
                    p1 = (2.0 ** a - 1.0) / u11
                    p2 = (2.0 ** b - 1.0) / u22
                    f_act = []
                    for j in act_idx:
                        scale = abs(p1[j]) * max(lo_ratio[j], hi_ratio[j]) \
                            + abs(p2[j]) + 1e-300
                        if active[j] == 1:
                            f_act.append((p1[j] * lo_ratio[j] - p2[j])
                                         / scale)
                        else:
                            f_act.append((p2[j] - p1[j] * hi_ratio[j])
                                         / scale)
                    parts.append(np.array(f_act))
                return np.concatenate(parts)

        lam0 = np.full(K, LN2)
        for k in range(K):
            vals = [LN2 * 2.0 ** x0[i] / sole_u[i]
                    for i in range(ns) if sole_user[i] == k]
            vals += [LN2 * 2.0 ** a0[j] / u11[j]
                     for j in range(m) if user1[j] == k]
            vals += [LN2 * 2.0 ** b0[j] / u22[j]
                     for j in range(m) if user2[j] == k]
            if vals:
                lam0[k] = float(np.mean(vals))
        z0 = np.concatenate([x0, a0, b0, lam0, np.zeros(na)])
        report = solve_system(residual, z0, tol=1e-9, max_iter=120)
        if not report.converged:
            return None
        z = report.solution
        x = z[:ns]
        a = z[ns:ns + m]
        b = z[ns + m:ns + 2 * m]
        nu = z[ns + 2 * m + K:]
        p_sole, p1, p2 = powers_of(x, a, b)
        if (p_sole < -1e-12).any() or (p1 < -1e-12).any() \
                or (p2 < -1e-12).any():
            return None
        # inactive window sides must hold, multipliers must be dual-feasible
        slack = 1e-7
        for j in range(m):
            wscale = p1[j] * max(lo_ratio[j], hi_ratio[j]) + p2[j] + 1e-300
            if active[j] != 1 and \
                    p1[j] * lo_ratio[j] - p2[j] > slack * wscale:
                return None
            if active[j] != 2 and \
                    p2[j] - p1[j] * hi_ratio[j] > slack * wscale:
                return None
        if na and (nu < -1e-7).any():
            return None
        total = float(p_sole.sum() + p1.sum() + p2.sum())
        P = np.zeros(state.gains.shape)
        for i, (k, n, r, g) in enumerate(soles):
            P[k, n, r] = p_sole[i]
        for j, pair in enumerate(mp):
            P[pair.k1, pair.n, pair.r1] = p1[j]
            P[pair.k2, pair.n, pair.r2] = p2[j]
        return total, P

    branches = []
    best = None
    for active in itertools.product((0, 1, 2), repeat=m):
        sol = solve_branch(active)
        if sol is None:
            branches.append(OracleBranch(active, math.inf, False, False))
            continue
        total, P = sol
        branches.append(OracleBranch(active, total, True, True))
        if best is None or total < best[0]:
            best = (total, P, branches[-1])
    if best is None:
        raise OracleInfeasible("no active-set branch converged")
    return OracleResult(best[0], best[1], best[2], tuple(branches))
