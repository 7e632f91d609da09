"""Jointly optimal power allocation for a fixed subcarrier assignment.

Once an assignment is fixed, the minimum total power is a convex program.
Two solvers live here:

* ``optimal_power_allocation`` handles sole subcarriers plus same-RRH
  power-multiplexed pairs (the second user decodes under the first user's
  interference). It solves the KKT system in the per-subcarrier rates,
  equality rate constraints only, scale-normalized: stationarity rows are
  divided by (1 + lambda) and rate rows by (1 + target), so one absolute
  residual tolerance works across users whose marginal powers differ by
  many orders of magnitude. Each Newton step is block-eliminated down to
  a K x K system in the users' multipliers.
* ``mutual_power_optimum`` handles sole subcarriers plus mutual-SIC pairs,
  each pair's power ratio held inside its window, by a log-barrier Newton
  method in the powers. Its cost grows polynomially with the pair count,
  so it checks paper-scale drops; tests check it against an enumeration
  of the windows' active sets on small ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .solver import solve_linear, solve_system

LN2 = math.log(2.0)
# a pair's 2x2 KKT block is singular to working precision when its pair
# row's diagonal exceeds the slot coupling by less than this share of it
# (_kkt_system)
SINGULAR_GAP = 1e-8


@dataclass(frozen=True)
class OpaResult:
    """Outcome of a joint power optimization. residual_norm is the final
    KKT residual (optimal_power_allocation) or duality gap bound over the
    total (mutual_power_optimum)."""

    power_w: np.ndarray
    total_power_w: float
    converged: bool
    iterations: int         # Newton steps, over all solves of the call
    residual_norm: float


class _KktLayout(NamedTuple):
    """Index arrays of the KKT system of a sole + single-SIC assignment.

    The unknowns are z = (x, y, lam): one rate per slot, one rate per pair
    (the pair's second user, stacked on slot pair_slot) and one multiplier
    per user, rates in bits per subcarrier use.
    """

    slot_user: np.ndarray
    slot_u: np.ndarray      # slot gain over noise
    pair_slot: np.ndarray
    pair_user: np.ndarray
    pair_u: np.ndarray      # second user's gain over noise
    q: np.ndarray           # per-user demand in bits per subcarrier use


def _kkt_layout(state):
    """The state's links (AllocationState.links) and their _KktLayout.

    The slots, each decoded interference-free by its user, are every
    link but the last m: the sole holdings, then the m pairs' first
    links. The pairs' second links, the last m links, stack on the last
    m slots.
    """
    links = k, n, r, _ = state.links()
    m = len(state.pairs)
    ns = k.size - m
    u = state.gains[k, n, r] / state.sigma2_w
    return links, _KktLayout(
        slot_user=k[:ns], slot_u=u[:ns], pair_slot=ns - m + np.arange(m),
        pair_user=k[ns:], pair_u=u[ns:], q=state.demands / state.sc_bw_hz)


def _marginals(lay, x, y):
    """Marginal power per bit of every slot rate (A) and pair rate (B).

    A = ln2 * 2^(x + y_slot) / u, with y_slot the rate of the pair stacked
    on the slot (0 on sole slots), and B = ln2 * 2^y * ((2^x_s - 1) / u_s
    + 1 / v) for a pair on slot s with second-user gain over noise v.
    """
    ysl = np.zeros(x.size)
    ysl[lay.pair_slot] = y
    a = LN2 * 2.0 ** (x + ysl) / lay.slot_u
    b = LN2 * 2.0 ** y * ((2.0 ** x[lay.pair_slot] - 1.0)
                          / lay.slot_u[lay.pair_slot] + 1.0 / lay.pair_u)
    return a, b


def _kkt_system(lay, pin_x, pin_y):
    """Normalized KKT residual of a _KktLayout and its Newton step.

    Rows, in order: slot stationarity (A - lam)/(1 + |lam|), pair
    stationarity (B - lam)/(1 + |lam|) with the user's lam, and per-user
    rate (sum of the user's x and y - q)/(1 + q). The row of a pinned rate
    (pin_x, pin_y) is the rate itself. Both functions build on _marginals.

    Over the rates v = (x, y) and lam the Jacobian is [[D, B], [C, 0]]: D
    couples a slot only with the pair stacked on it (a 2x2 block), B ties
    each stationarity row to its user's multiplier and C sums each user's
    rates. newton_step eliminates the rates (Boyd & Vandenberghe, Convex
    Optimization, 10.2-10.3): the K x K Schur complement S = C D^-1 B gives
    S dlam = f_rate - C D^-1 f_stat, then dv = -D^-1 (f_stat + B dlam). A
    pair whose block is singular to working precision borders S with its
    rate step instead, so the reduced system stays exact.
    """
    ns, npair, K = lay.slot_u.size, lay.pair_u.size, lay.q.size
    nv = ns + npair
    sp = lay.pair_slot
    iy = ns + np.arange(npair)
    user = np.concatenate([lay.slot_user, lay.pair_user])
    pinned = np.concatenate([pin_x, pin_y])
    c = 1.0 / (1.0 + lay.q[user])     # C's entry in each rate's column
    # S's entries: each rate's own user, then each pair's two cross terms
    schur_at = K * np.concatenate([user, user[sp], user[iy]]) \
        + np.concatenate([user, user[iy], user[sp]])

    def terms(z):
        lam = z[nv:][user]
        return (np.concatenate(_marginals(lay, z[:ns], z[ns:nv])), lam,
                1.0 + np.abs(lam))

    def residual(z):
        # exploratory newton steps can overflow the exponentials; the
        # resulting inf/nan rows are rejected by the line search
        with np.errstate(over="ignore", invalid="ignore"):
            m, lam, d = terms(z)
            f_stat = np.where(pinned, z[:nv], (m - lam) / d)
            rates = np.bincount(user, weights=z[:nv], minlength=K)
            return np.concatenate([f_stat, (rates - lay.q) / (1.0 + lay.q)])

    def newton_step(z, f):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m, lam, d = terms(z)
            # D's diagonal and, for slot s with pair j, its entries (s, j)
            # and (j, s); dB/dx_s = ln2^2 * 2^(y + x_s) / u_s = ln2 * A_s
            diag = np.where(pinned, 1.0, LN2 * m / d)
            up = np.where(pin_x[sp], 0.0, LN2 * m[sp] / d[sp])
            low = np.where(pin_y, 0.0, LN2 * m[sp] / d[ns:])
            # B's entry in each row, in its user's column
            b = np.where(pinned, 0.0, -(d + (m - lam) * np.sign(lam)) / d ** 2)
            # unpinned, up = diag[sp] and diag[iy] - low = ln2 (B - A) / d,
            # so a block's determinant is diag[sp] * gap, taken without
            # cancellation
            gap = LN2 ** 2 * 2.0 ** z[ns:nv] * (
                1.0 / lay.pair_u - 1.0 / lay.slot_u[sp]) / d[ns:]
            det = np.where(pin_y, diag[sp],
                           np.where(pin_x[sp], diag[iy], diag[sp] * gap))
            # a block singular to working precision (B equals A to it once
            # 2^x_s >> u_s / v) is not inverted: its slot row gives dx + dy,
            # and dy joins dlam as an unknown of the reduced system
            bordered = np.flatnonzero(~pin_x[sp] & ~pin_y
                               & (gap < SINGULAR_GAP * diag[iy]))
            s1, s2 = sp[bordered], iy[bordered]
            col = K + np.arange(bordered.size)
            # D^-1: reciprocals, and each 2x2 block inverted in closed form
            inv = 1.0 / diag
            inv[sp], inv[iy] = diag[iy] / det, diag[sp] / det
            inv_up, inv_low = -up / det, -low / det
            inv[s1], inv[s2] = 1.0 / diag[s1], 0.0
            inv_up[bordered] = inv_low[bordered] = 0.0

            def d_inv(w):
                out = inv * w
                out[sp] += inv_up * w[iy]
                out[iy] += inv_low * w[sp]
                return out

            f_stat, f_rate = f[:nv], f[nv:]
            entries = np.concatenate([c * inv * b, c[sp] * inv_up * b[iy],
                                      c[iy] * inv_low * b[sp]])
            reduced = np.zeros((col.size + K, col.size + K))
            reduced[:K, :K] = np.bincount(schur_at, weights=entries,
                                          minlength=K * K).reshape(K, K)
            rhs = f_rate - np.bincount(user, weights=c * d_inv(f_stat),
                                       minlength=K)
            # each bordered pair: dy's share of both users' rate rows, and
            # its pair row less low / diag[sp] times its slot row
            rho = low[bordered] / diag[s1]
            reduced[user[s1], col] = c[s1]
            reduced[user[s2], col] = -c[s2]
            reduced[col, user[s1]] = -rho * b[s1]
            reduced[col, user[s2]] = b[s2]
            reduced[col, col] = gap[bordered]
            sol = solve_linear(reduced, np.concatenate(
                [rhs, rho * f_stat[s1] - f_stat[s2]]))
            dv = -d_inv(f_stat + b * sol[user])
            dv[s1] -= sol[K:]
            dv[s2] = sol[K:]
            return np.concatenate([dv, sol[:K]])

    return residual, newton_step


def optimal_power_allocation(state) -> OpaResult:
    """Minimum-power rates for a fixed sole + single-SIC assignment.

    The rate variables must stay non-negative (a negative rate would mean
    the slot untransmits), so the KKT system is solved with an active-set
    loop: solve the equality system, pin variables that went negative to
    zero, release pins whose multipliers turn infeasible, repeat. Each
    solve is damped Newton with _kkt_system's block-eliminated step. Starts
    from the state's realized rates and falls back to the input powers
    (converged=False) if any solve stalls or fails to improve.
    """
    if any(p.r1 != p.r2 for p in state.pairs):
        raise ValueError("assignment contains mutual-SIC pairs")
    s2 = state.sigma2_w
    sc_bw = state.sc_bw_hz
    K = state.num_users
    (k, n, r, p), lay = _kkt_layout(state)
    ns, npair = lay.slot_u.size, lay.pair_u.size

    # start from the realized allocation: x, y are per-subcarrier rates
    p_now = state.power_tensor()
    input_total = float(p_now.sum())
    x0 = np.log2(1.0 + p[:ns] * state.gains[k, n, r][:ns] / s2)
    y0 = np.array([q.rate2_bps / sc_bw for q in state.pairs])

    # each user's mean marginal over its links, slots then pairs
    lam0 = np.bincount(k, weights=np.concatenate(_marginals(lay, x0, y0)),
                       minlength=K)
    lam0 /= np.maximum(np.bincount(k, minlength=K), 1)

    pin_x = np.zeros(ns, dtype=bool)
    pin_y = np.zeros(npair, dtype=bool)
    z0 = np.concatenate([x0, y0, lam0])
    steps = 0       # Newton iterations over every active-set solve
    for _ in range(2 + ns + npair):
        residual, newton_step = _kkt_system(lay, pin_x, pin_y)
        report = solve_system(residual, z0, step=newton_step)
        steps += report.iterations
        if not report.converged:
            return OpaResult(p_now, input_total, False, steps,
                             report.residual_norm)
        z = report.solution
        x, y, lam = z[:ns], z[ns:ns + npair], z[ns + npair:]
        neg_x = ~pin_x & (x < -1e-9)
        neg_y = ~pin_y & (y < -1e-9)
        if neg_x.any() or neg_y.any():
            pin_x |= neg_x
            pin_y |= neg_y
            z0 = z.copy()
            z0[:ns][pin_x] = 0.0
            z0[ns:ns + npair][pin_y] = 0.0
            continue
        # dual feasibility: a pinned slot must not be cheaper than the
        # user's marginal power per bit, else it re-enters the basis
        m_slot, m_pair = _marginals(lay, x, y)
        eta_x = m_slot - lam[lay.slot_user]
        eta_y = m_pair - lam[lay.pair_user]
        tol_eta = 1e-9 * (1.0 + np.abs(lam))
        bad_x = pin_x & (eta_x < -tol_eta[lay.slot_user])
        bad_y = pin_y & (eta_y < -tol_eta[lay.pair_user])
        if bad_x.any() or bad_y.any():
            # release the single worst pin to avoid add/release cycling
            cands = [(eta_x[i], "x", i) for i in np.flatnonzero(bad_x)]
            cands += [(eta_y[j], "y", j) for j in np.flatnonzero(bad_y)]
            _, kind, idx = min(cands)
            if kind == "x":
                pin_x[idx] = False
            else:
                pin_y[idx] = False
            z0 = z.copy()
            continue
        break
    else:
        return OpaResult(p_now, input_total, False, steps,
                         report.residual_norm)

    p1 = np.where(pin_x, 0.0, (2.0 ** x - 1.0) / lay.slot_u)
    p2 = np.where(pin_y, 0.0, (2.0 ** y - 1.0)
                  * (p1[lay.pair_slot] + 1.0 / lay.pair_u))
    P = np.zeros(state.gains.shape)
    P[k, n, r] = np.concatenate([p1, p2])
    total = float(P.sum())
    if total > input_total * (1.0 + 1e-9) + 1e-15:
        # a stationary point that does not improve the start is not the
        # optimum of this convex program; keep the input allocation
        return OpaResult(p_now, input_total, False, steps,
                         report.residual_norm)
    return OpaResult(P, total, True, steps, report.residual_norm)


# -- mutual-SIC optimum --------------------------------------------------------

def mutual_power_optimum(state) -> OpaResult:
    """Jointly optimal powers for a fixed sole + mutual-SIC assignment.

    Minimizes the total of the sole-slot and pair powers subject to every
    user's rate sum reaching its demand, every pair's p2 lying inside its
    unmargined window [p1 * g11/g12, p1 * g21/g22] and every power being
    non-negative. The objective and the window edges are linear and each
    rate sum is concave in the powers, so the program is convex; the
    log-barrier method with damped Newton centering solves it (Boyd &
    Vandenberghe, Convex Optimization, ch. 11).

    The start is strictly feasible: the greedy's powers, each pair's ratio
    moved off its window edges, then all powers scaled up until every
    rate has slack. Returns the input powers with converged=False when no strictly
    feasible start exists or a centering step stalls.
    """
    if any(p.r1 == p.r2 for p in state.pairs):
        raise ValueError("oracle does not handle same-RRH pairs")
    s2 = state.sigma2_w
    # the unknowns x are the links' powers: the soles', then every p1,
    # then every p2
    user, n, r, x = state.links()
    m = len(state.pairs)
    ns = user.size - 2 * m
    ia, ib = ns + np.arange(m), ns + m + np.arange(m)
    G = state.gains
    g = G[user, n, r]
    g11, g12 = g[ia], G[user[ia], n[ia], r[ib]]
    g21, g22 = G[user[ib], n[ib], r[ia]], g[ib]
    lo, hi = g11 / g12, g21 / g22
    u = g / s2
    q = state.demands / state.sc_bw_hz
    K = q.size

    p_now = state.power_tensor()
    steps = 0

    def failed():
        return OpaResult(p_now, float(p_now.sum()), False, steps, math.inf)

    if (hi <= lo).any():
        return failed()
    x = np.maximum(x, 1e-9 * x.max())     # a power at 0 is on its barrier
    x[ib] = x[ia] * np.clip(x[ib] / x[ia], lo + 1e-3 * (hi - lo),
                            hi - 1e-3 * (hi - lo))

    def slacks(x):
        rates = np.bincount(user, weights=np.log2(1.0 + u * x), minlength=K)
        return np.concatenate([x, x[ib] - lo * x[ia], hi * x[ia] - x[ib],
                               rates - q])

    def change(x, dx):
        """The exact change of the slacks from x to x + dx. A slack near 0
        is far smaller than the terms it is the difference of, so the
        slacks are carried along the steps, not computed anew."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.log1p(u * dx / (1.0 + u * x)) / LN2
        return np.concatenate([dx, dx[ib] - lo * dx[ia], hi * dx[ia] - dx[ib],
                               np.bincount(user, weights=rates, minlength=K)])

    for i in range(60):
        grow = 1.0 + 1e-3 * 2.0 ** i
        if (slacks(x * grow)[-K:] > 0).all():
            break
    else:
        return failed()
    # powers in units of the start's total, so the objective is about 1
    ref = float(x.sum()) * grow
    x = x * grow / ref
    u = u * ref
    s = slacks(x)
    t = float(s.size)       # a duality gap bound of the start's total
    while True:
        for _ in range(100):
            sx, slo, shi, srate = np.split(s, [x.size, x.size + m,
                                               x.size + 2 * m])
            d = u / (LN2 * (1.0 + u * x))       # d rate / d power
            grad = t - 1.0 / sx - d / srate[user]
            grad[ia] += lo / slo - hi / shi
            grad[ib] += 1.0 / shi - 1.0 / slo
            hess = np.diag(1.0 / sx ** 2 + LN2 * d ** 2 / srate[user])
            col = np.zeros((x.size, K))
            col[np.arange(x.size), user] = d / srate[user]
            hess += col @ col.T
            wa, wb = 1.0 / slo ** 2, 1.0 / shi ** 2
            hess[ia, ia] += lo ** 2 * wa + hi ** 2 * wb
            hess[ib, ib] += wa + wb
            hess[ia, ib] -= lo * wa + hi * wb
            hess[ib, ia] -= lo * wa + hi * wb
            dx = -np.linalg.solve(hess, grad)
            decrement = -float(grad @ dx)
            if decrement <= 1e-10:
                break
            step = 1.0
            while True:     # backtracking; a nan decrement ends here
                ds = change(x, step * dx)
                # the barrier's change, without its large t * total term
                if (s + ds > 0).all() and t * step * dx.sum() \
                        - np.log1p(ds / s).sum() <= -0.25 * step * decrement:
                    break
                step *= 0.5
                if step < 1e-12:
                    return failed()
            x, s = x + step * dx, s + ds
            steps += 1
        else:
            return failed()
        gap = s.size / (t * x.sum())
        if gap <= 1e-12:
            break
        t *= 20.0

    P = np.zeros(G.shape)
    P[user, n, r] = x * ref
    return OpaResult(P, float(P.sum()), True, steps, gap)
