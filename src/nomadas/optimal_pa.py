"""Jointly optimal power allocation for a fixed subcarrier assignment.

Once an assignment is fixed, total transmit power is a convex function of
the per-subcarrier rate variables, so the first-order (KKT) system fully
characterizes the optimum. Two solvers live here:

* ``optimal_power_allocation`` handles sole subcarriers plus same-RRH
  power-multiplexed pairs (the second user decodes under the first user's
  interference). Equality rate constraints only.
* ``constrained_mutual_pa_oracle`` handles sole subcarriers plus mutual-SIC
  pairs, enumerating every active-set combination of the per-pair power
  windows. Exponential in the pair count, so strictly a reference check
  for small instances.

Both solve a scale-normalized KKT system: stationarity rows are divided by
(1 + lambda) and rate rows by (1 + target), so one absolute residual
tolerance works across users whose marginal powers differ by many orders
of magnitude. ``optimal_power_allocation`` gives the Newton solver the
analytic Jacobian of its system; the oracle leaves the solver to take it
by central differences, which keeps it an independent check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .solver import solve_system

LN2 = math.log(2.0)


class OracleInfeasible(RuntimeError):
    """No active-set branch of the oracle produced a valid KKT point."""


@dataclass(frozen=True)
class OpaResult:
    """Outcome of the joint power optimization."""

    power_w: np.ndarray
    total_power_w: float
    converged: bool
    iterations: int
    residual_norm: float


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


def _collect_slots(state):
    """Flatten a state's assignment into slot and pair index arrays.

    A slot is any subcarrier decoded interference-free by its first user:
    all sole holdings, by user, then subcarrier, then RRH, plus the first
    position of every same-RRH pair.
    """
    slots = [(k, n, r, float(state.gains[k, n, r]))     # (user, n, r, gain)
             for k, n, r in zip(*state.sole_slots())]
    pairs = []      # (slot_index, user2, gain2)
    for p in state.pairs:
        if p.r1 == p.r2:
            g1, g2 = (float(state.gains[k, p.n, p.r1]) for k in (p.k1, p.k2))
            pairs.append((len(slots), p.k2, g2))
            slots.append((p.k1, p.n, p.r1, g1))
    return slots, pairs


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
    """The state's slots (see _collect_slots) and their _KktLayout."""
    s2 = state.sigma2_w
    slots, pairs = _collect_slots(state)
    return slots, _KktLayout(
        slot_user=np.array([s[0] for s in slots], dtype=int),
        slot_u=np.array([s[3] for s in slots]) / s2,
        pair_slot=np.array([p[0] for p in pairs], dtype=int),
        pair_user=np.array([p[1] for p in pairs], dtype=int),
        pair_u=np.array([p[2] for p in pairs]) / s2,
        q=state.demands / state.sc_bw_hz)


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
    """Normalized KKT residual of a _KktLayout and its analytic Jacobian.

    Rows, in order: slot stationarity (A - lam)/(1 + |lam|), pair
    stationarity (B - lam)/(1 + |lam|) with the user's lam, and per-user
    rate (sum of the user's x and y - q)/(1 + q). The row of a pinned rate
    (pin_x, pin_y) is the rate itself. Both functions build on _marginals.
    """
    ns, npair, K = lay.slot_u.size, lay.pair_u.size, lay.q.size
    n = ns + npair + K
    ix = np.arange(ns)
    iy = ns + np.arange(npair)
    # the user block: rate row k and multiplier column k share an index
    kx = ns + npair + lay.slot_user
    ky = ns + npair + lay.pair_user
    sp = lay.pair_slot

    def terms(z):
        x, y, lam = z[:ns], z[ns:ns + npair], z[ns + npair:]
        a, b = _marginals(lay, x, y)
        return x, y, a, b, lam[lay.slot_user], lam[lay.pair_user]

    def residual(z):
        # exploratory newton steps can overflow the exponentials; the
        # resulting inf/nan rows are rejected by the line search
        with np.errstate(over="ignore", invalid="ignore"):
            x, y, a, b, lx, ly = terms(z)
            f_slot = np.where(pin_x, x, (a - lx) / (1.0 + np.abs(lx)))
            f_pair = np.where(pin_y, y, (b - ly) / (1.0 + np.abs(ly)))
            rates = np.bincount(lay.slot_user, weights=x, minlength=K) \
                + np.bincount(lay.pair_user, weights=y, minlength=K)
            f_rate = (rates - lay.q) / (1.0 + lay.q)
            return np.concatenate([f_slot, f_pair, f_rate])

    def jacobian(z):
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, a, b, lx, ly = terms(z)
            d = 1.0 + np.abs(lx)
            e = 1.0 + np.abs(ly)
            jac = np.zeros((n, n))
            jac[ix, ix] = LN2 * a / d
            jac[sp, iy] = LN2 * a[sp] / d[sp]
            jac[ix, kx] = -(d + (a - lx) * np.sign(lx)) / d ** 2
            jac[iy, iy] = LN2 * b / e
            # dB/dx_s = ln2^2 * 2^(y + x_s) / u_s = ln2 * A_s
            jac[iy, sp] = LN2 * a[sp] / e
            jac[iy, ky] = -(e + (b - ly) * np.sign(ly)) / e ** 2
            for rows, pinned in ((ix, pin_x), (iy, pin_y)):
                jac[rows[pinned]] = 0.0
                jac[rows[pinned], rows[pinned]] = 1.0
            jac[kx, ix] = 1.0 / (1.0 + lay.q[lay.slot_user])
            jac[ky, iy] = 1.0 / (1.0 + lay.q[lay.pair_user])
            return jac

    return residual, jacobian


def optimal_power_allocation(state) -> OpaResult:
    """Minimum-power rates for a fixed sole + single-SIC assignment.

    The rate variables must stay non-negative (a negative rate would mean
    the slot untransmits), so the KKT system is solved with an active-set
    loop: solve the equality system, pin variables that went negative to
    zero, release pins whose multipliers turn infeasible, repeat. Each
    solve is damped Newton on the analytic Jacobian of _kkt_system. Starts
    from the state's realized rates and falls back to the input powers
    (converged=False) if any solve stalls or fails to improve.
    """
    if any(p.r1 != p.r2 for p in state.pairs):
        raise ValueError("assignment contains mutual-SIC pairs")
    s2 = state.sigma2_w
    sc_bw = state.sc_bw_hz
    K = state.num_users
    slots, lay = _kkt_layout(state)
    ns, npair = lay.slot_u.size, lay.pair_u.size

    # start from the realized allocation: x, y are per-subcarrier rates
    p_now = state.power_tensor()
    input_total = float(p_now.sum())
    x0 = np.empty(ns)
    for i, (k, n, r, g) in enumerate(slots):
        x0[i] = math.log2(1.0 + p_now[k, n, r] * g / s2)
    y0 = np.array([p.rate2_bps / sc_bw for p in state.pairs])

    lam0 = np.zeros(K)
    cnt = np.zeros(K)
    m_slot, m_pair = _marginals(lay, x0, y0)
    np.add.at(lam0, lay.slot_user, m_slot)
    np.add.at(cnt, lay.slot_user, 1.0)
    np.add.at(lam0, lay.pair_user, m_pair)
    np.add.at(cnt, lay.pair_user, 1.0)
    lam0 /= np.maximum(cnt, 1.0)

    pin_x = np.zeros(ns, dtype=bool)
    pin_y = np.zeros(npair, dtype=bool)
    z0 = np.concatenate([x0, y0, lam0])
    report = None
    for _ in range(2 + ns + npair):
        residual, jacobian = _kkt_system(lay, pin_x, pin_y)
        report = solve_system(residual, z0, jac=jacobian)
        if not report.converged:
            return OpaResult(p_now, input_total, False, report.iterations,
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
        return OpaResult(p_now, input_total, False, report.iterations,
                         report.residual_norm)

    P = np.zeros(state.gains.shape)
    p1 = np.where(pin_x, 0.0, (2.0 ** x - 1.0) / lay.slot_u)
    for i, (k, n, r, g) in enumerate(slots):
        P[k, n, r] = p1[i]
    for j, p in enumerate(state.pairs):
        i = lay.pair_slot[j]
        P[p.k2, p.n, p.r2] = 0.0 if pin_y[j] else \
            (2.0 ** y[j] - 1.0) * (p1[i] + 1.0 / lay.pair_u[j])
    total = float(P.sum())
    if total > input_total * (1.0 + 1e-9) + 1e-15:
        # a stationary point that does not improve the start is not the
        # optimum of this convex program; keep the input allocation
        return OpaResult(p_now, input_total, False, report.iterations,
                         report.residual_norm)
    return OpaResult(P, total, True, report.iterations,
                     report.residual_norm)


# -- mutual-SIC oracle ---------------------------------------------------------

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
    soles, _ = _collect_slots(state)    # no same-RRH pairs: sole slots
    mp = state.pairs
    m = len(mp)
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
