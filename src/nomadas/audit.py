"""Post-hoc invariant checks on finished allocations.

Every check recomputes from the result's power tensor and the channel
gains, not from the allocator's internal bookkeeping, so a bookkeeping bug
cannot hide itself. audit_result returns human-readable violation strings;
an empty list means the allocation is internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocators import AllocationResult
from .harness import run_trial
from .mutual_sic import power_window, rate_condition_terms
from .scenario import Scenario
from .waterfill import InfeasibleWaterline, rate_second, waterline_from_rate

RATE_RTOL = 1e-6
WINDOW_RTOL = 1e-12


def audit_result(result: AllocationResult) -> list[str]:
    """All invariant violations of one allocation, empty when clean."""
    state = result.state
    alg = result.algorithm
    s2 = state.sigma2_w
    sc_bw = state.sc_bw_hz
    G = state.gains
    P = result.power_w
    v = []

    # occupancy: at most two users per subcarrier, counters consistent;
    # the links are the soles, then the pairs' first, then second links
    ks, ns, rs, _ = state.links()
    m = len(state.pairs)
    S = state.num_subcarriers
    users = np.bincount(ns, minlength=S)
    for n in np.flatnonzero(users > 2):
        v.append(f"subcarrier {n} carries {users[n]} users")
    sole = np.arange(ks.size) < ks.size - 2 * m
    shared_sole = 0
    for n in np.flatnonzero((users == 2)
                            & (np.bincount(ns[sole], minlength=S) == 2)):
        # only the unconstrained benchmark may double-book a subcarrier
        # with two floating users, and only across RRHs
        a, b = np.flatnonzero(sole & (ns == n))
        if result.algorithm != "MutSIC-UC":
            v.append(f"subcarrier {n} has two sole owners")
        elif ks[a] == ks[b]:
            v.append(f"subcarrier {n} shared by one user twice")
        elif rs[a] == rs[b]:
            v.append(f"subcarrier {n} shared within one RRH")
        else:
            shared_sole += 1
    n_sing = sum(p.r1 == p.r2 for p in state.pairs)
    n_mut = len(state.pairs) - n_sing + shared_sole
    if result.mutsic_sc != n_mut or result.singsic_sc != n_sing \
            or result.nonmux_sc != S - n_mut - n_sing:
        v.append("subcarrier counters disagree with pair records")

    # power appears only on assigned slots and is never negative
    mask = np.zeros(P.shape, dtype=bool)
    mask[ks, ns, rs] = True
    if np.count_nonzero(P[~mask]):
        v.append("power on an unassigned (user, subcarrier, RRH) slot")
    if P.min() < -1e-15:
        v.append(f"negative transmit power {P.min():.3e}")
        # keep auditing the rest on a clamped tensor instead of letting
        # the rate helpers reject the corrupt values
        P = np.maximum(P, 0.0)

    # every user's demand is met exactly, recomputed from the tensor: a
    # same-RRH second link hears its first link's power, every other link
    # hears none
    p = P[ks, ns, rs]
    first = np.arange(ks.size - 2 * m, ks.size - m)
    heard = np.zeros(ks.size)
    heard[first + m] = np.where(rs[first] == rs[first + m], p[first], 0.0)
    rates = np.bincount(ks, weights=rate_second(p, heard, G[ks, ns, rs], s2,
                                                sc_bw),
                        minlength=state.num_users)
    for k in range(state.num_users):
        if abs(rates[k] - state.demands[k]) > RATE_RTOL * state.demands[k]:
            v.append(f"user {k} rate {rates[k]:.6e} misses demand "
                     f"{state.demands[k]:.6e}")

    # same-RRH pairs: the second user must be the weaker and stronger-
    # powered; mutual pairs: power window and exact decodability margins
    for pair in state.pairs:
        n = pair.n
        gains = tuple(float(G[k, n, r]) for k in (pair.k1, pair.k2)
                      for r in (pair.r1, pair.r2))     # g11, g12, g21, g22
        p1, p2 = float(P[pair.k1, n, pair.r1]), float(P[pair.k2, n, pair.r2])
        if pair.r1 == pair.r2:
            if not gains[3] < gains[0]:
                v.append(f"pair on {n}: second user's gain is not lower")
            if alg != "SRRH-OPA" and p2 < p1 * (1.0 - WINDOW_RTOL) - 1e-15:
                v.append(f"pair on {n}: p2 {p2:.3e} below p1 {p1:.3e}")
            continue
        lo, hi = power_window(gains, p1)
        if not lo * (1.0 - WINDOW_RTOL) <= p2 <= hi * (1.0 + WINDOW_RTOL):
            v.append(f"mutual pair on {n}: p2 {p2:.3e} outside "
                     f"[{lo:.3e}, {hi:.3e}]")
        xy, zt, scale = rate_condition_terms(gains, p1, p2, s2)
        if xy < -1e-9 * scale or zt < -1e-9 * scale:
            v.append(f"mutual pair on {n}: decode margin negative")

    # floating sole powers must sit on a waterline that meets the residual
    # demand exactly (not meaningful once powers were re-optimized)
    if alg != "SRRH-OPA":
        for k in range(state.num_users):
            if not state.n_sole[k]:
                continue
            gains = state.sole_gains(k)
            want = state.sole_rate_bps(k)
            try:
                w_expect = waterline_from_rate(gains, want, s2, sc_bw)
            except InfeasibleWaterline:
                v.append(f"user {k}: residual demand infeasible on its "
                         f"sole set")
                continue
            w = state.waterline[k]
            if abs(w - w_expect) > 1e-9 * max(w_expect, w):
                v.append(f"user {k}: waterline {w:.6e} != recomputed "
                         f"{w_expect:.6e}")

    # each accepted greedy step must realize its predicted saving
    rho = state.rho_w
    for rec in state.log:
        if rec.phase == "wbh" or not rec.accepted:
            continue
        if not rec.predicted_dp_w < -rho:
            v.append(f"{rec.phase} step on {rec.subcarrier}: predicted "
                     f"saving {rec.predicted_dp_w:.3e} not below -rho")
        realized = rec.total_after_w - rec.total_before_w
        slack = 1e-9 * max(abs(rec.total_before_w), 1.0)
        if realized > -rho + slack:
            v.append(f"{rec.phase} step on {rec.subcarrier}: realized "
                     f"saving {realized:.3e} not below -rho")
        if abs(realized - rec.predicted_dp_w) > \
                1e-6 * max(abs(rec.total_before_w), 1.0):
            v.append(f"{rec.phase} step on {rec.subcarrier}: realized "
                     f"{realized:.3e} != predicted "
                     f"{rec.predicted_dp_w:.3e}")

    # loop budgets: every phase terminates within its structural bound
    for phase, (iters, limit) in state.phase_iterations.items():
        if iters > limit:
            v.append(f"{phase} phase ran {iters} iterations, bound {limit}")

    return v


@dataclass(frozen=True)
class AuditReport:
    """Aggregated outcome of auditing many trials."""

    results_checked: int
    violations: tuple  # (algorithm, trial, message)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_invariant_audit(scenario: Scenario, algorithms, trials: int,
                        base_seed: int = 0) -> AuditReport:
    """Run every algorithm on fresh channel drops and audit each result.

    A crash during allocation counts as a violation of that algorithm.
    """
    bad = []
    checked = 0
    for t in range(trials):
        for alg, result in run_trial(scenario, algorithms, base_seed, t)[1]:
            checked += 1
            if isinstance(result, Exception):
                bad.append((alg, t, f"allocation crashed: {result!r}"))
                continue
            for msg in audit_result(result):
                bad.append((alg, t, msg))
    return AuditReport(checked, tuple(bad))
