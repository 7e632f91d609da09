"""Greedy assignment phases and the full allocation algorithms.

All algorithms share the same skeleton: an initial round that hands every
user its best subcarrier (worst-served user picks first), an OMA round that
keeps giving the most power-hungry user extra subcarriers while that lowers
total power, and up to two pairing rounds that multiplex a second user onto
already-assigned subcarriers, either through classic power-domain SIC on
the same RRH or through mutual SIC across RRHs (or the unconstrained UC
bound), optionally followed by a joint power optimization. PLANS maps each
algorithm to its antenna set, its rounds after OMA and that last step.

Every round after the first runs the same greedy descent (_descend): the
most power-hungry active user proposes its best step, which is taken while
it lowers total power by more than rho_w; otherwise the user retires. A
taken step names the users whose power it changed, the grower or the
pair's two users, and only their powers are evaluated again (user_power).

State bookkeeping: a subcarrier is free until assigned. Then owner[n, r]
names the user that holds it alone through RRH r, its power floating on
that user's waterline, until a pairing freezes it and clears the entry.
Only the MutSIC-UC bound lets a second user hold an owned subcarrier,
through another RRH. Frozen powers and rates never change afterwards.
Each step updates what it changed: the holding counts, the sum of noise
floors and the two weakest sole gains of the users it touched. Since a
subcarrier never becomes free again, each user's links, sorted by gain
once, are read through a cursor that only moves forward (best_free).

Both pairing phases are one phase (_pairing) that differs in data: the
pair geometry (same RRH or across RRHs) and the mode's rule for the pair
powers. Both freeze one kind of record (Pair) into state.pairs, a
same-RRH pair exactly when r1 == r2. A pairing phase adds no sole
holding, so it builds its candidate pairs once and keeps their prices
(_PairTable): an accepted step retires its subcarrier's pairs and marks
dirty only the pairs whose inputs it changed. Pricing waits until a
proposer has a dirty pair of its own and then takes every dirty pair of
the active users in one call, so a retirement, or a proposer no step
touched, prices nothing. The table gathers what the rows read and one
pure row kernel, price_rows, prices them for every mode. A pairing phase
is a generator that yields each such call's arguments, a price request,
and takes its outputs back; run on its own, each request is priced as it
comes (_solo). worst_best_h, oma_phase and uc_extension_phase price
nothing and run straight through.

Algorithms share their leading phases: worst_best_h and oma_phase on
the antenna set, then any PLANS phases two plans have in common. Each
thread keeps, for its last channel object and rho_w, a fork of the state
after every phase run_algorithm ran, keyed by the antenna set and the
phase functions (looked up by name at call time) and arguments so far. A
later call on that channel goes on from a fork of the deepest stored
state of its plan, so run_algorithms, one run_algorithm call per
algorithm, runs each distinct phase prefix once. A call misses, and
runs, when the channel is another object, rho_w differs or a phase
function was replaced by name; the channel's gains are read-only. A
phase that raised is not stored; results never hold a stored state, only
forks of one. A state carries no algorithm: the one stored state serves
every plan below it.

run_lockstep runs many drops through the algorithms in step, for the
Monte Carlo harness. It walks the same plans (_plan), each drop on a
phase store of its own whose states leave once no algorithm left to run
reads them. At each tick the drop furthest behind, and the drops
waiting on a request of the same mode and geometry, up to JOIN_ROWS rows
in all, have their requests priced in one price_rows call, so the fixed
cost of a call is shared by the drops. A row's prices do not depend on
the rows priced with it, so each drop's outcomes equal those of its lone
run bit for bit. A lone drop has nothing to share and runs as one
run_algorithm call per algorithm: run_algorithms is that case.
"""

from __future__ import annotations

import copy
import inspect
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import optimal_pa
from .channel import ChannelTensor
from .mutual_sic import (dpa_adjust, mutual_sic_feasible, opad_cases,
                         rate_condition_terms)
from .waterfill import (POWER_ATOL, InfeasibleWaterline, _lpo_core,
                        admits_waterline_decrease, delta_power_noma,
                        delta_power_oma, ftpa_power, rate_second, rate_single,
                        waterline_add, waterline_rate_shift)

SIC_MARGIN = 0.01   # mu: relative safety margin of the SIC power windows
FTPA_ALPHA = 0.5    # fractional-power exponent for FTPA pairing


# algorithm -> (central RRH only, phases after oma_phase, joint power
# optimization after the phases). A phase is (name of its function in this
# module, arguments): the runner looks the function up when it runs, so a
# phase function replaced by name reaches every plan, and two plans share
# the work of their common leading phases (run_algorithm).
PLANS = {
    "OMA-CAS": (True, (), False),
    "NOMA-CAS": (True, (("single_sic_pairing", "ftpa"),), False),
    "OMA-DAS": (False, (), False),
    "SRRH": (False, (("single_sic_pairing", "ftpa"),), False),
    "SRRH-LPO": (False, (("single_sic_pairing", "lpo"),), False),
    "SRRH-OPA": (False, (("single_sic_pairing", "lpo"),), True),
    "MutSIC-UC": (False, (("uc_extension_phase",),), False),
    "MutSIC-DPA": (False, (("mutual_sic_pairing", "dpa"),), False),
    "MutSIC-OPAd": (False, (("mutual_sic_pairing", "opad"),), False),
    "MutSIC-SOPAd": (False, (("mutual_sic_pairing", "sopad"),), False),
    "MutAndSingSIC": (False, (("mutual_sic_pairing", "sopad"),
                              ("single_sic_pairing", "lpo")), False),
}
ALGORITHMS = tuple(PLANS)


@dataclass(frozen=True)
class AlgorithmConfig:
    """The algorithm to run and its step acceptance threshold."""

    algorithm: str
    rho_w: float = 1e-3     # minimum useful power decrease per step (watts)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.rho_w >= 0:
            raise ValueError("rho_w must be non-negative")


@dataclass(frozen=True)
class Pair:
    """A frozen power-multiplexed subcarrier: k1 through RRH r1, k2 through
    r2. Same-RRH SIC when r1 == r2, mutual SIC across RRHs otherwise."""

    n: int
    k1: int
    r1: int
    p1_w: float
    rate1_bps: float
    k2: int
    r2: int
    p2_w: float
    rate2_bps: float


@dataclass
class StepRecord:
    """One loop iteration of a greedy phase, for the descent audit."""

    phase: str
    user: int
    subcarrier: int
    accepted: bool
    predicted_dp_w: float
    total_before_w: float
    total_after_w: float


class AllocationState:
    """Mutable allocation bookkeeping shared by the phases: on the central
    RRH alone or on every RRH, with step acceptance threshold rho_w."""

    def __init__(self, channel: ChannelTensor, central: bool, rho_w: float):
        scen = channel.scenario
        self.channel = channel
        self.rho_w = rho_w
        self.gains = channel.gains
        self.sigma2_w = channel.sigma2_w
        self.sc_bw_hz = scen.sc_bw_hz
        self.num_users = scen.num_users
        self.num_subcarriers = scen.num_subcarriers
        self.rrhs = np.array([0]) if central else np.arange(scen.num_rrhs)
        self.demands = np.full(scen.num_users, float(scen.rate_demand_bps))

        K, S = self.num_users, self.num_subcarriers
        # owner[n, r]: the user holding n alone through RRH r, else -1
        self.owner = np.full((S, scen.num_rrhs), -1)
        self.n_sole = np.zeros(K, dtype=int)      # holdings per user
        self.floor_sum = np.zeros(K)              # sum of sigma2/gain over them
        self.waterline = np.full(K, np.nan)
        self.frozen_rate = np.zeros(K)
        self.frozen_power = np.zeros(K)
        self.free = np.ones(S, dtype=bool)        # no holder, no frozen pair
        # each user's two weakest sole gains, ascending, inf-padded
        self.weakest = np.full((K, 2), np.inf)
        # by_gain[k]: k's links n * len(rrhs) + i, through RRH rrhs[i], by
        # descending gain, ties in (n, rrhs) order; links before cursor[k]
        # are no longer free
        R = len(self.rrhs)
        self.by_gain = np.argsort(
            -self.gains[:, :, self.rrhs].reshape(K, S * R), axis=1,
            kind="stable").astype(np.int32)
        self.by_gain.flags.writeable = False    # shared by every fork
        self.cursor = np.zeros(K, dtype=int)
        self.pairs: list[Pair] = []
        self.log: list[StepRecord] = []
        self.phase_iterations: dict[str, tuple[int, int]] = {}

    def fork(self) -> AllocationState:
        """A copy with its own writable arrays, lists and dicts; the
        channel, the read-only arrays (gains, by_gain) and the records in
        the lists, never changed, are shared."""
        twin = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, (list, dict)) or (
                    isinstance(value, np.ndarray) and value.flags.writeable):
                setattr(twin, name, copy.copy(value))
        return twin

    # -- bookkeeping helpers -------------------------------------------------

    def user_power(self, k: int) -> float:
        """User k's power: its frozen power plus the waterfill of its sole
        holdings, n_sole * waterline - floor_sum (none without any)."""
        n = self.n_sole[k]
        if n == 0:
            return float(self.frozen_power[k])
        return float(n * self.waterline[k] - self.floor_sum[k]
                     + self.frozen_power[k])

    def user_powers(self) -> np.ndarray:
        """user_power of every user, by index."""
        return np.array([self.user_power(k) for k in range(self.num_users)])

    def total_power(self) -> float:
        return float(self.user_powers().sum())

    def holders(self) -> np.ndarray:
        """Sole holders per subcarrier (two only under MutSIC-UC)."""
        return np.count_nonzero(self.owner >= 0, axis=1)

    def links(self):
        """(user, subcarrier, RRH, power) arrays of every transmitting
        link: the sole holdings by user, then subcarrier, then RRH, at
        their waterline powers; then the first link of every pair, in
        pairs order; then the second links, in the same order."""
        own = self.owner.ravel()
        held = np.flatnonzero(own >= 0)
        held = held[np.argsort(own[held], kind="stable")]
        ks = own[held]
        ns, rs = np.divmod(held, self.owner.shape[1])
        p = self.waterline[ks] - self.sigma2_w / self.gains[ks, ns, rs]
        # (k, n, r, p) rows of the pairs' first links, then second links
        ends = np.array([(q.k1, q.k2, q.n, q.n, q.r1, q.r2, q.p1_w, q.p2_w)
                         for q in self.pairs], dtype=float)
        ends = ends.reshape(-1, 4, 2).transpose(1, 2, 0).reshape(4, -1)
        k, n, r = (np.concatenate([a, b]).astype(int)
                   for a, b in zip((ks, ns, rs), ends))
        return k, n, r, np.concatenate([p, ends[3]])

    def sole_gains(self, k: int) -> np.ndarray:
        return self.gains[k][self.owner == k]

    def sole_rate_bps(self, k: int) -> float:
        return float(self.demands[k] - self.frozen_rate[k])

    def best_free(self, k: int):
        """(n, r) of user k's strongest link through rrhs on a free
        subcarrier, the first in (n, rrhs) order on ties; None when no
        subcarrier is free. Sound because free never turns True again."""
        links, i, R = self.by_gain[k], self.cursor[k], len(self.rrhs)
        while i < len(links) and not self.free[links[i] // R]:
            i += 1
        self.cursor[k] = i
        if i == len(links):
            return None
        n, j = divmod(int(links[i]), R)
        return n, int(self.rrhs[j])

    def _add_sole(self, k: int, n: int, r: int):
        g = self.gains[k, n, r]
        self.owner[n, r] = k
        self.n_sole[k] += 1
        self.floor_sum[k] += self.sigma2_w / g
        self.free[n] = False
        low = self.weakest[k]
        if g < low[1]:
            low[:] = (g, low[0]) if g < low[0] else (low[0], g)

    def _remove_sole(self, k: int, n: int, r: int):
        g = self.gains[k, n, r]
        self.owner[n, r] = -1
        self.n_sole[k] -= 1
        self.floor_sum[k] -= self.sigma2_w / g
        if g <= self.weakest[k, 1]:
            rest = np.sort(self.sole_gains(k))[:2]
            self.weakest[k] = np.inf
            self.weakest[k, :rest.size] = rest

    def _log(self, phase, user, n, accepted, dp, before, after):
        self.log.append(StepRecord(phase, user, n, accepted, dp, before,
                                   after))

    # -- materialization -----------------------------------------------------

    def power_tensor(self) -> np.ndarray:
        """Dense (users, subcarriers, RRHs) transmit powers."""
        P = np.zeros(self.gains.shape)
        k, n, r, p = self.links()
        P[k, n, r] = p
        return P


@dataclass
class AllocationResult:
    """Final outcome of one algorithm on one channel realization."""

    algorithm: str
    total_power_w: float
    per_user_power_w: np.ndarray
    power_w: np.ndarray
    nonmux_sc: int
    mutsic_sc: int
    singsic_sc: int
    state: AllocationState
    warnings: tuple = ()
    opa_iterations: int = 0         # of the joint power optimization
    opa_residual: float = math.nan  # its KKT residual; nan without one
    opa_solves: int = 0             # its active-set solves

    @property
    def steps(self) -> str:
        """Accepted/total greedy steps per phase tag, in order of first
        appearance, e.g. "wbh:15/15 oma:40/52 mutual:9/21"."""
        counts = {}
        for step in self.state.log:
            accepted, total = counts.get(step.phase, (0, 0))
            counts[step.phase] = (accepted + step.accepted, total + 1)
        return " ".join(f"{tag}:{a}/{t}" for tag, (a, t) in counts.items())


# -- phase 1: one subcarrier each, worst-served user picks first -------------

def worst_best_h(state: AllocationState) -> None:
    """Give every user one subcarrier at exactly its rate demand.

    The user whose best available link is weakest chooses first, so strong
    users cannot take the only decent link of a weak one.
    """
    G, s2 = state.gains, state.sigma2_w
    unassigned = set(range(state.num_users))
    powers = state.user_powers()
    before = float(powers.sum())
    while unassigned:
        best_k, best_gain = -1, math.inf
        for k in sorted(unassigned):
            g = float(G[k][state.best_free(k)])
            if g < best_gain:
                best_k, best_gain = k, g
        n, r = state.best_free(best_k)
        q = state.demands[best_k] / state.sc_bw_hz
        state.waterline[best_k] = math.exp(q * math.log(2.0)
                                           + math.log(s2 / best_gain))
        state._add_sole(best_k, n, r)
        unassigned.discard(best_k)
        powers[best_k] = state.user_power(best_k)
        after = float(powers.sum())
        state._log("wbh", best_k, n, True, powers[best_k], before, after)
        before = after


# -- the greedy descent every growth and pairing phase runs ------------------

def _descend(state: AllocationState, tag: str, limit: int, more,
             propose, active=None) -> None:
    """Let the most power-hungry active user step while that saves power.

    While more() holds and a user is active, the active user with the
    largest power (lowest index on ties) proposes one step: propose(k)
    returns (subcarrier, dp, commit). A step that lowers total power by
    more than rho_w is taken: commit() applies it and returns the
    (subcarrier, dp) to log and the users whose power it changed; only
    their powers are evaluated again (user_power). Otherwise the user
    retires from the phase and the proposal's subcarrier and dp are
    logged; a retirement changes no power, so the totals carry over. The
    iteration count and its bound `limit` add up in
    state.phase_iterations[tag]. `active`, the mask of the users not yet
    retired, starts all True; a caller whose proposer reads it passes it.

    A proposer that prices rows (_pairing) is a generator function, and so
    is each commit it returns: the descent passes their price requests on
    (yield from). So the descent is a generator, which a phase runs with
    _solo; with a plain proposer it yields nothing.
    """
    priced = inspect.isgeneratorfunction(propose)
    rho = state.rho_w
    if active is None:
        active = np.ones(state.num_users, dtype=bool)
    powers = state.user_powers()
    before = float(powers.sum())
    # the active users' powers, -inf for the retired ones
    masked = np.where(active, powers, -np.inf)
    left = int(active.sum())
    iters = 0
    while left and more():
        iters += 1
        k = int(masked.argmax())
        if priced:
            n, dp, commit = yield from propose(k)
        else:
            n, dp, commit = propose(k)
        accepted = bool(dp < -rho)
        after = before
        if accepted:
            n, dp, changed = (yield from commit()) if priced else commit()
            for u in changed:
                powers[u] = state.user_power(u)
                if active[u]:
                    masked[u] = powers[u]
            after = float(powers.sum())
        else:
            active[k] = False
            masked[k] = -np.inf
            left -= 1
        state._log(tag, k, n, accepted, dp, before, after)
        before = after
    prev = state.phase_iterations.get(tag, (0, 0))
    state.phase_iterations[tag] = (prev[0] + iters, prev[1] + limit)


# -- phase 2: grow sole sets while total power drops -------------------------

def oma_phase(state: AllocationState) -> None:
    """Repeatedly hand the most power-hungry user its best free subcarrier.

    A candidate only helps if its gain clears the user's current waterline
    noise floor; the strongest free link also gives the largest power drop,
    so it is the one candidate to price (best_free). Users whose best
    candidate no longer saves more than rho_w are retired from this phase.
    """
    G, s2 = state.gains, state.sigma2_w

    def propose(k):
        w = state.waterline[k]
        link = state.best_free(k)
        if link is None or not admits_waterline_decrease(G[k][link], w, s2):
            return -1, math.nan, None
        n, r = link
        gain = float(G[k, n, r])
        n_cur = state.n_sole[k]
        w_new = waterline_add(w, n_cur, gain, s2)
        dp = delta_power_oma(w, w_new, n_cur, gain, s2)

        def commit():
            state.waterline[k] = w_new
            state._add_sole(k, n, r)
            return n, dp, (k,)
        return n, dp, commit

    _solo(_descend(state, "oma", int(state.free.sum()) + state.num_users,
                   state.free.any, propose))


# -- unconstrained benchmark: waterfill onto occupied subcarriers -------------

class _UcLinks:
    """Which (subcarrier, RRH of state.rrhs) links MutSIC-UC may still take,
    kept across the proposals of one phase run: the held links, the holders
    per subcarrier and the largest holder's index, as state.owner gives
    them at phase start. Each commit adds one link (add)."""

    def __init__(self, state: AllocationState):
        own = state.owner[:, state.rrhs]
        self.state = state
        self.held = own >= 0
        self.count = self.held.sum(axis=1)
        self.top = own.max(axis=1)

    def add(self, k: int, n: int, ri: int):
        """Record that user k took subcarrier n through RRH rrhs[ri]."""
        self.held[n, ri] = True
        self.count[n] += 1
        self.top[n] = max(self.top[n], k)

    def open(self, k: int) -> np.ndarray:
        """(subcarrier, RRH) mask of the links user k may take: those of a
        free subcarrier and, on a subcarrier one other user holds, those
        through every other RRH. Same-RRH reuse is single-SIC territory,
        not covered here."""
        other = (self.count == 1) & (self.top != k)
        return self.state.free[:, None] | (other[:, None] & ~self.held)


def uc_extension_phase(state: AllocationState) -> None:
    """Keep waterfilling with subcarrier reuse and no decoding conditions.

    Continuation of the sole-subcarrier growth where a user may also take a
    subcarrier already held by one other user, through a different RRH.
    Both users stay on their own waterlines and nothing freezes, so the
    resulting powers ignore every power-ordering requirement that real
    interference cancellation would impose. Lower-bound reference for the
    constrained mutual-SIC methods, not a deployable allocation.

    A commit adds one link, so the open-link masks (_UcLinks) and the gains
    through state.rrhs are built once per run, not per proposal.
    """
    s2 = state.sigma2_w
    links = _UcLinks(state)
    gains = state.gains[:, :, state.rrhs]

    def propose(k):
        w = state.waterline[k]
        n_cur = state.n_sole[k]
        floor = s2 / state.weakest[k, 0]       # 0 without sole holdings
        cand = gains[k]
        with np.errstate(divide="ignore"):
            w_new = waterline_add(w, n_cur, cand, s2)
        # shared candidates can outrank existing gains, so unlike the free
        # phase the shrunk waterline must be checked against the floor
        ok = links.open(k) & admits_waterline_decrease(cand, w, s2) \
            & (w_new >= floor)
        if not ok.any():
            return -1, math.nan, None
        flat = int(np.argmax(np.where(ok, cand, -math.inf)))
        ni, ri = np.unravel_index(flat, cand.shape)
        n, r = int(ni), int(state.rrhs[ri])
        gain = float(cand[ni, ri])
        wn = float(w_new[ni, ri])
        dp = delta_power_oma(w, wn, n_cur, gain, s2)

        def commit():
            state.waterline[k] = wn
            state._add_sole(k, n, r)
            links.add(k, n, int(ri))
            return n, dp, (k,)
        return n, dp, commit

    _solo(_descend(state, "uc", 2 * state.num_subcarriers + state.num_users,
                   lambda: True, propose))


# -- pairing: one table of priced candidate pairs, one greedy -----------------

class _PairTable:
    """The priced candidate pairs of one pairing phase run.

    One row per (joiner k2, subcarrier n, joiner RRH r2) over the
    subcarriers another user k1 holds alone through r1 at phase start:
    r2 = r1 for same-RRH pairing, every other RRH of state.rrhs otherwise.
    Rows that can never pair are left out (on the gains (g11, g12, g21,
    g22): g22 >= g11 on the shared RRH, mutual_sic_feasible false across
    RRHs); the rest run by joiner, then n, then r2.

    Pairing adds no sole holding, so rows only leave: committing a row
    kills the rows on its subcarrier. A row's price reads only the state of
    its incumbent and its joiner, so the commit also marks dirty every row
    whose inputs it moved, and a clean row's price stays what pricing it
    now would give, bit for bit. Those are the rows either of its two users
    joins and the rows its joiner is the incumbent of. The rows its
    incumbent is the incumbent of read only that incumbent's waterline,
    which ftpa, lpo and dpa steps write back unchanged, so only opad and
    sopad tables (whose steps can move p1) dirty them too. Rows are priced
    on demand (cheapest): only a proposer with a dirty row of its own
    prices. On 40 paper drops of all 11 algorithms that is 85.5 table
    price calls per drop (sopad's one-row refines not counted), against
    88.0 when every commit dirtied all rows of both its users.
    """

    def __init__(self, state: AllocationState, mode: str, same_rrh: bool):
        G, K = state.gains, state.num_users
        held = state.owner >= 0
        alone = np.count_nonzero(held, axis=1) == 1
        rrh = np.arange(held.shape[1])
        r1 = np.argmax(held, axis=1)
        k1 = np.where(alone, state.owner[np.arange(alone.size), r1], -1)
        if same_rrh:
            r2_ok = rrh == r1[:, None]
        else:
            r2_ok = np.isin(rrh, state.rrhs) & (rrh != r1[:, None])
        # the (n, r2) couples in order, then the joiners each one keeps
        ns, r2s = np.nonzero(alone[:, None] & r2_ok)
        k1s, r1s = k1[ns], r1[ns]
        gains = (G[k1s, ns, r1s], G[k1s, ns, r2s], G[:, ns, r1s],
                 G[:, ns, r2s])
        keep = gains[3] < gains[0] if same_rrh else mutual_sic_feasible(gains)
        self.k2, col = np.nonzero(keep & (k1s != np.arange(K)[:, None]))
        self.n, self.k1, self.r1, self.r2 = (a[col] for a in (ns, k1s, r1s,
                                                              r2s))
        self.gains = (gains[0][col], gains[1][col], gains[2][self.k2, col],
                      gains[3][self.k2, col])
        self.start = np.searchsorted(self.k2, np.arange(K + 1))
        # subcarriers held alone, in all and per holder, and how many
        # candidates each one gives a joiner before the gain screen
        self.held = int(alone.sum())
        self.own = np.bincount(k1[alone], minlength=K)
        self.fanout = 1 if same_rrh else len(state.rrhs) - 1
        # sopad selects with the dpa prices
        self.mode = "dpa" if mode == "sopad" else mode
        # only an opad price or a sopad refine moves the incumbent's waterline
        self.moves_w1 = mode in ("opad", "sopad")
        self.state, self.same_rrh = state, same_rrh
        self.live = np.ones(self.n.size, dtype=bool)
        self.dirty = self.live.copy()
        self.values = np.full((6, self.n.size), np.inf)  # price outputs

    def inputs(self, rows, incumbent=True):
        """What pricing the rows reads: (gains, w1, n1, rest_floor, w2, n2,
        g2_floor). w and n are the incumbent's and the joiner's waterlines
        and sole counts, rest_floor the incumbent's sole-set noise floor once
        n leaves it (0 when nothing is left), g2_floor the joiner's. Only a
        price that moves p1 (opad) reads n1 and rest_floor; without
        `incumbent` they are None. On a shared RRH g12 is g11 and g21 is
        g22, so only g11 and g22 are gathered."""
        state, s2 = self.state, self.state.sigma2_w
        k1s, k2s = self.k1[rows], self.k2[rows]
        if self.same_rrh:
            g11, g22 = self.gains[0][rows], self.gains[3][rows]
            g = (g11, g11, g22, g22)
        else:
            g = tuple(x[rows] for x in self.gains)
        n1 = rest_floor = None
        if incumbent:
            # dropping n from the incumbent's sole set leaves its weakest
            # gain unless n carries it
            weakest = state.weakest[k1s]
            rest_min = np.where(g[0] == weakest[:, 0], weakest[:, 1],
                                weakest[:, 0])
            n1, rest_floor = state.n_sole[k1s], s2 / rest_min
        return (g, state.waterline[k1s], n1, rest_floor,
                state.waterline[k2s], state.n_sole[k2s],
                s2 / state.weakest[k2s, 0])

    def request(self, rows, mode=None):
        """price_rows' arguments for the rows, by `mode` (the table's)."""
        mode = mode or self.mode
        return (mode, self.same_rrh, self.inputs(rows, mode == "opad"),
                self.state.sigma2_w, self.state.sc_bw_hz)

    def cheapest(self, k2: int, active: np.ndarray):
        """(row, dp) of k2's cheapest live row, the first on ties, as a
        generator's return value. When a live row of k2 is dirty, it first
        prices, in one request (price_rows' arguments, yielded, answered
        with its outputs), every dirty row of the active joiners that still
        hold a subcarrier alone; pricing a row later than its commit gives
        the same bits, as nothing but a commit that dirties it moves its
        inputs. (None, nan) when k2 holds nothing alone or has no candidate
        at all, (None, inf) when the gain screen left out all."""
        if self.state.n_sole[k2] == 0 \
                or (self.held - self.own[k2]) * self.fanout == 0:
            return None, math.nan
        lo, hi = self.start[k2], self.start[k2 + 1]
        if lo == hi:
            return None, math.inf
        if self.dirty[lo:hi].any():
            ready = active & (self.state.n_sole > 0)
            rows = np.flatnonzero(self.dirty & ready[self.k2])
            self.values[:, rows] = yield self.request(rows)
            self.dirty[rows] = False
        row = lo + int(np.argmin(self.values[0, lo:hi]))
        return row, float(self.values[0, row])

    def commit(self, row: int):
        """Retire row's subcarrier and dirty the rows whose inputs the
        step moved: every row of its joiner, the rows its incumbent joins
        and, where the step can move the incumbent's waterline (opad,
        sopad), the rows it is the incumbent of."""
        n, k1, k2 = self.n[row], self.k1[row], self.k2[row]
        dead = self.n == n
        self.live &= ~dead
        self.values[0, dead] = np.inf
        moved = (self.k1 == k2) | (self.k2 == k1) | (self.k2 == k2)
        if self.moves_w1:
            moved |= self.k1 == k1
        self.dirty |= moved
        self.dirty &= self.live
        self.held -= 1
        self.own[k1] -= 1


def _pairing(state: AllocationState, mode: str, same_rrh: bool):
    """Multiplex heavy users as second user on subcarriers held alone.

    The joiner offloads rate from its sole set onto the cheapest row of the
    table, which freezes both users on the subcarrier at the priced values.
    A sopad step re-prices its selected row by opad and keeps that optimum
    when it passes the screens. A rejected step logs its row's subcarrier
    on the same RRH and -1 across RRHs. A generator: it yields the price
    requests of the table (cheapest) and of the sopad refines, each
    answered with price_rows' outputs (_solo, run_lockstep). A mode its
    geometry has no rule for raises ValueError at the first step.
    """
    kind, modes = (("single", ("ftpa", "lpo")) if same_rrh
                   else ("mutual", ("dpa", "opad", "sopad")))
    if mode not in modes:
        raise ValueError(f"unknown {kind}-SIC mode {mode!r}")
    s2, sc_bw = state.sigma2_w, state.sc_bw_hz

    def propose(k2):
        row, dp_best = yield from table.cheapest(k2, active)
        if row is None:
            return -1, dp_best, None

        def commit():
            values = table.values[:, row]
            if mode == "sopad":
                refined = [a[0] for a in (
                    yield table.request(np.array([row]), "opad"))]
                if refined[0] < math.inf:
                    values = refined
            dp, p1, p2, rate2, w1_new, w2_new = (float(v) for v in values)
            n, k1, r1, r2 = (int(a[row]) for a in (table.n, table.k1,
                                                    table.r1, table.r2))
            rate1 = float(rate_single(p1, table.gains[0][row], s2, sc_bw))
            _freeze_pair(state, Pair(n, k1, r1, p1, rate1, k2, r2, p2, rate2),
                         w1_new, w2_new)
            table.commit(row)
            return n, dp, (k1, k2)
        shown = same_rrh and dp_best < math.inf
        return int(table.n[row]) if shown else -1, dp_best, commit

    table = _PairTable(state, mode, same_rrh)
    active = np.ones(state.num_users, dtype=bool)
    yield from _descend(state, kind, table.held + state.num_users,
                        lambda: table.held > 0, propose, active)


def single_sic_pairing(state: AllocationState, mode: str) -> None:
    """Same-RRH power-domain pairing.

    mode "ftpa" sets the second power by the fractional gain ratio, "lpo"
    by the closed-form local optimum. The incumbent's power and rate on the
    subcarrier freeze unchanged (it cancels the newcomer's signal before
    decoding), so only a joiner weaker than the incumbent on the shared
    RRH can pair.
    """
    _solo(_pairing(state, mode, True))


def mutual_sic_pairing(state: AllocationState, mode: str) -> None:
    """Cross-RRH pairing with mutual interference cancellation.

    mode "dpa" waterfills the joiner and clamps its power into the
    decodability window, "opad" re-optimizes both powers jointly per
    candidate (opad_cases), and "sopad" selects with the dpa prices, then
    runs opad_cases on the winning row alone. Only rows whose gains admit
    mutual cancellation (mutual_sic_feasible) are priced.
    """
    _solo(_pairing(state, mode, False))


# the pairing phases as the price-request generators a plan runs in their
# place (_plan); keyed by function, so a phase replaced by name runs as
# called
_STEPS = {
    single_sic_pairing: lambda state, mode: _pairing(state, mode, True),
    mutual_sic_pairing: lambda state, mode: _pairing(state, mode, False),
}


# -- pricing: one row kernel, run alone or on the rows of many drops ---------

def price_rows(mode: str, same_rrh: bool, inputs, sigma2_w: float,
               sc_bw_hz: float):
    """Total-power change of candidate pair rows and the values a freeze
    writes: (dp, p1, p2, rate2, w1_new, w2_new), the powers by `mode`.

    `inputs` is what _PairTable.inputs gathers for the rows, on the shared
    RRH when `same_rrh`, else across RRHs. Each row's outputs depend on its
    inputs alone, so the rows of several tables price in one call
    (run_lockstep) to the same bits as one table's rows.

    The mode's rule sets the pair powers (single_sic_pairing,
    mutual_sic_pairing): ftpa, lpo and dpa keep the incumbent at its
    sole power p1i, opad moves it. Across RRHs p2 must be positive, the
    joiner's gain must admit a waterline decrease and both exact decode
    margins must hold at (p1, p2).

    The joiner offloads rate2 from its n2 sole subcarriers, hearing p1
    on a shared RRH and nothing across RRHs, and its waterline w2_new
    must stay at or above g2_floor. When p1 moved off p1i, the
    incumbent's n1 - 1 remaining sole subcarriers absorb its rate change
    on the pair, moving to w1_new; they must then exist and w1_new must
    stay at or above rest_floor. The change is
    (n1 - 1)(w1_new - w1) + (p1 - p1i) + n2 (w2_new - w2) + p2,
    inf where a rule or a screen fails. When p1 is p1i the incumbent
    terms are zero, so they are left out and w1_new is w1.
    """
    s2, sc_bw = sigma2_w, sc_bw_hz
    g, w1, n1, rest_floor, w2, n2, g2_floor = inputs
    g11, g22 = g[0], g[3]
    p1 = p1i = w1 - s2 / g11
    # a row that divides by zero, overflows or turns NaN fails a screen
    # below or is priced inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if mode == "ftpa":
            p2 = ftpa_power(p1, g11, g22, FTPA_ALPHA)
            valid = np.ones(w1.size, dtype=bool)
        elif mode == "lpo":
            p2, reject = _lpo_core(w2, p1, g22, s2, n2, SIC_MARGIN)
            valid = ~reject
        elif mode == "dpa":
            w_add = waterline_add(w2, n2, g22, s2)
            p2, valid = dpa_adjust(w_add - s2 / g22, g, p1, SIC_MARGIN)
        else:
            p1, p2, case = opad_cases(g, s2, w1, w2, p1i, n1, n2,
                                      SIC_MARGIN)
            valid = case > 0
        if not same_rrh:
            xy, zt, scale = rate_condition_terms(g, p1, p2, s2)
            valid &= (p2 > 0) & admits_waterline_decrease(g22, w2, s2) \
                & (xy >= -1e-9 * scale) & (zt >= -1e-9 * scale)

        rate2 = rate_second(np.where(valid, p2, 0.0),
                            p1 if same_rrh else 0.0, g22, s2, sc_bw)
        w2_new = waterline_rate_shift(w2, -rate2, n2, sc_bw)
        valid &= w2_new >= g2_floor
        dp = delta_power_noma(w2, w2_new, n2, p2)
        w1_new = w1
        if p1 is not p1i:
            rate1 = rate_single(np.maximum(p1, 0.0), g11, s2, sc_bw)
            rate1_old = rate_single(np.maximum(p1i, 0.0), g11, s2, sc_bw)
            moved = np.abs(p1 - p1i) > POWER_ATOL
            valid &= ~moved | (n1 >= 2)
            w1_new = np.where(
                n1 >= 2,
                waterline_rate_shift(w1, rate1_old - rate1,
                                     np.maximum(n1 - 1, 1), sc_bw),
                w1)
            valid &= np.where(moved, w1_new >= rest_floor, True)
            dp = (n1 - 1) * (w1_new - w1) + (p1 - p1i) + dp
    return np.where(valid, dp, np.inf), p1, p2, rate2, w1_new, w2_new


def _solo(steps):
    """Run a generator of price requests to its end, pricing each request
    alone as it comes (price_rows); returns what the generator returns."""
    try:
        request = next(steps)
        while True:
            request = steps.send(price_rows(*request))
    except StopIteration as stop:
        return stop.value


def _price_together(requests) -> list:
    """The answer to each of several requests with one (mode, geometry,
    sigma2, bandwidth): (price_rows' outputs, None), or (None, the exception
    pricing it raised). Several requests price in one call on their joined
    rows; where that call raises, each is priced alone, so an exception
    reaches only the requests whose rows raise it."""
    if len(requests) > 1:
        mode, same_rrh, _, s2, sc_bw = requests[0]
        parts = [r[2] for r in requests]
        gains = tuple(map(np.concatenate, zip(*(p[0] for p in parts))))
        joined = (gains, *(None if col[0] is None else np.concatenate(col)
                           for col in zip(*(p[1:] for p in parts))))
        try:
            outputs = price_rows(mode, same_rrh, joined, s2, sc_bw)
        except Exception:       # priced again one by one below
            outputs = None
        if outputs is not None:
            cuts = np.cumsum([0] + [p[1].size for p in parts]).tolist()
            return [(tuple(a[lo:hi] for a in outputs), None)
                    for lo, hi in zip(cuts, cuts[1:])]
    answers = []
    for request in requests:
        try:
            answers.append((price_rows(*request), None))
        except Exception as exc:    # this request's own exception
            answers.append((None, exc))
    return answers


# -- freezing an accepted pair ------------------------------------------------

def _freeze_pair(state: AllocationState, pair: Pair, w1_new, w2_new):
    """Freeze an accepted pair at its priced values.

    The incumbent k1 gives up its sole holding (n, r1) and freezes p1 at
    rate1, its remaining sole set moving to waterline w1_new; the joiner
    k2 freezes p2 at rate2 and its sole set moves to w2_new.
    Raises InfeasibleWaterline when w2_new sits below the noise floor of
    the joiner's weakest sole subcarrier.
    """
    k1, k2 = pair.k1, pair.k2
    if w2_new < state.sigma2_w / state.weakest[k2, 0]:
        raise InfeasibleWaterline(
            "joiner's waterline below a sole subcarrier's noise floor")
    state._remove_sole(k1, pair.n, pair.r1)
    state.waterline[k1] = w1_new
    state.frozen_rate[k1] += pair.rate1_bps
    state.frozen_power[k1] += pair.p1_w
    state.waterline[k2] = w2_new
    state.frozen_rate[k2] += pair.rate2_bps
    state.frozen_power[k2] += pair.p2_w
    state.pairs.append(pair)


# -- the algorithms -----------------------------------------------------------

def _result(state: AllocationState, algorithm: str) -> AllocationResult:
    """The outcome of `algorithm` on a state whose phases have all run,
    after the joint power optimization when its plan asks for one."""
    warnings, iterations, residual, solves = (), 0, math.nan, 0
    if PLANS[algorithm][2]:
        opa = optimal_pa.optimal_power_allocation(state)
        P = opa.power_w     # the waterfilled powers when not converged
        iterations, residual = opa.iterations, opa.residual_norm
        solves = opa.solves
        if not opa.converged:
            warnings = (
                f"optimal power allocation did not converge "
                f"({opa.iterations} Newton iterations, KKT residual "
                f"{opa.residual_norm:.1e}); keeping waterfilled powers",)
    else:
        P = state.power_tensor()
    per_user = P.sum(axis=(1, 2))
    S = state.num_subcarriers
    # subcarriers shared by two floating users (uc benchmark) count as
    # mutually multiplexed alongside the cross-RRH pairs
    sing = sum(p.r1 == p.r2 for p in state.pairs)
    mut = len(state.pairs) - sing + int((state.holders() == 2).sum())
    return AllocationResult(
        algorithm=algorithm,
        total_power_w=float(per_user.sum()),
        per_user_power_w=per_user,
        power_w=P,
        nonmux_sc=S - mut - sing,
        mutsic_sc=mut,
        singsic_sc=sing,
        state=state,
        warnings=warnings,
        opa_iterations=iterations,
        opa_residual=residual,
        opa_solves=solves,
    )


def run_algorithms(channel: ChannelTensor, algorithms,
                   rho_w: float = 1e-3) -> dict:
    """Run several algorithms on one channel realization, sharing phases:
    run_lockstep on this one channel, which calls run_algorithm for each
    algorithm in turn, so each distinct phase prefix runs once (see the
    module docstring) and this thread's entry is left on `channel`.

    Returns {algorithm: AllocationResult, or the exception its run raised}
    in the order of `algorithms`. A shared phase that raised is not
    stored, so it runs again for each algorithm below it, and each of them
    gets the exception it raised itself.
    """
    return {alg: res for _, alg, res in
            run_lockstep([channel], algorithms, rho_w)}


def _plan_steps(algorithm: str):
    """(central, [(phase function, *arguments), ...]) of the algorithm's
    plan, each phase looked up by name now."""
    central, phases, _ = PLANS[algorithm]
    return central, [(globals()[name], *args) for name, *args in
                     (("worst_best_h",), ("oma_phase",)) + phases]


def _plan(kept: dict, channel: ChannelTensor, config: AlgorithmConfig):
    """config's run on channel, as a generator of the price requests of its
    pairing phases that returns its AllocationResult.

    `kept` is a phase store, {phase path: state}, a phase path being the
    antenna set, then each phase as its function and arguments. The run
    goes on from a fork of the deepest stored state of its plan and stores
    a fork after each phase it runs. A pairing phase found under its own
    name runs as its generator (_STEPS); any other phase, or one replaced
    by name, runs as called.
    """
    central, steps = _plan_steps(config.algorithm)
    done = len(steps)
    while done and (central, *steps[:done]) not in kept:
        done -= 1
    path = (central, *steps[:done])
    state = kept[path].fork() if done \
        else AllocationState(channel, central, config.rho_w)
    for fn, *args in steps[done:]:
        stepped = _STEPS.get(fn)
        if stepped is None:
            fn(state, *args)
        else:
            yield from stepped(state, *args)
        path += ((fn, *args),)
        kept[path] = state.fork()
    return _result(state, config.algorithm)


# this thread's last channel and rho_w: (channel, rho_w, {phase path:
# state}) for run_algorithm
_last = threading.local()


def run_algorithm(channel: ChannelTensor,
                  config: AlgorithmConfig) -> AllocationResult:
    """Run one complete allocation algorithm on a channel realization;
    raises what its run raised.

    Called again on the same channel object with the same rho_w, it goes
    on from the deepest phase state an earlier call of this thread left
    (see the module docstring). Each price request is priced alone.
    """
    entry = getattr(_last, "entry", None)
    if entry is None or entry[0] is not channel or entry[1] != config.rho_w:
        entry = _last.entry = (channel, config.rho_w, {})
    return _solo(_plan(entry[2], channel, config))


# a tick joins price requests of this many rows in all at most: past it a
# call's cost is mostly per row, so joining more saves little and holds
# more rows' temporaries at once
JOIN_ROWS = 1024


def run_lockstep(channels, algorithms, rho_w: float = 1e-3):
    """Run several algorithms on many channel realizations, in step.

    Each drop runs `algorithms` in order on a phase store of its own, as
    run_algorithms does on one channel (_plan), so each distinct phase
    prefix runs once per drop; a stored state leaves its store once no
    algorithm left to run reads it. The drops advance in ticks: each runs
    on until its next price request, and a tick prices the request of the
    drop furthest behind (the lowest algorithm index, the first on ties)
    together with the other waiting requests of the same mode and geometry
    (and sigma2 and bandwidth) while their rows fit in JOIN_ROWS, in one
    price_rows call (_price_together). Drops ahead wait, so the drops stay
    in step and their requests meet.

    A lone drop has no requests to join: it runs as one run_algorithm call
    per algorithm, looked up by name, so a replaced run_algorithm sees
    each call. A phase replaced by name runs as called and prices its
    drop's requests alone.

    Yields (index into `channels`, algorithm, AllocationResult or the
    exception its run raised) as each run completes. A drop's outcomes
    come in the order of `algorithms` and equal its lone run's bit for
    bit: a row prices to the same bits in any batch.
    """
    algorithms = tuple(algorithms)
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"repeated algorithm in {algorithms}")
    configs = [AlgorithmConfig(alg, rho_w) for alg in algorithms]
    if len(channels) == 1:
        for config in configs:
            try:
                outcome = run_algorithm(channels[0], config)
            except Exception as exc:    # the outcome of this algorithm alone
                outcome = exc
            yield 0, config.algorithm, outcome
        return
    if not algorithms:
        return
    # the phase paths each plan reads, and those still read once the
    # algorithm at each index has run
    reads = []
    for alg in algorithms:
        central, steps = _plan_steps(alg)
        reads.append({(central, *steps[:d])
                      for d in range(1, len(steps) + 1)})
    still_read = [set().union(*reads[j + 1:]) for j in range(len(reads))]
    stores = [{} for _ in channels]
    runs = [_plan(kept, channel, configs[0])
            for kept, channel in zip(stores, channels)]
    at = [0] * len(runs)        # the index of each drop's running algorithm
    done = []                   # the runs completed since the last yield

    def advance(i, reply, error):
        """Run drop i on, sending `reply` into (or raising `error` in) the
        run that waits; adds each of its runs that completes to `done` and
        returns its next price request, None once its algorithms have all
        run."""
        while True:
            try:
                if error is not None:
                    return runs[i].throw(error)
                return runs[i].send(reply)
            except StopIteration as stop:
                outcome = stop.value
            except Exception as exc:    # the outcome of this run alone
                outcome = exc
            j = at[i]
            done.append((i, algorithms[j], outcome))
            kept = stores[i]
            for path in [p for p in kept if p not in still_read[j]]:
                del kept[path]
            at[i] = j = j + 1
            if j == len(configs):
                return None
            runs[i] = _plan(kept, channels[i], configs[j])
            reply = error = None

    pending = {}
    answers = [(i, None, None) for i in range(len(runs))]
    while True:
        for i, reply, error in answers:
            request = advance(i, reply, error)
            if request is not None:
                pending[i] = request
        yield from done
        done.clear()
        if not pending:
            return
        # the drop furthest behind, and the drops that wait on the same
        # kind of pricing, while their rows fit in JOIN_ROWS
        first = min(pending, key=at.__getitem__)
        kind = pending[first]
        drops, rows = [first], kind[2][1].size
        for i, r in pending.items():
            size = r[2][1].size
            if i != first and r[0] == kind[0] and r[1] == kind[1] \
                    and r[3:] == kind[3:] and rows + size <= JOIN_ROWS:
                drops.append(i)
                rows += size
        priced = _price_together([pending.pop(i) for i in drops])
        answers = [(i, *a) for i, a in zip(drops, priced)]
