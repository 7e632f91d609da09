"""Cross-RRH pairing math: feasibility, windows, deltas, joint optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomadas import (ALGORITHMS, Scenario, dpa_adjust, mutual_sic_feasible,
                     power_window, rate_condition_terms, rate_second,
                     rate_single, run_algorithms)
from nomadas import allocators, mutual_sic
from nomadas.mutual_sic import _dp1, _dp2, opad_cases
from nomadas.waterfill import POWER_ATOL, waterline_add

from conftest import drops
from oracles import (SIGMA2_REF, bisection_waterline, edge_root_bisection,
                     edge_stationarity, opad_with_deltas, sample_pair_instance,
                     three_case_opad, total_power_at_rate)

gains_st = st.floats(min_value=1e-9, max_value=1e3)

# gains as the kernels take them: (g11, g12, g21, g22)
FEASIBLE = (1.0, 4.0, 4.0, 1.0)
INFEASIBLE = (4.0, 1.0, 2.0, 2.0)


def _one(x):
    return np.array([x], dtype=float)


# -- feasibility and the power window ------------------------------------------

def test_feasible_example():
    assert mutual_sic_feasible(FEASIBLE)


def test_infeasible_example():
    assert not mutual_sic_feasible(INFEASIBLE)


def test_single_rrh_degenerate_boundary():
    # both "RRHs" identical: cross products tie, boundary counts as feasible
    assert mutual_sic_feasible((3.0, 3.0, 0.7, 0.7))


@settings(max_examples=300, deadline=None)
@given(g11=gains_st, g12=gains_st, g21=gains_st, g22=gains_st,
       p1=st.floats(min_value=1e-6, max_value=1e3))
def test_window_nonempty_iff_feasible(g11, g12, g21, g22, p1):
    gains = (g11, g12, g21, g22)
    own, cross = g11 * g22, g21 * g12
    if abs(own - cross) <= 1e-9 * (own + cross):
        return  # float rounding owns the boundary
    lo, hi = power_window(gains, p1)
    assert (lo <= hi) == mutual_sic_feasible(gains)


def test_window_hand_values():
    assert power_window(FEASIBLE, 1.0) == pytest.approx((0.25, 4.0))


def test_window_empty_when_infeasible():
    lo, hi = power_window(INFEASIBLE, 1.0)
    assert (lo, hi) == pytest.approx((4.0, 1.0))
    assert lo > hi


def test_window_boundary_gains_degenerate():
    lo, hi = power_window((2.0, 4.0, 3.0, 6.0), 1.0)
    assert lo == pytest.approx(hi)


# -- exact decodability margins --------------------------------------------------

def test_margin_hand_values():
    xy, zt, scale = rate_condition_terms(FEASIBLE, _one(1.0), _one(1.0), 1.0)
    assert xy == pytest.approx([18.0])
    assert zt == pytest.approx([18.0])
    assert scale == pytest.approx([27.0])


def test_margins_zero_at_zero_powers():
    assert rate_condition_terms(FEASIBLE, 0.0, 0.0, 1.0) == (0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(g1=gains_st, g2=gains_st,
       p1=st.floats(min_value=1e-6, max_value=1e3),
       p2=st.floats(min_value=1e-6, max_value=1e3))
def test_margins_same_rrh_never_both_positive(g1, g2, p1, p2):
    """With one shared RRH, at most one decoding order can work."""
    xy, zt, _ = rate_condition_terms((g1, g1, g2, g2), p1, p2, 1.0)
    assert not (xy > 0.0 and zt > 0.0)
    if g1 != g2:
        assert xy * zt < 0.0 or (xy == 0.0 and zt == 0.0)


@settings(max_examples=300, deadline=None)
@given(g11=gains_st, g12=gains_st, g21=gains_st, g22=gains_st,
       p1=st.floats(min_value=1e-6, max_value=1e3),
       p2=st.floats(min_value=1e-6, max_value=1e3),
       s2=st.floats(min_value=1e-9, max_value=1.0))
def test_margins_match_sinr_comparison(g11, g12, g21, g22, p1, p2, s2):
    """Margins are the cross-multiplied SINR gaps of the two decode steps.

    Each user must see the other's signal at least as cleanly (own signal
    still unresolved, so counted as interference) as the intended receiver
    does. The stored margin is that SINR difference times its positive
    denominators, so the numerators must agree exactly. The scale bounds
    both margins, since it sums their terms' magnitudes.
    """
    xy, zt, scale = rate_condition_terms((g11, g12, g21, g22), p1, p2, s2)
    xy_hi = p2 * g12 * (p1 * g21 + s2)
    xy_lo = p2 * g22 * (p1 * g11 + s2)
    zt_hi = p1 * g21 * (p2 * g12 + s2)
    zt_lo = p1 * g11 * (p2 * g22 + s2)
    assert abs(xy - (xy_hi - xy_lo)) <= 1e-9 * (xy_hi + xy_lo)
    assert abs(zt - (zt_hi - zt_lo)) <= 1e-9 * (zt_hi + zt_lo)
    assert abs(xy) <= scale * (1.0 + 1e-12)
    assert abs(zt) <= scale * (1.0 + 1e-12)


@settings(max_examples=300, deadline=None)
@given(g11=gains_st, g12=gains_st, g21=gains_st, g22=gains_st,
       p1=st.floats(min_value=1e-6, max_value=1e3),
       p2=st.floats(min_value=1e-6, max_value=1e3))
def test_margin_signs_reduce_to_feasibility_without_noise(g11, g12, g21,
                                                          g22, p1, p2):
    """In the zero-noise limit both margins carry the feasibility sign."""
    gains = (g11, g12, g21, g22)
    xy, zt, _ = rate_condition_terms(gains, p1, p2, 0.0)
    if mutual_sic_feasible(gains):
        assert xy >= 0.0 and zt >= 0.0
    else:
        assert xy < 0.0 and zt < 0.0


# -- DPA window clipping ----------------------------------------------------------

def _dpa(p2, gains, p1, mu):
    """dpa_adjust on one-element rows; returns (p2, ok) as scalars."""
    out, ok = dpa_adjust(_one(p2), gains, _one(p1), mu)
    return float(out[0]), bool(ok[0])


def test_dpa_inside_window_passthrough():
    assert _dpa(2.0, FEASIBLE, 1.0, 0.01) == (2.0, True)


def test_dpa_inside_window_below_margin_clipped():
    # inside the window [0.25, 4] but under its margined edge 0.2525
    assert _dpa(0.251, FEASIBLE, 1.0, 0.01) == (pytest.approx(0.2525), True)


def test_dpa_clamps_high():
    assert _dpa(5.0, FEASIBLE, 1.0, 0.01) == (pytest.approx(3.96), True)


def test_dpa_clamps_low():
    assert _dpa(0.1, FEASIBLE, 1.0, 0.01) == (pytest.approx(0.2525), True)


def test_dpa_narrow_window_rejected():
    near_degenerate = (2.0, 4.0, 3.001, 6.0)
    assert not _dpa(1.0, near_degenerate, 1.0, 0.05)[1]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dpa_idempotent(data):
    g = [data.draw(gains_st, label=n) for n in ("g11", "g12", "g21", "g22")]
    gains = tuple(g)
    if not mutual_sic_feasible(gains):
        gains = (g[0], g[2], g[1], g[3])
    p1 = data.draw(st.floats(min_value=1e-6, max_value=1e3), label="p1")
    cand = data.draw(st.floats(min_value=1e-9, max_value=1e6), label="p2")
    lo, hi = power_window(gains, p1)
    if min(lo, hi) <= 1e-10:
        return  # window below the clamp's resolution floor
    once, ok = _dpa(cand, gains, p1, 0.01)
    if not ok:
        return
    assert _dpa(once, gains, p1, 0.01) == (once, True)


# -- interference-free pair rates -------------------------------------------------
#
# Under mutual SIC each user decodes and removes the other's signal, so each
# pair rate is rate_single at the user's own gain.

def test_mutual_rates_zero_powers():
    g11, _, _, g22 = FEASIBLE
    assert rate_single(0.0, g11, 1.0, 1.0) == 0.0
    assert rate_single(0.0, g22, 1.0, 1.0) == 0.0


def test_mutual_rates_hand_value():
    # gains (1, 2, 2, 1) at p1 = 3, p2 = 1: both orders decode (margins
    # 10 and 12), so r1 = log2(1 + 3) and r2 = log2(1 + 1)
    gains = (1.0, 2.0, 2.0, 1.0)
    xy, zt, _ = rate_condition_terms(gains, 3.0, 1.0, 1.0)
    assert (xy, zt) == (pytest.approx(10.0), pytest.approx(12.0))
    assert rate_single(3.0, gains[0], 1.0, 1.0) == pytest.approx(2.0)
    assert rate_single(1.0, gains[3], 1.0, 1.0) == pytest.approx(1.0)


def test_mutual_rates_beat_interference_limited():
    g11, _, _, g22 = FEASIBLE
    r1 = rate_single(2.0, g11, 1.0, 1.0)
    r2 = rate_single(3.0, g22, 1.0, 1.0)
    assert r2 > rate_second(3.0, 2.0, g22, 1.0, 1.0)
    assert r1 > rate_second(2.0, 3.0, g11, 1.0, 1.0)


# -- per-user deltas of a frozen pair ---------------------------------------------

def test_sopa_deltas_unchanged_first_user():
    assert _dp1(_one(0.5), 1.0, 1.0, 4.0, _one(0.5), 3) == pytest.approx(0.0)


def test_sopa_deltas_zero_second_power():
    assert _dp2(_one(0.0), 1.0, 1.0, 3.0, 2) == pytest.approx(0.0)


def test_sopa_deltas_need_remaining_sole_set():
    """No case is solved without a spare incumbent sole subcarrier (n1 >= 2)
    or a joiner sole set (n2 >= 1)."""
    gains = tuple(_one(g) for g in FEASIBLE)
    for n1, n2 in ((1, 2), (3, 0)):
        case = opad_cases(gains, 1.0, _one(4.0), _one(3.0), _one(0.5),
                          _one(n1), _one(n2), 0.01)[2]
        assert case.tolist() == [0]
    assert opad_cases(gains, 1.0, _one(4.0), _one(3.0), _one(0.5), _one(3),
                      _one(2), 0.01)[2].tolist() != [0]


def test_sopa_deltas_match_recomputation():
    """Both closed-form deltas equal bisection-waterfilled recomputation."""
    rng = np.random.default_rng(19)
    sc_bw, s2 = 156250.0, SIGMA2_REF
    for _ in range(60):
        inst = sample_pair_instance(rng)
        gains, n1, n2 = inst["gains"], inst["n1"], inst["n2"]
        w1, w2, p1i = inst["w1"], inst["w2"], inst["p1i"]
        p1 = p1i * rng.uniform(0.5, 2.0)
        lo, hi = power_window(tuple(gains), p1)
        p2 = rng.uniform(lo, hi)

        rate1_old = sc_bw * math.log2(1.0 + p1i * gains.g11 / s2)
        rate1_new = sc_bw * math.log2(1.0 + p1 * gains.g11 / s2)
        rate2 = sc_bw * math.log2(1.0 + p2 * gains.g22 / s2)
        w1_new = w1 * 2.0 ** ((rate1_old - rate1_new) / (sc_bw * (n1 - 1)))
        w2_new = w2 * 2.0 ** (-rate2 / (sc_bw * n2))

        # sole sets chosen so every subcarrier stays active both before and
        # after the adjustment, which is the closed forms' premise and what
        # the allocator's floor checks guarantee in live runs
        g1rest = max(gains.g11, s2 / w1_new) \
            * 10.0 ** rng.uniform(0.05, 2.0, n1 - 1)
        g2set = (s2 / w2_new) * 10.0 ** rng.uniform(0.05, 2.0, n2)

        dp1 = float(_dp1(_one(p1), gains.g11, s2, w1, _one(p1i), n1)[0])
        dp2 = float(_dp2(_one(p2), gains.g22, s2, w2, n2)[0])

        g1all = np.append(g1rest, gains.g11)
        r1_total = float(np.sum(sc_bw * np.log2(w1 * g1all / s2)))
        before1 = total_power_at_rate(g1all, r1_total, s2, sc_bw)
        after1 = total_power_at_rate(g1rest, r1_total - rate1_new, s2,
                                     sc_bw) + p1
        assert abs(dp1 - (after1 - before1)) <= 1e-9 * (before1 + after1)

        r2_total = float(np.sum(sc_bw * np.log2(w2 * g2set / s2)))
        before2 = total_power_at_rate(g2set, r2_total, s2, sc_bw)
        after2 = total_power_at_rate(g2set, r2_total - rate2, s2,
                                     sc_bw) + p2
        assert abs(dp2 - (after2 - before2)) <= 1e-9 * (before2 + after2)


# -- joint per-pair optimization ---------------------------------------------------

def _cases_args(insts):
    """opad_cases arguments for a batch of sampled pair instances."""
    def col(key):
        return np.array([inst[key] for inst in insts])
    gains = tuple(np.array([getattr(inst["gains"], f) for inst in insts])
                  for f in ("g11", "g12", "g21", "g22"))
    return (gains, insts[0]["sigma2_w"], col("w1"), col("w2"), col("p1i"),
            col("n1"), col("n2"), insts[0]["mu"])


def _row_args(rows, sigma2_w=1.0, mu=0.01):
    """opad_cases arguments for rows given as (gains, w1, w2, n1, n2), with
    the incumbent's p1i = w1 - sigma2 / g11."""
    gains = tuple(np.array(g) for g in zip(*(r[0] for r in rows)))
    w1, w2, n1, n2 = (np.array([r[i] for r in rows], dtype=float)
                      for i in range(1, 5))
    return (gains, sigma2_w, w1, w2, w1 - sigma2_w / gains[0], n1, n2, mu)


def _opad(inst):
    """opad_cases on one instance's one-element row, as scalars, with the
    total of its deltas."""
    p1, p2, dp1, dp2, case = opad_with_deltas(*_cases_args([inst]))
    return float(p1[0]), float(p2[0]), float(dp1[0] + dp2[0]), int(case[0])


def test_empty_margined_window_pins_todays_opad_and_dpa():
    """ROADMAP item 6: a row whose unmargined window is open but whose
    mu-margined window is empty, (1+mu) g11/g12 > (1-mu) g21/g22.

    Pins today's behaviour, not a decision: dpa_adjust rejects the row,
    while opad_cases still returns an edge solution, on the lower margined
    edge (case 2) for one incumbent and on the upper (case 3) for another,
    each p2 inside the unmargined window but outside the margined one.
    Whether mu should bind OPAd as it binds DPA is item 6's open question;
    settling it changes this test on purpose.
    """
    mu, s2 = 0.01, SIGMA2_REF
    g11, g12, g21, g22 = 1e-8, 1e-8, 1.015e-9, 1e-9
    c_lo, c_hi = (1.0 + mu) * g11 / g12, (1.0 - mu) * g21 / g22
    assert mutual_sic_feasible((g11, g12, g21, g22)) and c_lo > c_hi
    w1 = s2 / g11 * np.array([3.0, 30.0])
    w2 = s2 / g22 * 3.0
    p1i = w1 - s2 / g11
    gains = tuple(np.full(2, g) for g in (g11, g12, g21, g22))
    p2_wf = waterline_add(w2, 3, g22, s2) - s2 / g22
    assert not dpa_adjust(np.full(2, p2_wf), gains, p1i, mu)[1].any()
    p1, p2, case = opad_cases(gains, s2, w1, w2, p1i, 4, 3, mu)
    assert case.tolist() == [2, 3]
    assert p2 / p1 == pytest.approx([c_lo, c_hi], rel=1e-12)
    assert ((g11 / g12 < p2 / p1) & (p2 / p1 < g21 / g22)).all()


def test_opad_cases_rows_are_independent():
    """opad_cases on stacked rows equals opad_cases on each row alone,
    bitwise. The pairing phases' price table relies on it: one call prices
    the rows of many joiners, each with its own w2 and n2, where a one-row
    call passes the joiner's w2 and n2 as scalars. n2 = 1 is covered, where
    numpy's ** takes a shortcut for a scalar exponent."""
    rng = np.random.default_rng(47)
    insts = [sample_pair_instance(rng, require_window=i % 4 != 0)
             for i in range(300)]
    gains, s2, w1, w2, p1i, n1, _, mu = _cases_args(insts)
    n2 = np.arange(len(insts)) % 3 + 1
    stacked = opad_with_deltas(gains, s2, w1, w2, p1i, n1, n2, mu)
    for i in range(len(insts)):
        one = slice(i, i + 1)
        alone = opad_with_deltas(tuple(g[one] for g in gains), s2, w1[one],
                                 w2[i], p1i[one], n1[one], n2[i], mu)
        for col, want in zip(stacked, alone):
            assert col[i] == want[0], i
    assert {1, 2, 3} <= set(stacked[4].tolist())


def _same_bits(got, want):
    """Equal dtype, shape and bits, NaN matching NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(got)
    return got.dtype == want.dtype and got.shape == want.shape \
        and np.array_equal(nan, np.isnan(want)) \
        and got[~nan].tobytes() == want[~nan].tobytes()


def _tied_window_instance(rng):
    """A sampled instance whose margined window is one ray: (1+mu) g11/g12
    equals (1-mu) g21/g22 in floating point, g21 nudged until it does."""
    while True:
        inst = sample_pair_instance(rng)
        g, mu = inst["gains"], inst["mu"]
        g21 = (1.0 + mu) * g.g11 / g.g12 * g.g22 / (1.0 - mu)
        for _ in range(8):
            if (1.0 + mu) * g.g11 / g.g12 == (1.0 - mu) * g21 / g.g22:
                return dict(inst, gains=type(g)(g.g11, g.g12, g21, g.g22))
            g21 = np.nextafter(g21, np.inf)


def _side(inst):
    """Where case 1's p2 lies against the power window: below, in, above."""
    g, s2 = inst["gains"], inst["sigma2_w"]
    lo, hi = power_window(tuple(g), inst["p1i"])
    p2_1 = waterline_add(inst["w2"], inst["n2"], g.g22, s2) - s2 / g.g22
    return "below" if p2_1 < lo - POWER_ATOL else \
        "above" if p2_1 > hi + POWER_ATOL else "in"


def _oracle_rows():
    """opad_cases rows of every kind; returns them, their kinds and sides.

    A row's kind is its _side, or "empty" for an empty margined window
    (sampled ones, the two of
    test_empty_margined_window_pins_todays_opad_and_dpa, one where the
    window is a single ray and 40 whose margined edges are crossed but
    stay inside the window), or one of three inadmissible kinds: "n1" (no
    spare incumbent subcarrier), "w2" (the joiner's waterline under the
    noise floor) and "p1i" (no incumbent power).
    """
    rng = np.random.default_rng(61)
    s2, mu = SIGMA2_REF, 0.01
    insts = [sample_pair_instance(rng, require_window=i % 2 == 0)
             for i in range(400)]
    g = type(insts[0]["gains"])(1e-8, 1e-8, 1.015e-9, 1e-9)
    for scale in (3.0, 30.0):
        w1 = s2 / g.g11 * scale
        insts.append(dict(gains=g, sigma2_w=s2, w1=w1, w2=s2 / g.g22 * 3.0,
                          p1i=w1 - s2 / g.g11, n1=4, n2=3, mu=mu))
    insts.append(_tied_window_instance(rng))
    for _ in range(40):
        # both margined edge rays inside the window, in the wrong order
        inst = sample_pair_instance(rng)
        g = inst["gains"]
        ratio = rng.uniform(1.0 / (1.0 - mu), (1.0 + mu) / (1.0 - mu))
        insts.append(dict(inst, gains=type(g)(
            g.g11, g.g12, g.g22 * g.g11 / g.g12 * ratio, g.g22)))
    kinds = [_side(inst) for inst in insts]
    for i, inst in enumerate(insts):
        g = inst["gains"]
        if (1.0 + mu) * g.g11 / g.g12 >= (1.0 - mu) * g.g21 / g.g22:
            kinds[i] = "empty"
    for kind in ("n1", "w2", "p1i"):
        for _ in range(5):
            inst = dict(sample_pair_instance(rng))
            if kind == "n1":
                inst["n1"] = 1
            elif kind == "w2":
                inst["w2"] = 0.5 * s2 / inst["gains"].g22
            else:
                inst["p1i"] = 0.0
            insts.append(inst)
            kinds.append(kind)
    return insts, np.array(kinds), np.array([_side(i) for i in insts])


def test_opad_cases_matches_three_case_oracle():
    """opad_cases prices case 1 and one edge per row (both edges where the
    margined window is empty); oracles.three_case_opad prices all three
    cases on every row. The powers, the case and the winning case's deltas
    (recomputed from the powers, opad_with_deltas) agree bit for bit, on
    one batch of every kind of row, on the empty windows alone, and on
    every row called alone, as MutSIC-SOPAd's one-row refine calls it or
    with scalars; the batch as a 2-d array gives the same bits."""
    insts, kinds, sides = _oracle_rows()
    got = opad_with_deltas(*_cases_args(insts))
    for col, ref in zip(got, three_case_opad(*_cases_args(insts))):
        assert _same_bits(col, ref)
    case = got[4]
    for kind, cases in (("in", {1}), ("below", {2}), ("above", {3}),
                        ("empty", {2, 3}), ("n1", {0}), ("w2", {0}),
                        ("p1i", {0})):
        assert cases <= set(case[kinds == kind].tolist()), kind
    # in an empty margined window the edge p2_1 lies beyond can lose
    empty = kinds == "empty"
    assert (empty & (sides == "below") & (case == 3)).any()
    assert (empty & (sides == "above") & (case == 2)).any()

    alone = [insts[i] for i in np.flatnonzero(empty)]
    for col, ref in zip(opad_with_deltas(*_cases_args(alone)),
                        three_case_opad(*_cases_args(alone))):
        assert _same_bits(col, ref)
    # the batch as a 2-d array
    gains, s2, w1, w2, p1i, n1, n2, mu = _cases_args(insts)
    two_d = (tuple(g.reshape(2, -1) for g in gains), s2,
             *(a.reshape(2, -1) for a in (w1, w2, p1i, n1, n2)), mu)
    for col, ref in zip(opad_with_deltas(*two_d), got):
        assert _same_bits(col, ref.reshape(2, -1))
    for i, inst in enumerate(insts):
        gains, s2, w1, w2, p1i, n1, n2, mu = _cases_args([inst])
        if i % 2:   # one row, with the joiner's w2 and n2 as scalars
            args = (gains, s2, w1, w2[0], p1i, n1, n2[0], mu)
        else:       # every argument a scalar
            args = (tuple(g[0] for g in gains), s2, w1[0], w2[0], p1i[0],
                    n1[0], n2[0], mu)
        for col, ref in zip(opad_with_deltas(*args), three_case_opad(*args)):
            assert _same_bits(col, ref)


def test_opad_cases_weighs_deltas_only_where_two_cases_compete(monkeypatch):
    """A row weighs two cases only where case 1 is feasible or its margined
    window is empty; every other row has one candidate, its edge. So a
    call with neither kind of row computes no _dp1/_dp2, and one such row
    makes the call compute them. Both kinds of call equal the three-case
    oracle bit for bit. So do two constructed rows whose edge total the
    deltas make non-finite: one with an infinite edge root, one whose
    p2 = c * p1 overflows. They get case 0 without a delta."""
    calls = {"dp": 0}
    for name in ("_dp1", "_dp2"):
        def counted(*args, real=getattr(mutual_sic, name)):
            calls["dp"] += 1
            return real(*args)
        monkeypatch.setattr(mutual_sic, name, counted)

    def check(args, weighs):
        before = calls["dp"]
        got = opad_with_deltas(*args)
        assert (calls["dp"] > before) == weighs
        for col, ref in zip(got, three_case_opad(*args)):
            assert _same_bits(col, ref)
        return got[4]

    insts, kinds, _ = _oracle_rows()
    single = [inst for inst, kind in zip(insts, kinds)
              if kind in ("below", "above")]
    assert set(check(_cases_args(single), False).tolist()) == {2, 3}
    for kind in ("in", "empty"):
        mixed = single + [insts[int(np.flatnonzero(kinds == kind)[0])]]
        check(_cases_args(mixed), True)

    s2, mu = 1.0, 0.01
    rows = [((1e188, 1e162, 1e293, 1e-12), 1e261, 1e300, 2, 1),
            ((1e-83, 1e-244, 1e75, 1e-190), 1e242, 1e211, 2, 2)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for g, w1, w2, n1, n2 in rows:
            # no edge has finite powers: an infinite root is not ok, and a
            # finite one overflows p2 = c * p1
            p1i = w1 - s2 / g[0]
            c = np.array([(1.0 + mu) * g[0] / g[1], (1.0 - mu) * g[2] / g[3]])
            p1, ok = mutual_sic._edge_case_roots(c, g[0], g[3], s2, w2, p1i,
                                                 n1, n2, True)
            assert np.array_equal(ok, np.isfinite(p1))
            assert not np.isfinite(c * p1).any()
        assert check(_row_args(rows, s2, mu), False).tolist() == [0, 0]


def test_edge_roots_ok_means_a_finite_positive_root():
    """ok marks a bracketed root that is positive and finite. Both edge
    roots of the recorded extreme row g = (1e188, 1e162, 1e293, 1e-12),
    w1 = p1i = 1e261, w2 = 1e300, n1 = 2, n2 = 1, sigma2 = 1 come out
    infinite, so neither is ok; the sampled edge rows beside them all are."""
    rng = np.random.default_rng(61)
    c, g11, _, _, g22, _, w2, p1i, n1, n2 = _edge_rows(rng, 40, False)
    p1, ok = mutual_sic._edge_case_roots(c, g11, g22, SIGMA2_REF, w2, p1i,
                                         n1, n2, True)
    assert ok.all() and (p1 > 0.0).all() and np.isfinite(p1).all()

    g, mu = (1e188, 1e162, 1e293, 1e-12), 0.01
    c = np.array([(1.0 + mu) * g[0] / g[1], (1.0 - mu) * g[2] / g[3]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p1, ok = mutual_sic._edge_case_roots(c, g[0], g[3], 1.0, 1e300,
                                             1e261, 2, 1, True)
    assert np.isinf(p1).all()
    assert not ok.any()


def _edge_ratio(inst, case):
    """p2 / p1 on the margined window edge of case 2 (lower) or 3 (upper)."""
    g, mu = inst["gains"], inst["mu"]
    if case == 2:
        return (1.0 + mu) * g.g11 / g.g12
    return (1.0 - mu) * g.g21 / g.g22


def _edge_residual(inst, p1, case):
    """Edge-case stationarity at p1; zero at the case's optimum."""
    g = inst["gains"]
    return float(edge_stationarity(
        p1, _edge_ratio(inst, case), g.g11, g.g22, inst["sigma2_w"],
        inst["w2"], inst["p1i"], inst["n1"], inst["n2"]))


def _dpa_reference(inst):
    """The clipped-waterfill operating point and its joint delta.

    Returns None where the margined window cannot hold p2.
    """
    gains, s2 = inst["gains"], inst["sigma2_w"]
    w_add = waterline_add(inst["w2"], inst["n2"], gains.g22, s2)
    p2, ok = _dpa(w_add - s2 / gains.g22, tuple(gains), inst["p1i"],
                  inst["mu"])
    if not ok:
        return None
    dp1 = _dp1(_one(inst["p1i"]), gains.g11, s2, inst["w1"],
               _one(inst["p1i"]), inst["n1"])
    dp2 = _dp2(_one(p2), gains.g22, s2, inst["w2"], inst["n2"])
    return p2, float(dp1[0] + dp2[0])


def test_opad_case1_when_window_inactive():
    """With a wide-open window the optimum keeps p1 and waterfills p2."""
    rng = np.random.default_rng(23)
    seen = 0
    for _ in range(500):
        if seen >= 20:
            break
        inst = sample_pair_instance(rng)
        gains, s2 = inst["gains"], inst["sigma2_w"]
        w_add = waterline_add(inst["w2"], inst["n2"], gains.g22, s2)
        p2_wf = w_add - s2 / gains.g22
        lo, hi = power_window(tuple(gains), inst["p1i"])
        if not lo < p2_wf < hi:
            continue
        p1, p2, _, case = _opad(inst)
        assert case == 1
        assert p1 == pytest.approx(inst["p1i"])
        assert p2 == pytest.approx(p2_wf, rel=1e-9)
        seen += 1
    assert seen >= 20


def test_opad_edge_solutions_are_stationary():
    """Window-edge optima satisfy their stationarity equation to 1e-8."""
    rng = np.random.default_rng(29)
    seen = 0
    for _ in range(2000):
        inst = sample_pair_instance(rng)
        p1, _, _, case = _opad(inst)
        if case in (0, 1):
            continue
        assert abs(_edge_residual(inst, p1, case)) < 1e-8
        seen += 1
        if seen >= 50:
            break
    assert seen >= 20


def test_opad_never_worse_than_dpa():
    """The joint optimum beats the clipped-waterfill point (sample)."""
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(1000):
        if checked >= 200:
            break
        inst = sample_pair_instance(rng)
        ref = _dpa_reference(inst)
        if ref is None:
            continue
        p2_dpa, dp_dpa = ref
        _, _, dp_total, case = _opad(inst)
        assert case > 0
        tol = 1e-9 * (abs(dp_dpa) + inst["p1i"] + p2_dpa)
        assert dp_total <= dp_dpa + tol
        checked += 1
    assert checked >= 200


def test_opad_scaling_invariance():
    """Scaling gains up and powers down by one factor scales the solution."""
    rng = np.random.default_rng(37)
    c = 1e6
    for _ in range(20):
        inst = sample_pair_instance(rng)
        g = inst["gains"]
        scaled = dict(inst, gains=type(g)(*(c * x for x in tuple(g))))
        for key in ("w1", "w2", "p1i"):
            scaled[key] = inst[key] / c
        base = _opad(inst)
        got = _opad(scaled)
        assert got[3] == base[3]
        assert got[0] == pytest.approx(base[0] / c, rel=1e-7)
        assert got[1] == pytest.approx(base[1] / c, rel=1e-7)
        assert got[2] == pytest.approx(base[2] / c, rel=1e-6)


# -- the vectorized window-case kernel -----------------------------------------------

@pytest.fixture(scope="module")
def case_batch():
    rng = np.random.default_rng(41)
    # every fourth instance may have an empty margined window
    insts = [sample_pair_instance(rng, require_window=bool(i % 4))
             for i in range(300)]
    return insts, opad_with_deltas(*_cases_args(insts))


def test_opad_cases_rows_independent_of_batch(case_batch):
    """Each row of a batched call equals the same row called alone. So do
    three found rows whose edge powers are finite but whose deltas
    overflow: alone, in a call that weighs no delta, and beside a row that
    weighs two cases (an empty margined window), they take their edge."""
    insts, out = case_batch
    for j, inst in enumerate(insts):
        alone = opad_with_deltas(*_cases_args([inst]))
        for batched, single in zip(out, alone):
            assert np.array_equal(batched[j:j + 1], single)

    overflowing = [((1.85e-132, 1.37e-187, 1.31e205, 3.61e-25), 4.72e280,
                    7.65e267, 2, 1),
                   ((3.41e12, 7.73e-156, 8.15e255, 3.01e-148), 1.89e252,
                    4.0e209, 3, 4),
                   ((1.31e-7, 2.06e-167, 4.61e121, 4.27e-131), 1.07e268,
                    2.44e131, 4, 4)]
    weighing = ((1e-9, 1e-9, 1e-9, 1e-9), 1e-2, 5e-2, 3, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for row in overflowing:
            gains, s2, w1, w2, p1i, n1, n2, _ = _row_args([row])
            p1, p2, case = opad_cases(*_row_args([row]))
            assert case.tolist() == [2]
            assert np.isfinite([p1, p2]).all()
            assert not np.isfinite(_dp1(p1, gains[0], s2, w1, p1i, n1)
                                   + _dp2(p2, gains[3], s2, w2, n2)).all()
            beside = opad_cases(*_row_args([row, weighing]))
            for single, batched in zip((p1, p2, case), beside):
                assert np.array_equal(batched[:1], single)


def test_opad_cases_matches_scalar_optimizer(case_batch):
    """Case and edge roots agree with a per-row scalar optimizer.

    The optimizer is built from the bisection oracle: every edge-case p1
    equals oracles.edge_root_bisection at the same ratio c to 1e-12
    relative, and the chosen case is the argmin of dp1 + dp2 over the case-1 point (p1i and the waterfilled p2, where it
    lies in the window) and the two oracle roots (where the margined edge
    ray stays inside the window).
    """
    insts, (p1, p2, dp1, dp2, case) = case_batch
    for j, inst in enumerate(insts):
        g, s2 = inst["gains"], inst["sigma2_w"]
        w1, w2, p1i = inst["w1"], inst["w2"], inst["p1i"]
        n1, n2 = inst["n1"], inst["n2"]
        lo, hi = power_window(tuple(g), p1i)
        p2_wf = waterline_add(w2, n2, g.g22, s2) - s2 / g.g22
        points = {}
        if lo - POWER_ATOL <= p2_wf <= hi + POWER_ATOL:
            points[1] = (p1i, p2_wf)
        ray_ok = {
            2: _edge_ratio(inst, 2) <= g.g21 / g.g22 * (1.0 + POWER_ATOL),
            3: _edge_ratio(inst, 3) >= g.g11 / g.g12 * (1.0 - POWER_ATOL)}
        for k in (2, 3):
            if ray_ok[k]:
                c = _edge_ratio(inst, k)
                root = edge_root_bisection(c, g.g11, g.g22, s2, w2, p1i, n1,
                                           n2)
                points[k] = (root, c * root)
        totals = {k: float(_dp1(_one(a), g.g11, s2, w1, _one(p1i), n1)[0]
                           + _dp2(_one(b), g.g22, s2, w2, n2)[0])
                  for k, (a, b) in points.items()}
        want = min(totals, key=totals.get) if totals else 0
        assert case[j] == want
        if want >= 2:
            assert p1[j] == pytest.approx(points[want][0], rel=1e-12, abs=0.0)
    assert {1, 2, 3} <= set(case.tolist())


def test_opad_cases_edge_powers_are_stationary(case_batch):
    insts, (p1, p2, dp1, dp2, case) = case_batch
    edges = np.flatnonzero(case >= 2)
    assert edges.size >= 50
    for j in edges:
        assert abs(_edge_residual(insts[j], p1[j], int(case[j]))) < 1e-8


def _count_phi(monkeypatch):
    """Count, from now on, the _edge_case_roots calls and the _phi
    evaluations, all and those on phi alone, without the slope (the
    fallback bracket's); returns the live counts."""
    calls = {"roots": 0, "phi": 0, "bracket": 0}
    roots, phi = mutual_sic._edge_case_roots, mutual_sic._phi

    def counted_roots(*args):
        calls["roots"] += 1
        return roots(*args)

    def counted_phi(p1, terms, slope=True):
        calls["phi"] += 1
        calls["bracket"] += not slope
        return phi(p1, terms, slope)

    monkeypatch.setattr(mutual_sic, "_edge_case_roots", counted_roots)
    monkeypatch.setattr(mutual_sic, "_phi", counted_phi)
    return calls


def _ray_miss(rng):
    """A sampled instance whose margined edge rays both leave the window."""
    while True:
        inst = sample_pair_instance(rng, require_window=False)
        g = inst["gains"]
        if _edge_ratio(inst, 2) > g.g21 / g.g22 * (1.0 + POWER_ATOL) \
                and _edge_ratio(inst, 3) < g.g11 / g.g12 * (1.0 - POWER_ATOL):
            return inst


def test_opad_cases_inadmissible_rows_cost_nothing(monkeypatch):
    """Rows without an edge problem change no output and add no root work.

    Of the mixed-in rows, a third lose the incumbent's last spare sole
    subcarrier (n1 = 1) and a third put the joiner's waterline under the
    candidate's noise floor (w2 * g22 <= sigma2); opad_cases masks both
    out. The last third are admissible, but both margined edge rays leave
    the power window, so neither edge case can hold. None of them may be
    bracketed or Newton-solved.
    """
    rng = np.random.default_rng(47)
    good = [sample_pair_instance(rng) for _ in range(60)]
    bad = []
    for i in range(60):
        if i % 3 == 2:
            bad.append(_ray_miss(rng))
            continue
        inst = dict(sample_pair_instance(rng))
        if i % 3:
            inst["n1"] = 1
        else:
            inst["w2"] = 0.5 * inst["sigma2_w"] / inst["gains"].g22
        bad.append(inst)
    mixed = good[:30] + bad + good[30:]
    is_good = np.array([True] * 30 + [False] * 60 + [True] * 30)

    calls = _count_phi(monkeypatch)
    alone = opad_cases(*_cases_args(good))
    calls_alone = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    out = opad_cases(*_cases_args(mixed))
    # every good row starts from a positive single-law bound
    assert calls["bracket"] == calls_alone["bracket"] == 0
    assert 0 < calls["phi"] <= calls_alone["phi"]
    assert calls["roots"] == calls_alone["roots"] == 1
    for mixed_col, alone_col in zip(out, alone):
        assert np.array_equal(mixed_col[is_good], alone_col)
    bad_case = out[2][~is_good]
    ray_miss = np.arange(60) % 3 == 2
    assert (bad_case[~ray_miss] == 0).all()
    assert (bad_case[ray_miss] <= 1).all()


def test_production_path_brackets_one_edge_per_row(monkeypatch):
    """All 11 algorithms on three paper-cell drops: every _edge_case_roots
    call opad_cases makes may bracket at most one row per candidate row
    plus one per empty margined window. Solving both edges of every row,
    as the three-case oracle does, brackets about two per row.

    Every row there starts from a positive single-law bound, so no call
    evaluates phi alone, and the Newton loop takes at most 4 passes per
    call on average (3.8; a start at p1i with a two-ended bracket took
    5.4 here, after 2 evaluations of phi alone)."""
    counts = _count_phi(monkeypatch)
    limits, bracketable = [], []
    cases, roots = allocators.opad_cases, mutual_sic._edge_case_roots

    def counted_cases(gains, s2, w1, w2, p1i, n1, n2, mu):
        g11, g12, g21, g22 = gains
        rows = np.broadcast(*gains, w1, w2, p1i, n1, n2).size
        empty = np.count_nonzero((1.0 + mu) * g11 / g12
                                 >= (1.0 - mu) * g21 / g22)
        limits.append(rows + empty)
        bracketable.append(0)
        return cases(gains, s2, w1, w2, p1i, n1, n2, mu)

    def counted_roots(c, *args):
        bracketable[-1] += np.count_nonzero(
            np.broadcast_to(args[-1], np.shape(c)))
        return roots(c, *args)

    monkeypatch.setattr(allocators, "opad_cases", counted_cases)
    monkeypatch.setattr(mutual_sic, "_edge_case_roots", counted_roots)
    for ch in drops(Scenario(), 3):
        results = run_algorithms(ch, ALGORITHMS)
        assert not any(isinstance(r, Exception) for r in results.values())
    assert len(limits) > 30 and sum(bracketable) > 1000
    assert all(b <= n for b, n in zip(bracketable, limits))
    assert counts["roots"] == len(limits)
    assert counts["bracket"] == 0
    assert counts["phi"] <= 4.0 * counts["roots"]


# -- edge roots against a scalar bisection oracle --------------------------------------

def _edge_rows(rng, count, tiny_root):
    """Edge-case root problems, one (c, instance) per row.

    c is the instance's case-2 or case-3 power ratio. With tiny_root the
    joiner's waterline is re-set so the root lands below 1e-6 * p1i, at a
    point where the joiner's term still bends (c*p1*g22/sigma2 between
    0.03 and 1), so rounding pins the root well below 1e-12 relative.
    """
    rows = []
    while len(rows) < count:
        inst = sample_pair_instance(rng)
        g, s2 = inst["gains"], inst["sigma2_w"]
        n1, n2, p1i = inst["n1"], inst["n2"], inst["p1i"]
        c = (1.0 + inst["mu"]) * g.g11 / g.g12 if rng.random() < 0.5 \
            else (1.0 - inst["mu"]) * g.g21 / g.g22
        w2 = inst["w2"]
        if tiny_root:
            root = 10.0 ** rng.uniform(-1.5, 0.0) * s2 / (c * g.g22)
            if not root < 1e-6 * p1i:
                continue
            a = (s2 + root * g.g11) / (s2 + p1i * g.g11)
            b = 1.0 + c * root * g.g22 / s2
            # the joiner waterline that zeroes the stationarity at root
            w2 = (s2 / g.g22) * (1.0 + (1.0 - a ** (-n1 / (n1 - 1.0))) / c) \
                * b ** ((n2 + 1.0) / n2)
            if not w2 * g.g22 > s2:
                continue
        rows.append((c, g.g11, g.g12, g.g21, g.g22, inst["w1"], w2, p1i,
                     n1, n2))
    return np.array(rows).T


@pytest.mark.parametrize("tiny_root", [False, True])
def test_edge_roots_match_bisection_oracle(tiny_root, monkeypatch):
    rng = np.random.default_rng(43 + tiny_root)
    c, g11, _, _, g22, _, w2, p1i, n1, n2 = _edge_rows(rng, 120, tiny_root)
    counts = _count_phi(monkeypatch)
    p1, ok = mutual_sic._edge_case_roots(c, g11, g22, SIGMA2_REF, w2, p1i,
                                         n1, n2, True)
    assert counts["roots"] == 1
    assert ok.all()
    if tiny_root:
        assert (p1 < 1e-6 * p1i).all()
    for i in range(c.size):
        want = edge_root_bisection(c[i], g11[i], g22[i], SIGMA2_REF, w2[i],
                                   p1i[i], n1[i], n2[i])
        assert p1[i] == pytest.approx(want, rel=1e-12, abs=0.0)
    # every row has a positive single-law bound, so none needs the
    # fallback bracket (phi without its slope); the Newton steps must stop
    # far below the 100-step cap
    assert counts["bracket"] == 0
    newton_steps = counts["phi"]
    assert 0 < newton_steps <= 30


def _single_law_roots(c, g11, g22, sigma2_w, w2, p1i, n1, n2):
    """The p1 at which each power law of oracles.edge_stationarity alone
    reaches 1 + c: the incumbent's a^(-n1/(n1-1)) and the joiner's
    c*w2*(g22/sigma2)*b^(-(n2+1)/n2). Either may be 0 or negative."""
    a = (1.0 + c) ** (-(n1 - 1.0) / n1)
    b = ((1.0 + c) / (c * w2 * g22 / sigma2_w)) ** (-n2 / (n2 + 1.0))
    return ((a * (sigma2_w + p1i * g11) - sigma2_w) / g11,
            (b - 1.0) * sigma2_w / (c * g22))


def test_single_law_bounds_lie_below_the_root(monkeypatch):
    """On sampled edge rows, every positive single-law root lies below the
    bisection root (phi exceeds 1 + c there by the other law's term), and
    _edge_case_roots takes its first Newton step from the larger one."""
    rng = np.random.default_rng(53)
    c, g11, _, _, g22, _, w2, p1i, n1, n2 = _edge_rows(rng, 200, False)
    bounds = np.array(_single_law_roots(c, g11, g22, SIGMA2_REF, w2, p1i,
                                        n1, n2))
    starts, phi = [], mutual_sic._phi

    def first_point(p1, terms, slope=True):
        if not starts:
            starts.append(np.array(p1, copy=True))
        return phi(p1, terms, slope)

    monkeypatch.setattr(mutual_sic, "_phi", first_point)
    mutual_sic._edge_case_roots(c, g11, g22, SIGMA2_REF, w2, p1i, n1, n2,
                                True)
    for i in range(c.size):
        root = edge_root_bisection(c[i], g11[i], g22[i], SIGMA2_REF, w2[i],
                                   p1i[i], n1[i], n2[i])
        for bound in bounds[:, i]:
            if bound > 0.0:
                assert bound < root
        assert starts[0][i] == pytest.approx(bounds[:, i].max(), rel=1e-12)
    # both laws give the larger bound on some rows
    assert len(set(np.argmax(bounds, axis=0).tolist())) == 2


def test_edge_roots_fall_back_without_a_positive_bound(monkeypatch):
    """Rows where neither single-law root is positive (the incumbent's
    p1i*g11/sigma2 under (1 + c)^((n1-1)/n1) - 1, and c*w2*g22/sigma2 under
    1 + c) take the fallback: a foot at p1i * 1e-12 shrunk on phi alone,
    and Newton from p1i. Every admissible row is bracketed, as the
    two-ended bracket from p1i * 1e-12 and p1i brackets it, its root
    matches the bisection oracle, and the rows masked out stay out of ok."""
    rng = np.random.default_rng(59)
    count, s2 = 60, SIGMA2_REF
    c = 10.0 ** rng.uniform(-2.0, 2.0, count)
    n1 = rng.integers(2, 9, count).astype(float)
    n2 = rng.integers(1, 9, count).astype(float)
    g11, g22 = 10.0 ** rng.uniform(-11.0, -6.0, (2, count))
    p1i = rng.uniform(0.05, 0.95, count) \
        * ((1.0 + c) ** ((n1 - 1.0) / n1) - 1.0) * s2 / g11
    # 1 < w2*g22/sigma2 < 1 + 1/c: admissible, and no joiner bound
    w2 = (1.0 + rng.uniform(0.05, 0.95, count) / c) * s2 / g22
    assert (np.array(_single_law_roots(c, g11, g22, s2, w2, p1i, n1, n2))
            <= 0.0).all()
    admissible = np.arange(count) % 5 != 0
    counts = _count_phi(monkeypatch)
    p1, ok = mutual_sic._edge_case_roots(c, g11, g22, s2, w2, p1i, n1, n2,
                                         admissible)
    assert np.array_equal(ok, admissible)
    assert counts["bracket"] > 0
    assert 0 < counts["phi"] - counts["bracket"] <= 30
    for i in np.flatnonzero(admissible):
        want = edge_root_bisection(c[i], g11[i], g22[i], s2, w2[i], p1i[i],
                                   n1[i], n2[i])
        assert p1[i] == pytest.approx(want, rel=1e-12, abs=0.0)
