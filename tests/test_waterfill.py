"""Waterline closed forms against hand values and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomadas import (InfeasibleWaterline, ftpa_power, rate_second,
                     rate_single, waterline_add, waterline_from_rate,
                     waterline_rate_shift)
from nomadas.waterfill import (_lpo_core, admits_waterline_decrease,
                               delta_power_noma, delta_power_oma)

from oracles import (bisection_waterline, grid_best_second_power,
                     pairing_delta_closed_over_grid,
                     pairing_delta_from_scratch, total_power_at_rate)

# strategies kept within physically sane magnitudes so closed forms and
# oracles agree to tight relative tolerance without denormal noise
gains_st = st.floats(min_value=1e-12, max_value=1e-2)
rate_bits_st = st.floats(min_value=0.1, max_value=40.0)


# -- per-subcarrier rates ------------------------------------------------------

def test_rate_single_zero_power():
    assert rate_single(0.0, 0.5, 1e-3, 156250.0) == 0.0


def test_rate_single_unit_snr():
    assert rate_single(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


def test_rate_single_hand_value():
    assert rate_single(3.0, 1.0, 1.0, 156250.0) == pytest.approx(312500.0)


def test_rate_single_rejects_negative_power():
    with pytest.raises(ValueError):
        rate_single(-1.0, 1.0, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(p2=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                   max_size=8),
       gain=gains_st, sigma2=st.floats(min_value=1e-16, max_value=1e-9),
       sc_bw=st.floats(min_value=1e3, max_value=1e6))
def test_rate_second_no_interferer_matches_single(p2, gain, sigma2, sc_bw):
    """Bitwise: the pair pricer rates a cross-RRH joiner through
    rate_second with no interferer, as rate_single would."""
    p2 = np.array(p2)
    assert np.array_equal(rate_second(p2, 0.0, gain, sigma2, sc_bw),
                          rate_single(p2, gain, sigma2, sc_bw))


def test_rate_second_hand_value():
    assert rate_second(2.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


def test_rate_second_zero_power():
    assert rate_second(0.0, 3.0, 1.0, 1.0, 1.0) == 0.0


# -- waterline from a rate target ---------------------------------------------

def test_waterline_symmetric_two_subcarriers():
    w = waterline_from_rate([1.0, 1.0], 2.0, 1.0, 1.0)
    assert w == pytest.approx(2.0)
    np.testing.assert_allclose(w - 1.0 / np.array([1.0, 1.0]), [1.0, 1.0])


def test_waterline_zero_rate():
    assert waterline_from_rate([1.0], 0.0, 1.0, 1.0) == pytest.approx(1.0)


def test_waterline_single_subcarrier():
    w = waterline_from_rate([1.0], 2.0, 1.0, 1.0)
    assert w == pytest.approx(4.0)
    assert w - 1.0 / 1.0 == pytest.approx(3.0)


def test_waterline_infeasible_set_raises():
    # strong subcarrier pulls the waterline below the weak one's floor
    with pytest.raises(InfeasibleWaterline):
        waterline_from_rate([1.0, 100.0], 0.0, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(g=st.lists(gains_st, min_size=1, max_size=8),
       bits=rate_bits_st)
def test_waterline_rate_round_trip(g, bits):
    """Rates recomputed from the waterfilled powers hit the target."""
    sc_bw = 156250.0
    sigma2 = 6.25e-16
    rate = bits * sc_bw
    try:
        w = waterline_from_rate(g, rate, sigma2, sc_bw)
    except InfeasibleWaterline:
        return
    p = w - sigma2 / np.asarray(g)
    assert (p >= 0.0).all()
    got = float(np.sum(rate_single(p, np.asarray(g), sigma2, sc_bw)))
    assert got == pytest.approx(rate, rel=1e-9)


# -- admission test and one-subcarrier extension -------------------------------

def test_admits_above_floor():
    assert admits_waterline_decrease(1.0, 4.0, 1.0)


def test_admits_boundary_excluded():
    assert not admits_waterline_decrease(0.25, 4.0, 1.0)


def test_admits_below_floor():
    assert not admits_waterline_decrease(0.1, 4.0, 1.0)


def test_waterline_add_hand_value():
    assert waterline_add(4.0, 1, 1.0, 1.0) == pytest.approx(2.0)


def test_waterline_add_boundary_gain_no_change():
    assert waterline_add(4.0, 1, 0.25, 1.0) == pytest.approx(4.0)


def test_waterline_add_matches_from_rate():
    """Extending the set one gain at a time conserves the rate target.

    Gains are inserted best-first, mirroring the allocator's greedy order;
    that ordering is what keeps every already-held subcarrier's power
    positive as the waterline drops.
    """
    rng = np.random.default_rng(7)
    sc_bw, sigma2 = 156250.0, 6.25e-16
    for _ in range(100):
        g = np.sort(10.0 ** rng.uniform(-12, -4, 6))[::-1]
        rate = rng.uniform(1.0, 30.0) * sc_bw
        w = waterline_from_rate(g[:1], rate, sigma2, sc_bw)
        kept = [g[0]]
        for gain in g[1:]:
            if not admits_waterline_decrease(gain, w, sigma2):
                continue
            w = waterline_add(w, len(kept), gain, sigma2)
            kept.append(gain)
        w_direct = waterline_from_rate(kept, rate, sigma2, sc_bw)
        assert w == pytest.approx(w_direct, rel=1e-9)


def test_delta_power_oma_boundary_zero():
    w_new = waterline_add(4.0, 1, 0.25, 1.0)
    assert delta_power_oma(4.0, w_new, 1, 0.25, 1.0) == pytest.approx(0.0)


def test_delta_power_oma_hand_value():
    assert delta_power_oma(4.0, 2.0, 1, 1.0, 1.0) == pytest.approx(-1.0)


def test_delta_power_oma_decreasing_in_gain():
    """Better extra gain always saves more power (above the admission floor)."""
    w, n, sigma2 = 4.0, 3, 1.0
    gains = np.linspace(0.3, 50.0, 200)
    deltas = [delta_power_oma(w, waterline_add(w, n, g, sigma2), n, g,
                              sigma2) for g in gains]
    assert np.all(np.diff(deltas) < 0.0)


def test_delta_power_oma_matches_recomputation():
    """Signed delta equals total power recomputed before and after.

    The added gain must not exceed the held ones (greedy insertion order),
    and the comparison tolerance is relative to the totals being
    differenced, since that is the precision the bisection oracle carries.
    """
    rng = np.random.default_rng(11)
    sc_bw, sigma2 = 156250.0, 6.25e-16
    checked = 0
    while checked < 100:
        g = 10.0 ** rng.uniform(-11, -5, 4)
        rate = rng.uniform(2.0, 25.0) * sc_bw
        try:
            w = waterline_from_rate(g, rate, sigma2, sc_bw)
        except InfeasibleWaterline:
            continue
        gain = 10.0 ** rng.uniform(-11, -5)
        if gain > g.min() or not admits_waterline_decrease(gain, w, sigma2):
            continue
        w_new = waterline_add(w, len(g), gain, sigma2)
        dp = delta_power_oma(w, w_new, len(g), gain, sigma2)
        before = total_power_at_rate(g, rate, sigma2, sc_bw)
        after = total_power_at_rate(np.append(g, gain), rate, sigma2, sc_bw)
        assert abs(dp - (after - before)) <= 1e-9 * (before + after)
        checked += 1


# -- rate shifts and pairing deltas --------------------------------------------

@settings(max_examples=200, deadline=None)
@given(w=st.lists(st.floats(min_value=1e-12, max_value=1e3), min_size=1,
                  max_size=8),
       n=st.integers(min_value=1, max_value=128),
       sc_bw=st.floats(min_value=1e3, max_value=1e6))
def test_rate_shift_identity(w, n, sc_bw):
    """Bitwise: a zero rate shift leaves the waterline, so the pair
    pricer may skip the incumbent's terms when its power does not move."""
    w = np.array(w)
    assert np.array_equal(waterline_rate_shift(w, np.zeros_like(w), n, sc_bw),
                          w)


def test_rate_shift_hand_value():
    assert waterline_rate_shift(2.0, -1.0, 1, 1.0) == pytest.approx(1.0)


def test_rate_shift_needs_sole_set():
    with pytest.raises(InfeasibleWaterline):
        waterline_rate_shift(2.0, -1.0, 0, 1.0)


def test_rate_shift_matches_bisection():
    rng = np.random.default_rng(3)
    sc_bw, sigma2 = 156250.0, 6.25e-16
    checked = 0
    while checked < 100:
        g = 10.0 ** rng.uniform(-11, -5, 5)
        rate = rng.uniform(5.0, 30.0) * sc_bw
        try:
            w = waterline_from_rate(g, rate, sigma2, sc_bw)
        except InfeasibleWaterline:
            continue
        delta = -rng.uniform(0.1, 2.0) * sc_bw
        shifted = waterline_rate_shift(w, delta, len(g), sc_bw)
        if shifted < sigma2 / g.min():
            continue   # shift would zero out the weakest sole power
        w_ref = bisection_waterline(g, rate + delta, sigma2, sc_bw)
        assert shifted == pytest.approx(w_ref, rel=1e-9)
        checked += 1


def test_rate_shift_conserves_rate():
    """Sole rate recomputed after a shift equals target plus delta."""
    sc_bw, sigma2 = 156250.0, 6.25e-16
    g = np.array([2e-9, 5e-10, 8e-9])
    rate = 12.0 * sc_bw
    w = waterline_from_rate(g, rate, sigma2, sc_bw)
    delta = -1.7 * sc_bw
    w2 = waterline_rate_shift(w, delta, 3, sc_bw)
    got = float(np.sum(rate_single(w2 - sigma2 / g, g, sigma2, sc_bw)))
    assert got == pytest.approx(rate + delta, rel=1e-6)


def test_delta_power_noma_hand_value():
    assert delta_power_noma(2.0, 1.0, 1, 0.4) == pytest.approx(-0.6)


def test_delta_power_noma_break_even():
    w_old, w_new, n = 3.0, 2.5, 4
    p2 = n * (w_old - w_new)
    assert delta_power_noma(w_old, w_new, n, p2) == pytest.approx(0.0)


def test_delta_power_noma_matches_recomputation():
    """Pairing delta equals the from-scratch two-waterline recomputation."""
    rng = np.random.default_rng(5)
    sc_bw, sigma2 = 156250.0, 6.25e-16
    checked = 0
    while checked < 100:
        g = 10.0 ** rng.uniform(-11, -5, 4)
        rate = rng.uniform(8.0, 30.0) * sc_bw
        try:
            w = waterline_from_rate(g, rate, sigma2, sc_bw)
        except InfeasibleWaterline:
            continue
        gain2 = 10.0 ** rng.uniform(-11, -6)
        p1 = 10.0 ** rng.uniform(-10, -6)
        p2 = p1 * rng.uniform(1.0, 10.0)
        rate2 = float(rate_second(p2, p1, gain2, sigma2, sc_bw))
        w_new = waterline_rate_shift(w, -rate2, len(g), sc_bw)
        if w_new < sigma2 / g.min():
            continue
        dp = delta_power_noma(w, w_new, len(g), p2)
        ref = pairing_delta_from_scratch(g, rate, p1, gain2, p2, sigma2,
                                         sc_bw)
        before = total_power_at_rate(g, rate, sigma2, sc_bw)
        assert abs(dp - ref) <= 1e-9 * (before + p2)
        checked += 1


# -- second-user power rules ----------------------------------------------------

def test_ftpa_equal_gains():
    assert ftpa_power(1.5, 2.0, 2.0, 0.5) == pytest.approx(1.5)


def test_ftpa_hand_value():
    assert ftpa_power(1.0, 4.0, 1.0, 0.5) == pytest.approx(2.0)


def test_ftpa_alpha_zero():
    assert ftpa_power(1.3, 9.0, 1.0, 0.0) == pytest.approx(1.3)


def _lpo(w, p1, g2, sigma2, n, mu):
    """_lpo_core on one-element p1 and g2 rows, as the allocator calls it."""
    p2, reject = _lpo_core(w, np.array([p1]), np.array([g2]), sigma2, n, mu)
    return float(p2[0]), bool(reject[0])


def test_lpo_rows_are_independent():
    """_lpo_core on stacked rows with a sole count per row equals each row
    alone with a scalar sole count, bitwise, n_sole = 1 (where numpy's **
    takes a shortcut for a scalar exponent of 0.5) included."""
    rng = np.random.default_rng(5)
    g2 = 10.0 ** rng.uniform(-11.0, -6.0, 600)
    p1 = 10.0 ** rng.uniform(-6.0, -2.0, 600)
    w = (p1 + 1e-13 / g2) * 10.0 ** rng.uniform(0.0, 3.0, 600)
    n = rng.integers(1, 4, 600)
    p2, reject = _lpo_core(w, p1, g2, 1e-13, n, 0.01)
    for i in range(600):
        one = slice(i, i + 1)
        p2_i, reject_i = _lpo_core(w[i], p1[one], g2[one], 1e-13, n[i], 0.01)
        assert (p2[i], reject[i]) == (p2_i[0], reject_i[0]), i
    assert (p2 > p1 * 1.01).mean() > 0.5


def test_lpo_hand_value():
    assert _lpo(8.0, 1.0, 1.0, 1.0, 1, 0.01) == (pytest.approx(2.0), False)


def test_lpo_clamps_at_unit_ratio():
    # waterline exactly at the interference floor: optimum is 0, clamped
    assert _lpo(2.0, 1.0, 1.0, 1.0, 1, 0.01) == (pytest.approx(1.01), False)


def test_lpo_rejects_below_unit_ratio():
    assert _lpo(1.0, 1.0, 1.0, 1.0, 1, 0.01)[1]


@settings(max_examples=200, deadline=None)
@given(w_mult=st.floats(min_value=1.01, max_value=1e4),
       p1=st.floats(min_value=1e-12, max_value=1e-4),
       g2=gains_st,
       n=st.integers(min_value=1, max_value=12))
def test_lpo_at_least_first_power(w_mult, p1, g2, n):
    """Returned second power never undercuts the first user's power."""
    sigma2 = 6.25e-16
    w = w_mult * (p1 + sigma2 / g2)   # keeps the candidate acceptable
    p2, reject = _lpo(w, p1, g2, sigma2, n, 0.01)
    assert not reject
    assert p2 >= p1


def test_lpo_beats_dense_grid():
    """Unclamped closed form is at least as good as a 10^4-point search.

    Clamped outputs sit a safety margin above the true boundary optimum by
    design, so for those the check is against the margined feasible set.
    """
    rng = np.random.default_rng(13)
    mu = 0.01
    unclamped = 0
    for _ in range(150):
        sigma2 = 6.25e-16
        g2 = 10.0 ** rng.uniform(-11, -6)
        p1 = 10.0 ** rng.uniform(-9, -5)
        n = int(rng.integers(1, 10))
        w = (p1 + sigma2 / g2) * 10.0 ** rng.uniform(0.05, 3.0)
        p2, reject = _lpo(w, p1, g2, sigma2, n, mu)
        assert not reject
        clamped = p2 == p1 * (1.0 + mu)
        lo = p1 * (1.0 + mu) if clamped else p1
        _, grid_dp = grid_best_second_power(w, p1, g2, sigma2, n, lo=lo)
        dp = pairing_delta_closed_over_grid(w, p1, g2, sigma2, n, p2)
        assert dp <= grid_dp + 1e-9 * abs(grid_dp) + 1e-24
        unclamped += not clamped
    assert unclamped >= 100


def test_kernels_rows_independent_of_batch():
    """Each row of a batched kernel call equals the same row called alone.

    The allocator calls these kernels on whole candidate arrays and the
    tests on one-element rows; numpy's array loops (not its scalar math)
    run in both cases.
    """
    rng = np.random.default_rng(19)
    sigma2, sc_bw, n, w = 6.25e-16, 156250.0, 3, 1e-6
    gains = 10.0 ** rng.uniform(-11, -6, 40)
    rates = rng.uniform(0.1, 2.0, 40) * sc_bw
    sole = rng.integers(1, 6, 40)
    p2 = 10.0 ** rng.uniform(-9, -6, 40)

    def kernels(g, r, k, p):
        w_new = waterline_add(w, n, g, sigma2)
        shifted = waterline_rate_shift(w, -r, k, sc_bw)
        return (admits_waterline_decrease(g, w, sigma2), w_new,
                delta_power_oma(w, w_new, n, g, sigma2), shifted,
                delta_power_noma(w, shifted, k, p))

    batch = kernels(gains, rates, sole, p2)
    for i in range(gains.size):
        row = slice(i, i + 1)
        alone = kernels(gains[row], rates[row], sole[row], p2[row])
        for batched, single in zip(batch, alone):
            assert np.array_equal(batched[row], single)
    with pytest.raises(InfeasibleWaterline):
        waterline_rate_shift(w, -rates, sole - 1, sc_bw)


def test_waterline_bisection_oracle_sample():
    """Spot check of the closed form against bisection on random sets."""
    rng = np.random.default_rng(17)
    sc_bw, sigma2 = 156250.0, 6.25e-16
    for _ in range(100):
        g = 10.0 ** rng.uniform(-12, -4, int(rng.integers(1, 9)))
        rate = rng.uniform(1.0, 35.0) * sc_bw
        try:
            w = waterline_from_rate(g, rate, sigma2, sc_bw)
        except InfeasibleWaterline:
            continue
        assert w == pytest.approx(
            bisection_waterline(g, rate, sigma2, sc_bw), rel=1e-9)
