"""Cell geometry, configuration loading and user placement."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from nomadas import Scenario, load_scenario
from nomadas.scenario import (HEX_MEAN_CENTER_DISTANCE, drop_users,
                              hexagon_contains, place_rrhs)


# -- configuration dataclass ------------------------------------------------------

def test_default_noise_power():
    assert Scenario().sigma2_w == pytest.approx(6.25e-16)


def test_default_subcarrier_bandwidth():
    assert Scenario().sc_bw_hz == pytest.approx(156250.0)


def test_with_replaces_field():
    sc = Scenario().with_(rate_demand_bps=12e6)
    assert sc.rate_demand_bps == 12e6
    assert sc.num_users == 15


def test_more_users_than_subcarriers_rejected():
    with pytest.raises(ValueError):
        Scenario(num_users=65, num_subcarriers=64)


@pytest.mark.parametrize("bad", [
    dict(num_users=0), dict(num_rrhs=0), dict(num_subcarriers=0),
    dict(bandwidth_hz=0.0), dict(noise_psd_w_per_hz=-1e-21),
    dict(bandwidth_hz=math.nan), dict(cell_radius_m=0.0),
    dict(cell_radius_m=-500.0), dict(cell_radius_m=math.nan),
    dict(rate_demand_bps=-1e6), dict(rate_demand_bps=0.0),
    dict(rate_demand_bps=math.nan), dict(min_distance_m=-1.0),
    dict(min_distance_m=math.nan), dict(shadowing_db=-8.0),
    dict(shadowing_db=math.nan),
])
def test_invalid_fields_rejected(bad):
    with pytest.raises(ValueError):
        Scenario(**bad)


@pytest.mark.parametrize("field", ["num_users", "num_rrhs",
                                   "num_subcarriers"])
def test_counts_are_integers(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        Scenario(**{field: 2.5})
    for bad in (math.nan, math.inf, "4"):
        with pytest.raises(ValueError):
            Scenario(**{field: bad})
    for value in (16.0, np.int64(16)):
        count = getattr(Scenario(**{field: value}), field)
        assert type(count) is int and count == 16


def test_load_scenario_roundtrip(tmp_path):
    cfg = {"cell_radius_m": 400.0, "num_users": 10, "num_rrhs": 5,
           "num_subcarriers": 32, "bandwidth_hz": 5e6,
           "noise_psd": 4e-21, "rate_demand_bps": 6e6}
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(cfg))
    sc = load_scenario(path)
    assert sc.cell_radius_m == 400.0
    assert sc.num_rrhs == 5
    assert sc.noise_psd_w_per_hz == 4e-21
    assert sc.rate_demand_bps == 6e6


def test_load_scenario_partial_keeps_defaults(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"num_users": 8, "num_subcarriers": 16}))
    sc = load_scenario(path)
    assert sc.num_users == 8
    assert sc.bandwidth_hz == 10e6


def test_load_scenario_rejects_unknown_key(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"num_user": 8}))
    with pytest.raises(ValueError, match="num_user"):
        load_scenario(path)


def test_load_scenario_accepts_every_field(tmp_path):
    """Every Scenario field is a config key, the c5 knobs among them, and
    an integral float count loads as an int."""
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"shadowing_db": 6.0, "min_distance_m": 35.0,
                                "num_users": 15.0,
                                "noise_psd_w_per_hz": 2e-21}))
    sc = load_scenario(path)
    assert (sc.shadowing_db, sc.min_distance_m) == (6.0, 35.0)
    assert type(sc.num_users) is int and sc.num_users == 15
    assert sc.noise_psd_w_per_hz == 2e-21


def test_load_scenario_rejects_both_noise_names(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"noise_psd": 4e-21,
                                "noise_psd_w_per_hz": 4e-21}))
    with pytest.raises(ValueError, match="noise_psd"):
        load_scenario(path)


def test_load_scenario_rejects_seed_key(tmp_path):
    """Drops come from the run's --seed; a config seed would be ignored."""
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"num_users": 8, "seed": 5}))
    with pytest.raises(ValueError, match="seed"):
        load_scenario(path)


@pytest.mark.parametrize("bad", ["9e6", True, False, np.True_, None],
                         ids=["str", "True", "False", "np.True_", "None"])
@pytest.mark.parametrize("field", [f.name for f in fields(Scenario)])
def test_non_numeric_fields_rejected(field, bad):
    """A string or a bool is no number: True would run at 1 b/s."""
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        Scenario(**{field: bad})


def test_load_scenario_rejects_missing_file(tmp_path):
    path = tmp_path / "no" / "such.json"
    with pytest.raises(ValueError, match="cannot read .*such.json"):
        load_scenario(path)


@pytest.mark.parametrize("text", ["[]", "5", '"rate"'])
def test_load_scenario_rejects_non_object(tmp_path, text):
    path = tmp_path / "cell.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="one JSON object"):
        load_scenario(path)


# -- hexagon ----------------------------------------------------------------------

def test_hexagon_contains_landmarks():
    r = 500.0
    inside = [(0.0, 0.0), (499.0, 0.0), (-499.0, 0.0),
              (0.0, r * math.sqrt(3.0) / 2.0 - 1.0), (250.0, 400.0)]
    outside = [(501.0, 0.0), (0.0, r * math.sqrt(3.0) / 2.0 + 1.0),
               (450.0, 420.0), (-450.0, -420.0)]
    assert hexagon_contains(inside, r).all()
    assert not hexagon_contains(outside, r).any()


def test_hexagon_corner_is_inside():
    # flat-top: corners sit on the x axis at the outer radius
    assert hexagon_contains([(500.0, 0.0)], 500.0).all()


def test_mean_center_distance_analytic_constant():
    assert HEX_MEAN_CENTER_DISTANCE == pytest.approx(0.607986, abs=1e-6)


def test_uniform_drop_mean_distance():
    """Sampled mean center distance matches the analytic hexagon value."""
    rng = np.random.default_rng(5)
    xy = drop_users(20000, 1.0, rng)
    mean = float(np.hypot(xy[:, 0], xy[:, 1]).mean())
    assert mean == pytest.approx(HEX_MEAN_CENTER_DISTANCE, rel=0.02)


# -- RRH layout -------------------------------------------------------------------

def test_place_rrhs_center_plus_ring():
    xy = place_rrhs(4, 600.0)
    assert xy.shape == (4, 2)
    assert np.allclose(xy[0], 0.0)
    radii = np.hypot(xy[1:, 0], xy[1:, 1])
    assert np.allclose(radii, 400.0)
    # first ring RRH on the +x axis, rest equally spaced
    assert xy[1] == pytest.approx((400.0, 0.0))
    ang = np.arctan2(xy[1:, 1], xy[1:, 0])
    assert np.allclose(np.diff(ang) % (2.0 * math.pi), 2.0 * math.pi / 3.0)


def test_place_rrhs_single():
    assert place_rrhs(1, 500.0) == pytest.approx(np.zeros((1, 2)))


def test_place_rrhs_ring_inside_hexagon():
    for r in (2, 4, 5, 7, 9):
        assert hexagon_contains(place_rrhs(r, 500.0), 500.0).all()


def test_place_rrhs_rejects_zero():
    with pytest.raises(ValueError):
        place_rrhs(0, 500.0)


# -- user placement ---------------------------------------------------------------

def test_drop_users_inside_hexagon():
    rng = np.random.default_rng(7)
    xy = drop_users(500, 300.0, rng)
    assert xy.shape == (500, 2)
    assert hexagon_contains(xy, 300.0).all()


def test_drop_users_respects_min_distance():
    rng = np.random.default_rng(11)
    rrh_xy = place_rrhs(4, 500.0)
    xy = drop_users(2000, 500.0, rng, rrh_xy=rrh_xy, min_distance_m=50.0)
    d = np.sqrt(((xy[:, None, :] - rrh_xy[None, :, :]) ** 2).sum(-1))
    assert (d >= 50.0).all()


def test_drop_users_deterministic_per_seed():
    a = drop_users(40, 500.0, np.random.default_rng(3))
    b = drop_users(40, 500.0, np.random.default_rng(3))
    c = drop_users(40, 500.0, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
