"""Cell geometry and simulation configuration.

One hexagonal cell (flat-top, outer radius cell_radius_m, centered at the
origin) holds num_rrhs remote radio heads: one at the center, the rest
equally spaced on a circle of radius 2/3 * cell_radius_m. Users drop i.i.d.
uniform over the hexagon, keeping a minimum distance from every RRH.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

# analytic mean distance from the center of a uniform unit-radius hexagon
HEX_MEAN_CENTER_DISTANCE = 1.0 / 3.0 + math.log(3.0) / 4.0


@dataclass(frozen=True)
class Scenario:
    """Static description of one simulated cell.

    rate_demand_bps applies to every user; shadowing_db is the standard
    deviation of the lognormal shadowing in dB. Every field is a real
    number (a string or a bool is an error); the three counts take any
    integral number, stored as int. Drops come from the rng a caller
    passes to generate_channel, not from the scenario.
    """

    cell_radius_m: float = 500.0
    num_users: int = 15
    num_rrhs: int = 4
    num_subcarriers: int = 64
    bandwidth_hz: float = 10e6
    noise_psd_w_per_hz: float = 4e-21
    rate_demand_bps: float = 9e6
    min_distance_m: float = 10.0
    shadowing_db: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is a Real, but True is no count or rate
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("num_users", "num_rrhs", "num_subcarriers"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_users < 1 or self.num_rrhs < 1 or self.num_subcarriers < 1:
            raise ValueError("users, RRHs and subcarriers must be positive")
        if self.num_users > self.num_subcarriers:
            raise ValueError("needs at least one subcarrier per user")
        if not (self.bandwidth_hz > 0 and self.noise_psd_w_per_hz > 0):
            raise ValueError("bandwidth and noise PSD must be positive")
        if not (self.cell_radius_m > 0 and self.rate_demand_bps > 0):
            raise ValueError("cell radius and rate demand must be positive")
        if not (self.min_distance_m >= 0 and self.shadowing_db >= 0):
            raise ValueError(
                "minimum distance and shadowing must be non-negative")

    @property
    def sc_bw_hz(self) -> float:
        """Per-subcarrier bandwidth B/S in Hz."""
        return self.bandwidth_hz / self.num_subcarriers

    @property
    def sigma2_w(self) -> float:
        """Noise power per subcarrier in watts."""
        return self.noise_psd_w_per_hz * self.sc_bw_hz

    def with_(self, **kwargs) -> "Scenario":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


def load_scenario(path) -> Scenario:
    """Read a Scenario from a JSON config file.

    The keys are Scenario's fields, with noise_psd (W/Hz) as another name
    for noise_psd_w_per_hz. Unknown keys are an error so typos do not
    silently fall back to defaults; the drops' seed is a run setting
    (--seed), not part of the scenario. A file that cannot be read or
    does not hold one JSON object is a ValueError too.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(raw, dict):
        raise ValueError("a config file holds one JSON object")
    if "noise_psd" in raw:
        if "noise_psd_w_per_hz" in raw:
            raise ValueError("noise_psd and noise_psd_w_per_hz both given")
        raw["noise_psd_w_per_hz"] = raw.pop("noise_psd")
    unknown = set(raw) - {f.name for f in fields(Scenario)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return Scenario(**raw)


def hexagon_contains(xy, radius_m) -> np.ndarray:
    """Boolean mask of points inside the flat-top hexagon of outer radius."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    x, y = xy[:, 0], xy[:, 1]
    s3 = math.sqrt(3.0)
    return (np.abs(y) <= s3 / 2.0 * radius_m + 1e-12) & \
        (s3 * np.abs(x) + np.abs(y) <= s3 * radius_m + 1e-12)


def place_rrhs(num_rrhs: int, cell_radius_m: float) -> np.ndarray:
    """Deterministic RRH layout: center plus a ring at 2/3 of the radius.

    Ring RRHs are equally spaced starting on the +x axis. Shape (R, 2).
    """
    if num_rrhs < 1:
        raise ValueError("need at least one RRH")
    xy = np.zeros((num_rrhs, 2))
    ring = num_rrhs - 1
    if ring:
        ang = 2.0 * math.pi * np.arange(ring) / ring
        xy[1:, 0] = 2.0 * cell_radius_m / 3.0 * np.cos(ang)
        xy[1:, 1] = 2.0 * cell_radius_m / 3.0 * np.sin(ang)
    return xy


def drop_users(num_users: int, cell_radius_m: float,
               rng: np.random.Generator, rrh_xy=(),
               min_distance_m: float = 10.0) -> np.ndarray:
    """I.i.d. uniform user positions over the hexagon, shape (K, 2).

    Rejection sampling from the bounding circle; a draw closer than
    min_distance_m to any RRH is rejected too (skipped when rrh_xy is
    empty).
    """
    rrh_xy = np.asarray(rrh_xy, dtype=float).reshape(-1, 2)
    out = np.empty((num_users, 2))
    got = 0
    while got < num_users:
        batch = max(num_users - got, 16)
        r = cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, batch))
        theta = rng.uniform(0.0, 2.0 * math.pi, batch)
        cand = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
        keep = hexagon_contains(cand, cell_radius_m)
        if rrh_xy.size:
            d2 = ((cand[:, None, :] - rrh_xy[None, :, :]) ** 2).sum(-1)
            keep &= (d2 >= min_distance_m ** 2).all(axis=1)
        cand = cand[keep]
        take = min(cand.shape[0], num_users - got)
        out[got:got + take] = cand[:take]
        got += take
    return out
