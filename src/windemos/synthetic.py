"""Seeded synthetic ensemble datasets.

Each day/station case carries a latent wind level built from an AR(1)
daily signal plus a station offset.  Observations are drawn from the
configured truth family around that level; members are drawn from the
same family with an optional additive bias and a dispersion-deflation
factor, so deflation 1.0 with zero bias makes members and observation
exchangeable (flat rank histogram) while deflation < 1 yields the
classic under-dispersive U shape.

The switching truth draws from TN below theta_star and from a
heavier-tailed LN above it, giving grid search a recoverable threshold.
"""

import datetime
from dataclasses import dataclass

import numpy as np

from .distributions import GEV, MeanVariance, TruncatedNormal
from .errors import InvalidParameterError
from .models import EnsembleForecast, GroupSpec

_TRUTHS = ("tn", "ln", "gev", "switching")
_AR_RHO = 0.8
_HIGH_TAIL_FACTOR = 1.8  # LN regime variance inflation in the switching truth
_START = datetime.date(2024, 1, 1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one synthetic dataset."""

    days: int
    stations: int
    group_spec: GroupSpec
    truth: str = "tn"
    theta_star: float = 6.0
    bias: float = 0.0
    deflation: float = 1.0
    base_level: float = 6.0
    daily_sd: float = 1.6
    station_sd: float = 0.8
    obs_sd: float = 1.5
    xi: float = 0.1
    group_bias: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.days < 1 or self.stations < 1:
            raise InvalidParameterError("days and stations must be >= 1")
        if not 0.0 < self.deflation <= 1.0:
            raise InvalidParameterError("deflation must lie in (0, 1]")
        if self.truth not in _TRUTHS:
            raise InvalidParameterError(f"unknown truth model {self.truth!r}")
        if self.obs_sd <= 0.0 or self.daily_sd < 0.0 or self.station_sd < 0.0:
            raise InvalidParameterError("spread settings must be positive")
        if np.isnan(self.theta_star):
            raise InvalidParameterError("theta_star must be a number, got nan")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.group_bias is not None:
            gb = tuple(float(v) for v in self.group_bias)
            if len(gb) != self.group_spec.m:
                raise InvalidParameterError("group_bias needs one value per group")
            object.__setattr__(self, "group_bias", gb)


def _latent_levels(cfg, rng):
    # AR(1) daily signal with stationary sd = daily_sd, plus station offsets
    offsets = rng.normal(0.0, cfg.station_sd, size=cfg.stations)
    innov = rng.normal(0.0, 1.0, size=cfg.days)
    z = np.empty(cfg.days)
    z[0] = cfg.daily_sd * innov[0]
    step_sd = cfg.daily_sd * np.sqrt(1.0 - _AR_RHO**2)
    for t in range(1, cfg.days):
        z[t] = _AR_RHO * z[t - 1] + step_sd * innov[t]
    levels = cfg.base_level + z[:, None] + offsets[None, :]
    return np.maximum(levels, 0.5)


def _family_draw(truth, center, sd, xi, rng, size):
    # One block of draws with mean anchored at `center`
    if truth == "tn":
        return TruncatedNormal(center, sd).sample(rng, size=size)
    if truth == "ln":
        return MeanVariance(center, sd * sd).to_lognormal().sample(rng, size=size)
    if truth == "gev":
        draws = GEV(center, sd, xi).sample(rng, size=size)
        return np.maximum(draws, 0.0)
    raise InvalidParameterError(truth)


def _member_centers(cfg, levels):
    center = levels[:, :, None] + cfg.bias
    if cfg.group_bias is not None:
        per_member = np.repeat(cfg.group_bias, cfg.group_spec.sizes)
        center = center + per_member[None, None, :]
    return center


def generate(cfg):
    """Draw the configured dataset, fully determined by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    levels = _latent_levels(cfg, rng)
    M = cfg.group_spec.total
    shape = (cfg.days, cfg.stations, M)
    member_centers = _member_centers(cfg, levels)
    member_sd = cfg.deflation * cfg.obs_sd

    if cfg.truth == "switching":
        high = levels >= cfg.theta_star
        mem_tn = _family_draw("tn", member_centers, member_sd, None, rng, shape)
        mem_ln = _family_draw(
            "ln", member_centers, _HIGH_TAIL_FACTOR * member_sd, None, rng, shape
        )
        members = np.where(high[:, :, None], mem_ln, mem_tn)
        obs_tn = _family_draw("tn", levels, cfg.obs_sd, None, rng, levels.shape)
        obs_ln = _family_draw(
            "ln", levels, _HIGH_TAIL_FACTOR * cfg.obs_sd, None, rng, levels.shape
        )
        obs = np.where(high, obs_ln, obs_tn)
    else:
        members = _family_draw(cfg.truth, member_centers, member_sd, cfg.xi, rng, shape)
        obs = _family_draw(cfg.truth, levels, cfg.obs_sd, cfg.xi, rng, levels.shape)

    width = len(str(cfg.stations))
    stations = [f"S{i + 1:0{width}d}" for i in range(cfg.stations)]
    dataset = []
    for d in range(cfg.days):
        day = _START + datetime.timedelta(days=d)
        for s in range(cfg.stations):
            dataset.append(
                EnsembleForecast(
                    date=day,
                    station=stations[s],
                    members=tuple(members[d, s]),
                    obs=float(obs[d, s]),
                )
            )
    return dataset
