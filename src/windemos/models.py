"""EMOS link functions from ensemble forecasts to predictive distributions.

An ensemble of M members is partitioned into m exchangeable groups;
members within a group share their regression coefficient, so every
link depends on the ensemble only through the per-group sums (plus the
ensemble mean, variance, and median).

Links:
  TN   location = a0 + sum_k a_k (group sum k),  scale^2 = b0 + b1 S^2
  LN   mean     = alpha0 + sum_k alpha_k (group sum k), variance = beta0 + beta1 S^2
  GEV  location = gamma0 + sum_k gamma_k (group sum k), scale = sigma0 + sigma1 fbar

The regime-switching model applies the TN link when the ensemble median
is below a threshold theta and the high-wind link (LN or GEV) otherwise.

`predictive_law` builds the law of any family's coefficients, from one
case's statistics (`predict_*`) or from columns of cases (the batched
prediction of a rolling calibration).  A floored link warns.

`member_stats` gives the statistics of one ensemble and of a table of
them.  A `predict_*` call costs its few small array operations; many
cases are far cheaper as columns (README, "Per case or per batch").
"""

import datetime
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import GEV, MeanVariance, TruncatedNormal
from .errors import (
    DegenerateScaleWarning,
    InsufficientDataError,
    InvalidParameterError,
)

# Lower floors keeping predictive laws proper when ensembles degenerate.
SCALE_FLOOR = 1e-4  # TN scale^2, LN variance, GEV scale
MEAN_FLOOR = 1e-3  # LN mean


@dataclass(frozen=True)
class GroupSpec:
    """Partition of M ensemble members into exchangeable groups."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) == 0 or any(s < 1 for s in sizes):
            raise InvalidParameterError("group sizes must be a nonempty list of ints >= 1")
        object.__setattr__(self, "sizes", sizes)

    @property
    def m(self):
        """Number of exchangeable groups."""
        return len(self.sizes)

    @property
    def total(self):
        """Total member count M."""
        return sum(self.sizes)

    @cached_property
    def offsets(self):
        """Start index of each group in the member vector."""
        offsets = np.concatenate([[0], np.cumsum(self.sizes[:-1])]).astype(int)
        offsets.flags.writeable = False
        return offsets

    @classmethod
    def singletons(cls, M):
        """Fully distinguishable ensemble: M groups of size one."""
        return cls(sizes=(1,) * int(M))

    def group_sums(self, members):
        """Per-group sums; `members` is (M,) or (n, M)."""
        arr = np.asarray(members, dtype=float)
        if arr.shape[-1] != self.total:
            raise InvalidParameterError(
                f"forecast has {arr.shape[-1]} members, group spec expects {self.total}"
            )
        return np.add.reduceat(arr, self.offsets, axis=-1)


@dataclass(frozen=True)
class EnsembleForecast:
    """One forecast case: members ordered by group, plus its verifying obs."""

    date: datetime.date
    station: str
    members: tuple
    obs: float | None = None

    def __post_init__(self):
        # Each value, a number or a field string of a dataset row, is
        # converted once.  Float comparisons, not numpy calls: a dataset
        # builds one case per row.  0 <= v < inf is false for NaN,
        # negatives and infinities
        obs = None if self.obs is None else float(self.obs)
        members = tuple(map(float, self.members))
        if not members or not all(0.0 <= v < math.inf for v in members):
            raise InvalidParameterError("members must be finite, nonnegative, nonempty")
        object.__setattr__(self, "members", members)
        if obs is not None:
            if not 0.0 <= obs < math.inf:
                raise InvalidParameterError("observation must be finite and >= 0")
            object.__setattr__(self, "obs", obs)


@dataclass(frozen=True)
class EnsembleStats:
    mean: float
    variance: float  # unbiased, divisor M-1
    median: float


def member_stats(x):
    """Mean, unbiased variance and median along the last axis of x.

    The arithmetic of np.mean, np.var(ddof=1) and np.median, bit for bit,
    without their wrappers: one ensemble (shape (M,)) costs what its
    reductions cost, and a matrix of ensembles (one per row) gives the
    same values row by row.
    """
    M = x.shape[-1]
    mean = np.add.reduce(x, -1, keepdims=True) / M
    d = x - mean
    variance = np.add.reduce(d * d, -1) / (M - 1)
    s = np.sort(x, -1)
    lo = s[..., (M - 1) // 2]
    median = (lo + s[..., M // 2]) / 2.0 if M % 2 == 0 else lo
    return mean[..., 0], variance, median


def ensemble_stats(forecast):
    """Mean, unbiased variance, and median of an EnsembleForecast's members."""
    arr = np.asarray(forecast.members, dtype=float)
    if arr.size < 2:
        raise InsufficientDataError("unbiased ensemble variance needs at least 2 members")
    mean, variance, median = member_stats(arr)
    return EnsembleStats(mean=float(mean), variance=float(variance), median=float(median))


def _check_weights(weights, name, nonnegative):
    w = tuple(float(v) for v in np.atleast_1d(weights))
    arr = np.asarray(w)
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    if nonnegative and np.any(arr < 0.0):
        raise InvalidParameterError(f"{name} must be nonnegative")
    return w


def _check_scalar(value, name, nonnegative=False):
    v = float(value)
    if not np.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite")
    if nonnegative and v < 0.0:
        raise InvalidParameterError(f"{name} must be nonnegative")
    return v


@dataclass(frozen=True)
class TnParams:
    """Truncated-normal link coefficients."""

    a0: float
    a: tuple  # per-group location weights, >= 0
    b0: float
    b1: float

    def __post_init__(self):
        object.__setattr__(self, "a0", _check_scalar(self.a0, "a0"))
        object.__setattr__(self, "a", _check_weights(self.a, "a", nonnegative=True))
        object.__setattr__(self, "b0", _check_scalar(self.b0, "b0", nonnegative=True))
        object.__setattr__(self, "b1", _check_scalar(self.b1, "b1", nonnegative=True))


@dataclass(frozen=True)
class LnParams:
    """Log-normal link coefficients (mean/variance scale)."""

    alpha0: float
    alpha: tuple  # per-group mean weights, >= 0
    beta0: float
    beta1: float

    def __post_init__(self):
        object.__setattr__(self, "alpha0", _check_scalar(self.alpha0, "alpha0"))
        object.__setattr__(self, "alpha", _check_weights(self.alpha, "alpha", nonnegative=True))
        object.__setattr__(self, "beta0", _check_scalar(self.beta0, "beta0", nonnegative=True))
        object.__setattr__(self, "beta1", _check_scalar(self.beta1, "beta1", nonnegative=True))


@dataclass(frozen=True)
class GevParams:
    """GEV link coefficients; location weights carry no sign constraint."""

    gamma0: float
    gamma: tuple
    sigma0: float
    sigma1: float
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "gamma0", _check_scalar(self.gamma0, "gamma0"))
        object.__setattr__(self, "gamma", _check_weights(self.gamma, "gamma", nonnegative=False))
        object.__setattr__(self, "sigma0", _check_scalar(self.sigma0, "sigma0"))
        object.__setattr__(self, "sigma1", _check_scalar(self.sigma1, "sigma1"))
        object.__setattr__(self, "xi", _check_scalar(self.xi, "xi"))


@dataclass(frozen=True)
class RegimeSwitchConfig:
    """Threshold rule combining a TN low-wind model with a high-wind model.

    theta = 0 degenerates to the pure high-wind model and theta = inf to
    pure TN, so both extremes are admitted.
    """

    theta: float
    low_params: TnParams = None
    high_params: object = None  # LnParams or GevParams

    def __post_init__(self):
        theta = float(self.theta)
        if np.isnan(theta) or theta < 0.0:
            raise InvalidParameterError("theta must be >= 0 (inf allowed)")
        object.__setattr__(self, "theta", theta)


def _group_weight_sum(intercept, weights, group_sums, m):
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != m:
        raise InvalidParameterError(
            f"parameter vector has {weights.shape[0]} group weights, expected {m}"
        )
    return intercept + group_sums @ weights


def _warn_floor(engaged, what):
    if engaged.any():
        warnings.warn(f"predictive {what} hit its lower floor", DegenerateScaleWarning, stacklevel=3)


def tn_link(p, group_sums, s2):
    """TN location and scale from group sums and ensemble variance."""
    group_sums = np.asarray(group_sums, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    loc = _group_weight_sum(p.a0, p.a, group_sums, group_sums.shape[-1])
    raw = p.b0 + p.b1 * s2
    _warn_floor(raw < SCALE_FLOOR, "scale")
    scale2 = np.maximum(raw, SCALE_FLOOR)
    return loc, np.sqrt(scale2)


def ln_link(p, group_sums, s2):
    """LN mean and variance (original scale) from group sums and variance."""
    group_sums = np.asarray(group_sums, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    m_raw = _group_weight_sum(p.alpha0, p.alpha, group_sums, group_sums.shape[-1])
    v_raw = p.beta0 + p.beta1 * s2
    _warn_floor((m_raw < MEAN_FLOOR) | (v_raw < SCALE_FLOOR), "mean/variance")
    return np.maximum(m_raw, MEAN_FLOOR), np.maximum(v_raw, SCALE_FLOOR)


def gev_link(p, group_sums, fbar):
    """GEV location and scale from group sums and ensemble mean."""
    group_sums = np.asarray(group_sums, dtype=float)
    fbar = np.asarray(fbar, dtype=float)
    loc = _group_weight_sum(p.gamma0, p.gamma, group_sums, group_sums.shape[-1])
    raw = p.sigma0 + p.sigma1 * fbar
    _warn_floor(raw < SCALE_FLOOR, "scale")
    return loc, np.maximum(raw, SCALE_FLOOR)


_LAWS = {
    TnParams: lambda p, gs, s2, fbar: TruncatedNormal(*tn_link(p, gs, s2)),
    LnParams: lambda p, gs, s2, fbar: MeanVariance(*ln_link(p, gs, s2)).to_lognormal(),
    GevParams: lambda p, gs, s2, fbar: GEV(*gev_link(p, gs, fbar), np.full(np.shape(fbar), p.xi)),
}


def predictive_law(p, gs, s2, fbar):
    """The predictive law of link coefficients `p`, chosen by their type.

    `gs`, `s2` and `fbar` are one case's group sums, unbiased ensemble
    variance and ensemble mean, giving one scalar law; or columns of them,
    one row per case, giving one law with a parameter per row.
    """
    law = _LAWS.get(type(p))
    if law is None:
        raise InvalidParameterError(f"no predictive family has {type(p).__name__} coefficients")
    return law(p, gs, s2, fbar)


def _case_law(p, g, f, stats):
    return predictive_law(p, g.group_sums(f.members), stats.variance, stats.mean)


def predict_tn(p, g, f):
    """Truncated-normal predictive law for one forecast case."""
    return _case_law(p, g, f, ensemble_stats(f))


def predict_ln(p, g, f):
    """Log-normal predictive law for one forecast case."""
    return _case_law(p, g, f, ensemble_stats(f))


def predict_gev(p, g, f):
    """GEV predictive law for one forecast case."""
    return _case_law(p, g, f, ensemble_stats(f))


def predict_switch(c, g, f):
    """Regime-switching prediction: TN below theta, high model at or above."""
    stats = ensemble_stats(f)
    return _case_law(c.low_params if stats.median < c.theta else c.high_params, g, f, stats)
