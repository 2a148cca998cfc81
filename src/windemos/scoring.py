"""Proper scoring rules for wind speed forecasts.

Every production score is a closed form evaluated on one family batch
at a time: the CRPS of truncated normal, log-normal and GEV forecasts,
the exact CRPS of empirical (ensemble) forecasts, and the threshold-
weighted CRPS of all of them.  Adaptive quadrature (`crps_numeric`,
`twcrps`) is the oracle the closed forms are tested against, and the
fixed-node `crps_quad_batch` a cross-check; no production path calls
either.  Also the twCRPS skill score, the logarithmic score, and
point-forecast error metrics.

Scores carry the unit of the observation: crps(aF, ax) = a crps(F, x)
for any scale a > 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .distributions import (
    GEV,
    LogNormal,
    MeanVariance,
    TruncatedNormal,
    log_norm_cdf,
    log_norm_pdf,
    norm_cdf,
)
from .errors import (
    InvalidInputError,
    NumericFailureError,
    UndefinedMomentError,
    UndefinedSkillError,
)

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_LOG2 = math.log(2.0)

# Quadrature is restricted to the region between these CDF levels; the
# excluded tails contribute negligibly for laws with a finite mean.
_TAIL_PROB = 1e-6
_QUAD_TOL = 1e-8


class Empirical:
    """Empirical distribution carried by a finite sample.

    Used for raw-ensemble and climatological forecasts.  Quantiles
    interpolate the Weibull plotting positions k/(n+1), so the nominal
    central interval with alpha = 2/(n+1) is exactly the sample range.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise InvalidInputError("empirical distribution needs at least one value")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("empirical values must be finite")
        self.values = np.sort(values)

    @property
    def n(self):
        return self.values.size

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.values, x, side="right") / self.n

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise InvalidInputError("probability level must lie strictly in (0, 1)")
        return _sample_quantile(self.values, p)

    def mean(self):
        return float(np.mean(self.values))

    def median(self):
        return float(np.median(self.values))

    def sample(self, rng, size=None):
        return rng.choice(self.values, size=size, replace=True)

    def neg_mass(self):
        return float(np.mean(self.values < 0.0))

    def __repr__(self):
        return f"Empirical(n={self.n})"


def _sample_quantile(v, p):
    """Quantile at level p of the sorted samples along the last axis of v.

    Interpolates the Weibull plotting positions k/(n+1), as
    `Empirical.quantile` does, for a whole matrix of samples at once.
    """
    n = v.shape[-1]
    h = p * (n + 1.0) - 1.0  # 0-based Weibull position
    h = np.clip(h, 0.0, n - 1.0)
    lo = np.floor(h).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = h - lo
    return (1.0 - frac) * v[..., lo] + frac * v[..., hi]


def _check_obs(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or not np.all(x >= 0.0):
        raise InvalidInputError("observation must be finite and >= 0")
    return x


def _crps_tn_raw(mu, sigma, x):
    # Unvalidated vectorized core shared with the estimation objectives
    r = mu / sigma
    z = (x - mu) / sigma
    log_nc = log_norm_cdf(r)
    upper_ratio = np.exp(log_norm_cdf(-z) - log_nc)
    dens_ratio = np.exp(log_norm_pdf(z) - log_nc)
    pair_ratio = np.exp(log_norm_cdf(_SQRT2 * r) - 2.0 * log_nc)
    return sigma * (z * (1.0 - 2.0 * upper_ratio) + 2.0 * dens_ratio - pair_ratio / _SQRT_PI)


def crps_tn(d, x):
    """Closed-form CRPS of a truncated normal forecast.

    Algebraically identical to the textbook expression but arranged as
    tail-stable ratios Phi(-z)/Phi(r), phi(z)/Phi(r), Phi(sqrt(2) r)/Phi(r)^2
    evaluated through log-CDF differences, so deep truncation
    (mu/sigma far below 0) does not cancel catastrophically.
    """
    return _crps_tn_raw(d.mu, d.sigma, _check_obs(x))


def _crps_ln_raw(mu, sigma, x):
    with np.errstate(divide="ignore"):
        w = np.where(x > 0.0, (np.log(np.where(x > 0.0, x, 1.0)) - mu) / sigma, -np.inf)
    mean = np.exp(mu + 0.5 * sigma * sigma)
    return x * (2.0 * norm_cdf(w) - 1.0) - 2.0 * mean * (
        norm_cdf(w - sigma) + norm_cdf(sigma / _SQRT2) - 1.0
    )


def crps_ln(d, x):
    """Closed-form CRPS of a log-normal forecast.

    Accepts log-scale parameters or a mean/variance pair.
    """
    if isinstance(d, MeanVariance):
        d = d.to_lognormal()
    return _crps_ln_raw(d.mu, d.sigma, _check_obs(x))


def _upper_tn(d, r):
    """Integral of (1 - F)^2 over [r, inf), r >= 0, for a truncated normal.

    sigma I(c) / Phi(mu/sigma)^2 with c = (mu - r)/sigma and I(c) =
    c Phi(c)^2 + 2 phi(c) Phi(c) - Phi(sqrt(2) c)/sqrt(pi), the integral
    of Phi^2 up to c, as log-domain ratios like `crps_tn`.
    """
    c = (d.mu - r) / d.sigma
    log_nc = log_norm_cdf(d.mu / d.sigma)
    log_c = log_norm_cdf(c)
    return d.sigma * (
        c * np.exp(2.0 * (log_c - log_nc))
        + 2.0 * np.exp(log_norm_pdf(c) + log_c - 2.0 * log_nc)
        - np.exp(log_norm_cdf(_SQRT2 * c) - 2.0 * log_nc) / _SQRT_PI
    )


def _upper_ln(d, r):
    """Integral of (1 - F)^2 over [r, inf), r >= 0, for a log-normal.

    That is E(min(X, X') - r)^+ for X, X' iid from the forecast; the
    partial mean of the minimum is 2 E(X) P(Z1 <= h, Z2 <= k) for
    standard normals at correlation -1/sqrt(2), which Owen's (1956)
    T function gives in closed form.
    """
    with np.errstate(divide="ignore"):
        w = (np.log(r) - d.mu) / d.sigma
        h, k = d.sigma - w, -d.sigma / _SQRT2
        a_h, a_k = 1.0 - d.sigma / h, 1.0 - 2.0 * h / d.sigma  # h = 0 gives the -inf limit
    both = (
        0.5 * (norm_cdf(h) + norm_cdf(k))
        - special.owens_t(h, a_h)
        - special.owens_t(k, a_k)
        - 0.5 * (h >= 0.0)
    )
    mean = np.exp(d.mu + 0.5 * d.sigma * d.sigma)
    return 2.0 * mean * both - r * norm_cdf(-w) ** 2


def _gev_terms(d, x):
    """z = (x - mu)/sigma, the Gumbel mask, the shape (0.5 on Gumbel rows),
    t = -log F(x), x - (mu - sigma/xi) and sigma Gamma(1 - xi)/xi."""
    if np.any(d.xi >= 1.0):
        raise UndefinedMomentError("GEV CRPS is undefined for xi >= 1")
    z = (x - d.mu) / d.sigma
    gumbel = d._gumbel
    xi = np.where(gumbel, 0.5, d.xi)
    u = 1.0 + xi * z
    outside = np.where(xi > 0.0, np.inf, 0.0)
    with np.errstate(over="ignore"):
        t = np.where(u > 0.0, np.where(u > 0.0, u, 1.0) ** (-1.0 / xi), outside)
    return z, gumbel, xi, t, x - d.mu + d.sigma / xi, d.sigma / xi * special.gamma(1.0 - xi)


def _crps_gev(d, x):
    """Closed-form CRPS of a GEV forecast.

    Friederichs & Thorarinsdottir (2012, Environmetrics 23:579), through
    the regularized lower incomplete gamma function; the Gumbel branch
    uses the exponential integral E1.  Defined for xi < 1 only.
    """
    z, gumbel, xi, t, lin, g = _gev_terms(d, x)
    with np.errstate(over="ignore"):
        gum = d.sigma * (np.euler_gamma - _LOG2 - z + 2.0 * special.exp1(np.exp(-z)))
    general = lin * (2.0 * np.exp(-t) - 1.0) + g * (2.0 * special.gammainc(1.0 - xi, t) - 2.0**xi)
    return np.where(gumbel, gum, general)


def _upper_gev(d, r):
    """Integral of (1 - F)^2 over [r, inf) for a GEV forecast.

    E(min(X, X') - r)^+ = 2 E(X - r)^+ - E(max(X, X') - r)^+, where the
    maximum is GEV again; both partial means are incomplete gamma terms.
    """
    z, gumbel, xi, t, lin, g = _gev_terms(d, r)
    with np.errstate(over="ignore"):
        e = np.exp(-z)
        gum = d.sigma * (
            np.euler_gamma - _LOG2 - z + 2.0 * special.exp1(e) - special.exp1(2.0 * e)
        )
    s = 1.0 - xi
    partial = 2.0 * special.gammainc(s, t) - 2.0**xi * special.gammainc(s, 2.0 * t)
    general = g * partial - lin * np.expm1(-t) ** 2
    return np.where(gumbel, gum, general)


def _callable_quantile(cdf, p, anchor):
    """Locate the p-quantile of a bare CDF callable by bracket + bisection."""
    lo = anchor - 1.0
    step = 1.0
    for _ in range(300):
        if cdf(lo) <= p:
            break
        lo -= step
        step *= 2.0
    else:
        raise NumericFailureError("could not bracket CDF from below", {"p": p})
    hi = anchor + 1.0
    step = 1.0
    for _ in range(300):
        if cdf(hi) >= p:
            break
        hi += step
        step *= 2.0
    else:
        raise NumericFailureError("could not bracket CDF from above", {"p": p})
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def _quad_segments(cdf, x, r=None):
    """Integrate (F(y) - 1{y >= x})^2 over y >= r (r None means -inf)."""
    x = float(x)
    q_lo = _callable_quantile(cdf, _TAIL_PROB, x)
    q_hi = _callable_quantile(cdf, 1.0 - _TAIL_PROB, x)
    lo = min(q_lo, x)
    hi = max(q_hi, x)
    if r is not None:
        lo = max(lo, float(r))
        hi = max(hi, lo)
    # Break at the observation so each segment sees a smooth integrand
    points = sorted({lo, hi, min(max(x, lo), hi), min(max(q_lo, lo), hi), min(max(q_hi, lo), hi)})
    total = 0.0
    err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b <= a:
            continue
        if b <= x:
            fun = lambda y: cdf(y) ** 2
        else:
            fun = lambda y: (cdf(y) - 1.0) ** 2
        # epsrel must not dominate: segments integrating a near-constant
        # F^2 over a long stretch hit scipy's relative floor long before
        # the absolute target.
        val, abserr = integrate.quad(
            fun, a, b, epsabs=_QUAD_TOL / 10.0, epsrel=1e-12, limit=200
        )
        total += val
        err += abserr
    if not math.isfinite(total) or not err <= _QUAD_TOL:
        raise NumericFailureError(
            "CRPS quadrature exceeded its error budget",
            diagnostics={"abserr": err, "x": x, "segments": points},
        )
    return total


def crps_numeric(cdf, x):
    """CRPS by adaptive quadrature of the squared CDF/indicator gap.

    The oracle the closed forms are tested against; no production path
    calls it.  `cdf` is any nondecreasing callable with limits 0 and 1
    and a finite first moment.
    """
    x = float(_check_obs(x))
    return _quad_segments(cdf, x, r=None)


def _crps_ensemble(v, x):
    """Exact CRPS of empirical laws, one sorted sample per row of v.

    E|X - x| - 0.5 E|X - X'| with X, X' iid uniform on the sample,
    evaluated via the sorted-sum identity.
    """
    n = v.shape[-1]
    j = np.arange(1, n + 1, dtype=float)
    spread = np.sum((2.0 * j - n - 1.0) * v, axis=-1) / (n * n)
    return np.mean(np.abs(v - x[..., None]), axis=-1) - spread


def crps_empirical(values, x):
    """Exact CRPS of the empirical law on `values`, in O(n log n)."""
    if isinstance(values, Empirical):
        v = values.values
    else:
        v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise InvalidInputError("empirical CRPS needs at least one value")
    return float(_crps_ensemble(v, _check_obs(float(x))))


def twcrps(cdf, x, r):
    """Threshold-weighted CRPS with indicator weight 1{y >= r}.

    Matches the CRPS when r = -inf.  `cdf` may be a CDF callable
    (adaptive quadrature, the oracle) or an Empirical forecast, scored
    exactly as the CRPS of its sample censored at r, observed at
    max(x, r).
    """
    x = float(_check_obs(x))
    if r is None or (np.isscalar(r) and not np.isfinite(r) and r < 0):
        r = None
    else:
        r = float(r)
    if isinstance(cdf, Empirical):
        if r is None:
            return crps_empirical(cdf, x)
        return crps_empirical(np.maximum(cdf.values, r), max(x, r))
    return _quad_segments(cdf, x, r=r)


def twcrpss(mean_twcrps_f, mean_twcrps_ref):
    """Skill of a forecast's mean twCRPS against a reference forecast's."""
    ref = float(mean_twcrps_ref)
    if ref <= 0.0:
        raise UndefinedSkillError("reference mean twCRPS must be positive")
    return 1.0 - float(mean_twcrps_f) / ref


def log_score(pdf_at_obs):
    """Negative log predictive density; zero density gives +inf."""
    dens = np.asarray(pdf_at_obs, dtype=float)
    if np.any(dens < 0.0) or np.any(np.isnan(dens)):
        raise InvalidInputError("predictive density must be >= 0")
    with np.errstate(divide="ignore"):
        return -np.log(dens)


def aggregate_log_scores(scores):
    """Mean of the finite log scores and the count of infinite ones."""
    scores = np.asarray(scores, dtype=float)
    infinite = ~np.isfinite(scores)
    n_inf = int(np.sum(infinite))
    if n_inf == scores.size:
        return math.inf, n_inf
    return float(np.mean(scores[~infinite])), n_inf


def _check_pairs(pairs):
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("need at least one (forecast, observation) pair")
    return arr.reshape(-1, 2)


def mae_median(pairs):
    """Mean absolute error of median forecasts against observations."""
    arr = _check_pairs(pairs)
    return float(np.mean(np.abs(arr[:, 0] - arr[:, 1])))


def rmse_mean(pairs):
    """Root mean squared error of mean forecasts against observations."""
    arr = _check_pairs(pairs)
    return float(np.sqrt(np.mean((arr[:, 0] - arr[:, 1]) ** 2)))


_GL_CACHE = {}


def _gl_rule(n=160):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _columnize(d):
    # Same family with params reshaped (k,) -> (k, 1) for node matrices
    if type(d) not in _CLOSED_FORMS:
        raise InvalidInputError(f"no quadrature batch path for {type(d).__name__}")
    params = np.broadcast_arrays(*(getattr(d, a) for a in _PARAMS[type(d)]))
    return type(d)(*(p.reshape(-1, 1) for p in params))


def _gl_segment(cdf_col, a, b, below, nodes, weights):
    # integral over [a, b] of F^2 (below x) or (F-1)^2 (above x), per row
    half = 0.5 * (b - a)
    y = a[:, None] + half[:, None] * (nodes[None, :] + 1.0)
    f = cdf_col(y)
    g = f * f if below else (f - 1.0) * (f - 1.0)
    return half * (g @ weights)


def crps_quad_batch(d, x, r=None):
    """Vectorized fixed-node quadrature of the CRPS integrand.

    A cross-check of the closed forms; no production path calls it.
    Each side of the observation is integrated with a Gauss-Legendre
    rule split at its midpoint.  The rule misses tail mass, badly for
    heavy-tailed GEV laws: 0.114 at GEV(4, 1.5, 0.6) observed at 0.3.
    """
    x = np.atleast_1d(_check_obs(x)).astype(float)
    q_lo = np.atleast_1d(d.quantile(_TAIL_PROB))
    q_hi = np.atleast_1d(d.quantile(1.0 - _TAIL_PROB))
    lo = np.minimum(q_lo, x)
    hi = np.maximum(q_hi, x)
    if r is not None and np.isfinite(r):
        lo = np.maximum(lo, float(r))
        hi = np.maximum(hi, lo)
    mid = np.clip(x, lo, hi)
    col = _columnize(d)
    nodes, weights = _gl_rule()
    lo_half = 0.5 * (lo + mid)
    hi_half = 0.5 * (mid + hi)
    total = _gl_segment(col.cdf, lo, lo_half, True, nodes, weights)
    total += _gl_segment(col.cdf, lo_half, mid, True, nodes, weights)
    total += _gl_segment(col.cdf, mid, hi_half, False, nodes, weights)
    total += _gl_segment(col.cdf, hi_half, hi, False, nodes, weights)
    return total


_PARAMS = {
    TruncatedNormal: ("mu", "sigma"),
    LogNormal: ("mu", "sigma"),
    GEV: ("mu", "sigma", "xi"),
    MeanVariance: ("m", "v"),
}

# Per family: the CRPS at x, the integral of (1 - F)^2 over [r, inf),
# and a floor for r.  TN and LN observations are >= 0 = the lower end of
# the support, so a threshold below 0 scores as one at 0; an observation
# may lie below a GEV's lower endpoint, so GEV thresholds stay as given.
_CLOSED_FORMS = {
    TruncatedNormal: (crps_tn, _upper_tn, 0.0),
    LogNormal: (crps_ln, _upper_ln, 0.0),
    GEV: (_crps_gev, _upper_gev, -math.inf),
}


def _family_groups(dists):
    """Case indices per family; empirical laws also split by sample size."""
    groups = {}
    for i, d in enumerate(dists):
        key = (type(d).__name__, d.n if isinstance(d, Empirical) else None)
        groups.setdefault(key, []).append(i)
    return groups


def _batch_of(dists, idx):
    """The laws at idx, all of one family, as one batch.

    A parametric law with array parameters (log-normal for MeanVariance
    pairs), or for empirical laws the matrix of their sorted samples.
    """
    kind = type(dists[idx[0]])
    if kind is Empirical:
        return np.array([dists[i].values for i in idx])
    if kind not in _PARAMS:
        raise InvalidInputError(f"unsupported predictive law {kind.__name__}")
    batch = kind(*(np.array([float(getattr(dists[i], a)) for i in idx]) for a in _PARAMS[kind]))
    return batch.to_lognormal() if kind is MeanVariance else batch


def _score_batches(dists, obs, r):
    # CRPS (r None) or twCRPS at r of each case, one closed form per batch
    obs = _check_obs(np.asarray(obs, dtype=float))
    out = np.empty(len(dists))
    for idx in _family_groups(dists).values():
        batch = _batch_of(dists, idx)
        y = obs[idx]
        if isinstance(batch, np.ndarray):
            if r is not None:
                batch, y = np.maximum(batch, r), np.maximum(y, r)
            out[idx] = _crps_ensemble(batch, y)
            continue
        crps, upper, floor = _CLOSED_FORMS[type(batch)]
        if r is None:
            out[idx] = crps(batch, y)
        else:
            r_eff = max(r, floor)
            out[idx] = crps(batch, np.maximum(y, r_eff)) - crps(batch, r_eff) + upper(batch, r_eff)
    return out


def crps_values(dists, obs):
    """Per-case CRPS of a heterogeneous list of predictive laws.

    Closed forms per family batch; exact sums for empirical forecasts.
    """
    return _score_batches(dists, obs, None)


def twcrps_values(dists, obs, r):
    """Per-case twCRPS at threshold r (-inf: the CRPS) for a forecast list.

    The CRPS of F censored by z -> max(z, r), observed at max(y, r)
    (Allen, Ginsbourger & Ziegel 2023), as CRPS(F, max(y, r)) -
    CRPS(F, r) + U(r), U(r) the integral of (1 - F)^2 over [r, inf):
    for y <= r only U(r) remains, so no large CRPS values cancel.  The
    closed forms of U round at about 1e-14 of the scale in the far
    tail, so the score, a nonnegative integral, is clipped at 0.
    """
    r = float(r)
    if r == -math.inf:
        return crps_values(dists, obs)
    return np.maximum(_score_batches(dists, obs, r), 0.0)


@dataclass
class ScoreSummary:
    """Aggregate scores for one forecast stream over a verification set."""

    mean_crps: float
    mean_twcrps: dict = field(default_factory=dict)  # threshold -> mean score
    mean_log_score: float | None = None
    n_log_infinite: int = 0
    mae: float | None = None
    rmse: float | None = None

    def to_dict(self):
        return {
            "mean_crps": self.mean_crps,
            "mean_twcrps": {f"{r:g}": v for r, v in sorted(self.mean_twcrps.items())},
            "mean_log_score": self.mean_log_score,
            "n_log_infinite": self.n_log_infinite,
            "mae": self.mae,
            "rmse": self.rmse,
        }
