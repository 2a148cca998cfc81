"""Proper scoring rules for wind speed forecasts.

A set of forecasts is a `ForecastBatch`: one array law per predictive
family (and per sample size of `Empirical` laws), with the rows of the
cases it covers, so the mixed TN / LN / GEV sets of a regime-switching
model and the raw-ensemble and climatological forecasts are scored
without per-case objects.  A list of scalar laws is read into a batch
by `ForecastBatch.of`, the one place such a list is taken apart; laws
are stacked and split by the parameter names each family declares in
its `params`.

Every production score is a closed form evaluated on one family part
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

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import special

from .distributions import (
    GEV,
    LogNormal,
    TruncatedNormal,
    _check_prob,
    _gev_tail,
    log_norm_cdf,
    log_norm_pdf,
    norm_cdf,
    norm_cdf_pdf_ratio,
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

# Past these z = (x - mu)/sigma the Gumbel CRPS takes its E1 limit, and
# its upper-tail integral the series of E1 (see `_crps_gumbel`, `_upper_gumbel`)
_GUMBEL_E1_LIMIT = 40.0
_GUMBEL_SERIES_FROM = 1.0
# Coefficients (-1)^k (2^k - 2)/(k k!), k = 2..24, of that series in e^-z
_GUMBEL_SERIES = tuple((-1) ** k * (2**k - 2) / (k * math.factorial(k)) for k in range(2, 25))

class Empirical:
    """Empirical laws carried by finite samples.

    Used for raw-ensemble and climatological forecasts.  `values` holds
    one sorted sample, or a matrix with one sorted sample per row (one
    law per row, as the array parameters of the parametric families),
    and every method works along the last axis.  Quantiles interpolate
    the Weibull plotting positions k/(n+1), so the nominal central
    interval with alpha = 2/(n+1) is exactly the sample range.
    """

    params = ("values",)

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        values = values if values.ndim > 1 else values.ravel()
        if values.shape[-1] == 0:
            raise InvalidInputError("empirical distribution needs at least one value")
        if not np.isfinite(values).all():
            raise InvalidInputError("empirical values must be finite")
        self.values = np.sort(values, axis=-1)

    @property
    def n(self):
        return self.values.shape[-1]

    def cdf(self, x):
        # The count of values <= x, as searchsorted(side="right") gives it
        x = np.asarray(x, dtype=float)
        return np.sum(self.values <= x[..., None], axis=-1) / self.n

    def quantile(self, p):
        p = _check_prob(p)
        n = self.n
        h = np.clip(p * (n + 1.0) - 1.0, 0.0, n - 1.0)  # 0-based Weibull position
        lo = np.floor(h).astype(int)
        hi = np.minimum(lo + 1, n - 1)
        frac = h - lo
        return (1.0 - frac) * self.values[..., lo] + frac * self.values[..., hi]

    def mean(self):
        return np.mean(self.values, axis=-1)

    def median(self):
        return np.median(self.values, axis=-1)

    def sample(self, rng, size=None):
        """Draws with replacement: `size` from one sample, or one per row."""
        if self.values.ndim == 1:
            return rng.choice(self.values, size=size, replace=True)
        k = rng.integers(0, self.n, size=self.values.shape[:-1] if size is None else size)
        return np.take_along_axis(self.values, k[..., None], axis=-1)[..., 0]

    def neg_mass(self):
        return np.mean(self.values < 0.0, axis=-1)

    def __repr__(self):
        return f"Empirical(n={self.n})"


class ForecastBatch:
    """One predictive law for each of n cases, batched by family.

    `parts` holds (rows, law) pairs that partition the cases 0..n-1:
    `rows` an index array and `law` an array law with one entry per row,
    a TruncatedNormal, LogNormal or GEV with 1-d parameters or an
    Empirical with one sample per row (one part per sample size).
    """

    def __init__(self, n, parts):
        self.n = int(n)
        self.parts = tuple((np.asarray(rows, dtype=int), law) for rows, law in parts if len(rows))

    def __len__(self):
        return self.n

    @classmethod
    def of(cls, laws):
        """A list of scalar laws as a batch (a batch is returned as it is).

        One part per family and sample size.
        """
        if isinstance(laws, ForecastBatch):
            return laws
        groups = {}
        for i, d in enumerate(laws):
            groups.setdefault((type(d), getattr(d, "n", None)), []).append(i)
        parts = []
        for (kind, n), rows in groups.items():
            if not hasattr(kind, "params"):
                raise InvalidInputError(f"unsupported predictive law {kind.__name__}")
            members = [laws[i] for i in rows]
            dtype = float if n is None else (float, n)
            params = ((getattr(d, a) for d in members) for a in kind.params)
            law = kind(*(np.fromiter(p, dtype, len(rows)) for p in params))
            parts.append((rows, law))
        return cls(len(laws), parts)

    @classmethod
    def concat(cls, batches):
        """The cases of the batches one after another, one part per family."""
        groups, n = {}, 0
        for batch in batches:
            for rows, law in batch.parts:
                groups.setdefault((type(law), getattr(law, "n", None)), []).append((rows + n, law))
            n += batch.n
        parts = []
        for (kind, _), items in groups.items():
            rows = np.concatenate([r for r, _ in items])
            params = (np.concatenate([getattr(d, a) for _, d in items]) for a in kind.params)
            parts.append((rows, kind(*params)))
        return cls(n, parts)

    def laws(self):
        """The scalar law of every case, in case order."""
        out = [None] * self.n
        for rows, law in self.parts:
            params = zip(*(getattr(law, a) for a in law.params))
            for i, d in zip(rows.tolist(), itertools.starmap(type(law), params)):
                out[i] = d
        return out


def _check_obs(x):
    x = np.asarray(x, dtype=float)
    # One float comparison for one observation; 0 <= x < inf is false for NaN
    if x.ndim == 0:
        ok = 0.0 <= float(x) < math.inf
    else:
        ok = ((x >= 0.0) & (x < np.inf)).all()
    if not ok:
        raise InvalidInputError("observation must be finite and >= 0")
    return x


def _check_threshold(r):
    # A twCRPS threshold is a number below +inf (r < inf is false for NaN)
    if not float(r) < math.inf:
        raise InvalidInputError(f"twCRPS threshold must be a number below +inf, got {r}")
    return float(r)


def _crps_tn_terms(mu, sigma, x):
    # A = CRPS/sigma of a truncated normal, its ratios and lam = phi(r)/Phi(r)
    r = mu / sigma
    z = (x - mu) / sigma
    log_nc = log_norm_cdf(r)
    upper_ratio = np.exp(log_norm_cdf(-z) - log_nc)
    dens_ratio = np.exp(log_norm_pdf(z) - log_nc)
    pair_ratio = np.exp(log_norm_cdf(_SQRT2 * r) - 2.0 * log_nc)
    lam = np.exp(log_norm_pdf(r) - log_nc)
    if np.any(r < 0.0):
        # Those log differences lose every digit as r falls: with Phi = phi m
        # (`norm_cdf_pdf_ratio`), phi(z)/phi(r) = exp(-xs (xs/2 - r)), xs = x/sigma
        rn, xs = np.minimum(r, 0.0), x / sigma
        m, e = norm_cdf_pdf_ratio(rn), np.exp(-xs * (0.5 * xs - rn))
        pair = _SQRT2 * _SQRT_PI * norm_cdf_pdf_ratio(_SQRT2 * rn) / (m * m)
        deep = (e * norm_cdf_pdf_ratio(rn - xs) / m, e / m, pair, 1.0 / m)
        old = (upper_ratio, dens_ratio, pair_ratio, lam)
        upper_ratio, dens_ratio, pair_ratio, lam = map(np.where, [r < 0.0] * 4, deep, old)
    a = z * (1.0 - 2.0 * upper_ratio) + 2.0 * dens_ratio - pair_ratio / _SQRT_PI
    return a, r, z, upper_ratio, dens_ratio, pair_ratio, lam


def _crps_tn_grad(mu, sigma, x):
    """TN CRPS with its first and second partials in mu and sigma (unvalidated).

    With A = CRPS/sigma, z = (x - mu)/sigma, r = mu/sigma, the same
    ratios U = Phi(-z)/Phi(r), D = phi(z)/Phi(r) and
    P = Phi(sqrt2 r)/Phi(r)^2 as the CRPS, and lam = phi(r)/Phi(r):
    A_z = 1 - 2U, A_r = 2 lam q with q = z U - D + P/sqrt(pi) - lam,
    A_zz = 2D, A_zr = 2 lam U and A_rr = 2 lam ((r + 2 lam)(lam - q)
    - lam P/sqrt(pi)).  Then dCRPS/dmu = A_r - A_z, dCRPS/dsigma =
    A - z A_z - r A_r, and sigma times the second partials is
    A_zz - 2 A_zr + A_rr (mu mu), z (A_zz - A_zr) + r (A_zr - A_rr)
    (mu sigma) and z^2 A_zz + 2 z r A_zr + r^2 A_rr (sigma sigma).
    Returns the CRPS, (d_mu, d_sigma) and (h_mu_mu, h_mu_sigma, h_sigma_sigma).
    """
    a, r, z, upper_ratio, dens_ratio, pair_ratio, lam = _crps_tn_terms(mu, sigma, x)
    pair = pair_ratio / _SQRT_PI
    q = z * upper_ratio - dens_ratio + pair - lam
    a_z = 1.0 - 2.0 * upper_ratio
    a_r = 2.0 * lam * q
    a_zz = 2.0 * dens_ratio
    a_zr = 2.0 * lam * upper_ratio
    a_rr = 2.0 * lam * ((r + 2.0 * lam) * (lam - q) - lam * pair)
    grad = (a_r - a_z, a - z * a_z - r * a_r)
    hess = (
        (a_zz - 2.0 * a_zr + a_rr) / sigma,
        (z * (a_zz - a_zr) + r * (a_zr - a_rr)) / sigma,
        (z * z * a_zz + 2.0 * z * r * a_zr + r * r * a_rr) / sigma,
    )
    return sigma * a, grad, hess


def crps_tn(d, x):
    """Closed-form CRPS of a truncated normal forecast.

    Algebraically identical to the textbook expression but arranged as
    tail-stable ratios Phi(-z)/Phi(r), phi(z)/Phi(r), Phi(sqrt(2) r)/Phi(r)^2,
    through log-CDF differences, or Phi/phi where r = mu/sigma < 0, so deep
    truncation (r far below 0) does not cancel catastrophically.
    """
    return d.sigma * _crps_tn_terms(d.mu, d.sigma, _check_obs(x))[0]


def _crps_ln_terms(mu, sigma, x):
    # The LN CRPS with w = (log x - mu)/sigma, M = E X and
    # B = Phi(w - sigma) + Phi(sigma/sqrt2) - 1, which its derivatives reuse
    with np.errstate(divide="ignore"):
        w = np.where(x > 0.0, (np.log(np.where(x > 0.0, x, 1.0)) - mu) / sigma, -np.inf)
    mean = np.exp(mu + 0.5 * sigma * sigma)
    b = norm_cdf(w - sigma) + norm_cdf(sigma / _SQRT2) - 1.0
    return x * (2.0 * norm_cdf(w) - 1.0) - 2.0 * mean * b, w, mean, b


def _crps_ln_grad(mu, sigma, x):
    """LN CRPS with its first and second partials in mu and sigma (unvalidated).

    With E = x phi(w) = M phi(w - sigma) and K = sqrt2 M phi(sigma/sqrt2):
    dCRPS/dmu = -2 M B and dCRPS/dsigma = sigma dCRPS/dmu + 2E - K (the
    E terms of dCRPS/dmu cancel).  Since dE/dmu = E w/sigma and dE/dsigma
    = E w^2/sigma, the second partials are dCRPS/dmu + 2E/sigma (mu mu),
    dCRPS/dsigma + 2 E w/sigma (mu sigma) and dCRPS/dmu + sigma times the
    mixed one + 2 E w^2/sigma - sigma K/2 (sigma sigma).  Returns the CRPS,
    (d_mu, d_sigma) and (h_mu_mu, h_mu_sigma, h_sigma_sigma).
    """
    crps, w, mean, b = _crps_ln_terms(mu, sigma, x)
    # w is -inf at x = 0, where E and its products with w are 0
    w = np.where(x > 0.0, w, 0.0)
    e = x * np.exp(log_norm_pdf(w))
    k = _SQRT2 * mean * np.exp(log_norm_pdf(sigma / _SQRT2))
    d_mu = -2.0 * mean * b
    d_sigma = sigma * d_mu + 2.0 * e - k
    h_ms = d_sigma + 2.0 * e * w / sigma
    hess = (
        d_mu + 2.0 * e / sigma,
        h_ms,
        d_mu + sigma * h_ms + 2.0 * e * w * w / sigma - 0.5 * sigma * k,
    )
    return crps, (d_mu, d_sigma), hess


def crps_ln(d, x):
    """Closed-form CRPS of a log-normal forecast."""
    return _crps_ln_terms(d.mu, d.sigma, _check_obs(x))[0]


def _upper_tn(d, r):
    """Integral of (1 - F)^2 over [r, inf), r >= 0, for a truncated normal.

    sigma I(c) / Phi(mu/sigma)^2 with c = (mu - r)/sigma and I(c) =
    c Phi(c)^2 + 2 phi(c) Phi(c) - Phi(sqrt(2) c)/sqrt(pi), the integral
    of Phi^2 up to c, as ratios like `crps_tn`; below mu = 0, with Phi = phi m,
    as (phi(c)/phi(mu/sigma))^2 (c m(c)^2 + 2 m(c) - sqrt2 m(sqrt2 c))/m(mu/sigma)^2.
    """
    c = (d.mu - r) / d.sigma
    log_nc = log_norm_cdf(d.mu / d.sigma)
    log_c = log_norm_cdf(c)
    val = (
        c * np.exp(2.0 * (log_c - log_nc))
        + 2.0 * np.exp(log_norm_pdf(c) + log_c - 2.0 * log_nc)
        - np.exp(log_norm_cdf(_SQRT2 * c) - 2.0 * log_nc) / _SQRT_PI
    )
    if np.any(d.mu < 0.0):
        rn, rs = np.minimum(d.mu / d.sigma, 0.0), r / d.sigma
        cn, m = rn - rs, norm_cdf_pdf_ratio(rn)
        mc = norm_cdf_pdf_ratio(cn)
        deep = cn * mc * mc + 2.0 * mc - _SQRT2 * norm_cdf_pdf_ratio(_SQRT2 * cn)
        val = np.where(d.mu < 0.0, np.exp(-rs * (rs - 2.0 * rn)) * deep / (m * m), val)
    return d.sigma * val


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
    z, xi = (x - d.mu) / d.sigma, np.where(d._gumbel, 0.5, d.xi)
    t = _gev_tail(xi, z)[1]
    return z, d._gumbel, xi, t, x - d.mu + d.sigma / xi, d.sigma / xi * special.gamma(1.0 - xi)


def _on_gumbel_rows(form, gumbel, z, sigma):
    """form(z, sigma) on the Gumbel rows of a GEV batch, 0 on the others."""
    shape = np.broadcast_shapes(np.shape(gumbel), np.shape(z), np.shape(sigma))
    rows = np.broadcast_to(gumbel, shape)
    out = np.zeros(shape)
    if np.any(rows):
        out[rows] = form(np.broadcast_to(z, shape)[rows], np.broadcast_to(sigma, shape)[rows])
    return out


def _crps_gumbel(z, sigma):
    # sigma (gamma - log 2 - z + 2 E1(e^-z)).  E1(e) = -gamma - log e + e
    # - ..., and past z = 40 the e is below the rounding of z - gamma, so
    # that limit is taken before e^-z underflows (z > 745) to E1(0) = inf
    with np.errstate(over="ignore"):
        e1 = special.exp1(np.exp(-np.minimum(z, _GUMBEL_E1_LIMIT)))
    e1 = np.where(z > _GUMBEL_E1_LIMIT, z - np.euler_gamma, e1)
    return sigma * (np.euler_gamma - _LOG2 - z + 2.0 * e1)


def _upper_gumbel(z, sigma):
    # sigma (gamma - log 2 - z + 2 E1(e) - E1(2e)), e = e^-z.  Past z = 1
    # the terms cancel; the series of E1 gives the exact sum over k >= 2
    # of (-1)^k (2^k - 2) e^k/(k k!), taken to k = 24 (the next term is
    # below 1e-28 of the value) by Horner
    far = z > _GUMBEL_SERIES_FROM
    with np.errstate(over="ignore"):
        e = np.exp(-z)
    e_near, e = np.where(far, 1.0, e), np.where(far, e, 0.0)
    near = np.euler_gamma - _LOG2 - z + 2.0 * special.exp1(e_near) - special.exp1(2.0 * e_near)
    series = np.zeros_like(e)
    for c in reversed(_GUMBEL_SERIES):
        series = c + e * series
    return sigma * np.where(far, e * e * series, near)


def _crps_gev(d, x):
    """Closed-form CRPS of a GEV forecast.

    Friederichs & Thorarinsdottir (2012, Environmetrics 23:579), through
    the regularized lower incomplete gamma function; the Gumbel branch
    uses the exponential integral E1.  Defined for xi < 1 only.
    """
    z, gumbel, xi, t, lin, g = _gev_terms(d, x)
    gum = _on_gumbel_rows(_crps_gumbel, gumbel, z, d.sigma)
    general = lin * (2.0 * np.exp(-t) - 1.0) + g * (2.0 * special.gammainc(1.0 - xi, t) - 2.0**xi)
    return np.where(gumbel, gum, general)


def _upper_gev(d, r):
    """Integral of (1 - F)^2 over [r, inf) for a GEV forecast.

    E(min(X, X') - r)^+ = 2 E(X - r)^+ - E(max(X, X') - r)^+, where the
    maximum is GEV again; both partial means are incomplete gamma terms.
    """
    z, gumbel, xi, t, lin, g = _gev_terms(d, r)
    gum = _on_gumbel_rows(_upper_gumbel, gumbel, z, d.sigma)
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
    from scipy import integrate  # only the oracle integrates, so only it loads scipy.integrate

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
    """Exact CRPS of the empirical law on `values`, in O(n log n).

    A raw sample must be non-empty and finite, as an `Empirical` law's.
    """
    if not isinstance(values, Empirical):
        values = Empirical(np.ravel(values))
    return float(_crps_ensemble(values.values, _check_obs(float(x))))


def twcrps(cdf, x, r):
    """Threshold-weighted CRPS with indicator weight 1{y >= r}, by quadrature.

    The oracle `twcrps_values` is tested against; no production path
    calls it.  Matches the CRPS when r = -inf (or None).  `cdf` is a CDF
    callable, as for `crps_numeric`.
    """
    x = float(_check_obs(x))
    if r is None or (np.isscalar(r) and not np.isfinite(r) and r < 0):
        r = None
    else:
        r = float(r)
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
    params = np.broadcast_arrays(*(getattr(d, a) for a in d.params))
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


# Per family: the CRPS at x, the integral of (1 - F)^2 over [r, inf),
# and a floor for r.  TN and LN observations are >= 0 = the lower end of
# the support, so a threshold below 0 scores as one at 0; an observation
# may lie below a GEV's lower endpoint, so GEV thresholds stay as given.
_CLOSED_FORMS = {
    TruncatedNormal: (crps_tn, _upper_tn, 0.0),
    LogNormal: (crps_ln, _upper_ln, 0.0),
    GEV: (_crps_gev, _upper_gev, -math.inf),
}


def _score_batches(forecasts, obs, r):
    # CRPS (r None) or twCRPS at r of each case, one closed form per part
    batch = ForecastBatch.of(forecasts)
    obs = _check_obs(obs)
    out = np.empty(len(batch))
    for rows, law in batch.parts:
        y = obs[rows]
        if type(law) is Empirical:
            v = law.values
            if r is not None:  # the CRPS of the sample censored at r, observed at max(y, r)
                v, y = np.maximum(v, r), np.maximum(y, r)
            out[rows] = _crps_ensemble(v, y)
            continue
        crps, upper, floor = _CLOSED_FORMS[type(law)]
        if r is None:
            out[rows] = crps(law, y)
        else:
            r_eff = max(r, floor)
            out[rows] = crps(law, np.maximum(y, r_eff)) - crps(law, r_eff) + upper(law, r_eff)
    return out


def crps_values(dists, obs):
    """Per-case CRPS of a ForecastBatch or a list of predictive laws.

    Closed forms per family part; exact sums for empirical forecasts.
    """
    return _score_batches(dists, obs, None)


def twcrps_values(dists, obs, r):
    """Per-case twCRPS at threshold r (-inf: the CRPS) of a forecast set.

    The CRPS of F censored by z -> max(z, r), observed at max(y, r)
    (Allen, Ginsbourger & Ziegel 2023), as CRPS(F, max(y, r)) -
    CRPS(F, r) + U(r), U(r) the integral of (1 - F)^2 over [r, inf):
    for y <= r only U(r) remains, so no large CRPS values cancel.  The
    closed forms of U round at about 1e-14 of the scale in the far
    tail, so the score, a nonnegative integral, is clipped at 0.
    """
    r = _check_threshold(r)
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
        out = asdict(self)
        out["mean_twcrps"] = {f"{r:g}": v for r, v in sorted(self.mean_twcrps.items())}
        return out
