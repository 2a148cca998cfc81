"""Predictive distributions for nonnegative wind speed.

Three parametric families: a normal law left-truncated at zero, a
log-normal, and a generalized extreme value (GEV) law.  Parameters may
be scalars or broadcastable arrays and every method is vectorized in
both the parameters and the evaluation point.

Each family is a `_Law`: it declares its parameter names once, in
`params` (constructor order, which `scoring.ForecastBatch` reads to
stack and split laws), and its own `cdf`, `logpdf`, `mean` and
`_inverse` (the quantile of checked levels); the density, median,
quantile, sampling, negative mass and repr derive from those.

All normal-CDF arithmetic routes through the complementary error
function and its log-domain variants, so tail probabilities remain
accurate for extreme arguments (deeply truncated normals in particular).
"""

import math
from functools import cached_property

import numpy as np
from scipy import special

from .errors import InvalidInputError, InvalidParameterError, UndefinedMomentError

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

# Below this the GEV xi-branch cancels badly; use the Gumbel form.
_SMALL_XI = 1e-6


def norm_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * special.erfc(-np.asarray(z, dtype=float) / _SQRT2)


def log_norm_cdf(z):
    """log Phi(z), stable for very negative z."""
    return special.log_ndtr(np.asarray(z, dtype=float))


def log_norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return -0.5 * z * z - _LOG_SQRT_2PI


def norm_cdf_pdf_ratio(t):
    """Phi(t)/phi(t) = sqrt(pi/2) erfcx(-t/sqrt2), with no exp(t^2/2) to overflow."""
    return _SQRT_HALF_PI * special.erfcx(-np.asarray(t, dtype=float) / _SQRT2)


def _validate_positive(value, name):
    # One value, as in the law of one forecast case, is checked by float
    # comparison, not by numpy calls; 0 < v < inf is false for NaN
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        ok = 0.0 < float(arr) < math.inf
    else:
        ok = ((arr > 0.0) & (arr < np.inf)).all()
    if not ok:
        raise InvalidParameterError(f"{name} must be finite and > 0")
    return arr


def _validate_finite(value, name):
    arr = np.asarray(value, dtype=float)
    if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise InvalidInputError("probability level must lie strictly in (0, 1)")
    return p


def _gev_tail(xi, z):
    """log(1 + xi z), -inf off the support, and the GEV's t = -log F =
    (1 + xi z)^(-1/xi) as exp(-log1p(xi z)/xi), which keeps its digits as
    xi (nonzero) nears the Gumbel switch.  Off the support t is then inf
    below it (xi > 0) and 0 above it (xi < 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        log_u = np.log1p(np.maximum(xi * z, -1.0))
        return log_u, np.exp(-log_u / xi)


class _Law:
    """A parametric law of one case, or of many with array parameters.

    Each family names its parameters in `params`, in constructor order,
    and gives `cdf`, `logpdf`, `mean` and `_inverse`, the quantile at
    levels already checked to lie in (0, 1); the rest derives from those.
    """

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def median(self):
        return self.quantile(0.5)

    def quantile(self, p):
        return self._inverse(_check_prob(p))

    def sample(self, rng, size=None):
        """Inverse-transform draws using a seeded numpy Generator; the
        uniforms are guarded away from 0, so the draws stay finite."""
        shape = np.broadcast_shapes(*(np.shape(getattr(self, a)) for a in self.params))
        u = rng.random(size=shape if size is None else size)
        return self._inverse(np.maximum(u, np.finfo(float).tiny))

    def neg_mass(self):
        """Probability assigned to negative wind speeds."""
        return self.cdf(0.0)

    def __repr__(self):
        args = ", ".join(f"{a}={getattr(self, a)!r}" for a in self.params)
        return f"{type(self).__name__}({args})"


class TruncatedNormal(_Law):
    """Normal distribution truncated to [0, inf).

    Parameters
    ----------
    mu : float or array
        Location of the parent normal, in m/s.
    sigma : float or array
        Scale of the parent normal, > 0.
    """

    params = ("mu", "sigma")

    def __init__(self, mu, sigma):
        self.mu = _validate_finite(mu, "mu")
        self.sigma = _validate_positive(sigma, "sigma")

    @property
    def _log_norm_const(self):
        # log Phi(mu/sigma), the truncation normalizer
        return log_norm_cdf(self.mu / self.sigma)

    def _log_tail(self, x):
        """log(1 - F) and log f at max(x, 0), through log-CDF differences.

        Below mu = 0 those lose digits as r = mu/sigma falls: with Phi = phi m
        (`norm_cdf_pdf_ratio`) and xs = x/sigma, the logs there are
        -xs (xs/2 - r) + log(m(r - xs)/m(r)) and -xs (xs/2 - r) - log(sigma m(r)).
        """
        x0 = np.maximum(x, 0.0)
        z = (x0 - self.mu) / self.sigma
        log_nc = self._log_norm_const
        log_sf = log_norm_cdf(-z) - log_nc
        log_f = log_norm_pdf(z) - np.log(self.sigma) - log_nc
        if np.any(self.mu < 0.0):
            r, xs = np.minimum(self.mu / self.sigma, 0.0), x0 / self.sigma
            m = norm_cdf_pdf_ratio(r)
            with np.errstate(divide="ignore", over="ignore"):  # -inf as x -> inf
                e = -xs * (0.5 * xs - r)
                deep_sf = np.log(norm_cdf_pdf_ratio(r - xs) / m) + e
                log_sf = np.where(self.mu < 0.0, deep_sf, log_sf)
                log_f = np.where(self.mu < 0.0, e - np.log(self.sigma * m), log_f)
        return log_sf, log_f

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, np.clip(-np.expm1(self._log_tail(x)[0]), 0.0, 1.0))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, -np.inf, self._log_tail(x)[1])

    def mean(self):
        # mu + sigma phi(r)/Phi(r), the ratio below r = 0 as 1/(Phi/phi)(r).
        # Below r = -5 that sum cancels; r + phi(r)/Phi(r) is then Laplace's
        # continued fraction 1/(t + 2/(t + 3/(t + ...))), t = -r, to 40 terms
        r = self.mu / self.sigma
        lam = np.exp(log_norm_pdf(r) - self._log_norm_const)
        mean = self.mu + self.sigma * np.where(r < 0.0, 1.0 / norm_cdf_pdf_ratio(r), lam)
        if np.any(r < -5.0):
            t = f = np.maximum(-r, 5.0)
            for k in range(40, 1, -1):
                f = t + k / f
            mean = np.where(r < -5.0, self.sigma / f, mean)
        return mean

    def _inverse(self, u):
        # Solve Phi((mu - q)/sigma) = (1-u) Phi(mu/sigma) in the log domain;
        # rounding can leave u -> 0 a hair below the support
        log_target = np.log1p(-u)
        q = self.mu - self.sigma * special.ndtri_exp(log_target + self._log_norm_const)
        if np.any(self.mu < 0.0):
            # That sum adds log(1 - u) to log Phi(r) of size r^2/2 and loses
            # digits as r falls.  log(1 - F) is concave, so Newton steps on
            # it converge from either side.  Rows with mu >= 0 keep q (their
            # step may overflow where f underflows)
            for _ in range(3):
                log_sf, log_f = self._log_tail(q)
                with np.errstate(over="ignore"):
                    step = (log_sf - log_target) * np.exp(log_sf - log_f)
                q = np.where(self.mu < 0.0, np.maximum(q, 0.0) + step, q)
        return np.maximum(q, 0.0)


class MeanVariance:
    """Log-normal parameter pair (mean, variance) on the original scale."""

    def __init__(self, m, v):
        self.m = _validate_positive(m, "m")
        self.v = _validate_positive(v, "v")

    def to_lognormal(self):
        """Convert to log-scale parameters.

        mu = log(m^2 / sqrt(v + m^2)), sigma = sqrt(log(1 + v/m^2)).
        """
        ratio = self.v / (self.m * self.m)
        mu = np.log(self.m) - 0.5 * np.log1p(ratio)
        sigma = np.sqrt(np.log1p(ratio))
        return LogNormal(mu, sigma)

    def __repr__(self):
        return f"MeanVariance(m={self.m!r}, v={self.v!r})"


class LogNormal(_Law):
    """Log-normal distribution with log-scale location and shape.

    Parameters
    ----------
    mu : float or array
        Mean of log(X).
    sigma : float or array
        Standard deviation of log(X), > 0.
    """

    params = ("mu", "sigma")

    def __init__(self, mu, sigma):
        self.mu = _validate_finite(mu, "mu")
        self.sigma = _validate_positive(sigma, "sigma")

    def mean_variance(self):
        s2 = self.sigma * self.sigma
        m = np.exp(self.mu + 0.5 * s2)
        v = np.expm1(s2) * np.exp(2.0 * self.mu + s2)
        return MeanVariance(m, v)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (np.log(x) - self.mu) / self.sigma
        return np.where(x <= 0.0, 0.0, norm_cdf(w))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.log(x)
            w = (logx - self.mu) / self.sigma
            val = log_norm_pdf(w) - np.log(self.sigma) - logx
        return np.where(x <= 0.0, -np.inf, val)

    def mean(self):
        return np.exp(self.mu + 0.5 * self.sigma * self.sigma)

    def _inverse(self, u):
        return np.exp(self.mu + self.sigma * special.ndtri(u))


class GEV(_Law):
    """Generalized extreme value distribution.

    Parameters
    ----------
    mu : float or array
        Location, in m/s.
    sigma : float or array
        Scale, > 0.
    xi : float or array
        Shape.  |xi| < 1e-6 is evaluated on the Gumbel branch.
    """

    params = ("mu", "sigma", "xi")

    def __init__(self, mu, sigma, xi):
        self.mu = _validate_finite(mu, "mu")
        self.sigma = _validate_positive(sigma, "sigma")
        self.xi = _validate_finite(xi, "xi")

    # Computed once per law, on first use: a law of one case may never need them
    @cached_property
    def _gumbel(self):
        return np.abs(self.xi) < _SMALL_XI

    @cached_property
    def _xi_safe(self):  # 1 on the Gumbel rows, where the xi-branch is unused
        return np.where(self._gumbel, 1.0, self.xi)

    def support(self):
        """Lower and upper endpoints of the support."""
        endpoint = self.mu - self.sigma / np.where(self._gumbel, np.inf, self.xi)
        lo = np.where(~self._gumbel & (self.xi > 0.0), endpoint, -np.inf)
        hi = np.where(~self._gumbel & (self.xi < 0.0), endpoint, np.inf)
        return lo, hi

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        with np.errstate(over="ignore"):
            gum = np.exp(-np.exp(-z))
        return np.where(self._gumbel, gum, np.exp(-_gev_tail(self._xi_safe, z)[1]))

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        log_u, t = _gev_tail(self._xi_safe, z)
        with np.errstate(over="ignore", invalid="ignore"):
            branch = -np.log(self.sigma) - (1.0 + 1.0 / self._xi_safe) * log_u - t
            branch = np.where(log_u > -np.inf, branch, -np.inf)
            gum = -np.log(self.sigma) - z - np.exp(-z)
        return np.where(self._gumbel, gum, branch)

    def mean(self):
        """Finite only for xi < 1."""
        if np.any(np.asarray(self.xi) >= 1.0):
            raise UndefinedMomentError("GEV mean is undefined for xi >= 1")
        xi_safe = np.where(self._gumbel, 0.5, self.xi)
        with np.errstate(invalid="ignore"):
            branch = self.mu + self.sigma * (special.gamma(1.0 - xi_safe) - 1.0) / xi_safe
        gum = self.mu + self.sigma * np.euler_gamma
        return np.where(self._gumbel, gum, branch)

    def _inverse(self, u):
        log_g = np.log(-np.log(u))  # log of -log F(q)
        # expm1 keeps ((-log u)^-xi - 1)/xi accurate as xi nears the Gumbel switch
        branch = self.mu + self.sigma * np.expm1(-self._xi_safe * log_g) / self._xi_safe
        return np.where(self._gumbel, self.mu - self.sigma * log_g, branch)
