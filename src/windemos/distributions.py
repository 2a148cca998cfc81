"""Predictive distributions for nonnegative wind speed.

Three parametric families: a normal law left-truncated at zero, a
log-normal, and a generalized extreme value (GEV) law.  Parameters may
be scalars or broadcastable arrays and every method is vectorized in
both the parameters and the evaluation point.

All normal-CDF arithmetic routes through the complementary error
function and its log-domain variants, so tail probabilities remain
accurate for extreme arguments (deeply truncated normals in particular).
"""

import math

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


def norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z - _LOG_SQRT_2PI)


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


def _uniform_open(rng, size, shape):
    # Uniform draws guarded away from 0 so inverse transforms stay finite.
    u = rng.random(size=shape if size is None else size)
    return np.maximum(u, np.finfo(float).tiny)


class TruncatedNormal:
    """Normal distribution truncated to [0, inf).

    Parameters
    ----------
    mu : float or array
        Location of the parent normal, in m/s.
    sigma : float or array
        Scale of the parent normal, > 0.
    """

    def __init__(self, mu, sigma):
        self.mu = _validate_finite(mu, "mu")
        self.sigma = _validate_positive(sigma, "sigma")

    @property
    def _ratio(self):
        return self.mu / self.sigma

    @property
    def _log_norm_const(self):
        # log Phi(mu/sigma), the truncation normalizer
        return log_norm_cdf(self._ratio)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # 1 - Phi((mu-x)/sigma)/Phi(mu/sigma), through the log of that
        # ratio; x below 0 would overflow it, and F is 0 there
        x0 = np.maximum(x, 0.0)
        log_sf = log_norm_cdf((self.mu - x0) / self.sigma) - self._log_norm_const
        if np.any(self.mu < 0.0):
            # The log-CDF difference loses digits as r = mu/sigma falls: with
            # Phi = phi m (`norm_cdf_pdf_ratio`) and xs = x/sigma, the log is
            # -xs (xs/2 - r) + log(m(r - xs)/m(r)), as in the TN scores
            r, xs = np.minimum(self._ratio, 0.0), x0 / self.sigma
            with np.errstate(divide="ignore", over="ignore"):  # -inf as x -> inf
                ratio = np.log(norm_cdf_pdf_ratio(r - xs) / norm_cdf_pdf_ratio(r))
                log_sf = np.where(self.mu < 0.0, ratio - xs * (0.5 * xs - r), log_sf)
        return np.where(x <= 0.0, 0.0, np.clip(-np.expm1(log_sf), 0.0, 1.0))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        with np.errstate(invalid="ignore"):
            val = log_norm_pdf(z) - np.log(self.sigma) - self._log_norm_const
        return np.where(x < 0.0, -np.inf, val)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def mean(self):
        # mu + sigma phi(r)/Phi(r), the ratio below r = 0 as 1/(Phi/phi)(r)
        r = self._ratio
        lam = np.exp(log_norm_pdf(r) - self._log_norm_const)
        return self.mu + self.sigma * np.where(r < 0.0, 1.0 / norm_cdf_pdf_ratio(r), lam)

    def median(self):
        return self.quantile(0.5)

    def quantile(self, p):
        # Rounding can leave p -> 0 a hair below the support
        return np.maximum(self._inverse_cdf(_check_prob(p)), 0.0)

    def _inverse_cdf(self, u):
        # Solve Phi((mu - q)/sigma) = (1-u) Phi(mu/sigma) in the log domain
        return self.mu - self.sigma * special.ndtri_exp(np.log1p(-u) + self._log_norm_const)

    def sample(self, rng, size=None):
        """Inverse-transform draws using a seeded numpy Generator."""
        shape = np.broadcast_shapes(np.shape(self.mu), np.shape(self.sigma))
        return self._inverse_cdf(_uniform_open(rng, size, shape))

    def neg_mass(self):
        return np.zeros(np.broadcast_shapes(np.shape(self.mu), np.shape(self.sigma)))

    def __repr__(self):
        return f"TruncatedNormal(mu={self.mu!r}, sigma={self.sigma!r})"


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


class LogNormal:
    """Log-normal distribution with log-scale location and shape.

    Parameters
    ----------
    mu : float or array
        Mean of log(X).
    sigma : float or array
        Standard deviation of log(X), > 0.
    """

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

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def mean(self):
        return np.exp(self.mu + 0.5 * self.sigma * self.sigma)

    def median(self):
        return np.exp(self.mu)

    def quantile(self, p):
        return np.exp(self.mu + self.sigma * special.ndtri(_check_prob(p)))

    def sample(self, rng, size=None):
        """Inverse-transform draws using a seeded numpy Generator."""
        shape = np.broadcast_shapes(np.shape(self.mu), np.shape(self.sigma))
        u = _uniform_open(rng, size, shape)
        return np.exp(self.mu + self.sigma * special.ndtri(u))

    def neg_mass(self):
        return np.zeros(np.broadcast_shapes(np.shape(self.mu), np.shape(self.sigma)))

    def __repr__(self):
        return f"LogNormal(mu={self.mu!r}, sigma={self.sigma!r})"


class GEV:
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

    def __init__(self, mu, sigma, xi):
        self.mu = _validate_finite(mu, "mu")
        self.sigma = _validate_positive(sigma, "sigma")
        self.xi = _validate_finite(xi, "xi")

    @property
    def _gumbel(self):
        return np.abs(self.xi) < _SMALL_XI

    def support(self):
        """Lower and upper endpoints of the support."""
        shape = np.broadcast_shapes(
            np.shape(self.mu), np.shape(self.sigma), np.shape(self.xi)
        )
        mu, sigma, xi = (
            np.broadcast_to(self.mu, shape),
            np.broadcast_to(self.sigma, shape),
            np.broadcast_to(self.xi, shape),
        )
        gumbel = np.abs(xi) < _SMALL_XI
        with np.errstate(divide="ignore"):
            endpoint = mu - sigma / np.where(gumbel, np.inf, xi)
        lo = np.where(~gumbel & (xi > 0.0), endpoint, -np.inf)
        hi = np.where(~gumbel & (xi < 0.0), endpoint, np.inf)
        return lo, hi

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        gumbel = self._gumbel
        xi_safe = np.where(gumbel, 1.0, self.xi)
        t = 1.0 + xi_safe * z
        inside = t > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            val = np.exp(-np.power(np.where(inside, t, 1.0), -1.0 / xi_safe))
            out_of_support = np.where(xi_safe > 0.0, 0.0, 1.0)
            branch = np.where(inside, val, out_of_support)
            gum = np.exp(-np.exp(-z))
        return np.where(gumbel, gum, branch)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        gumbel = self._gumbel
        xi_safe = np.where(gumbel, 1.0, self.xi)
        t = 1.0 + xi_safe * z
        inside = t > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            # log1p keeps log t accurate for xi just off the Gumbel switch
            logt = np.log1p(np.where(inside, xi_safe * z, 0.0))
            branch = (
                -np.log(self.sigma)
                - (1.0 + 1.0 / xi_safe) * logt
                - np.exp(-logt / xi_safe)
            )
            branch = np.where(inside, branch, -np.inf)
            gum = -np.log(self.sigma) - z - np.exp(-z)
        return np.where(gumbel, gum, branch)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def mean(self):
        """Finite only for xi < 1."""
        if np.any(np.asarray(self.xi) >= 1.0):
            raise UndefinedMomentError("GEV mean is undefined for xi >= 1")
        gumbel = self._gumbel
        xi_safe = np.where(gumbel, 0.5, self.xi)
        with np.errstate(invalid="ignore"):
            branch = self.mu + self.sigma * (special.gamma(1.0 - xi_safe) - 1.0) / xi_safe
        gum = self.mu + self.sigma * np.euler_gamma
        return np.where(gumbel, gum, branch)

    def median(self):
        return self.quantile(0.5)

    def quantile(self, p):
        log_g = np.log(-np.log(_check_prob(p)))  # log of -log F(q)
        gumbel = self._gumbel
        xi_safe = np.where(gumbel, 1.0, self.xi)
        # expm1 keeps ((-log p)^-xi - 1)/xi accurate as xi nears the Gumbel switch
        branch = self.mu + self.sigma * np.expm1(-xi_safe * log_g) / xi_safe
        gum = self.mu - self.sigma * log_g
        return np.where(gumbel, gum, branch)

    def sample(self, rng, size=None):
        """Inverse-transform draws using a seeded numpy Generator."""
        shape = np.broadcast_shapes(
            np.shape(self.mu), np.shape(self.sigma), np.shape(self.xi)
        )
        u = _uniform_open(rng, size, shape)
        gumbel = self._gumbel
        xi_safe = np.where(gumbel, 1.0, self.xi)
        g = -np.log(u)
        branch = self.mu + self.sigma * (np.power(g, -xi_safe) - 1.0) / xi_safe
        gum = self.mu - self.sigma * np.log(g)
        return np.where(gumbel, gum, branch)

    def neg_mass(self):
        """Probability assigned to negative wind speeds."""
        return self.cdf(0.0)

    def __repr__(self):
        return f"GEV(mu={self.mu!r}, sigma={self.sigma!r}, xi={self.xi!r})"
