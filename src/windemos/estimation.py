"""Parameter estimation and training pipelines.

TN and LN coefficients are fitted by minimizing the mean closed-form
CRPS over a training window; GEV coefficients by maximum likelihood.
Each objective returns its value and its exact gradient: the CRPS
partial derivatives in each case's location and scale (or the GEV
score), chained through the links; a floored link passes no gradient.
The optimizer is L-BFGS-B with one restart from the incumbent.  Its
bounds keep the TN and LN weights and variance coefficients
nonnegative and the GEV shape below 1, where the predictive mean and
CRPS exist.  It works in standardized coordinates, built once per
training window: each group weight acts on its group-sum column
centred and divided by its spread, and the variance (GEV scale) slope
on s2 (fbar) divided by its RMS.  The map is linear and scales every
bounded coordinate by a positive factor alone, so the bounds keep
their form; it roughly halves the evaluations per fit.

A dataset is parsed once into a `CaseTable`: its cases sorted by date,
with the columns every link and fit reads (`CaseRows`).  Rolling
calibration refits daily on the n most recent prior days that have any
data, pooling all stations, warm-starting each day from the previous
day's solution; that window is one row slice of the table, and each
target day is predicted with one link call per branch into a
`ForecastBatch`, all days joined once at the end.  Grid search
evaluates (training length, threshold) cells on a shared selection-day
set aligned to the longest window, all on one table.
"""

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .distributions import _SMALL_XI, GEV, MeanVariance, TruncatedNormal
from .errors import (
    EstimationError,
    InsufficientDataError,
    InvalidInputError,
    TrainingFallbackWarning,
)
from .models import (
    MEAN_FLOOR,
    SCALE_FLOOR,
    GevParams,
    LnParams,
    TnParams,
    gev_link,
    ln_link,
    tn_link,
)
from .scoring import Empirical, ForecastBatch, _crps_ln_grad, _crps_tn_grad, crps_values

MIXTURES = ("tn-ln", "tn-gev")
# L-BFGS-B stopping rules; each fit runs it twice (see `_fit`)
_FIT_OPTIONS = {"maxiter": 1000, "ftol": 1e-13, "gtol": 1e-7}
# The GEV shape stays below 1, where the mean and the CRPS exist
_XI_MAX = 1.0 - 1e-6
_BIG = 1e12
_SUPPORT_PENALTY = 1e6
# A link column whose spread (RMS for s2 and fbar) is at most this,
# times 1 + |mean| for a group sum, is constant up to roundoff
_FLAT = 1e-9
_MIN_SPLIT_CASES = 10
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Which predictive family to train, with mixture settings."""

    family: str
    theta: float | None = None
    strategy: str = "split"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown model family {self.family!r}")
        if self.is_mixture:
            if self.theta is None:
                raise InvalidInputError("mixture models need a threshold theta")
            theta = float(self.theta)
            if np.isnan(theta) or theta < 0.0:
                raise InvalidInputError("theta must be >= 0 (inf allowed)")
            object.__setattr__(self, "theta", theta)
        if self.strategy not in ("split", "shared"):
            raise InvalidInputError("strategy must be 'split' or 'shared'")

    @property
    def is_mixture(self):
        return self.family in MIXTURES

    @property
    def high_family(self):
        return self.family.split("-")[1] if self.is_mixture else None


@dataclass(frozen=True)
class TrainingWindow:
    """The pooled forecast cases from the n days preceding a target day."""

    n: int
    cases: tuple

    def __post_init__(self):
        if int(self.n) < 1:
            raise InvalidInputError("window length must be >= 1")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "cases", tuple(self.cases))


@dataclass
class FitResult:
    params: object
    objective: float
    converged: bool
    n_evals: int
    at_boundary: bool = False


@dataclass
class CalibrationResult:
    """Per-day fits plus every verification-day case and its prediction."""

    model: ModelSpec
    cases: tuple = ()  # EnsembleForecast per verification case, by day
    forecasts: ForecastBatch = field(default_factory=lambda: ForecastBatch(0, ()))  # of `cases`
    fits: dict = field(default_factory=dict)  # date -> FitResult | (low, high)
    skipped: list = field(default_factory=list)  # (date, reason)
    n_split_fallbacks: int = 0  # split-strategy days trained shared instead

    @property
    def pairs(self):
        """(case, scalar law) per verification case, cut from `forecasts` on each call."""
        return list(zip(self.cases, self.forecasts.laws()))

    def fit_counts(self):
        """Counts over the fits; both branches of a regime-switching day count."""
        days = self.fits.values()
        fits = [f for day in days for f in (day if isinstance(day, tuple) else (day,))]
        return {
            "n_fits": len(fits),
            "n_fits_nonconverged": sum(not f.converged for f in fits),
            "n_fits_at_floor": sum(f.at_boundary for f in fits),
            "n_optimizer_evals": sum(f.n_evals for f in fits),
            "n_split_fallbacks": self.n_split_fallbacks,
        }


@dataclass
class GridSearchResult:
    cells: dict  # (length, theta) -> mean CRPS; theta None for pure models
    chosen_length: int
    chosen_theta: float | None
    days: tuple
    n_cases: int
    fit_counts: dict  # `CalibrationResult.fit_counts` summed over the cells' calibrations


@dataclass(frozen=True, eq=False)
class CaseRows:
    """Forecast cases as columns, one row per case, for one GroupSpec.

    `obs` (NaN where a case has none), the per-group member sums `gs`,
    the unbiased ensemble variance `s2`, the ensemble mean `fbar` and the
    ensemble median: everything the links and the fits read.  Indexing
    by a slice or a boolean mask gives the CaseRows of those rows.
    """

    obs: np.ndarray
    gs: np.ndarray
    s2: np.ndarray
    fbar: np.ndarray
    median: np.ndarray

    @classmethod
    def of(cls, cases, g):
        if cases:
            members = np.array([c.members for c in cases], dtype=float)
        else:
            members = np.empty((0, g.total))
        obs = np.array([np.nan if c.obs is None else c.obs for c in cases], dtype=float)
        return cls(
            obs,
            g.group_sums(members),
            np.var(members, axis=1, ddof=1),
            np.mean(members, axis=1),
            np.median(members, axis=1),
        )

    def __len__(self):
        return self.obs.size

    def __getitem__(self, index):
        return CaseRows(
            self.obs[index], self.gs[index], self.s2[index], self.fbar[index], self.median[index]
        )


class CaseTable:
    """A dataset's cases sorted by date, with their columns.

    The sort is stable, so each day keeps the dataset's order of its
    cases.  Day i (of `dates`) holds rows `bounds[i]:bounds[i + 1]`, so
    the n days before it are one row slice.  Without a GroupSpec the
    table has no columns (`rows` is None): the baselines need only the
    days.
    """

    def __init__(self, dataset, g=None):
        self.cases = tuple(sorted(dataset, key=lambda c: c.date))
        self.g = g
        starts = [k for k, c in enumerate(self.cases) if k == 0 or c.date != self.cases[k - 1].date]
        self.dates = tuple(self.cases[k].date for k in starts)
        self.bounds = (*starts, len(self.cases))
        self.rows = None if g is None else CaseRows.of(self.cases, g)


def _as_table(dataset, g=None):
    # The dataset's CaseTable: a table passed in is reused as it is
    if not isinstance(dataset, CaseTable):
        return CaseTable(dataset, g)
    if g is not None and dataset.g != g:
        raise InvalidInputError("the case table was built for another group spec")
    return dataset


def _training_rows(window, g):
    # A training window's rows: CaseRows as given, or built from the
    # cases of a TrainingWindow
    rows = window if isinstance(window, CaseRows) else CaseRows.of(window.cases, g)
    if len(rows) == 0:
        raise InsufficientDataError("training window is empty")
    if np.any(np.isnan(rows.obs)):
        raise InvalidInputError("every training case needs an observation")
    return rows


def _window_arrays(window, g):
    """Group sums, s2, ensemble mean and obs of a TrainingWindow or CaseRows."""
    rows = _training_rows(window, g)
    return rows.gs, rows.s2, rows.fbar, rows.obs


def default_tn_params(g):
    """Cold start: ensemble-mean weighting with unit variance coefficients."""
    return TnParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0)


def default_ln_params(g):
    return LnParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0)


def default_gev_params(g):
    return GevParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0, 0.05)


def _standardizer(gs, x, n):
    """The matrix A of u = A v that puts a window's link columns on one scale.

    In v each group weight multiplies its `gs` column centred on its mean
    and divided by its spread, the mean folded into the intercept
    (a0 = v0 - sum_j mean_j v_j / spread_j), and the slope of the second
    link multiplies `x` (s2, or fbar for the GEV) divided by its RMS.
    The other n - m - 2 coordinates, the second intercept and the GEV
    shape, are their own.  A column with no spread or RMS up to roundoff
    (one case, identical members) keeps the scale 1.
    """
    m = gs.shape[1]
    center = np.mean(gs, axis=0)
    spread = np.std(gs, axis=0)
    spread = np.where(spread > _FLAT * (1.0 + np.abs(center)), spread, 1.0)
    rms = np.sqrt(np.mean(x * x))
    A = np.eye(n)
    A[0, 1 : 1 + m] = -center / spread
    A[1 : 1 + m, 1 : 1 + m] = np.diag(1.0 / spread)
    A[2 + m, 2 + m] = 1.0 / rms if rms > _FLAT else 1.0
    return A


def _standardized(objective, A):
    # The objective of v, u = A v: its value, and the gradient A^T grad(u)
    def of_v(v):
        val, grad = objective(A @ v)
        return val, A.T @ grad

    return of_v


def _fit(objective, u0, bounds, A):
    """Minimize an exact value-and-gradient objective by L-BFGS-B.

    The optimizer works in the standardized coordinates v of u = A v
    (`_standardizer`), starting from A^-1 u0, and the fit returns A v.
    A scales each coordinate bounded by 0 by a positive factor alone and
    leaves the GEV shape as it is, so `bounds` hold for v unchanged.
    One restart from the incumbent rescues runs whose line search stalls
    at a kink, such as the GEV support penalty.  A stalled run can end on
    a rejected trial point above its start, so the incumbent is the best
    point evaluated so far, and that is what the fit returns.
    """
    of_v = _standardized(objective, A)
    best = [np.inf, np.linalg.solve(A, u0)]

    def tracked(v):
        val, grad = of_v(v)
        if val < best[0]:
            best[:] = val, np.array(v, dtype=float)
        return val, grad

    evals, converged = 0, False
    for _ in range(2):
        run = optimize.minimize(
            tracked, best[1], jac=True, method="L-BFGS-B", bounds=bounds, options=_FIT_OPTIONS
        )
        evals += int(run.nfev)
        converged = converged or bool(run.success)
    return A @ best[1], float(best[0]), converged, evals


def _mean_and_grad(per_case, grad):
    # Mean objective and its gradient (grad holds the sums over cases);
    # a non-finite value or gradient is a wall the line search backs off
    val = float(np.mean(per_case))
    grad = grad / per_case.size
    if not (np.isfinite(val) and np.all(np.isfinite(grad))):
        return _BIG, np.zeros_like(grad)
    return val, grad


def _links(u, gs, x):
    # The two linear links of u = (intercept, group weights, c0, c1, ...)
    # before their floors: intercept + gs @ weights and c0 + c1 x
    m = gs.shape[1]
    return u[0] + gs @ u[1 : 1 + m], u[1 + m] + u[2 + m] * x


def _links_grad(gs, x, d_first, d_second):
    # Per-case derivatives in the two links, chained back to their
    # coefficients and summed over cases
    return np.concatenate([[np.sum(d_first)], d_first @ gs, [np.sum(d_second), d_second @ x]])


def _tn_objective(gs, s2, obs):
    """Mean TN CRPS of u = (a0, a, b0, b1), with its gradient."""

    def objective(u):
        loc, var_raw = _links(u, gs, s2)
        scale = np.sqrt(np.maximum(var_raw, SCALE_FLOOR))
        with np.errstate(all="ignore"):
            crps, d_loc, d_scale = _crps_tn_grad(loc, scale, obs)
            # d scale / d scale^2 = 1/(2 scale) off the floor, 0 on it
            d_var = np.where(var_raw > SCALE_FLOOR, 0.5 * d_scale / scale, 0.0)
            return _mean_and_grad(crps, _links_grad(gs, s2, d_loc, d_var))

    return objective


def _ln_objective(gs, s2, obs):
    """Mean LN CRPS of u = (alpha0, alpha, beta0, beta1), with its gradient."""

    def objective(u):
        mean_raw, var_raw = _links(u, gs, s2)
        mean = np.maximum(mean_raw, MEAN_FLOOR)
        var = np.maximum(var_raw, SCALE_FLOOR)
        ratio = var / (mean * mean)
        mu = np.log(mean) - 0.5 * np.log1p(ratio)
        sigma = np.sqrt(np.log1p(ratio))
        with np.errstate(all="ignore"):
            crps, d_mu, d_sigma = _crps_ln_grad(mu, sigma, obs)
            # sigma^2 = log(mean^2 + var) - 2 log(mean), mu = log(mean) - sigma^2/2
            d_s2 = 0.5 * (d_sigma / sigma - d_mu)
            total = mean * mean + var
            d_mean = d_mu / mean - 2.0 * var * d_s2 / (mean * total)
            d_mean = np.where(mean_raw > MEAN_FLOOR, d_mean, 0.0)
            d_var = np.where(var_raw > SCALE_FLOOR, d_s2 / total, 0.0)
            return _mean_and_grad(crps, _links_grad(gs, s2, d_mean, d_var))

    return objective


_CRPS_FAMILIES = {
    "tn": (TnParams, default_tn_params, _tn_objective),
    "ln": (LnParams, default_ln_params, _ln_objective),
}


def fit_min_crps(family, g, window, init=None):
    """Minimum-CRPS estimation of TN or LN link coefficients.

    The group weights and both variance coefficients are bounded below
    by 0, so a coefficient that reaches 0 in one window can leave it in
    the next.
    """
    if family not in _CRPS_FAMILIES:
        raise InvalidInputError("fit_min_crps handles the 'tn' and 'ln' families")
    params_type, default, make_objective = _CRPS_FAMILIES[family]
    gs, s2, _, obs = _window_arrays(window, g)
    m = g.m
    if init is None:
        init = default(g)
    intercept, weights, b0, b1 = dataclasses.astuple(init)
    bounds = [(None, None)] + [(0.0, None)] * (m + 2)
    u0 = np.concatenate([[intercept], weights, [b0, b1]])
    objective, A = make_objective(gs, s2, obs), _standardizer(gs, s2, m + 3)
    u, fun, converged, evals = _fit(objective, u0, bounds, A)
    params = params_type(u[0], tuple(u[1 : 1 + m]), u[1 + m], u[2 + m])
    mean_raw, var_raw = _links(u, gs, s2)
    boundary = bool(np.any(var_raw < SCALE_FLOOR))
    if family == "ln":
        boundary = boundary or bool(np.any(mean_raw < MEAN_FLOOR))
    return FitResult(params, fun, converged, evals, boundary)


def _gev_nll_grad(z, t, sigma, xi):
    """Partial derivatives of the GEV negative log-density in (loc, sigma, xi).

    With t = 1 + xi z and s = t^(-1/xi), the density's log falls in z at
    rate k = (1 + xi - s)/t, and the xi-derivative is log(t)(s - 1)/xi^2
    + z k/xi.  On the Gumbel branch of `GEV.logpdf` (|xi| < 1e-6) k is
    1 - e^(-z) and the xi-derivative its limit z - z^2 k/2, so the shape
    can leave the branch.
    """
    if abs(xi) < _SMALL_XI:
        k = -np.expm1(-z)
        d_xi = z * (1.0 - 0.5 * z * k)
    else:
        log_t = np.log1p(xi * z)
        s = np.exp(-log_t / xi)
        k = (1.0 + xi - s) / t
        d_xi = log_t * (s - 1.0) / (xi * xi) + z * k / xi
    return -k / sigma, (1.0 - z * k) / sigma, d_xi


def _gev_objective(gs, fbar, obs):
    """Mean GEV negative log-likelihood of u = (gamma0, gamma, sigma0, sigma1, xi).

    Training cases outside the support of a proposed parameter set cost
    a large finite penalty plus the violation magnitude, steering the fit
    back to feasibility.  A case inside the support whose negative
    log-density exceeds the penalty (a floored scale far from its
    observation reaches 1e72) costs the penalty too, so no trial step
    returns a value that derails the line search.
    """

    def objective(u):
        loc, scale_raw = _links(u, gs, fbar)
        sigma, xi = np.maximum(scale_raw, SCALE_FLOOR), float(u[-1])
        if not (np.all(np.isfinite(loc)) and np.isfinite(xi)):
            return _BIG, np.zeros_like(u)
        z = (obs - loc) / sigma
        t = 1.0 + xi * z
        with np.errstate(all="ignore"):
            nll = -GEV(loc, sigma, xi).logpdf(obs)
            d_loc, d_sigma, d_xi = _gev_nll_grad(z, t, sigma, xi)
            feasible = nll < _SUPPORT_PENALTY
            # The violation -t grows where t < 0; capped cases inside are flat
            outside = ~feasible & (t < 0.0)
            per_case = np.where(feasible, nll, _SUPPORT_PENALTY + np.maximum(-t, 0.0))
            d_loc = np.where(feasible, d_loc, np.where(outside, xi / sigma, 0.0))
            d_sigma = np.where(feasible, d_sigma, np.where(outside, xi * z / sigma, 0.0))
            d_sigma = np.where(scale_raw > SCALE_FLOOR, d_sigma, 0.0)
            d_xi = np.where(feasible, d_xi, np.where(outside, -z, 0.0))
            grad = np.append(_links_grad(gs, fbar, d_loc, d_sigma), np.sum(d_xi))
            return _mean_and_grad(per_case, grad)

    return objective


def _gev_vector(p):
    # The fit's u for GEV parameters, the shape clipped to its bound
    return np.concatenate([[p.gamma0], p.gamma, [p.sigma0, p.sigma1, min(p.xi, _XI_MAX)]])


def _gev_inside(u, gs, fbar, obs):
    # Per training case: is its likelihood at u finite
    loc, scale_raw = _links(u, gs, fbar)
    if not np.all(np.isfinite(loc)):
        return np.zeros(obs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        return np.isfinite(GEV(loc, np.maximum(scale_raw, SCALE_FLOOR), u[-1]).logpdf(obs))


def fit_gev_ml(g, window, init=None):
    """Maximum-likelihood estimation of the GEV link coefficients.

    The shape is bounded below 1, where the predictive mean and CRPS
    exist; a warm start above the bound is clipped to it.  A warm start
    that leaves a training case outside the support or on the scale
    floor, where the gradient does not lead back, is replaced by the
    cold start, which holds every nonnegative observation.
    """
    gs, _, fbar, obs = _window_arrays(window, g)
    m = g.m
    u0 = _gev_vector(default_gev_params(g) if init is None else init)
    inside = _gev_inside(u0, gs, fbar, obs)
    if not np.any(inside):
        raise EstimationError(
            "no training case lies inside the GEV support at the initial "
            "parameters; restart from the Gumbel case (xi = 0)"
        )
    if not np.all(inside) or np.any(_links(u0, gs, fbar)[1] <= SCALE_FLOOR):
        u0 = _gev_vector(default_gev_params(g))
    bounds = [(None, None)] * (m + 3) + [(None, _XI_MAX)]
    objective, A = _gev_objective(gs, fbar, obs), _standardizer(gs, fbar, m + 4)
    u, fun, converged, evals = _fit(objective, u0, bounds, A)
    params = GevParams(u[0], tuple(u[1 : 1 + m]), u[1 + m], u[2 + m], u[3 + m])
    boundary = bool(np.any(params.sigma0 + params.sigma1 * fbar < SCALE_FLOOR))
    return FitResult(params, fun, converged, evals, boundary)


def _split_mask(model, rows):
    """The below-theta mask of a split fit, or None where it trains shared.

    Split training falls back to shared when either side of theta has
    fewer than 10 cases.
    """
    if model.strategy != "split":
        return None
    below = rows.median < model.theta
    n_low = int(np.sum(below))
    if min(n_low, below.size - n_low) < _MIN_SPLIT_CASES:
        return None
    return below


def fit_switch(model, g, window, init_low=None, init_high=None):
    """Train both branches of a regime-switching model.

    Split strategy: TN on cases with ensemble median below theta, the
    high-wind family at or above.  Falls back to the shared strategy
    (both branches on the full window) when either side has fewer than
    10 cases.  `window` is a TrainingWindow or the CaseRows of one.
    """
    if not model.is_mixture:
        raise InvalidInputError("fit_switch needs a mixture model spec")
    rows = _training_rows(window, g)
    low, high = rows, rows
    below = _split_mask(model, rows)
    if below is not None:
        low, high = rows[below], rows[~below]
    elif model.strategy == "split":
        n_low = int(np.sum(rows.median < model.theta))
        warnings.warn(
            f"split training has {n_low}/{len(rows) - n_low} cases below/above theta; "
            "falling back to shared training",
            TrainingFallbackWarning,
            stacklevel=2,
        )
    low_fit = _FAMILY_TABLE["tn"].fit(g, low, init_low)
    high_fit = _FAMILY_TABLE[model.high_family].fit(g, high, init_high)
    return low_fit, high_fit


@dataclass(frozen=True)
class _Family:
    fit: object  # (g, training window, init params) -> FitResult
    laws: object  # (params, CaseRows) -> one law with a parameter per row


# The fits name the module's functions at call time, so a wrapper put on
# the module (a profiler's, say) sees every fit.
_FAMILY_TABLE = {
    "tn": _Family(
        lambda g, window, init: fit_min_crps("tn", g, window, init=init),
        lambda p, rows: TruncatedNormal(*tn_link(p, rows.gs, rows.s2)),
    ),
    "ln": _Family(
        lambda g, window, init: fit_min_crps("ln", g, window, init=init),
        lambda p, rows: MeanVariance(*ln_link(p, rows.gs, rows.s2)).to_lognormal(),
    ),
    "gev": _Family(
        lambda g, window, init: fit_gev_ml(g, window, init=init),
        lambda p, rows: GEV(*gev_link(p, rows.gs, rows.fbar), np.full(len(rows), p.xi)),
    ),
}
FAMILIES = (*_FAMILY_TABLE, *MIXTURES)


def _fit_day(model, g, rows, prev):
    # One day's fit, warm-started from the previous day's (None: cold)
    if model.is_mixture:
        low, high = (None, None) if prev is None else (prev[0].params, prev[1].params)
        return fit_switch(model, g, rows, init_low=low, init_high=high)
    return _FAMILY_TABLE[model.family].fit(g, rows, None if prev is None else prev.params)


def _predict(model, fit, rows):
    """The ForecastBatch of the rows, one link call per branch.

    A mixture predicts TN where the ensemble median is below theta and
    its high-wind family elsewhere, as `predict_switch` does per case.
    """
    index = np.arange(len(rows))
    if not model.is_mixture:
        law = _FAMILY_TABLE[model.family].laws(fit.params, rows)
        return ForecastBatch(index.size, [(index, law)])
    below = rows.median < model.theta
    low = _FAMILY_TABLE["tn"].laws(fit[0].params, rows[below])
    high = _FAMILY_TABLE[model.high_family].laws(fit[1].params, rows[~below])
    return ForecastBatch(index.size, [(index[below], low), (index[~below], high)])


def days_with_data(dataset):
    """Sorted distinct dates that have at least one case."""
    return tuple(sorted({c.date for c in dataset}))


def _windows(table, n, days, skipped):
    """The target days that have n prior days with data.

    Yields (day, training rows, the day's rows) as row slices of the
    table; the window pools every station over the n most recent prior
    days that have any data.  `days` optionally restricts the target
    days; a wanted day with fewer prior days is appended to `skipped`
    with its reason.
    """
    wanted = None if days is None else set(days)
    b = table.bounds
    for i, day in enumerate(table.dates):
        if wanted is not None and day not in wanted:
            continue
        if i < n:
            skipped.append((day, f"only {i} prior days with data, need {n}"))
            continue
        yield day, slice(b[i - n], b[i]), slice(b[i], b[i + 1])


def rolling_calibrate(model, g, dataset, n, days=None, warm_start=True):
    """Daily refit over a rolling window, then predict that day's cases.

    The window for a target day holds the n most recent prior days that
    have any data (pooled across stations); days with fewer prior days
    are skipped with a report entry.  `days` optionally restricts which
    target days are fitted and predicted.  `dataset` is a list of cases
    or a CaseTable built for `g`.
    """
    table = _as_table(dataset, g)
    result = CalibrationResult(model=model)
    cases, batches, prev = [], [], None
    for day, window, target in _windows(table, n, days, result.skipped):
        rows = table.rows[window]
        if model.is_mixture and model.strategy == "split" and _split_mask(model, rows) is None:
            result.n_split_fallbacks += 1
        fit = _fit_day(model, g, rows, prev if warm_start else None)
        result.fits[day] = fit
        cases.extend(table.cases[target])
        batches.append(_predict(model, fit, table.rows[target]))
        prev = fit
    result.cases, result.forecasts = tuple(cases), ForecastBatch.concat(batches)
    return result


def _obs_by_station(cases):
    by_station = {}
    for c in cases:
        if c.obs is not None:
            by_station.setdefault(c.station, []).append(c.obs)
    if not by_station:
        raise InvalidInputError("climatology window has no observations")
    return by_station


def _climatology(by_station, station):
    # The station's own observations, else every station's
    own = by_station.get(station)
    return Empirical(own if own else [o for obs in by_station.values() for o in obs])


def climatology_forecast(window, station):
    """Training-window observations as an empirical forecast.

    Uses the station's own observations, pooling every station's only
    when the target station has none in the window.
    """
    if len(window.cases) == 0:
        raise InvalidInputError("climatology needs a nonempty window")
    return _climatology(_obs_by_station(window.cases), station)


def rolling_climatology(dataset, n, days=None):
    """Per-day climatological forecasts over the same rolling windows."""
    table = _as_table(dataset)
    pairs, skipped = [], []
    for _, window, target in _windows(table, n, days, skipped):
        # Group the window's observations by station once per day
        by_station = _obs_by_station(table.cases[window])
        per_station = {}
        for case in table.cases[target]:
            if case.station not in per_station:
                per_station[case.station] = _climatology(by_station, case.station)
            pairs.append((case, per_station[case.station]))
    return pairs, skipped


def rolling_raw(dataset, n, days=None):
    """Raw-ensemble forecasts on the days a length-n calibration covers."""
    table = _as_table(dataset)
    pairs, skipped = [], []
    for _, _, target in _windows(table, n, days, skipped):
        pairs.extend((case, Empirical(case.members)) for case in table.cases[target])
    return pairs, skipped


def _mean_crps(cases, forecasts):
    return float(np.mean(crps_values(forecasts, [c.obs for c in cases])))


def grid_search(model, g, dataset, lengths, thetas=None, selection_days=None):
    """Mean CRPS over a (training length, theta) grid, plus the argmin cell.

    Every cell is scored on the same selection days, which must each
    have at least max(lengths) prior days of data.  Ties within 1e-9
    resolve to the larger length, then the larger theta.  `dataset` is a
    list of cases or a CaseTable built for `g`.
    """
    lengths = sorted({int(n) for n in lengths})
    if not lengths:
        raise InvalidInputError("grid search needs at least one training length")
    if model.is_mixture:
        if thetas is None or len(thetas) == 0:
            raise InvalidInputError("mixture grid search needs thresholds")
        thetas = sorted({float(t) for t in thetas})
    else:
        thetas = [None]

    table = _as_table(dataset, g)
    dates = table.dates
    n_max = max(lengths)
    eligible = dates[n_max:]
    if not eligible:
        raise InsufficientDataError(
            f"dataset has {len(dates)} days with data; grid needs more than {n_max}"
        )
    if selection_days is None:
        days = tuple(eligible)
    else:
        days = tuple(d for d in dates if d in set(selection_days) and d in set(eligible))
        if not days:
            raise InvalidInputError("no selection day has enough history for the grid")

    cells, calibs = {}, []
    for n in lengths:
        if not model.is_mixture:
            calib = rolling_calibrate(model, g, table, n, days=days)
            calibs.append(calib)
            cells[(n, None)] = _mean_crps(calib.cases, calib.forecasts)
        elif model.strategy == "shared":
            # Shared-strategy fits do not depend on theta: fit once per
            # length, then predict each day again per threshold.
            base = ModelSpec(model.family, theta=thetas[0], strategy="shared")
            calib = rolling_calibrate(base, g, table, n, days=days)
            calibs.append(calib)
            for theta in thetas:
                spec = ModelSpec(model.family, theta=theta, strategy="shared")
                batch = ForecastBatch.concat(
                    _predict(spec, calib.fits[day], table.rows[target])
                    for day, _, target in _windows(table, n, days, [])
                )
                cells[(n, theta)] = _mean_crps(calib.cases, batch)
        else:
            for theta in thetas:
                spec = ModelSpec(model.family, theta=theta, strategy="split")
                calib = rolling_calibrate(spec, g, table, n, days=days)
                calibs.append(calib)
                cells[(n, theta)] = _mean_crps(calib.cases, calib.forecasts)
        n_cases = len(calib.cases)

    best = min(cells.values())
    tied = [key for key, val in cells.items() if val <= best + _TIE_TOL]
    chosen = max(tied, key=lambda key: (key[0], -np.inf if key[1] is None else key[1]))
    counts = [calib.fit_counts() for calib in calibs]
    return GridSearchResult(
        cells=cells,
        chosen_length=chosen[0],
        chosen_theta=chosen[1],
        days=days,
        n_cases=n_cases,
        fit_counts={key: sum(c[key] for c in counts) for key in counts[0]},
    )
