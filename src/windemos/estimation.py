"""Parameter estimation and training pipelines.

TN and LN coefficients are fitted by minimizing the mean closed-form
CRPS over a training window; GEV coefficients by maximum likelihood.
Each objective returns its value, its exact gradient and its exact
Hessian: the first and second partials of the CRPS (or of the GEV
negative log-density, whose Hessian is the observed information) in
each case's location and scale, chained through the links as J^T d and
J^T W J, plus the GEV shape's row; a floored link passes neither.  Every
family is minimized by projected Newton; a GEV run that ends
non-converged is handed over to L-BFGS-B from its best point, which
loads scipy.optimize only then.  The bounds keep the TN and LN weights
and variance coefficients nonnegative and the GEV shape in [-0.5, 1):
below 1 the predictive mean and CRPS exist, and from -0.5 up maximum
likelihood is regular.  Both optimizers
work in standardized coordinates v, whose link columns `_design` builds
once per training window and the objectives read: each group weight
acts on its group-sum column centred and divided by its spread, and the
variance (GEV scale) slope on s2 (fbar) divided by its RMS.  The map A
of u = A v, applied to the start and the result only, scales every
bounded coordinate by a positive factor alone, so the bounds keep their
form.  `_FAMILY_TABLE` declares each family once; both public fits share one body.

A dataset is parsed once into a `CaseTable`: its cases sorted by date,
with the columns every link and fit reads (`CaseRows`).  Rolling
calibration refits daily on the n most recent prior days that have any
data, pooling all stations, warm-starting each day from the previous
day's solution; that window is one row slice of the table, and each
target day is predicted with one `predictive_law` call per branch into
a `ForecastBatch`, all days joined once at the end.  Grid search
evaluates (training length, threshold) cells on a shared selection-day
set aligned to the longest window, all on one table.
"""

import dataclasses
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import _SMALL_XI, _gev_tail
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
    member_stats,
    predictive_law,
)
from .scoring import Empirical, ForecastBatch, _crps_ln_grad, _crps_tn_grad, crps_values

MIXTURES = ("tn-ln", "tn-gev")
# The stopping rules of every fit: the projected gradient (gtol) or the
# relative decrease of one step (ftol).  Projected Newton stops on them
# (see `_newton`), and so does each of the two L-BFGS-B runs a GEV fit
# is handed over to when Newton ends non-converged (see `_lbfgsb`)
_FIT_OPTIONS = {"maxiter": 1000, "ftol": 1e-13, "gtol": 1e-7}
# Projected Newton: its iterations, the Armijo constant, the step below
# which the line search gives up, the widest gap to a bound that counts
# as on it, and the longest step as a multiple of max(1, |v|_inf)
_NEWTON_MAXITER = 50
_ARMIJO = 1e-4
_MIN_STEP = 1e-10
_ACTIVE_GAP = 1e-3
_MAX_STEP = 100.0
# The GEV shape stays below 1, where the mean and the CRPS exist, and
# at or above -0.5, where maximum likelihood is regular (see `_FAMILY_TABLE`)
_XI_MIN = -0.5
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
    n_evals: int  # every trial point of the fit
    at_boundary: bool = False
    handover: bool = False  # Newton ended non-converged and L-BFGS-B went on from its best point


@dataclass
class CalibrationResult:
    """Every verification-day case, its prediction and the per-day fits of a calibration."""

    model: ModelSpec | None  # None for a baseline (raw, climatology), which has no fits
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
            "n_lbfgsb_handovers": sum(f.handover for f in fits),
            "n_split_fallbacks": self.n_split_fallbacks,
        }


@dataclass
class GridSearchResult:
    cells: dict  # (length, theta) -> mean CRPS, in ascending order; theta None for pure models
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
        if g.total < 2:
            raise InsufficientDataError("unbiased ensemble variance needs at least 2 members")
        if cases:
            members = np.array([c.members for c in cases], dtype=float)
        else:
            members = np.empty((0, g.total))
        obs = np.array([np.nan if c.obs is None else c.obs for c in cases], dtype=float)
        fbar, s2, median = member_stats(members)
        return cls(obs, g.group_sums(members), s2, fbar, median)

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
    table has no columns (`rows` is None): the baselines build the few
    they read.
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


def default_tn_params(g):
    """Cold start: ensemble-mean weighting with unit variance coefficients."""
    return TnParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0)


def default_ln_params(g):
    return LnParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0)


def default_gev_params(g):
    return GevParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0, 0.05)


def _design(gs, x, n):
    """A window's link columns in standardized coordinates v, and A of u = A v.

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
    return (*_link_columns((gs - center) / spread, x * A[2 + m, 2 + m]), A)


def _newton_step(hess, grad):
    # -hess^-1 grad by Cholesky, with Levenberg damping lam I added while
    # hess + lam I is not positive definite
    eye, lam = np.eye(grad.size), 0.0
    size = max(float(np.max(np.abs(np.diag(hess)))), 1e-12)
    while True:
        try:
            low = np.linalg.cholesky(hess + lam * eye)
            return -np.linalg.solve(low.T, np.linalg.solve(low, grad))
        except np.linalg.LinAlgError:
            lam = max(10.0 * lam, 1e-10 * size)


def _newton(of_v, v, lower, upper):
    """Projected Newton on box bounds (Bertsekas 1982, SIAM J. Control Optim. 20).

    A coordinate within a small gap of a bound that its gradient points
    out of is active and takes a gradient step onto the bound; the
    others take the Newton step of their block of the exact Hessian.  A
    step longer than `_MAX_STEP` max(1, |v|_inf), as where the CRPS is
    flat, is cut back along its direction.  Armijo backtracking runs along
    the projected path, and each trial point is evaluated with its
    Hessian, so an accepted full step costs one evaluation.  Stops on
    `_FIT_OPTIONS`' projected gradient or relative decrease.  Returns the
    best point evaluated (a trial the line search rejected can lie below
    the accepted one), its value, whether the run converged, and the
    number of evaluations.
    """
    best, evals = [np.inf, v], 0

    def evaluate(v):
        nonlocal evals
        evals += 1
        out = of_v(v)
        if out[0] < best[0]:
            best[:] = out[0], v
        return out

    def result(converged):
        return best[1], best[0], converged, evals

    val, grad, hess = evaluate(v)
    for _ in range(_NEWTON_MAXITER):
        pg = np.max(np.abs(v - np.clip(v - grad, lower, upper)), initial=0.0)
        if pg <= _FIT_OPTIONS["gtol"]:
            return result(True)
        gap = min(pg, _ACTIVE_GAP)
        active = ((v <= lower + gap) & (grad > 0.0)) | ((v >= upper - gap) & (grad < 0.0))
        free = ~active
        step = -grad
        if np.any(free):
            step[free] = _newton_step(hess[np.ix_(free, free)], grad[free])
        step *= min(1.0, _MAX_STEP * max(1.0, np.max(np.abs(v))) / np.max(np.abs(step)))
        slope = float(grad[free] @ step[free])
        t = 1.0
        while True:
            trial = np.clip(v + t * step, lower, upper)
            out = evaluate(trial)
            decrease = -t * slope + float(grad[active] @ (v - trial)[active])
            if val - out[0] >= _ARMIJO * decrease:
                break
            t *= 0.5
            if t < _MIN_STEP:
                return result(False)
        drop = (val - out[0]) / max(abs(val), abs(out[0]), 1.0)
        v, (val, grad, hess) = trial, out
        if drop <= _FIT_OPTIONS["ftol"]:
            return result(True)
    return result(False)


def _lbfgsb(of_v, v, lower, upper):
    """L-BFGS-B from v on box bounds, run twice, on the value and gradient.

    It takes over a GEV fit from a non-converged Newton run.  One restart
    from the incumbent rescues runs whose line search stalls at a kink,
    such as the GEV support penalty.  A stalled run can end on
    a rejected trial point above its start, so the incumbent is the best
    point evaluated so far, and that is what the run returns, with its
    value, whether either run converged, and the number of evaluations.
    """
    from scipy import optimize

    best = [np.inf, v]

    def tracked(v):
        val, grad = of_v(v)[:2]
        if val < best[0]:
            best[:] = val, np.array(v, dtype=float)
        return val, grad

    evals, converged, bounds = 0, False, list(zip(lower, upper))
    for _ in range(2):
        run = optimize.minimize(
            tracked, best[1], jac=True, method="L-BFGS-B", bounds=bounds, options=_FIT_OPTIONS
        )
        evals += int(run.nfev)
        converged = converged or bool(run.success)
    return best[1], float(best[0]), converged, evals


def _mean_and_grad(per_case, *sums):
    # The mean objective and the means of its derivatives, given as sums
    # over cases (the gradient, then the Hessian where there is one); a
    # non-finite part is a wall the line search backs off
    n = per_case.size
    out = (float(np.mean(per_case)), *(part / n for part in sums))
    if not all(np.all(np.isfinite(part)) for part in out):
        return (_BIG, *(np.zeros_like(part) for part in out[1:]))
    return out


def _link_columns(gs, x):
    # The derivatives of the two links in their coefficients, one row per case
    ones = np.ones((x.size, 1))
    return np.hstack([ones, gs]), np.hstack([ones, x[:, None]])


def _links(v, first, second):
    # The two linear links of v on their columns, before their floors
    k = first.shape[1]
    return first @ v[:k], second @ v[k : k + 2]


def _chain(first, second, d1, d2, *hess):
    # Per-case derivatives in the two links chained back to their
    # coefficients, whose columns are `first` and `second`, and summed
    # over cases: the gradient J^T d and, given each case's 2x2 Hessian
    # (h11, h12, h22) in its two links, J^T W J
    out = [np.concatenate([d1 @ first, d2 @ second])]
    if hess:
        h11, h12, h22 = hess
        k = first.shape[1]
        out.append(np.empty((k + 2, k + 2)))
        out[1][:k, :k] = first.T @ (h11[:, None] * first)
        out[1][:k, k:] = first.T @ (h12[:, None] * second)
        out[1][k:, :k] = out[1][:k, k:].T
        out[1][k:, k:] = second.T @ (h22[:, None] * second)
    return out


def _tn_objective(first, second, obs):
    """Mean TN CRPS of the link coefficients, with its gradient and Hessian.

    The links, on the columns `first` and `second`, are the location and
    the variance var.  The scale is sqrt(var), var floored, so in var the
    derivatives are d_sigma/(2 sigma) and (h_sigma_sigma - d_sigma/sigma)
    /(4 sigma^2), and the mixed one h_mu_sigma/(2 sigma); on the floor
    all three are 0.
    """

    def objective(v):
        with np.errstate(all="ignore"):
            loc, var_raw = _links(v, first, second)
            on = var_raw > SCALE_FLOOR
            scale = np.sqrt(np.maximum(var_raw, SCALE_FLOOR))
            crps, (d_loc, d_scale), (h_ll, h_ls, h_ss) = _crps_tn_grad(loc, scale, obs)
            d_var = np.where(on, 0.5 * d_scale / scale, 0.0)
            h_lv = np.where(on, 0.5 * h_ls / scale, 0.0)
            h_vv = np.where(on, 0.25 * (h_ss - d_scale / scale) / (scale * scale), 0.0)
            return _mean_and_grad(crps, *_chain(first, second, d_loc, d_var, h_ll, h_lv, h_vv))

    return objective


def _ln_objective(first, second, obs):
    """Mean LN CRPS of the link coefficients, with its gradient and Hessian.

    The links, on the columns `first` and `second`, are the mean M and
    the variance V of the law.  With T = M^2 + V and s = V/T, its
    log-scale parameters are q = sigma^2 = log T - 2 log M and
    mu = log M - q/2, so M d/dM moves (mu, q) along
    (1 + s, -2s) and T d/dV along b = (-1/2, 1).  With c the CRPS
    derivatives in (mu, q), e = c_mu/2 - c_q, c_bb the second derivative
    along b and c_1b that along mu and b: M dCRPS/dM = c_mu + 2 s e,
    T dCRPS/dV = -e, M^2 d2/dM2 = c_mumu - 4 s c_1b + 4 s^2 c_bb - c_mu
    - 2 s (3 - 2s) e, M T d2/dM dV = c_1b - 2 s c_bb + 2 (1 - s) e and
    T^2 d2/dV2 = c_bb + e.  A floored link contributes 0.
    """

    def objective(v):
        with np.errstate(all="ignore"):
            mean_raw, var_raw = _links(v, first, second)
            on_mean, on_var = mean_raw > MEAN_FLOOR, var_raw > SCALE_FLOOR
            mean = np.maximum(mean_raw, MEAN_FLOOR)
            var = np.maximum(var_raw, SCALE_FLOOR)
            total = mean * mean + var
            q = np.log1p(var / (mean * mean))
            sigma = np.sqrt(q)
            crps, (d_mu, d_sigma), (h_mm, h_ms, h_ss) = _crps_ln_grad(
                np.log(mean) - 0.5 * q, sigma, obs
            )
            s = var / total
            e = 0.5 * (d_mu - d_sigma / sigma)
            d_mean = np.where(on_mean, (d_mu + 2.0 * s * e) / mean, 0.0)
            d_var = np.where(on_var, -e / total, 0.0)
            c_mq = 0.5 * h_ms / sigma
            c_1b = c_mq - 0.5 * h_mm
            c_bb = 0.25 * h_mm - c_mq + 0.25 * (h_ss - d_sigma / sigma) / q
            h11 = h_mm - 4.0 * s * (c_1b - s * c_bb) - d_mu - 2.0 * s * (3.0 - 2.0 * s) * e
            h12 = c_1b - 2.0 * s * c_bb + 2.0 * (1.0 - s) * e
            h11 = np.where(on_mean, h11 / (mean * mean), 0.0)
            h12 = np.where(on_mean & on_var, h12 / (mean * total), 0.0)
            h22 = np.where(on_var, (c_bb + e) / (total * total), 0.0)
            return _mean_and_grad(crps, *_chain(first, second, d_mean, d_var, h11, h12, h22))

    return objective


def _gev_nll(z, t, xi):
    """The GEV negative log-density less log(sigma), and its partials in z and xi.

    With a = log(t), t = 1 + xi z, and s = t^(-1/xi), both from one
    `_gev_tail` call, L = (1 + 1/xi) a + s (inf off the support); its
    z-derivative is k = (1 + xi - s)/t, its second (1 + xi)(s - xi)/t^2,
    and its xi-derivative L_xi = a (s - 1)/xi^2 + z k/xi.  L_z,xi and
    L_xi,xi follow by the chain rule through s_xi = s (a/xi^2 - z/(xi t)).
    On the Gumbel branch of `GEV.logpdf` (|xi| < 1e-6) L = z + e^(-z) and
    the xi-partials are their limits as xi -> 0, so the shape can leave
    the branch.  Returns L, k, L_zz, L_xi, L_z,xi and L_xi,xi per case.
    """
    if abs(xi) < _SMALL_XI:
        e = np.exp(-z)
        k = -np.expm1(-z)
        l_zx = 1.0 - z + z * e - 0.5 * z * z * e
        l_xx = z * z * ((2.0 * z - 3.0) / 3.0 + e * (3.0 * z * z - 8.0 * z) / 12.0)
        return z + e, k, e, z * (1.0 - 0.5 * z * k), l_zx, l_xx
    a, s = _gev_tail(xi, z)
    value = np.where(a > -np.inf, (1.0 + 1.0 / xi) * a + s, np.inf)
    k = (1.0 + xi - s) / t
    l_zz = (1.0 + xi) * (s - xi) / (t * t)
    l_x = a * (s - 1.0) / (xi * xi) + z * k / xi
    s_x = s * (a / (xi * xi) - z / (xi * t))
    l_zx = (1.0 - s_x - k * z) / t
    l_xx = (z / t * (s - 1.0) + a * s_x) / (xi * xi) - 2.0 * a * (s - 1.0) / xi**3
    l_xx += z * (l_zx - k / xi) / xi
    return value, k, l_zz, l_x, l_zx, l_xx


def _gev_objective(first, second, obs):
    """Mean GEV negative log-likelihood of the link coefficients and xi,
    with its gradient and its Hessian, the observed information.

    The links, on the columns `first` and `second`, are the location and
    the scale; the shape xi is the last coordinate.  Training cases
    outside the support of a proposed parameter set cost a large finite
    penalty plus the violation magnitude, steering the fit back to
    feasibility.  A case inside the support whose negative log-density
    exceeds the penalty (a floored scale far from its observation
    reaches 1e72) costs the penalty too, so no trial step returns a
    value that derails the line search.  Per case, with z = (y - loc)/sigma
    and L, k of `_gev_nll`, the Hessian in (loc, sigma, xi) is L_zz/sigma^2,
    (k + z L_zz)/sigma^2, (-1 + 2 z k + z^2 L_zz)/sigma^2, -L_z,xi/sigma,
    -z L_z,xi/sigma and L_xi,xi.  A penalized case has no curvature, and
    a floored scale neither gradient nor curvature.
    """

    def objective(v):
        with np.errstate(all="ignore"):
            loc, scale_raw = _links(v, first, second)
            sigma, xi = np.maximum(scale_raw, SCALE_FLOOR), float(v[-1])
            if not (np.all(np.isfinite(loc) & (scale_raw < np.inf)) and np.isfinite(xi)):
                return _BIG, np.zeros_like(v), np.zeros((v.size, v.size))
            z = (obs - loc) / sigma
            t = 1.0 + xi * z
            value, k, l_zz, l_x, l_zx, l_xx = _gev_nll(z, t, xi)
            nll = np.log(sigma) + value
            feasible = nll < _SUPPORT_PENALTY
            on = feasible & (scale_raw > SCALE_FLOOR)
            # The violation -t grows where t < 0; capped cases inside are flat
            outside = ~feasible & (t < 0.0)
            per_case = np.where(feasible, nll, _SUPPORT_PENALTY + np.maximum(-t, 0.0))
            d_loc = np.where(feasible, -k, np.where(outside, xi, 0.0)) / sigma
            d_sigma = np.where(feasible, 1.0 - z * k, np.where(outside, xi * z, 0.0)) / sigma
            d_sigma = np.where(scale_raw > SCALE_FLOOR, d_sigma, 0.0)
            d_xi = np.where(feasible, l_x, np.where(outside, -z, 0.0))
            s2 = sigma * sigma
            h_mm = np.where(feasible, l_zz / s2, 0.0)
            h_ms = np.where(on, (k + z * l_zz) / s2, 0.0)
            h_ss = np.where(on, (2.0 * z * k + z * z * l_zz - 1.0) / s2, 0.0)
            h_mx = np.where(feasible, -l_zx / sigma, 0.0)
            h_sx = np.where(on, -z * l_zx / sigma, 0.0)
            grad, hess = _chain(first, second, d_loc, d_sigma, h_mm, h_ms, h_ss)
            h_xx = np.sum(np.where(feasible, l_xx, 0.0))
            row = np.concatenate([h_mx @ first, h_sx @ second, [h_xx]])
            hess = np.block([[hess, row[:-1, None]], [row]])
            return _mean_and_grad(per_case, np.append(grad, np.sum(d_xi)), hess)

    return objective


@dataclass(frozen=True)
class _Family:
    params: type  # link coefficients: intercept, group weights, then the rest of u
    cold: object  # g -> cold-start params
    objective: object  # (first, second link columns, obs) -> objective: value, gradient, Hessian
    column: str  # the CaseRows column of the second link
    bounds: tuple  # bounds of the intercept, of each group weight, then of the rest
    floor: float  # floor of the first link, -inf where it has none
    handover: bool  # a non-converged Newton run goes on by `_lbfgsb` from its best point
    fit: object  # (g, training window, init params) -> FitResult, by the public fit


# TN and LN weights and variance coefficients are nonnegative; GEV
# coefficients are free but the shape, in [-0.5, _XI_MAX]: below -0.5
# maximum likelihood is not regular (Smith 1985, Biometrika 72), below -1
# the likelihood has no maximum, and on a small window an unbounded fit
# runs there.  The fits name the module's functions at call time, so a wrapper put on the
# module (a profiler's, say) sees every fit.
_NONNEGATIVE = ((-np.inf, np.inf), (0.0, np.inf), (0.0, np.inf), (0.0, np.inf))
_FAMILY_TABLE = {
    "tn": _Family(
        TnParams, default_tn_params, _tn_objective, "s2", _NONNEGATIVE, -np.inf, False,
        lambda g, window, init: fit_min_crps("tn", g, window, init=init),
    ),
    "ln": _Family(
        LnParams, default_ln_params, _ln_objective, "s2", _NONNEGATIVE, MEAN_FLOOR, False,
        lambda g, window, init: fit_min_crps("ln", g, window, init=init),
    ),
    "gev": _Family(
        GevParams, default_gev_params, _gev_objective, "fbar",
        ((-np.inf, np.inf),) * 4 + ((_XI_MIN, _XI_MAX),), -np.inf, True,
        lambda g, window, init: fit_gev_ml(g, window, init=init),
    ),
}
FAMILIES = (*_FAMILY_TABLE, *MIXTURES)


def _vector(family, m, p):
    # The fit's u of a family's link coefficients p and its lower and
    # upper bounds, all as intercept, group weights, then the rest; a GEV
    # warm start outside the shape's bounds starts on the nearer one
    head, weight, *rest = _FAMILY_TABLE[family].bounds
    lower, upper = np.array([head, *[weight] * m, *rest]).T
    head, weights, *rest = dataclasses.astuple(p)
    return np.clip(np.concatenate([[head], weights, rest]), lower, upper), lower, upper


def _fit_family(family, g, rows, init):
    """The body of both public fits: a family fitted on training rows.

    Packs `init` (None: the cold start) into u, maps it to the window's
    standardized coordinates v of u = A v (`_design`, which keeps each
    bound's form), runs projected Newton on the objective of the
    window's columns in v, hands a non-converged run over to L-BFGS-B
    where the family does so, flags a floored (or non-finite) link and
    unpacks A v.
    """
    fam = _FAMILY_TABLE[family]
    u0, lower, upper = _vector(family, g.m, fam.cold(g) if init is None else init)
    first, second, A = _design(rows.gs, getattr(rows, fam.column), u0.size)
    v0 = np.clip(np.linalg.solve(A, u0), lower, upper)
    objective = fam.objective(first, second, rows.obs)
    v, fun, converged, evals = _newton(objective, v0, lower, upper)
    handover = fam.handover and not converged
    if handover:
        # L-BFGS-B starts from the best point and keeps it unless it finds a lower one
        v, fun, converged, more = _lbfgsb(objective, v, lower, upper)
        evals += more
    with np.errstate(all="ignore"):
        loc, scale = _links(v, first, second)
    # A link on its floor, or one that overflows, is on the boundary
    clear = np.isfinite(loc) & np.isfinite(scale) & (loc >= fam.floor) & (scale >= SCALE_FLOOR)
    u = A @ v
    params = fam.params(u[0], tuple(u[1 : 1 + g.m]), *u[1 + g.m :])
    return FitResult(params, fun, converged, evals, not np.all(clear), handover)


def fit_min_crps(family, g, window, init=None):
    """Minimum-CRPS estimation of TN or LN link coefficients.

    The group weights and both variance coefficients are bounded below
    by 0, so a coefficient that reaches 0 in one window can leave it in
    the next.
    """
    if family not in ("tn", "ln"):
        raise InvalidInputError("fit_min_crps handles the 'tn' and 'ln' families")
    return _fit_family(family, g, _training_rows(window, g), init)


def fit_gev_ml(g, window, init=None):
    """Maximum-likelihood estimation of the GEV link coefficients.

    The shape is bounded to [-0.5, 1): below 1 the predictive mean and
    CRPS exist, and from -0.5 up maximum likelihood is regular; a warm
    start outside is clipped to the nearer bound.  A warm start that
    leaves a training case outside the support (a case whose link
    overflows included) or on the scale floor, where the gradient does
    not lead back, is replaced by the cold start, which holds every
    nonnegative observation.
    """
    rows = _training_rows(window, g)
    if init is not None:
        u0 = _vector("gev", g.m, init)[0]
        with np.errstate(all="ignore"):
            loc, scale_raw = _links(u0, *_link_columns(rows.gs, rows.fbar))
            sigma, xi = np.maximum(scale_raw, SCALE_FLOOR), u0[-1]
            z = (rows.obs - loc) / sigma
            # Per training case: is its likelihood at the start finite; a
            # link that overflows makes it inf or NaN
            inside = np.isfinite(np.log(sigma) + _gev_nll(z, 1.0 + xi * z, xi)[0])
        if not np.any(inside):
            raise EstimationError(
                "no training case lies inside the GEV support at the initial "
                "parameters; restart from the Gumbel case (xi = 0)"
            )
        if not np.all(inside) or np.any(scale_raw <= SCALE_FLOOR):
            init = None
    return _fit_family("gev", g, rows, init)


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


def _fit_day(model, g, rows, prev):
    # One day's fit, warm-started from the previous day's (None: cold)
    if model.is_mixture:
        low, high = (None, None) if prev is None else (prev[0].params, prev[1].params)
        return fit_switch(model, g, rows, init_low=low, init_high=high)
    return _FAMILY_TABLE[model.family].fit(g, rows, None if prev is None else prev.params)


def _predict(model, fit, rows):
    """The ForecastBatch of the rows, one `predictive_law` call per branch.

    A mixture predicts TN where the ensemble median is below theta and
    its high-wind family elsewhere, as `predict_switch` does per case.
    """
    index = np.arange(len(rows))
    parts = [(index, fit, rows)]
    if model.is_mixture:
        below = rows.median < model.theta
        parts = [(index[below], fit[0], rows[below]), (index[~below], fit[1], rows[~below])]
    laws = [(i, predictive_law(f.params, r.gs, r.s2, r.fbar)) for i, f, r in parts]
    return ForecastBatch(index.size, laws)


def days_with_data(dataset):
    """Sorted distinct dates that have at least one case."""
    return tuple(sorted({c.date for c in dataset}))


def _windows(table, n, days, skipped, least=0):
    """The target days that have n prior days with data.

    Yields (day, training rows, the day's rows) as row slices of the
    table; the window pools every station over the n most recent prior
    days that have any data.  `days` optionally restricts the target
    days; a wanted day with fewer prior days is appended to `skipped`
    with its reason.  A window shorter than `least` days is an error.
    """
    if n < least:
        raise InvalidInputError(f"window length (training days) must be >= {least}, got {n}")
    wanted = None if days is None else set(days)
    b = table.bounds
    for i, day in enumerate(table.dates):
        if wanted is not None and day not in wanted:
            continue
        if i < n:
            skipped.append((day, f"only {i} prior days with data, need {n}"))
            continue
        yield day, slice(b[i - n], b[i]), slice(b[i], b[i + 1])


def _stream(table, n, days, result, forecast, least=0):
    # Every target day's cases into `result`, with their `forecast(day, window, target)`
    cases, batches = [], []
    for day, window, target in _windows(table, n, days, result.skipped, least):
        batches.append(forecast(day, window, target))
        cases.extend(table.cases[target])
    result.cases, result.forecasts = tuple(cases), ForecastBatch.concat(batches)
    return result


def rolling_calibrate(model, g, dataset, n, days=None):
    """Daily refit over a rolling window, then predict that day's cases.

    The window for a target day holds the n most recent prior days that
    have any data (pooled across stations); days with fewer prior days
    are skipped with a report entry.  `days` optionally restricts which
    target days are fitted and predicted.  `dataset` is a list of cases
    or a CaseTable built for `g`.
    """
    table = _as_table(dataset, g)
    result = CalibrationResult(model=model)

    def forecast(day, window, target):
        rows = table.rows[window]
        if model.is_mixture and model.strategy == "split" and _split_mask(model, rows) is None:
            result.n_split_fallbacks += 1
        prev = next(reversed(result.fits.values()), None)  # the previous day's fit
        result.fits[day] = fit = _fit_day(model, g, rows, prev)
        return _predict(model, fit, table.rows[target])

    return _stream(table, n, days, result, forecast, least=1)


def _empirical_batch(values, first, size):
    # Row k's law is values[first[k]:first[k] + size[k]], one part per size
    rows = [np.flatnonzero(size == k) for k in np.unique(size)]
    parts = [(r, Empirical(values[first[r, None] + np.arange(size[r[0]])])) for r in rows]
    return ForecastBatch(size.size, parts)


def _raw_stream(dataset, n, days=None):
    # The raw ensemble: each target case's members
    table = _as_table(dataset)
    size = np.array([len(c.members) for c in table.cases], dtype=int)
    values = np.fromiter(itertools.chain.from_iterable(c.members for c in table.cases), float)
    first = np.cumsum(size) - size

    def forecast(day, window, target):
        return _empirical_batch(values, first[target], size[target])

    return _stream(table, n, days, CalibrationResult(model=None), forecast)


def _climatology_stream(dataset, n, days=None):
    # Each target station's observations in the window, or every station's
    table = _as_table(dataset)
    obs = np.array([np.nan if c.obs is None else c.obs for c in table.cases], dtype=float)
    names, station = np.unique([c.station for c in table.cases], return_inverse=True)

    def forecast(day, window, target):
        seen = window.start + np.flatnonzero(~np.isnan(obs[window]))  # rows with an obs
        if seen.size == 0:
            raise InvalidInputError("climatology window has no observations")
        count = np.bincount(station[seen], minlength=names.size)
        own = count[station[target]]
        first = np.where(own > 0, (np.cumsum(count) - count)[station[target]], 0)
        values = obs[seen[np.argsort(station[seen])]]  # grouped by station
        return _empirical_batch(values, first, np.where(own > 0, own, seen.size))

    return _stream(table, n, days, CalibrationResult(model=None), forecast, least=1)


def rolling_climatology(dataset, n, days=None):
    """Per-day climatological forecasts over the same rolling windows.

    Returns a (case, Empirical of the station's window observations, or
    of every station's where it has none) pair per case, and the skipped days.
    """
    result = _climatology_stream(dataset, n, days)
    return result.pairs, result.skipped


def rolling_raw(dataset, n, days=None):
    """Raw-ensemble forecasts on the days a length-n calibration covers.

    Returns a (case, Empirical of its members) pair per case, and the skipped days.
    """
    result = _raw_stream(dataset, n, days)
    return result.pairs, result.skipped


def grid_search(model, g, dataset, lengths, thetas=None, selection_days=None):
    """Mean CRPS over a (training length, theta) grid, plus the argmin cell.

    Every cell is scored on the same selection days, which must each
    have at least max(lengths) prior days of data.  Ties within 1e-9
    resolve to the larger length, then the larger theta.  `dataset` is a
    list of cases or a CaseTable built for `g`.  Cell (n, theta) predicts
    from the fits of one rolling calibration, the chain of (n, theta if
    split): a shared fit does not depend on theta, so cells share it.
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

    chains, cells = {}, {}
    for n in lengths:
        for theta in thetas:
            spec = model if theta is None else dataclasses.replace(model, theta=theta)
            key = (n, theta if model.strategy == "split" else None)
            if key not in chains:
                chains[key] = rolling_calibrate(spec, g, table, n, days=days)
            calib = chains[key]
            forecasts = calib.forecasts
            if calib.model != spec:
                forecasts = ForecastBatch.concat(
                    _predict(spec, calib.fits[day], table.rows[target])
                    for day, _, target in _windows(table, n, days, [])
                )
            cells[(n, theta)] = float(np.mean(crps_values(forecasts, [c.obs for c in calib.cases])))

    best = min(cells.values())
    tied = [key for key, val in cells.items() if val <= best + _TIE_TOL]
    chosen = max(tied, key=lambda key: (key[0], -np.inf if key[1] is None else key[1]))
    counts = [chain.fit_counts() for chain in chains.values()]
    return GridSearchResult(
        cells=cells,
        chosen_length=chosen[0],
        chosen_theta=chosen[1],
        days=days,
        n_cases=len(calib.cases),  # the same days in every cell
        fit_counts={key: sum(c[key] for c in counts) for key in counts[0]},
    )
