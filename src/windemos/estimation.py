"""Parameter estimation and training pipelines.

TN and LN coefficients are fitted by minimizing the mean closed-form
CRPS over a training window; GEV coefficients by maximum likelihood.
The optimizer is a derivative-free Nelder-Mead simplex (max 5,000
evaluations, simplex tolerance 1e-6) with one restart from the
incumbent; nonnegativity constraints are imposed by optimizing
unconstrained values u and using u^2.

Rolling calibration refits daily on the n most recent prior days that
have any data, pooling all stations, warm-starting each day from the
previous day's solution.  Grid search evaluates (training length,
threshold) cells on a shared selection-day set aligned to the longest
window.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .distributions import GEV
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
    RegimeSwitchConfig,
    TnParams,
    predict_gev,
    predict_ln,
    predict_switch,
    predict_tn,
)
from .scoring import Empirical, _crps_ln_raw, _crps_tn_raw, crps_values

_FAMILIES = ("tn", "ln", "gev", "tn-ln", "tn-gev")
_NM_OPTIONS = {"maxfev": 5000, "xatol": 1e-6, "fatol": 1e-8, "adaptive": True}
_BIG = 1e12
_SUPPORT_PENALTY = 1e6
_MIN_SPLIT_CASES = 10
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Which predictive family to train, with mixture settings."""

    family: str
    theta: float | None = None
    strategy: str = "split"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInputError(f"unknown model family {self.family!r}")
        if self.is_mixture:
            if self.theta is None:
                raise InvalidInputError("mixture models need a threshold theta")
            object.__setattr__(self, "theta", float(self.theta))
        if self.strategy not in ("split", "shared"):
            raise InvalidInputError("strategy must be 'split' or 'shared'")

    @property
    def is_mixture(self):
        return self.family in ("tn-ln", "tn-gev")

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
    """Per-day fits plus every verification-day (case, prediction) pair."""

    model: ModelSpec
    pairs: list = field(default_factory=list)  # (EnsembleForecast, distribution)
    fits: dict = field(default_factory=dict)  # date -> FitResult | (low, high)
    skipped: list = field(default_factory=list)  # (date, reason)


@dataclass
class GridSearchResult:
    cells: dict  # (length, theta) -> mean CRPS; theta None for pure models
    chosen_length: int
    chosen_theta: float | None
    days: tuple
    n_cases: int


def _window_arrays(window, g):
    cases = window.cases
    if len(cases) == 0:
        raise InsufficientDataError("training window is empty")
    members = np.array([c.members for c in cases], dtype=float)
    if any(c.obs is None for c in cases):
        raise InvalidInputError("every training case needs an observation")
    obs = np.array([c.obs for c in cases], dtype=float)
    gs = g.group_sums(members)
    s2 = np.var(members, axis=1, ddof=1)
    fbar = np.mean(members, axis=1)
    return gs, s2, fbar, obs


def _run_simplex(objective, u0):
    first = optimize.minimize(objective, u0, method="Nelder-Mead", options=_NM_OPTIONS)
    second = optimize.minimize(objective, first.x, method="Nelder-Mead", options=_NM_OPTIONS)
    best = first if first.fun <= second.fun else second
    return (
        np.asarray(best.x, dtype=float),
        float(best.fun),
        bool(first.success or second.success),
        int(first.nfev) + int(second.nfev),
    )


def default_tn_params(g):
    """Cold start: ensemble-mean weighting with unit variance coefficients."""
    return TnParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0)


def default_ln_params(g):
    return LnParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0)


def default_gev_params(g):
    return GevParams(0.0, (1.0 / g.total,) * g.m, 1.0, 1.0, 0.05)


def fit_min_crps(family, g, window, init=None):
    """Minimum-CRPS estimation of TN or LN link coefficients.

    Constrained coefficients are optimized as unconstrained square
    roots; the returned parameters are exactly the squares of the
    optimizer's final internal values.
    """
    if family not in ("tn", "ln"):
        raise InvalidInputError("fit_min_crps handles the 'tn' and 'ln' families")
    gs, s2, _, obs = _window_arrays(window, g)
    m = g.m

    if family == "tn":
        if init is None:
            init = default_tn_params(g)
        u0 = np.concatenate(
            [[init.a0], np.sqrt(init.a), [np.sqrt(init.b0), np.sqrt(init.b1)]]
        )

        def objective(u):
            loc = u[0] + gs @ (u[1 : 1 + m] ** 2)
            scale2 = np.maximum(u[1 + m] ** 2 + u[2 + m] ** 2 * s2, SCALE_FLOOR)
            with np.errstate(all="ignore"):
                val = float(np.mean(_crps_tn_raw(loc, np.sqrt(scale2), obs)))
            return val if np.isfinite(val) else _BIG

        u, fun, converged, evals = _run_simplex(objective, u0)
        params = TnParams(u[0], tuple(u[1 : 1 + m] ** 2), u[1 + m] ** 2, u[2 + m] ** 2)
        boundary = bool(np.any(params.b0 + params.b1 * s2 < SCALE_FLOOR))
        return FitResult(params, fun, converged, evals, boundary)

    if init is None:
        init = default_ln_params(g)
    u0 = np.concatenate(
        [[init.alpha0], np.sqrt(init.alpha), [np.sqrt(init.beta0), np.sqrt(init.beta1)]]
    )

    def objective(u):
        mean = np.maximum(u[0] + gs @ (u[1 : 1 + m] ** 2), MEAN_FLOOR)
        var = np.maximum(u[1 + m] ** 2 + u[2 + m] ** 2 * s2, SCALE_FLOOR)
        ratio = var / (mean * mean)
        mu = np.log(mean) - 0.5 * np.log1p(ratio)
        sigma = np.sqrt(np.log1p(ratio))
        with np.errstate(all="ignore"):
            val = float(np.mean(_crps_ln_raw(mu, sigma, obs)))
        return val if np.isfinite(val) else _BIG

    u, fun, converged, evals = _run_simplex(objective, u0)
    params = LnParams(u[0], tuple(u[1 : 1 + m] ** 2), u[1 + m] ** 2, u[2 + m] ** 2)
    mean_raw = params.alpha0 + gs @ np.asarray(params.alpha)
    var_raw = params.beta0 + params.beta1 * s2
    boundary = bool(np.any(mean_raw < MEAN_FLOOR) or np.any(var_raw < SCALE_FLOOR))
    return FitResult(params, fun, converged, evals, boundary)


def fit_gev_ml(g, window, init=None):
    """Maximum-likelihood estimation of the GEV link coefficients.

    Training cases outside the support of a proposed parameter set add
    a large finite penalty plus the violation magnitude, steering the
    simplex back to feasibility.
    """
    gs, s2, fbar, obs = _window_arrays(window, g)
    m = g.m
    if init is None:
        init = default_gev_params(g)
    u0 = np.concatenate([[init.gamma0], init.gamma, [init.sigma0, init.sigma1, init.xi]])

    def parts(u):
        loc = u[0] + gs @ u[1 : 1 + m]
        sigma = np.maximum(u[1 + m] + u[2 + m] * fbar, SCALE_FLOOR)
        xi = float(u[3 + m])
        if not np.all(np.isfinite(loc)):
            return None
        nll = -GEV(loc, sigma, xi).logpdf(obs)
        t = 1.0 + xi * (obs - loc) / sigma
        return nll, np.maximum(-t, 0.0)

    def objective(u):
        out = parts(u)
        if out is None:
            return _BIG
        nll, violation = out
        feasible = np.isfinite(nll)
        with np.errstate(all="ignore"):
            val = float(np.mean(np.where(feasible, nll, _SUPPORT_PENALTY + violation)))
        return val if np.isfinite(val) else _BIG

    init_parts = parts(u0)
    if init_parts is None or not np.any(np.isfinite(init_parts[0])):
        raise EstimationError(
            "no training case lies inside the GEV support at the initial "
            "parameters; restart from the Gumbel case (xi = 0)"
        )
    u, fun, converged, evals = _run_simplex(objective, u0)
    params = GevParams(u[0], tuple(u[1 : 1 + m]), u[1 + m], u[2 + m], u[3 + m])
    boundary = bool(np.any(params.sigma0 + params.sigma1 * fbar < SCALE_FLOOR))
    return FitResult(params, fun, converged, evals, boundary)


def _median_per_case(cases):
    return np.median(np.array([c.members for c in cases], dtype=float), axis=1)


def _fit_high(high_family, g, window, init):
    if high_family == "ln":
        return fit_min_crps("ln", g, window, init=init)
    return fit_gev_ml(g, window, init=init)


def fit_switch(model, g, window, init_low=None, init_high=None):
    """Train both branches of a regime-switching model.

    Split strategy: TN on cases with ensemble median below theta, the
    high-wind family at or above.  Falls back to the shared strategy
    (both branches on the full window) when either side has fewer than
    10 cases.
    """
    if not model.is_mixture:
        raise InvalidInputError("fit_switch needs a mixture model spec")
    cases = window.cases
    if len(cases) == 0:
        raise InsufficientDataError("training window is empty")
    low_cases, high_cases = cases, cases
    if model.strategy == "split":
        med = _median_per_case(cases)
        below = med < model.theta
        n_low, n_high = int(np.sum(below)), int(np.sum(~below))
        if n_low >= _MIN_SPLIT_CASES and n_high >= _MIN_SPLIT_CASES:
            low_cases = tuple(c for c, b in zip(cases, below) if b)
            high_cases = tuple(c for c, b in zip(cases, below) if not b)
        else:
            warnings.warn(
                f"split training has {n_low}/{n_high} cases below/above theta; "
                "falling back to shared training",
                TrainingFallbackWarning,
                stacklevel=2,
            )
    low_fit = fit_min_crps("tn", g, TrainingWindow(window.n, low_cases), init=init_low)
    high_fit = _fit_high(
        model.high_family, g, TrainingWindow(window.n, high_cases), init=init_high
    )
    return low_fit, high_fit


def _by_date(dataset):
    days = {}
    for case in dataset:
        days.setdefault(case.date, []).append(case)
    return {d: days[d] for d in sorted(days)}


def days_with_data(dataset):
    """Sorted distinct dates that have at least one case."""
    return tuple(_by_date(dataset))


def _fit_for_day(model, g, window, prev):
    if model.family == "tn":
        return fit_min_crps("tn", g, window, init=prev.params if prev else None)
    if model.family == "ln":
        return fit_min_crps("ln", g, window, init=prev.params if prev else None)
    if model.family == "gev":
        return fit_gev_ml(g, window, init=prev.params if prev else None)
    init_low = prev[0].params if prev else None
    init_high = prev[1].params if prev else None
    return fit_switch(model, g, window, init_low=init_low, init_high=init_high)


def _predict_for_case(model, g, fit, case):
    if model.family == "tn":
        return predict_tn(fit.params, g, case)
    if model.family == "ln":
        return predict_ln(fit.params, g, case)
    if model.family == "gev":
        return predict_gev(fit.params, g, case)
    config = RegimeSwitchConfig(
        model.theta, fit[0].params, fit[1].params, model.strategy
    )
    return predict_switch(config, g, case)


def rolling_calibrate(model, g, dataset, n, days=None, warm_start=True):
    """Daily refit over a rolling window, then predict that day's cases.

    The window for a target day holds the n most recent prior days that
    have any data (pooled across stations); days with fewer prior days
    are skipped with a report entry.  `days` optionally restricts which
    target days are fitted and predicted.
    """
    by_date = _by_date(dataset)
    dates = list(by_date)
    wanted = None if days is None else set(days)
    result = CalibrationResult(model=model)
    prev = None
    for i, day in enumerate(dates):
        if wanted is not None and day not in wanted:
            continue
        if i < n:
            result.skipped.append((day, f"only {i} prior days with data, need {n}"))
            continue
        window_cases = []
        for d in dates[i - n : i]:
            window_cases.extend(by_date[d])
        window = TrainingWindow(n, tuple(window_cases))
        fit = _fit_for_day(model, g, window, prev if warm_start else None)
        result.fits[day] = fit
        for case in by_date[day]:
            result.pairs.append((case, _predict_for_case(model, g, fit, case)))
        prev = fit
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
    by_date = _by_date(dataset)
    dates = list(by_date)
    wanted = None if days is None else set(days)
    pairs, skipped = [], []
    for i, day in enumerate(dates):
        if wanted is not None and day not in wanted:
            continue
        if i < n:
            skipped.append((day, f"only {i} prior days with data, need {n}"))
            continue
        # Group the window's observations by station once per day
        by_station = _obs_by_station(c for d in dates[i - n : i] for c in by_date[d])
        per_station = {}
        for case in by_date[day]:
            if case.station not in per_station:
                per_station[case.station] = _climatology(by_station, case.station)
            pairs.append((case, per_station[case.station]))
    return pairs, skipped


def rolling_raw(dataset, n, days=None):
    """Raw-ensemble forecasts on the days a length-n calibration covers."""
    by_date = _by_date(dataset)
    dates = list(by_date)
    wanted = None if days is None else set(days)
    pairs, skipped = [], []
    for i, day in enumerate(dates):
        if wanted is not None and day not in wanted:
            continue
        if i < n:
            skipped.append((day, f"only {i} prior days with data, need {n}"))
            continue
        for case in by_date[day]:
            pairs.append((case, Empirical(case.members)))
    return pairs, skipped


def _mean_crps_of_pairs(pairs):
    dists = [d for _, d in pairs]
    obs = np.array([c.obs for c, _ in pairs], dtype=float)
    return float(np.mean(crps_values(dists, obs)))


def grid_search(model, g, dataset, lengths, thetas=None, selection_days=None):
    """Mean CRPS over a (training length, theta) grid, plus the argmin cell.

    Every cell is scored on the same selection days, which must each
    have at least max(lengths) prior days of data.  Ties within 1e-9
    resolve to the larger length, then the larger theta.
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

    by_date = _by_date(dataset)
    dates = list(by_date)
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

    cells = {}
    n_cases = None
    for n in lengths:
        if not model.is_mixture:
            calib = rolling_calibrate(model, g, dataset, n, days=days)
            cells[(n, None)] = _mean_crps_of_pairs(calib.pairs)
            n_cases = len(calib.pairs)
        elif model.strategy == "shared":
            # Shared-strategy fits do not depend on theta: fit once per
            # length, then reassemble predictions per threshold.
            base = ModelSpec(model.family, theta=thetas[0], strategy="shared")
            calib = rolling_calibrate(base, g, dataset, n, days=days)
            by_day_fit = calib.fits
            for theta in thetas:
                spec = ModelSpec(model.family, theta=theta, strategy="shared")
                pairs = []
                for day in days:
                    fit = by_day_fit[day]
                    for case in by_date[day]:
                        pairs.append((case, _predict_for_case(spec, g, fit, case)))
                cells[(n, theta)] = _mean_crps_of_pairs(pairs)
                n_cases = len(pairs)
        else:
            for theta in thetas:
                spec = ModelSpec(model.family, theta=theta, strategy="split")
                calib = rolling_calibrate(spec, g, dataset, n, days=days)
                cells[(n, theta)] = _mean_crps_of_pairs(calib.pairs)
                n_cases = len(calib.pairs)

    best = min(cells.values())
    tied = [key for key, val in cells.items() if val <= best + _TIE_TOL]
    chosen = max(tied, key=lambda key: (key[0], -np.inf if key[1] is None else key[1]))
    return GridSearchResult(
        cells=cells,
        chosen_length=chosen[0],
        chosen_theta=chosen[1],
        days=days,
        n_cases=int(n_cases),
    )
