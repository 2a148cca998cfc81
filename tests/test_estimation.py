"""Estimation: objective improvement, recovery, switching, rolling windows."""

import dataclasses
import datetime
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from windemos import (
    GEV,
    CaseTable,
    EstimationError,
    EnsembleForecast,
    FitResult,
    GevParams,
    GroupSpec,
    InsufficientDataError,
    InvalidInputError,
    LnParams,
    ModelSpec,
    RegimeSwitchConfig,
    ScenarioConfig,
    TnParams,
    TrainingFallbackWarning,
    TrainingWindow,
    crps_values,
    days_with_data,
    default_gev_params,
    default_tn_params,
    fit_gev_ml,
    fit_min_crps,
    fit_switch,
    generate,
    grid_search,
    predict_gev,
    predict_ln,
    predict_switch,
    predict_tn,
    rolling_calibrate,
    rolling_climatology,
    rolling_raw,
)
from windemos.estimation import (
    _FAMILY_TABLE,
    _XI_MAX,
    MIXTURES,
    CalibrationResult,
    _gev_objective,
    _links,
    _ln_objective,
    _predict,
    _standardized,
    _standardizer,
    _tn_objective,
    _training_rows,
)
from windemos.models import MEAN_FLOOR, SCALE_FLOOR

START = datetime.date(2024, 1, 1)

TN_TRUTH = TnParams(a0=0.3, a=(0.18,), b0=0.5, b1=1.2)
LN_TRUTH = LnParams(alpha0=0.2, alpha=(0.24,), beta0=0.4, beta1=0.9)
GEV_TRUTH = GevParams(gamma0=0.4, gamma=(0.22,), sigma0=0.6, sigma1=0.05, xi=0.12)

G4 = GroupSpec((4,))


def _members(rng, level=6.0):
    return tuple(np.maximum(rng.normal(level, 1.2, size=4), 0.05))


def _window_from_truth(family, truth, n_cases, seed, level=6.0):
    """Cases whose obs follow the given link truth exactly."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        members = _members(rng, level)
        shell = EnsembleForecast(START, "S1", members, obs=None)
        if family == "tn":
            d = predict_tn(truth, G4, shell)
        elif family == "ln":
            d = predict_ln(truth, G4, shell)
        else:
            s = np.mean(members)
            loc = truth.gamma0 + truth.gamma[0] * np.sum(members)
            d = GEV(loc, truth.sigma0 + truth.sigma1 * s, truth.xi)
        obs = float(d.sample(rng))
        if family == "gev":
            obs = max(obs, 0.0)
        cases.append(EnsembleForecast(START, "S1", members, obs=obs))
    return TrainingWindow(n=1, cases=tuple(cases))


def _mean_crps_tn(params, window):
    dists = [predict_tn(params, G4, c) for c in window.cases]
    obs = np.array([c.obs for c in window.cases])
    return float(np.mean(crps_values(dists, obs)))


def test_fit_min_crps_improves_on_init():
    window = _window_from_truth("tn", TN_TRUTH, 400, seed=1)
    init = default_tn_params(G4)
    fit = fit_min_crps("tn", G4, window, init=init)
    assert fit.objective <= _mean_crps_tn(init, window) + 1e-12
    assert fit.converged
    assert fit.n_evals > 0
    assert not fit.at_boundary


def test_fit_min_crps_objective_matches_public_prediction_path():
    window = _window_from_truth("tn", TN_TRUTH, 300, seed=2)
    fit = fit_min_crps("tn", G4, window)
    assert fit.objective == pytest.approx(_mean_crps_tn(fit.params, window), rel=1e-12)


def test_fit_min_crps_beats_truth_objective_on_sample():
    # The minimizer works on the same sample it is scored on, so its
    # objective can exceed the truth's only by optimizer slack.
    window = _window_from_truth("tn", TN_TRUTH, 1200, seed=3)
    fit = fit_min_crps("tn", G4, window)
    assert fit.objective <= _mean_crps_tn(TN_TRUTH, window) + 0.01


def test_fit_min_crps_warm_start_from_truth_stays_at_least_as_good():
    window = _window_from_truth("tn", TN_TRUTH, 400, seed=4)
    fit = fit_min_crps("tn", G4, window, init=TN_TRUTH)
    assert fit.objective <= _mean_crps_tn(TN_TRUTH, window) + 1e-12


def test_fit_min_crps_is_deterministic():
    window = _window_from_truth("tn", TN_TRUTH, 200, seed=5)
    a = fit_min_crps("tn", G4, window)
    b = fit_min_crps("tn", G4, window)
    assert a.params == b.params
    assert a.objective == b.objective


def test_fit_min_crps_constrained_coefficients_are_nonnegative():
    window = _window_from_truth("tn", TN_TRUTH, 150, seed=6)
    fit = fit_min_crps("tn", G4, window)
    assert all(w >= 0.0 for w in fit.params.a)
    assert fit.params.b0 >= 0.0 and fit.params.b1 >= 0.0


def test_fit_min_crps_ln_family():
    window = _window_from_truth("ln", LN_TRUTH, 500, seed=7)
    fit = fit_min_crps("ln", G4, window)
    dists = [predict_ln(fit.params, G4, c) for c in window.cases]
    obs = np.array([c.obs for c in window.cases])
    assert fit.objective == pytest.approx(float(np.mean(crps_values(dists, obs))), rel=1e-12)
    truth_dists = [predict_ln(LN_TRUTH, G4, c) for c in window.cases]
    assert fit.objective <= float(np.mean(crps_values(truth_dists, obs))) + 0.01


def test_fit_min_crps_rejects_other_families():
    window = _window_from_truth("tn", TN_TRUTH, 50, seed=8)
    with pytest.raises(InvalidInputError):
        fit_min_crps("gev", G4, window)


def test_fit_gev_ml_recovers_shape():
    window = _window_from_truth("gev", GEV_TRUTH, 1500, seed=9)
    fit = fit_gev_ml(G4, window)
    assert fit.converged
    assert not fit.at_boundary
    assert abs(fit.params.xi - GEV_TRUTH.xi) < 0.1


def test_fit_gev_ml_matches_or_beats_truth_likelihood():
    window = _window_from_truth("gev", GEV_TRUTH, 800, seed=10)
    fit = fit_gev_ml(G4, window)
    obs = np.array([c.obs for c in window.cases])
    nll = []
    for c in window.cases:
        loc = GEV_TRUTH.gamma0 + GEV_TRUTH.gamma[0] * np.sum(c.members)
        scale = GEV_TRUTH.sigma0 + GEV_TRUTH.sigma1 * np.mean(c.members)
        nll.append(-GEV(loc, scale, GEV_TRUTH.xi).logpdf(c.obs))
    assert fit.objective <= float(np.mean(nll)) + 0.01


def test_fit_gev_ml_raises_when_no_case_is_feasible_at_init():
    rng = np.random.default_rng(11)
    cases = tuple(
        EnsembleForecast(START, "S1", _members(rng, level=10.0), obs=0.01)
        for _ in range(40)
    )
    window = TrainingWindow(1, cases)
    bad_init = GevParams(gamma0=0.0, gamma=(0.25,), sigma0=0.05, sigma1=0.0, xi=2.0)
    with pytest.raises(EstimationError):
        fit_gev_ml(G4, window, init=bad_init)


def _floor_window(calm_cases):
    """60 cases whose obs equal the ensemble mean, or with calm outliers.

    With exact obs every fit shrinks its scale onto the floor.  Otherwise
    the first `calm_cases` cases have members near 1 m/s and obs 0.1, far
    below the line 2 (fbar - 6) of the rest, so a fitted mean link
    extrapolates below zero there.
    """
    rng = np.random.default_rng(0)
    cases = []
    for i in range(60):
        calm = i < calm_cases
        members = tuple(np.maximum(rng.normal(1.0 if calm else 8.0, 1.0, size=4), 0.05))
        if calm_cases == 0:
            obs = float(np.mean(members))
        else:
            obs = 0.1 if calm else max(0.0, 2.0 * (np.mean(members) - 6.0) + rng.normal(0, 1.0))
        cases.append(EnsembleForecast(START, "S1", members, obs=obs))
    return TrainingWindow(1, tuple(cases))


def _floors_reached(p, rows):
    # Which links of fitted params reach their floor on some training case
    if isinstance(p, TnParams):
        raw = {"tn variance": (p.b0 + p.b1 * rows.s2, SCALE_FLOOR)}
    elif isinstance(p, LnParams):
        raw = {
            "ln mean": (p.alpha0 + rows.gs @ np.array(p.alpha), MEAN_FLOOR),
            "ln variance": (p.beta0 + p.beta1 * rows.s2, SCALE_FLOOR),
        }
    else:
        raw = {"gev scale": (p.sigma0 + p.sigma1 * rows.fbar, SCALE_FLOOR)}
    return {name for name, (link, floor) in raw.items() if np.any(link < floor)}


def test_fits_flag_a_floor_exactly_when_one_binds():
    windows = {"exact": _floor_window(0), "outliers": _floor_window(4)}
    want = [
        ("tn", "exact", {"tn variance"}),
        ("ln", "exact", {"ln variance"}),
        ("gev", "exact", {"gev scale"}),
        ("tn", "outliers", set()),
        # Only the mean floor binds: the flag needs the LN mean floor
        ("ln", "outliers", {"ln mean"}),
        ("gev", "outliers", set()),
    ]
    for family, name, floors in want:
        window = windows[name]
        fit = fit_gev_ml(G4, window) if family == "gev" else fit_min_crps(family, G4, window)
        assert _floors_reached(fit.params, _training_rows(window, G4)) == floors, (family, name)
        assert fit.at_boundary is bool(floors), (family, name)


def _switch_window(rng, n_low, n_high, theta):
    cases = []
    for _ in range(n_low):
        members = tuple(np.maximum(rng.normal(theta - 2.5, 0.4, size=4), 0.05))
        obs = max(float(rng.normal(theta - 2.5, 1.0)), 0.0)
        cases.append(EnsembleForecast(START, "S1", members, obs=obs))
    for _ in range(n_high):
        members = tuple(rng.normal(theta + 2.5, 0.4, size=4))
        obs = max(float(rng.normal(theta + 2.5, 1.2)), 0.1)
        cases.append(EnsembleForecast(START, "S1", members, obs=obs))
    return TrainingWindow(1, tuple(cases))


def test_fit_switch_splits_training_cases_by_median():
    rng = np.random.default_rng(12)
    theta = 6.0
    window = _switch_window(rng, 30, 30, theta)
    model = ModelSpec("tn-ln", theta=theta, strategy="split")
    low_fit, high_fit = fit_switch(model, G4, window)

    med = np.array([np.median(c.members) for c in window.cases])
    low_cases = tuple(c for c, m in zip(window.cases, med) if m < theta)
    high_cases = tuple(c for c, m in zip(window.cases, med) if m >= theta)
    manual_low = fit_min_crps("tn", G4, TrainingWindow(1, low_cases))
    manual_high = fit_min_crps("ln", G4, TrainingWindow(1, high_cases))
    assert low_fit.params == manual_low.params
    assert high_fit.params == manual_high.params


def test_fit_switch_falls_back_when_one_side_is_thin():
    rng = np.random.default_rng(13)
    window = _switch_window(rng, 4, 50, 6.0)
    model = ModelSpec("tn-ln", theta=6.0, strategy="split")
    with pytest.warns(TrainingFallbackWarning):
        low_fit, _ = fit_switch(model, G4, window)
    manual = fit_min_crps("tn", G4, window)  # full window, shared fallback
    assert low_fit.params == manual.params


def test_fit_switch_shared_strategy_trains_both_on_all_cases():
    rng = np.random.default_rng(14)
    window = _switch_window(rng, 4, 50, 6.0)
    model = ModelSpec("tn-ln", theta=6.0, strategy="shared")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TrainingFallbackWarning)
        low_fit, high_fit = fit_switch(model, G4, window)
    assert low_fit.params == fit_min_crps("tn", G4, window).params
    assert high_fit.params == fit_min_crps("ln", G4, window).params


def test_fit_switch_supports_gev_high_family():
    rng = np.random.default_rng(15)
    window = _switch_window(rng, 30, 30, 6.0)
    model = ModelSpec("tn-gev", theta=6.0, strategy="split")
    low_fit, high_fit = fit_switch(model, G4, window)
    assert isinstance(low_fit.params, TnParams)
    assert isinstance(high_fit.params, GevParams)


def _daily_dataset(n_days, stations=2, seed=0, level=6.0):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_days):
        day = START + datetime.timedelta(days=i)
        for s in range(stations):
            members = _members(rng, level)
            shell = EnsembleForecast(day, f"S{s}", members, obs=None)
            obs = float(predict_tn(TN_TRUTH, G4, shell).sample(rng))
            cases.append(EnsembleForecast(day, f"S{s}", members, obs=obs))
    return cases


def test_rolling_calibrate_skips_days_without_history():
    dataset = _daily_dataset(12)
    calib = rolling_calibrate(ModelSpec("tn"), G4, dataset, n=5)
    assert len(calib.skipped) == 5
    assert all("prior days" in reason for _, reason in calib.skipped)
    assert len(calib.fits) == 7
    assert len(calib.pairs) == 7 * 2
    first_fit_day = min(calib.fits)
    assert first_fit_day == START + datetime.timedelta(days=5)


def test_rolling_calibrate_window_spans_calendar_gaps():
    # Day 8 is missing entirely; the window uses the most recent days
    # that have data, not consecutive calendar days.
    dataset = [c for c in _daily_dataset(12) if c.date != START + datetime.timedelta(days=7)]
    calib = rolling_calibrate(ModelSpec("tn"), G4, dataset, n=5)
    assert START + datetime.timedelta(days=8) in calib.fits
    assert all(day != START + datetime.timedelta(days=7) for day, _ in calib.skipped)


def test_rolling_calibrate_day_filter():
    dataset = _daily_dataset(12)
    want = (START + datetime.timedelta(days=8), START + datetime.timedelta(days=10))
    calib = rolling_calibrate(ModelSpec("tn"), G4, dataset, n=5, days=want)
    assert set(calib.fits) == set(want)
    assert len(calib.pairs) == 4


def test_rolling_calibrate_cold_start_matches_per_day_fit():
    dataset = _daily_dataset(9)
    # The first fitted day has no previous fit to start from
    calib = rolling_calibrate(ModelSpec("tn"), G4, dataset, n=6)
    day = START + datetime.timedelta(days=6)
    assert min(calib.fits) == day
    window_cases = tuple(c for c in dataset if c.date < day)
    manual = fit_min_crps("tn", G4, TrainingWindow(6, window_cases))
    assert calib.fits[day].params == manual.params


def test_climatology_prefers_station_history():
    # Station C has no observation in the window of the second day, so
    # its climatology pools every station's
    day2 = START + datetime.timedelta(days=1)
    cases = [
        EnsembleForecast(START, "A", (1.0, 2.0), obs=1.0),
        EnsembleForecast(START, "A", (1.0, 2.0), obs=2.0),
        EnsembleForecast(START, "B", (1.0, 2.0), obs=9.0),
        EnsembleForecast(day2, "A", (1.0, 2.0), obs=3.0),
        EnsembleForecast(day2, "C", (1.0, 2.0), obs=4.0),
    ]
    pairs, skipped = rolling_climatology(cases, 1)
    assert [(c.station, c.date) for c, _ in pairs] == [("A", day2), ("C", day2)]
    assert skipped == [(START, "only 0 prior days with data, need 1")]
    np.testing.assert_array_equal(pairs[0][1].values, [1.0, 2.0])
    np.testing.assert_array_equal(pairs[1][1].values, [1.0, 2.0, 9.0])
    unobserved = [dataclasses.replace(c, obs=None) if c.date == START else c for c in cases]
    with pytest.raises(InvalidInputError, match="no observations"):
        rolling_climatology(unobserved, 1)


def test_rolling_raw_with_zero_alignment_covers_all_days():
    dataset = _daily_dataset(6)
    pairs, skipped = rolling_raw(dataset, 0)
    assert len(pairs) == len(dataset)
    assert skipped == []
    pairs, skipped = rolling_raw(dataset, 4)
    assert len(skipped) == 4
    assert len(pairs) == 2 * 2


def test_rolling_climatology_alignment():
    dataset = _daily_dataset(8)
    pairs, skipped = rolling_climatology(dataset, 5)
    assert len(skipped) == 5
    assert len(pairs) == 3 * 2
    # every forecast is the station's own window obs
    case, emp = pairs[0]
    history = [
        c.obs for c in dataset if c.station == case.station and c.date < case.date
    ]
    np.testing.assert_allclose(emp.values, np.sort(history))


def test_days_with_data_sorted_unique():
    dataset = _daily_dataset(4)
    days = days_with_data(dataset + dataset[:2])
    assert days == tuple(sorted({c.date for c in dataset}))


def test_grid_search_pure_model_over_lengths():
    dataset = _daily_dataset(22)
    result = grid_search(ModelSpec("tn"), G4, dataset, lengths=[6, 9])
    assert set(result.cells) == {(6, None), (9, None)}
    assert result.chosen_theta is None
    assert result.chosen_length in (6, 9)
    assert result.n_cases == len(result.days) * 2
    # every selection day must carry the longest window's history
    assert min(result.days) == START + datetime.timedelta(days=9)


def test_grid_search_shared_fast_path_matches_direct_calibration():
    dataset = _daily_dataset(26, seed=20, level=6.0)
    model = ModelSpec("tn-ln", theta=6.0, strategy="shared")
    result = grid_search(model, G4, dataset, lengths=[8], thetas=[5.0, 7.0])
    for theta in (5.0, 7.0):
        spec = ModelSpec("tn-ln", theta=theta, strategy="shared")
        calib = rolling_calibrate(spec, G4, dataset, 8, days=result.days)
        obs = np.array([c.obs for c, _ in calib.pairs])
        dists = [d for _, d in calib.pairs]
        want = float(np.mean(crps_values(dists, obs)))
        assert result.cells[(8, theta)] == pytest.approx(want, rel=1e-12)


def test_grid_search_breaks_ties_toward_larger_theta():
    # Every ensemble median sits far below every candidate theta, so all
    # thetas route identically and the cells tie exactly.
    dataset = _daily_dataset(16, seed=21, level=3.0)
    model = ModelSpec("tn-ln", theta=20.0, strategy="split")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrainingFallbackWarning)
        result = grid_search(model, G4, dataset, lengths=[6], thetas=[20.0, 25.0, 30.0])
    vals = list(result.cells.values())
    assert max(vals) - min(vals) < 1e-12
    assert result.chosen_theta == 30.0


def test_grid_search_needs_enough_days():
    dataset = _daily_dataset(5)
    with pytest.raises(InsufficientDataError):
        grid_search(ModelSpec("tn"), G4, dataset, lengths=[10])


def test_grid_search_mixture_requires_thetas():
    dataset = _daily_dataset(16)
    with pytest.raises(InvalidInputError):
        grid_search(ModelSpec("tn-ln", theta=6.0), G4, dataset, lengths=[6])


def test_training_window_validation():
    with pytest.raises(InvalidInputError):
        TrainingWindow(0, ())
    with pytest.raises(InsufficientDataError):
        fit_switch(
            ModelSpec("tn-ln", theta=5.0),
            G4,
            TrainingWindow(1, ()),
        )


def test_model_spec_validation():
    assert ModelSpec("tn").is_mixture is False
    spec = ModelSpec("tn-gev", theta=6.0)
    assert spec.is_mixture and spec.high_family == "gev"
    with pytest.raises(InvalidInputError):
        ModelSpec("weibull")
    with pytest.raises(InvalidInputError):
        ModelSpec("tn-ln")  # mixture without a threshold
    with pytest.raises(InvalidInputError):
        ModelSpec("tn-ln", theta=6.0, strategy="other")


# --- gradients of the fit objectives ----------------------------------------


def _central(objective, u, h):
    # Central differences of the objective's value, step h relative to |u_i| >= 1
    grad = np.empty_like(u)
    for i in range(u.size):
        step = np.zeros_like(u)
        step[i] = h * max(1.0, abs(u[i]))
        grad[i] = (objective(u + step)[0] - objective(u - step)[0]) / (2.0 * step[i])
    return grad


def _assert_gradient(objective, u, h=1e-6, rtol=1e-5):
    _, grad = objective(u)
    want = _central(objective, u, h)
    np.testing.assert_allclose(grad, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))
    return grad


def _arrays(window, g=G4):
    rows = _training_rows(window, g)
    return rows.gs, rows.s2, rows.fbar, rows.obs


def _crps_window():
    # TN truth with a few calm cases observed at exactly 0
    window = _window_from_truth("tn", TN_TRUTH, 80, seed=31)
    cases = [
        EnsembleForecast(c.date, c.station, c.members, obs=0.0 if i % 10 == 0 else c.obs)
        for i, c in enumerate(window.cases)
    ]
    return TrainingWindow(1, tuple(cases))


@pytest.mark.parametrize("family", ["tn", "ln"])
def test_crps_objective_gradients_match_central_differences(family):
    gs, s2, _, obs = _arrays(_crps_window())
    assert np.any(obs == 0.0)
    make = _tn_objective if family == "tn" else _ln_objective
    _assert_gradient(make(gs, s2, obs), np.array([0.3, 0.2, 0.7, 1.1]))


def test_tn_objective_gradient_under_deep_truncation():
    # mu/sigma = -40 on every case: the closed forms are log-domain ratios,
    # and central differences need a wider step to keep their own digits
    gs, s2, _, obs = _arrays(_crps_window())
    objective = _tn_objective(gs, s2, obs)
    u = np.array([-40.0, 0.0, 1.0, 0.0])
    assert np.isfinite(objective(u)[0])
    _assert_gradient(objective, u, h=1e-4)


@pytest.mark.parametrize("family", ["tn", "ln"])
def test_scale_floor_zeroes_the_variance_gradient(family):
    gs, s2, _, obs = _arrays(_crps_window())
    make = _tn_objective if family == "tn" else _ln_objective
    grad = _assert_gradient(make(gs, s2, obs), np.array([0.3, 0.2, 1e-6, 1e-7]))
    assert grad[2] == 0.0 and grad[3] == 0.0


def test_ln_mean_floor_zeroes_the_gradient_of_floored_cases():
    gs, s2, _, obs = _arrays(_crps_window())
    # The mean link is below its floor on the cases with the smallest sums
    u = np.array([-4.0, 0.2, 0.7, 1.1])
    mean_raw = u[0] + gs[:, 0] * u[1]
    assert np.any(mean_raw < 1e-3) and np.any(mean_raw > 1e-3)
    _assert_gradient(_ln_objective(gs, s2, obs), u)


def _gev_window(xi, seed=32):
    truth = GevParams(gamma0=0.4, gamma=(0.22,), sigma0=0.6, sigma1=0.05, xi=xi)
    return _window_from_truth("gev", truth, 120, seed=seed)


@pytest.mark.parametrize("xi", [0.3, -0.2, 2e-6, -2e-6])
def test_gev_objective_gradient_matches_central_differences(xi):
    # The truth's own window holds every case inside the support
    gs, _, fbar, obs = _arrays(_gev_window(xi))
    u = np.array([0.4, 0.22, 0.6, 0.05, xi])
    # steps stay off the Gumbel switch at |xi| = 1e-6
    _assert_gradient(_gev_objective(gs, fbar, obs), u, h=1e-7 if abs(xi) < 1e-3 else 1e-6)


def test_gev_scale_floor_passes_no_gradient():
    # A steep scale link floors the cases with the smallest ensemble means
    gs, _, fbar, obs = _arrays(_gev_window(0.0))
    u = np.array([0.4, 0.22, -3.0, 0.6, 0.1])
    assert np.any(u[2] + u[3] * fbar < 1e-4)
    _assert_gradient(_gev_objective(gs, fbar, obs), u)


@pytest.mark.parametrize("xi", [5e-7, -5e-7])
def test_gev_gradient_on_the_gumbel_branch_is_the_limit_of_the_score(xi):
    # Inside |xi| < 1e-6 the objective is the Gumbel likelihood, flat in
    # xi; the loc/scale gradient is its own, and the xi-derivative is the
    # limit of the general one, so it matches differences just outside
    gs, _, fbar, obs = _arrays(_gev_window(0.0))
    objective = _gev_objective(gs, fbar, obs)
    u = np.array([0.4, 0.22, 0.6, 0.05, xi])
    _, grad = objective(u)
    want = _central(objective, u, 1e-7)
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(grad[:4], want[:4], rtol=1e-5, atol=1e-5 * scale)
    outside = u.copy()
    outside[4] = 4.0 * xi
    want_xi = _central(objective, outside, 1e-7)[4]
    assert grad[4] == pytest.approx(want_xi, rel=1e-5, abs=1e-5 * scale)


def test_gev_penalty_gradient_pushes_back_into_the_support():
    # A high location puts every case below the lower endpoint; each costs
    # a constant plus its violation -t, whose gradient leads back inside
    gs, _, fbar, obs = _arrays(_gev_window(0.0))
    objective = _gev_objective(gs, fbar, obs)
    u = np.array([10.0, 0.22, 0.6, 0.05, 0.5])
    assert objective(u)[0] > 1e6
    grad = _assert_gradient(objective, u)
    assert grad[0] > 0.0 and grad[4] > 0.0


def test_gev_warm_start_off_the_support_or_on_the_floor_restarts_cold():
    # From such a start the penalty and the floor give the line search
    # no slope back, so the fit starts where a cold one does
    window = _window_from_truth("gev", GEV_TRUTH, 200, seed=38)
    gs, _, fbar, obs = _arrays(window)
    cold = fit_gev_ml(G4, window)
    outside = GevParams(gamma0=2.0, gamma=(0.22,), sigma0=0.6, sigma1=0.05, xi=0.5)
    floored = GevParams(gamma0=0.4, gamma=(0.22,), sigma0=-3.0, sigma1=0.6, xi=0.1)
    loc = outside.gamma0 + outside.gamma[0] * gs[:, 0]
    logpdf = GEV(loc, outside.sigma0 + outside.sigma1 * fbar, outside.xi).logpdf(obs)
    assert np.any(np.isinf(logpdf)) and np.any(np.isfinite(logpdf))
    assert np.any(floored.sigma0 + floored.sigma1 * fbar < 1e-4)
    for init in (outside, floored):
        assert fit_gev_ml(G4, window, init=init).params == cold.params


def test_fit_returns_the_best_point_it_evaluated():
    # On these 13 high-wind cases L-BFGS-B runs into the support penalty
    # and its stalled line search ends on a trial point outside it
    g = GroupSpec((8,))
    data = generate(ScenarioConfig(days=30, stations=3, group_spec=g, truth="switching", seed=2))
    first = datetime.date(2024, 1, 17)
    cases = tuple(
        c
        for c in data
        if first <= c.date < first + datetime.timedelta(days=8) and np.median(c.members) >= 6.0
    )
    window = TrainingWindow(8, cases)
    gs, _, fbar, obs = _arrays(window, g)
    objective = _gev_objective(gs, fbar, obs)
    cold = default_gev_params(g)
    start = objective(np.array([cold.gamma0, *cold.gamma, cold.sigma0, cold.sigma1, cold.xi]))[0]
    fit = fit_gev_ml(g, window)
    p = fit.params
    assert fit.objective < start
    assert fit.objective == objective(np.array([p.gamma0, *p.gamma, p.sigma0, p.sigma1, p.xi]))[0]


# --- the gradient fit against a Nelder-Mead oracle --------------------------

_NM_OPTIONS = {"maxfev": 5000, "xatol": 1e-6, "fatol": 1e-8, "adaptive": True}


def _nelder_mead(objective, u0, squared):
    """The earlier fit: a simplex plus one restart, nonnegative coordinates as squares."""
    u0 = np.asarray(u0, dtype=float)

    def value(v):
        u = v.copy()
        u[squared] = u[squared] ** 2
        return objective(u)[0]

    v0 = u0.copy()
    v0[squared] = np.sqrt(v0[squared])
    first = optimize.minimize(value, v0, method="Nelder-Mead", options=_NM_OPTIONS)
    second = optimize.minimize(value, first.x, method="Nelder-Mead", options=_NM_OPTIONS)
    return min(first.fun, second.fun)


def _oracle(family, window):
    gs, s2, fbar, obs = _arrays(window)
    if family == "gev":
        u0 = [0.0, 0.25, 1.0, 1.0, 0.05]
        return _nelder_mead(_gev_objective(gs, fbar, obs), u0, slice(0, 0))
    make = _tn_objective if family == "tn" else _ln_objective
    return _nelder_mead(make(gs, s2, obs), [0.0, 0.25, 1.0, 1.0], slice(1, None))


def test_gev_cases_far_in_a_floored_tail_cost_the_penalty():
    # On this 24-case window an early step floors every scale, where the
    # cases far below the location would cost up to 1e72; priced at the
    # penalty, that step no longer ends the fit 0.5 above the simplex.
    # Its optimum sits on the scale floor, a kink, hence the looser gate
    g = GroupSpec((8,))
    data = generate(ScenarioConfig(days=30, stations=3, group_spec=g, truth="switching", seed=2))
    end = START + datetime.timedelta(days=8)
    window = TrainingWindow(8, tuple(c for c in data if c.date < end))
    gs, _, fbar, obs = _arrays(window, g)
    objective = _gev_objective(gs, fbar, obs)
    assert objective(np.array([-0.02, 0.34, 0.4, -2.0, -0.05]))[0] < 2e6
    simplex = _nelder_mead(objective, [0.0, 0.125, 1.0, 1.0, 0.05], slice(0, 0))
    assert fit_gev_ml(g, window).objective < simplex + 1e-3


def test_gradient_fit_reaches_the_nelder_mead_objective():
    frozen = [
        ("tn", _window_from_truth("tn", TN_TRUTH, 300, seed=34)),
        ("ln", _window_from_truth("ln", LN_TRUTH, 300, seed=35)),
        ("gev", _window_from_truth("gev", GEV_TRUTH, 300, seed=36)),
    ]
    for family, window in frozen:
        if family == "gev":
            fit = fit_gev_ml(G4, window)
        else:
            fit = fit_min_crps(family, G4, window)
        assert fit.converged
        assert fit.objective <= _oracle(family, window) + 1e-7, family


def test_split_fit_branches_reach_the_nelder_mead_objective():
    window = _switch_window(np.random.default_rng(33), 40, 40, 6.0)
    below = np.array([np.median(c.members) for c in window.cases]) < 6.0
    low = TrainingWindow(1, tuple(c for c, b in zip(window.cases, below) if b))
    high = TrainingWindow(1, tuple(c for c, b in zip(window.cases, below) if not b))
    for family in ("ln", "gev"):
        low_fit, high_fit = fit_switch(ModelSpec(f"tn-{family}", theta=6.0), G4, window)
        assert low_fit.objective <= _oracle("tn", low) + 1e-7
        assert high_fit.objective <= _oracle(family, high) + 1e-7, family


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    ("family", "truth"), [("tn", "switching"), ("ln", "switching"), ("gev", "gev")]
)
def test_rolling_fits_need_few_evaluations(family, truth):
    g = GroupSpec((8,))
    cfg = ScenarioConfig(days=30, stations=5, group_spec=g, truth=truth, seed=7)
    calib = rolling_calibrate(ModelSpec(family), g, generate(cfg), 20)
    fits = list(calib.fits.values())
    assert len(fits) == 10
    assert all(f.converged for f in fits)
    assert sum(f.n_evals for f in fits) / len(fits) < 100


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    ("family", "truth"), [("tn", "switching"), ("ln", "switching"), ("gev", "gev")]
)
def test_standardized_rolling_fits_need_under_30_evaluations(family, truth):
    # TN and LN fits take 5.1 and 5.3 evaluations on average by projected
    # Newton, and took 16.2 and 17.1 by L-BFGS-B in standardized
    # coordinates; GEV fits take 17.8 by L-BFGS-B.  On the raw link
    # coefficients L-BFGS-B took 39.0, 39.5 and 42.3
    g = GroupSpec((8,))
    cfg = ScenarioConfig(days=30, stations=5, group_spec=g, truth=truth, seed=7)
    fits = list(rolling_calibrate(ModelSpec(family), g, generate(cfg), 20).fits.values())
    assert len(fits) == 10
    assert all(f.converged for f in fits)
    assert sum(f.n_evals for f in fits) / len(fits) < 30


# --- projected Newton on exact Hessians -------------------------------------


def _central_hessian(objective, u, h):
    # Central differences of the exact gradient, step h relative to |u_i| >= 1
    cols = []
    for i in range(u.size):
        step = np.zeros_like(u)
        step[i] = h * max(1.0, abs(u[i]))
        cols.append((objective(u + step)[1] - objective(u - step)[1]) / (2.0 * step[i]))
    return np.array(cols).T


@pytest.mark.parametrize(
    ("family", "u", "h", "floored"),
    [
        ("tn", [0.3, 0.2, 0.7, 1.1], 1e-6, None),
        ("ln", [0.3, 0.2, 0.7, 1.1], 1e-6, None),
        # mu/sigma = -8 on every case; the differences need a wider step
        ("tn", [-8.0, 0.0, 1.0, 0.0], 1e-4, None),
        ("tn", [0.3, 0.2, -0.5, 0.4], 1e-6, "variance"),
        ("ln", [0.3, 0.2, -0.5, 0.4], 1e-6, "variance"),
        ("ln", [-4.0, 0.2, 0.7, 1.1], 1e-6, "mean"),
    ],
)
def test_crps_objective_hessians_match_differences_of_the_gradient(family, u, h, floored):
    gs, s2, _, obs = _arrays(_crps_window())
    objective = (_tn_objective if family == "tn" else _ln_objective)(gs, s2, obs)
    u = np.array(u)
    floors = {
        "variance": (u[2] + u[3] * s2, SCALE_FLOOR),
        "mean": (u[0] + u[1] * gs[:, 0], MEAN_FLOOR),
    }
    if floored is not None:
        link, floor = floors[floored]
        assert np.any(link < floor) and np.any(link > floor)
    val, grad, hess = objective(u, True)
    # the same value and gradient as without the Hessian
    assert val == objective(u)[0]
    np.testing.assert_array_equal(grad, objective(u)[1])
    want = _central_hessian(objective, u, h)
    np.testing.assert_allclose(hess, want, rtol=1e-5, atol=1e-5 * np.max(np.abs(want)))
    # in v, u = A v, the Hessian is A^T H A
    A = _standardizer(gs, s2, u.size)
    np.testing.assert_allclose(
        _standardized(objective, A)(np.linalg.solve(A, u), True)[2], A.T @ hess @ A, rtol=1e-12
    )


def _seed7_calibration(family):
    g = GroupSpec((8,))
    cfg = ScenarioConfig(days=30, stations=5, group_spec=g, truth="switching", seed=7)
    return rolling_calibrate(ModelSpec(family), g, generate(cfg), 20)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("family", ["tn", "ln"])
def test_newton_reaches_the_lbfgsb_objective_on_rolling_windows(family, monkeypatch):
    newton = _seed7_calibration(family)
    lbfgsb_only = dataclasses.replace(_FAMILY_TABLE[family], newton=False)
    monkeypatch.setitem(_FAMILY_TABLE, family, lbfgsb_only)
    lbfgsb = _seed7_calibration(family)
    assert newton.fits.keys() == lbfgsb.fits.keys()
    for day, fit in newton.fits.items():
        want = lbfgsb.fits[day]
        assert fit.converged and want.converged
        assert fit.objective <= want.objective * (1.0 + 1e-10), day


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("family", ["tn", "ln"])
def test_newton_rolling_fits_need_under_10_evaluations(family):
    # 5.1 (TN) and 5.3 (LN) evaluations per fit; L-BFGS-B took 16.2 and 17.1
    fits = list(_seed7_calibration(family).fits.values())
    assert len(fits) == 10
    assert all(f.converged and not f.newton_fallback for f in fits)
    assert sum(f.n_evals for f in fits) / len(fits) < 10


def test_a_stalled_newton_run_is_handed_to_lbfgsb_and_counted():
    # On one case the TN optimum sits on the kink of the variance floor,
    # where the Hessian jumps; Newton stalls and L-BFGS-B finishes the fit
    window = _degenerate_window("one case")
    fit = fit_min_crps("tn", G4, window)
    assert fit.newton_fallback and fit.converged and fit.at_boundary
    assert fit.objective <= _oracle("tn", window) + 1e-7
    smooth = fit_min_crps("tn", G4, _crps_window())
    assert not smooth.newton_fallback
    days = {START: fit, START + datetime.timedelta(days=1): smooth}
    counts = CalibrationResult(ModelSpec("tn"), fits=days).fit_counts()
    assert counts["n_newton_fallbacks"] == 1
    assert counts["n_optimizer_evals"] == fit.n_evals + smooth.n_evals


# --- the change of variables u = A v ----------------------------------------


def _floored_problem(family):
    # An objective, its link columns and a u with the variance (GEV:
    # scale) link below its floor on some cases and above it on others
    if family == "gev":
        gs, _, x, obs = _arrays(_gev_window(0.0))
        objective = _gev_objective(gs, x, obs)
        u = np.array([0.4, 0.22, -3.0, 0.6, 0.1])
    else:
        gs, x, _, obs = _arrays(_crps_window())
        objective = (_tn_objective if family == "tn" else _ln_objective)(gs, x, obs)
        u = np.array([0.3, 0.2, -0.5, 0.4])
    floored = u[2] + u[3] * x < 1e-4
    assert np.any(floored) and not np.all(floored)
    return objective, gs, x, u


@pytest.mark.parametrize("family", ["tn", "ln", "gev"])
def test_standardized_gradient_matches_central_differences_in_v(family):
    objective, gs, x, u = _floored_problem(family)
    A = _standardizer(gs, x, u.size)
    assert not np.allclose(A, np.eye(u.size))
    v = np.linalg.solve(A, u)
    of_v = _standardized(objective, A)
    val, grad = of_v(v)
    want_val, want_grad = objective(u)
    assert val == pytest.approx(want_val, rel=1e-12)
    np.testing.assert_allclose(grad, A.T @ want_grad, rtol=1e-9)
    _assert_gradient(of_v, v)


def test_standardizer_scales_columns_and_keeps_the_rest():
    # v's location column is gs centred and divided by its spread, the
    # second link's column x divided by its RMS; c0 and xi are their own
    gs, _, fbar, _ = _arrays(_gev_window(0.1))
    A = _standardizer(gs, fbar, 5)
    v = np.array([0.7, -0.3, 0.2, 0.9, 0.15])
    loc, scale = _links(A @ v, gs, fbar)
    z = (gs[:, 0] - np.mean(gs)) / np.std(gs)
    np.testing.assert_allclose(loc, 0.7 - 0.3 * z, rtol=1e-12)
    np.testing.assert_allclose(scale, 0.2 + 0.9 * fbar / np.sqrt(np.mean(fbar**2)), rtol=1e-12)
    assert (A @ v)[4] == v[4]


def test_a_weight_bounded_by_zero_stops_there():
    # The observations fall as the ensemble rises, so the best
    # nonnegative weight is 0; the fit ends on it, not below
    rng = np.random.default_rng(39)
    cases = []
    for _ in range(120):
        members = _members(rng)
        obs = max(14.0 - 0.3 * sum(members) + rng.normal(0.0, 0.8), 0.0)
        cases.append(EnsembleForecast(START, "S1", members, obs=obs))
    window = TrainingWindow(1, tuple(cases))
    for family in ("tn", "ln"):
        fit = fit_min_crps(family, G4, window)
        weights = fit.params.a if family == "tn" else fit.params.alpha
        assert fit.converged
        assert weights == (0.0,), family
        assert fit.objective <= _oracle(family, window) + 1e-7, family


def _degenerate_window(kind):
    rng = np.random.default_rng(40)
    if kind == "one case":
        return TrainingWindow(1, (EnsembleForecast(START, "S1", (5.2, 6.0, 6.9, 7.4), obs=6.3),))
    # 50 cases with the same four members: s2 is 0 and every group sum is
    # 24.4, up to the roundoff of their mean
    obs = rng.gamma(4.0, 1.5, size=50)
    return TrainingWindow(1, tuple(EnsembleForecast(START, "S1", (6.1,) * 4, obs=o) for o in obs))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", ["identical members", "one case"])
@pytest.mark.parametrize("family", ["tn", "ln", "gev"])
def test_degenerate_windows_get_a_finite_standardizer_and_converge(family, kind):
    window = _degenerate_window(kind)
    gs, s2, fbar, _ = _arrays(window)
    x = fbar if family == "gev" else s2
    A = _standardizer(gs, x, 5 if family == "gev" else 4)
    assert np.all(np.isfinite(A))
    # A column with no spread keeps the scale 1
    assert A[1, 1] == 1.0
    if kind == "identical members":
        assert A[3, 3] == (1.0 if family != "gev" else pytest.approx(1.0 / 6.1))
    fit = fit_gev_ml(G4, window) if family == "gev" else fit_min_crps(family, G4, window)
    assert fit.converged
    assert np.isfinite(fit.objective)


# --- the GEV shape stays below 1 --------------------------------------------


def test_gev_fit_keeps_the_shape_below_one():
    # Data from xi = 1.2 have no mean; the fit stops at the bound, where
    # the predictive mean and CRPS still exist.  The shape is its own
    # standardized coordinate, so it ends on the bound exactly
    truth = GevParams(gamma0=0.4, gamma=(0.22,), sigma0=0.6, sigma1=0.05, xi=1.2)
    window = _window_from_truth("gev", truth, 300, seed=37)
    obs = np.array([c.obs for c in window.cases])
    for init in (None, truth):
        fit = fit_gev_ml(G4, window, init=init)
        assert fit.params.xi == _XI_MAX < 1.0
        preds = [predict_gev(fit.params, G4, c) for c in window.cases]
        assert np.all(np.isfinite(crps_values(preds, obs)))


# --- the case table against the case-tuple path -----------------------------


def _ragged_switching_data(g):
    # 24 days of 4 stations: day 7 has no data at all, stations S2 and S4
    # are missing on some days, and the list runs backwards in time
    data = generate(ScenarioConfig(days=24, stations=4, group_spec=g, truth="switching", seed=3))
    gap = START + datetime.timedelta(days=6)
    kept = [
        c
        for k, c in enumerate(data)
        if c.date != gap and not (c.station in ("S2", "S4") and k % 3 == 0)
    ]
    return kept[::-1]


def _window_of(data, day, n):
    # The cases of the n most recent earlier days that have data, day by
    # day, each day in the dataset's order
    prior = sorted({c.date for c in data if c.date < day})[-n:]
    return TrainingWindow(n, tuple(c for d in prior for c in data if c.date == d))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("sizes", [(8,), (1, 7)])
@pytest.mark.parametrize("family", ["tn", "ln", "gev", "tn-ln", "tn-gev"])
def test_rolling_fits_equal_fits_on_case_windows(family, sizes):
    g = GroupSpec(sizes)
    data = _ragged_switching_data(g)
    model = ModelSpec(family, theta=6.0) if family in ("tn-ln", "tn-gev") else ModelSpec(family)
    n = 6
    calib = rolling_calibrate(model, g, data, n)
    days = sorted({c.date for c in data})
    assert len(calib.fits) == len(days) - n
    prev = None
    for day, fit in calib.fits.items():
        window = _window_of(data, day, n)
        if model.is_mixture:
            init = (None, None) if prev is None else (prev[0].params, prev[1].params)
            want = fit_switch(model, g, window, *init)
            assert [f.params for f in fit] == [f.params for f in want], day
            assert [f.n_evals for f in fit] == [f.n_evals for f in want]
        else:
            init = None if prev is None else prev.params
            if family == "gev":
                want = fit_gev_ml(g, window, init=init)
            else:
                want = fit_min_crps(family, g, window, init=init)
            assert fit.params == want.params, day
            assert fit.n_evals == want.n_evals
        prev = fit


def _law_params(d):
    return [float(d.mu), float(d.sigma), float(d.xi) if isinstance(d, GEV) else 0.0]


def _batch_params(batch):
    # The family and the (mu, sigma, xi) of every case of a ForecastBatch
    kinds = np.empty(len(batch), dtype=object)
    params = np.zeros((len(batch), 3))
    for rows, law in batch.parts:
        kinds[rows] = type(law)
        params[rows, 0], params[rows, 1] = law.mu, law.sigma
        if isinstance(law, GEV):
            params[rows, 2] = law.xi
    return list(kinds), params


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("sizes", [(8,), (1, 7)])
def test_batched_predictions_equal_per_case_predictions(sizes):
    g = GroupSpec(sizes)
    data = _ragged_switching_data(g)
    tn = TnParams(0.2, (0.12,) * g.m, 0.8, 0.9)
    ln = LnParams(0.3, (0.11,) * g.m, 0.6, 1.1)
    gev = GevParams(0.1, (0.11,) * g.m, 0.5, 0.15, 0.1)
    fits = {
        "tn": FitResult(tn, 0.0, True, 0),
        "ln": FitResult(ln, 0.0, True, 0),
        "gev": FitResult(gev, 0.0, True, 0),
    }
    table = CaseTable(data, g)
    per_case = {
        "tn": lambda c: predict_tn(tn, g, c),
        "ln": lambda c: predict_ln(ln, g, c),
        "gev": lambda c: predict_gev(gev, g, c),
        "tn-ln": lambda c: predict_switch(RegimeSwitchConfig(6.0, tn, ln), g, c),
        "tn-gev": lambda c: predict_switch(RegimeSwitchConfig(6.0, tn, gev), g, c),
    }
    for family, predict in per_case.items():
        if family in ("tn-ln", "tn-gev"):
            model = ModelSpec(family, theta=6.0)
            fit = (fits["tn"], fits[model.high_family])
        else:
            model, fit = ModelSpec(family), fits[family]
        batch = _predict(model, fit, table.rows)
        want = [predict(c) for c in table.cases]
        assert len(batch) == len(want)
        kinds, got = _batch_params(batch)
        assert kinds == [type(d) for d in want]
        ref = np.array([_law_params(d) for d in want])
        if g.m == 1:
            np.testing.assert_array_equal(got, ref)
        else:
            # gemv and the per-case dot add the group terms in another order
            np.testing.assert_array_max_ulp(got, ref, maxulp=4)


def test_case_table_sorts_days_and_keeps_each_days_order():
    g = GroupSpec((8,))
    data = _ragged_switching_data(g)
    table = CaseTable(data, g)
    assert table.dates == days_with_data(data)
    for i, day in enumerate(table.dates):
        day_cases = table.cases[table.bounds[i] : table.bounds[i + 1]]
        assert day_cases == tuple(c for c in data if c.date == day)
    # the same rows as the columns of the cases, built one by one
    members = [c.members for c in table.cases]
    np.testing.assert_array_equal(table.rows.obs, [c.obs for c in table.cases])
    np.testing.assert_array_equal(table.rows.s2, [np.var(m, ddof=1) for m in members])
    np.testing.assert_array_equal(table.rows.fbar, [np.mean(m) for m in members])
    np.testing.assert_array_equal(table.rows.median, [np.median(m) for m in members])
    with pytest.raises(InvalidInputError):
        rolling_calibrate(ModelSpec("tn"), GroupSpec((4, 4)), table, 5)


def test_rolling_calibrate_counts_split_fallbacks():
    # On 7 of the 15 windows of 8 days fewer than 10 ensemble medians lie
    # on one side of theta = 6; the count is the number of fallback
    # warnings, one per such day
    g = GroupSpec((8,))
    data = _ragged_switching_data(g)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        calib = rolling_calibrate(ModelSpec("tn-ln", theta=6.0), g, data, 8)
    fallbacks = [w for w in caught if issubclass(w.category, TrainingFallbackWarning)]
    assert calib.n_split_fallbacks == len(fallbacks) == 7
    assert len(calib.fits) == 15
    shared = rolling_calibrate(ModelSpec("tn-ln", theta=6.0, strategy="shared"), g, data, 8)
    assert shared.n_split_fallbacks == 0


def test_model_spec_rejects_a_negative_or_nan_theta():
    # Mixtures predict without a RegimeSwitchConfig, so the spec itself
    # checks the threshold it will route by
    for theta in (-1.0, float("nan")):
        with pytest.raises(InvalidInputError):
            ModelSpec("tn-gev", theta=theta)
    assert ModelSpec("tn-ln", theta=math.inf).theta == math.inf


def test_training_cases_without_an_observation_are_rejected():
    # A case without an observation may be predicted but not trained on,
    # whether the window is a tuple of cases or rows of the case table
    dataset = _daily_dataset(8)
    blind = EnsembleForecast(dataset[3].date, "S9", dataset[3].members, obs=None)
    with pytest.raises(InvalidInputError):
        fit_min_crps("tn", G4, TrainingWindow(1, (blind,) + tuple(dataset[:12])))
    with pytest.raises(InvalidInputError):
        rolling_calibrate(ModelSpec("tn"), G4, dataset + [blind], n=5)
    last = dataset[-1].date
    target = EnsembleForecast(last, "S9", dataset[-1].members, obs=None)
    calib = rolling_calibrate(ModelSpec("tn"), G4, dataset + [target], n=5, days=[last])
    assert [case for case, _ in calib.pairs][-1] is target


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("family", ["tn", "ln", "gev", "tn-ln", "tn-gev"])
def test_calibration_pairs_are_the_per_case_predictions_in_case_order(family):
    g = GroupSpec((8,))
    data = _ragged_switching_data(g)
    model = ModelSpec(family, theta=6.0) if family in MIXTURES else ModelSpec(family)
    calib = rolling_calibrate(model, g, data, 6)
    pairs = calib.pairs
    assert len(calib.forecasts) == len(calib.cases) == len(pairs)
    # each fitted day's cases in the dataset's order, days in date order
    assert tuple(case for case, _ in pairs) == calib.cases
    assert calib.cases == tuple(c for day in sorted(calib.fits) for c in data if c.date == day)
    for case, law in pairs:
        fit = calib.fits[case.date]
        if model.is_mixture:
            config = RegimeSwitchConfig(6.0, fit[0].params, fit[1].params)
            want = predict_switch(config, g, case)
        else:
            want = {"tn": predict_tn, "ln": predict_ln, "gev": predict_gev}[family](
                fit.params, g, case
            )
        assert type(law) is type(want)
        assert _law_params(law) == _law_params(want)
