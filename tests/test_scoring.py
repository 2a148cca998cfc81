"""Scoring rules: closed forms vs quadrature, empirical identities, batching.

Frozen expected values come from direct adaptive quadrature of
scipy.stats CDFs (truncnorm / lognorm), independent of the package's
formulas and integration code.
"""

import math
import warnings

import numpy as np
import pytest

from windemos import (
    GEV,
    Empirical,
    ForecastBatch,
    InvalidInputError,
    LogNormal,
    MeanVariance,
    NumericFailureError,
    ScoreSummary,
    TruncatedNormal,
    UndefinedMomentError,
    UndefinedSkillError,
    aggregate_log_scores,
    crps_empirical,
    crps_ln,
    crps_numeric,
    crps_quad_batch,
    crps_tn,
    crps_values,
    log_score,
    mae_median,
    rmse_mean,
    twcrps,
    twcrps_values,
    twcrpss,
)
from windemos.scoring import _crps_ln_grad, _crps_tn_grad


@pytest.mark.parametrize(
    "mu,sigma,x,expected",
    [
        (0.0, 1.0, 0.0, 0.46738995451021814),
        (3.0, 2.0, 2.5, 0.52520207490073),
        (-5.0, 2.0, 0.3, 0.1490019667193741),
        (10.0, 1.0, 10.0, 0.23369497725510902),
    ],
)
def test_crps_tn_frozen(mu, sigma, x, expected):
    d = TruncatedNormal(mu, sigma)
    assert crps_tn(d, x) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize(
    "mu,sigma,x,expected",
    [
        (0.0, 1.0, 1.0, 0.2674054670211673),
        (1.2, 0.4, 2.0, 0.8624384255751771),
        (0.0, 1.0, 0.0, 0.7905620507563946),
    ],
)
def test_crps_ln_frozen(mu, sigma, x, expected):
    d = LogNormal(mu, sigma)
    assert crps_ln(d, x) == pytest.approx(expected, rel=1e-8)


def _tn_grid():
    grid = []
    for mu in (-6.0, -1.0, 0.0, 2.0, 8.0):
        for sigma in (0.3, 1.0, 3.0):
            for x in (0.0, 0.4, 2.0, 9.0):
                grid.append((mu, sigma, x))
    return grid


@pytest.mark.parametrize("mu,sigma,x", _tn_grid())
def test_crps_tn_matches_quadrature(mu, sigma, x):
    d = TruncatedNormal(mu, sigma)
    assert crps_tn(d, x) == pytest.approx(crps_numeric(d.cdf, x), abs=2e-8)


@pytest.mark.parametrize("mu", [-1e6, -1e4, -30.0, -15.0])
def test_crps_tn_deep_truncation_is_stable(mu):
    # Nearly all normal mass lies below zero here; the score must stay
    # finite, positive, and agree with quadrature.  At mu/sigma = -1e4 and
    # -1e6 the log-domain ratios cancel terms of size 5e7 and 5e11
    d = TruncatedNormal(mu, 1.0)
    for x in (0.0, 0.02, 0.2):
        val = crps_tn(d, x)
        assert math.isfinite(val) and val >= 0.0
        assert val == pytest.approx(crps_numeric(d.cdf, x), abs=2e-8)


@pytest.mark.parametrize(
    "kernel,mu,sigma,x",
    [
        (_crps_tn_grad, 2.0, 1.5, 3.0),
        (_crps_tn_grad, 5.0, 2.0, 0.0),
        (_crps_tn_grad, 0.3, 0.05, 0.31),
        (_crps_tn_grad, -8.0, 1.0, 0.5),  # deep truncation, mu/sigma = -8
        (_crps_tn_grad, -4.0, 0.5, 0.02),
        (_crps_ln_grad, 1.0, 0.5, 3.0),
        (_crps_ln_grad, 0.2, 0.01, 1.3),
        (_crps_ln_grad, -1.0, 2.0, 0.0),
        (_crps_ln_grad, 2.0, 0.3, 1e-3),
    ],
)
def test_crps_second_partials_match_differences_of_the_gradient(kernel, mu, sigma, x):
    # Central differences of the exact (d_mu, d_sigma), steps relative to
    # mu and sigma and wide enough for the gradient's roundoff under deep
    # truncation; h_mu_sigma is checked in both columns
    args = (np.array([mu]), np.array([sigma]), np.array([x]))
    _, _, (h_mm, h_ms, h_ss) = kernel(*args)
    cols = []
    for k, h in ((0, 1e-4 * max(1.0, abs(mu))), (1, 1e-4 * sigma)):
        up, down = [list(args) for _ in range(2)]
        up[k], down[k] = args[k] + h, args[k] - h
        cols.append((np.array(kernel(*up)[1]) - np.array(kernel(*down)[1]))[:, 0] / (2.0 * h))
    want = np.array(cols).T
    got = np.array([[h_mm[0], h_ms[0]], [h_ms[0], h_ss[0]]])
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.max(np.abs(want)))


def test_crps_tn_far_from_truncation_matches_gaussian():
    # With mu = 50*sigma the truncation is irrelevant and the score must
    # collapse to the plain Gaussian CRPS closed form.
    mu, sigma = 25.0, 0.5
    for x in (24.0, 25.0, 26.5):
        z = (x - mu) / sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        gaussian = sigma * (z * (2.0 * cdf - 1.0) + 2.0 * phi - 1.0 / math.sqrt(math.pi))
        assert crps_tn(TruncatedNormal(mu, sigma), x) == pytest.approx(gaussian, rel=1e-12)


@pytest.mark.parametrize(
    "mu,sigma,x",
    [(0.0, 1.0, 0.5), (1.5, 0.3, 5.0), (-1.0, 0.8, 0.2), (2.0, 1.2, 0.0)],
)
def test_crps_ln_matches_quadrature(mu, sigma, x):
    d = LogNormal(mu, sigma)
    assert crps_ln(d, x) == pytest.approx(crps_numeric(d.cdf, x), abs=2e-8)


def test_crps_rejects_bad_observations():
    with pytest.raises(InvalidInputError):
        crps_tn(TruncatedNormal(1.0, 1.0), math.nan)
    with pytest.raises(InvalidInputError):
        crps_numeric(TruncatedNormal(1.0, 1.0).cdf, math.inf)


def test_crps_numeric_flags_broken_cdf():
    with pytest.raises(NumericFailureError) as info:
        crps_numeric(lambda y: np.full_like(np.asarray(y, dtype=float), np.nan), 1.0)
    assert info.value.diagnostics  # carries the failure context


def test_crps_empirical_two_point():
    assert crps_empirical([1.0, 3.0], 2.0) == pytest.approx(0.5, abs=1e-15)


def test_crps_empirical_singleton_is_absolute_error():
    assert crps_empirical([4.0], 1.5) == pytest.approx(2.5, abs=1e-15)
    assert crps_empirical([4.0], 4.0) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_crps_empirical_matches_pairwise_sum(seed):
    # E|X - x| - 0.5 E|X - X'| evaluated by the O(n^2) double sum.
    rng = np.random.default_rng(seed)
    v = rng.gamma(2.0, 2.0, size=rng.integers(2, 40))
    x = float(rng.gamma(2.0, 2.0))
    direct = np.mean(np.abs(v - x)) - 0.5 * np.mean(
        np.abs(v[:, None] - v[None, :])
    )
    assert crps_empirical(v, x) == pytest.approx(direct, rel=1e-12)
    assert crps_empirical(Empirical(v), x) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.inf], [-np.inf], []])
def test_crps_empirical_rejects_a_sample_that_is_not_finite_or_empty(values):
    # A raw value list gets the checks of an Empirical law: no NaN score,
    # no RuntimeWarning
    with pytest.raises(InvalidInputError):
        crps_empirical(values, 1.0)


def test_crps_empirical_translation_equivariance():
    v = np.array([0.5, 2.0, 2.5, 7.0])
    base = crps_empirical(v, 3.0)
    assert crps_empirical(v + 10.0, 13.0) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize(
    "values,x,r,expected",
    [
        ([1.0, 3.0], 2.0, -math.inf, 0.5),
        ([1.0, 3.0], 2.0, 1.5, 0.375),
        ([1.0, 3.0], 2.0, 2.5, 0.125),
        ([2.0, 4.0, 6.0, 8.0], 5.0, 3.0, 0.6875),
        ([2.0, 4.0, 6.0, 8.0], 1.0, 3.0, 1.1875),
    ],
)
def test_twcrps_empirical_frozen(values, x, r, expected):
    assert twcrps_values([Empirical(values)], [x], r)[0] == pytest.approx(expected, abs=1e-14)


def test_twcrps_empirical_full_weight_equals_crps():
    v = [0.3, 1.1, 4.0, 4.0, 9.0]
    for x in (0.0, 2.0, 10.0):
        assert twcrps_values([Empirical(v)], [x], -math.inf)[0] == pytest.approx(
            crps_empirical(v, x), rel=1e-13
        )


@pytest.mark.parametrize(
    "d",
    [TruncatedNormal(2.0, 1.0), LogNormal(0.5, 0.6), GEV(4.0, 1.5, 0.1)],
    ids=["tn", "ln", "gev"],
)
def test_twcrps_parametric_reduces_and_decreases(d):
    x = 3.0
    full = twcrps(d.cdf, x, -math.inf)
    assert full == pytest.approx(crps_numeric(d.cdf, x), rel=1e-10)
    last = full
    for r in (0.0, 2.0, 4.0, 8.0):
        val = twcrps(d.cdf, x, r)
        assert val <= last + 1e-12
        last = val
    assert twcrps(d.cdf, x, 60.0) < 1e-8


def test_twcrpss_identities():
    assert twcrpss(1.0, 1.0) == 0.0
    assert twcrpss(0.5, 1.0) == pytest.approx(0.5)
    assert twcrpss(2.0, 1.0) == pytest.approx(-1.0)
    with pytest.raises(UndefinedSkillError):
        twcrpss(0.5, 0.0)


def test_log_score_and_aggregation():
    scores = log_score(np.array([1.0, math.exp(-2.0), 0.0]))
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx(2.0, rel=1e-15)
    assert math.isinf(scores[2])
    mean, n_inf = aggregate_log_scores(scores)
    assert mean == pytest.approx(1.0, rel=1e-15)
    assert n_inf == 1
    with pytest.raises(InvalidInputError):
        log_score([-0.1])


def test_point_score_hand_values():
    pairs = [(3.0, 4.0), (5.0, 2.0), (1.0, 1.0)]
    assert mae_median(pairs) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert rmse_mean(pairs) == pytest.approx(math.sqrt(10.0 / 3.0), rel=1e-15)
    with pytest.raises(InvalidInputError):
        mae_median([])


GEV_QUAD_GRID = [
    (4.0, 1.5, 0.2, 3.0),
    (4.0, 1.5, 0.2, 9.0),
    (4.0, 1.5, -0.2, 3.0),
    (4.0, 1.5, 0.0, 5.0),
    (1.0, 0.5, 0.4, 0.2),
]


@pytest.mark.parametrize("loc,scale,xi,x", GEV_QUAD_GRID)
def test_gev_batch_quadrature_matches_adaptive(loc, scale, xi, x):
    d = GEV(loc, scale, xi)
    batch = crps_quad_batch(d, np.array([x]))
    assert batch.shape == (1,)
    assert batch[0] == pytest.approx(crps_numeric(d.cdf, x), abs=1e-9)


def test_batch_quadrature_handles_mixed_rows():
    locs = np.array([4.0, 5.0, 6.0])
    d = GEV(locs, 1.5, 0.1)
    obs = np.array([3.5, 7.0, 5.0])
    batch = crps_quad_batch(d, obs)
    for i in range(3):
        single = crps_numeric(GEV(locs[i], 1.5, 0.1).cdf, obs[i])
        assert batch[i] == pytest.approx(single, abs=1e-9)


def test_crps_values_dispatches_per_family():
    dists = [
        TruncatedNormal(2.0, 1.0),
        LogNormal(0.5, 0.6),
        GEV(4.0, 1.5, 0.1),
        MeanVariance(3.0, 4.0).to_lognormal(),
        TruncatedNormal(1.0, 0.5),
    ]
    obs = np.array([1.5, 2.0, 5.0, 2.5, 1.0])
    out = crps_values(dists, obs)
    assert out.shape == (5,)
    assert out[0] == pytest.approx(crps_tn(dists[0], 1.5), rel=1e-12)
    assert out[1] == pytest.approx(crps_ln(dists[1], 2.0), rel=1e-12)
    assert out[2] == pytest.approx(crps_numeric(dists[2].cdf, 5.0), abs=1e-9)
    assert out[3] == pytest.approx(crps_ln(dists[3], 2.5), rel=1e-12)
    assert out[4] == pytest.approx(crps_tn(dists[4], 1.0), rel=1e-12)


def test_crps_values_empirical_forecasts():
    dists = [Empirical([1.0, 3.0]), Empirical([2.0, 2.0, 5.0])]
    obs = np.array([2.0, 4.0])
    out = crps_values(dists, obs)
    assert out[0] == pytest.approx(0.5, abs=1e-14)
    assert out[1] == pytest.approx(crps_empirical([2.0, 2.0, 5.0], 4.0), rel=1e-14)


def test_twcrps_values_matches_scalar_path():
    dists = [TruncatedNormal(2.0, 1.0), GEV(4.0, 1.5, 0.1), Empirical([1.0, 3.0])]
    obs = np.array([1.5, 5.0, 2.0])
    out = twcrps_values(dists, obs, 2.5)
    assert out[0] == pytest.approx(twcrps(dists[0].cdf, 1.5, 2.5), abs=1e-9)
    assert out[1] == pytest.approx(twcrps(dists[1].cdf, 5.0, 2.5), abs=1e-9)
    assert out[2] == pytest.approx(0.125, abs=1e-14)


def test_twcrps_thresholds_are_numbers_below_plus_infinity():
    dists = [TruncatedNormal(2.0, 1.0), LogNormal(1.0, 0.5), Empirical([1.0, 3.0])]
    obs = [1.5, 5.0, 2.0]
    for r in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="threshold"):
            twcrps_values(dists, obs, r)
    # At -inf no value is censored: the twCRPS is the CRPS
    assert np.array_equal(twcrps_values(dists, obs, -math.inf), crps_values(dists, obs))


def test_empirical_quantiles_use_plotting_positions():
    emp = Empirical([2.0, 4.0, 6.0, 8.0])
    # h = p(n+1) - 1 interpolation: p = k/(n+1) hits the k-th order stat.
    assert emp.quantile(0.2) == pytest.approx(2.0)
    assert emp.quantile(0.4) == pytest.approx(4.0)
    assert emp.quantile(0.5) == pytest.approx(5.0)
    assert emp.quantile(0.99) == pytest.approx(8.0)
    assert emp.median() == pytest.approx(5.0)
    assert emp.neg_mass() == 0.0
    assert Empirical([-1.0, 1.0]).neg_mass() == pytest.approx(0.5)


def test_a_batched_empirical_law_sorts_and_draws_row_by_row():
    law = Empirical([[3.0, 1.0, 2.0], [30.0, 10.0, 20.0]])
    np.testing.assert_array_equal(law.values, [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    assert law.n == 3
    draws = law.sample(np.random.default_rng(5))
    assert draws.shape == (2,)
    assert draws[0] in law.values[0] and draws[1] in law.values[1]
    # One sample draws as numpy's choice does
    one = Empirical([3.0, 1.0, 2.0])
    want = np.random.default_rng(5).choice(one.values, size=4, replace=True)
    np.testing.assert_array_equal(one.sample(np.random.default_rng(5), size=4), want)


def test_score_summary_serialization():
    summary = ScoreSummary(
        mean_crps=0.5,
        mean_twcrps={8.0: 0.05, 10.5: 0.01},
        mean_log_score=1.2,
        n_log_infinite=0,
        mae=0.6,
        rmse=0.8,
    )
    d = summary.to_dict()
    assert d["mean_crps"] == 0.5
    assert d["mean_twcrps"] == {"8": 0.05, "10.5": 0.01}
    assert set(d) == {
        "mean_crps",
        "mean_twcrps",
        "mean_log_score",
        "n_log_infinite",
        "mae",
        "rmse",
    }


# Oracle checks of the closed forms at 1e-8.  Shapes stay at or below
# 0.6: beyond that the adaptive oracle itself runs out of error budget.

GEV_ORACLE_GRID = [
    # xi > 0, observation below the lower support endpoint mu - sigma/xi
    (4.0, 0.6, 0.3, 0.3),
    (4.0, 1.5, 0.6, 0.3),
    (1.0, 0.2, 0.4, 0.0),
    # both sides of the Gumbel switch at |xi| = 1e-6
    (4.0, 1.5, 2e-6, 3.0),
    (4.0, 1.5, -2e-6, 3.0),
    (4.0, 1.5, 2e-6, 11.0),
    (4.0, 1.5, -2e-6, 0.5),
    (4.0, 1.5, 5e-7, 9.0),
    (4.0, 1.5, -5e-7, 0.5),
    # xi < 0, observation above the upper support endpoint mu - sigma/xi
    (4.0, 1.5, -0.3, 12.0),
    (4.0, 1.5, -0.6, 7.0),
]


@pytest.mark.parametrize("loc,scale,xi,x", GEV_ORACLE_GRID)
def test_gev_closed_form_crps_matches_oracle(loc, scale, xi, x):
    d = GEV(loc, scale, xi)
    assert crps_values([d], [x])[0] == pytest.approx(crps_numeric(d.cdf, x), abs=1e-8)


def test_gev_crps_undefined_for_large_shape():
    dists = [GEV(4.0, 1.5, 0.2), GEV(4.0, 1.5, 1.0)]
    with pytest.raises(UndefinedMomentError):
        crps_values(dists, [3.0, 3.0])
    with pytest.raises(UndefinedMomentError):
        twcrps_values(dists, [3.0, 3.0], 5.0)


# (law, observations, thresholds): thresholds below and above the support
# endpoint, observations on either side of each threshold.
TW_ORACLE_CASES = {
    "tn": (TruncatedNormal(2.0, 1.0), (0.0, 0.3, 2.0, 9.0), (-1.0, 0.0, 0.5, 3.0, 12.0)),
    "tn-deep": (TruncatedNormal(-20.0, 0.5), (0.0, 0.02, 0.2), (0.0, 0.01, 0.05, 0.3)),
    # mean 1e-4 and 1e-6: thresholds inside and past the mass
    "tn-deeper": (TruncatedNormal(-1e4, 1.0), (0.0, 2e-5, 0.2), (0.0, 1e-5, 1e-4, 1e-3)),
    "tn-deepest": (TruncatedNormal(-1e6, 1.0), (0.0, 2e-6, 5.0), (0.0, 1e-6, 1e-5)),
    "ln": (LogNormal(0.5, 0.6), (0.0, 0.4, 2.0, 9.0), (-1.0, 0.0, 1.0, 3.0, 30.0)),
    # r = e puts log r exactly at mu + sigma^2, the switch of Owen's formula
    "ln-switch": (LogNormal(0.0, 1.0), (0.5, 3.0), (math.e,)),
    # lower endpoint 2
    "gev-bounded-below": (GEV(4.0, 0.6, 0.3), (0.3, 1.5, 3.0, 9.0), (1.0, 2.5, 6.0, 40.0)),
    # upper endpoint 9
    "gev-bounded-above": (GEV(4.0, 1.5, -0.3), (2.0, 8.5, 12.0), (-2.0, 3.0, 8.9, 10.0)),
    "gumbel": (GEV(4.0, 1.5, 0.0), (0.5, 4.0, 11.0), (-3.0, 3.0, 10.0, 40.0)),
}


@pytest.mark.parametrize("name", TW_ORACLE_CASES)
def test_twcrps_closed_forms_match_oracle(name):
    d, ys, rs = TW_ORACLE_CASES[name]
    for r in rs:
        got = twcrps_values([d] * len(ys), np.array(ys), r)
        for y, val in zip(ys, got):
            assert val >= 0.0
            assert val == pytest.approx(twcrps(d.cdf, y, r), abs=1e-8), (y, r)


def _step_twcrps(values, y, r):
    # The integral of (F - 1{z >= y})^2 over [r, inf) for a step CDF,
    # summed segment by segment
    v = np.sort(values)
    pts = np.unique(np.concatenate([v, [y, r]]))
    pts = pts[pts >= r]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        total += (np.mean(v <= a) - float(a >= y)) ** 2 * (b - a)
    return total


@pytest.mark.parametrize("seed", range(4))
def test_twcrps_empirical_matches_step_integral(seed):
    rng = np.random.default_rng(seed)
    v = rng.gamma(2.0, 2.0, size=rng.integers(1, 12))
    ys = np.array([0.0, v.min(), float(np.median(v)), v.max() + 1.0])
    for r in (v.min() - 1.0, v.min(), float(np.mean(v)), v.max(), v.max() + 2.0):
        got = twcrps_values([Empirical(v)] * len(ys), ys, r)
        for y, val in zip(ys, got):
            assert val >= 0.0
            assert val == pytest.approx(_step_twcrps(v, y, r), abs=1e-12), (y, r)


def test_twcrps_tail_threshold_does_not_cancel():
    # y < r with F(r) ~ 1: the score is a tiny upper-tail integral, which
    # a difference of two CRPS values near r - E max(X, X') would swamp
    # in rounding and could push below zero.
    dists = [TruncatedNormal(2.0, 1.0), GEV(4.0, 1.5, 0.1), LogNormal(0.5, 0.3)]
    obs = np.array([1.0, 3.0, 1.0])
    got = twcrps_values(dists, obs, 25.0)
    assert np.all(got >= 0.0)
    for d, y, val in zip(dists, obs, got):
        assert val == pytest.approx(twcrps(d.cdf, y, 25.0), abs=1e-8)
    assert got[0] < 1e-100
    # 40-digit quadrature of the integral of (1 - F)^2 over [25, inf)
    assert got[1] == pytest.approx(4.712801944889065e-08, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-3, 1e-4])  # 1e-4 is the links' scale floor
def test_gumbel_scores_far_above_the_location(scale):
    # At z = (y - mu)/sigma past ~745, e^-z underflows and E1(e^-z) is
    # infinite.  The references are the limits there: the CRPS tends to
    # y - mu - (gamma + log 2) sigma, and (1 - F)^2 ~ e^(-2z) leaves an
    # upper-tail integral of sigma e^(-2z)/2, which is 0 in doubles.
    d = GEV(1.0, scale, 0.0)
    shift = (np.euler_gamma + math.log(2.0)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        crps = crps_values([d, d], [3.0, 2.0])
        below = twcrps_values([d], [0.5], 2.0)
        above = twcrps_values([d], [3.0], 2.0)
    assert crps == pytest.approx([2.0 - shift, 1.0 - shift], abs=1e-8)
    assert below[0] == pytest.approx(0.0, abs=1e-8)
    assert above[0] == pytest.approx(1.0, abs=1e-8)


def test_gumbel_scores_far_below_the_location():
    # There F ~ 0: the CRPS is E X - y - E|X - X'|/2 = mu + (gamma - log 2)
    # sigma - y, and the upper-tail integral from r is that with r for y
    d = GEV(1000.0, 1.0, 0.0)
    mean_min = 1000.0 + np.euler_gamma - math.log(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        crps = crps_values([d], [0.5])[0]
        tail = twcrps_values([d], [0.5], 600.0)[0]
    assert crps == pytest.approx(mean_min - 0.5, rel=1e-12)
    assert tail == pytest.approx(mean_min - 600.0, rel=1e-12)


@pytest.mark.parametrize(
    "z,want",
    # 150-digit evaluations of 1.5 (gamma - log 2 - z + 2 E1(e) - E1(2e)), e = e^-z
    [(7.1, 5.10317837210913738e-7), (12.0, 2.8313393106263474945e-11), (41.0, 1.8319505533053957577e-36)],
)
def test_gumbel_upper_tail_series_keeps_relative_accuracy(z, want):
    # Past z = 1 the terms of the closed form cancel; the E1 series that
    # replaces it keeps the tiny integral to full relative precision
    d = GEV(4.0, 1.5, 0.0)
    got = twcrps_values([d], [0.5], 4.0 + 1.5 * z)[0]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "z,want",
    # mpmath at 150 digits: gamma - log 2 - z + 2 E1(e) - E1(2e), e = e^-z
    [
        (1.5, 0.021526043259021474057),
        (3.0, 0.0011991204387229134302),
        (5.0, 0.000022598297332921973245),
        (6.9, 5.0747470634484247109e-7),
    ],
)
def test_gumbel_upper_tail_has_full_precision_from_z_1(z, want):
    # The integral of (1 - F)^2 over [z, inf) for the standard Gumbel law;
    # in doubles the closed form above cancels to 1e-10 relative near z = 7
    got = twcrps_values([GEV(0.0, 1.0, 0.0)], [0.0], z)[0]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def _mixed_batch():
    # Cases 0..8 of three families in interleaved rows, a Gumbel and a
    # bounded (xi < 0, upper end 6.33) GEV among them
    mv = MeanVariance(np.array([3.0, 5.0]), np.array([4.0, 1.5]))
    parts = [
        ([0, 4, 7], TruncatedNormal(np.array([2.0, 1.0, -0.5]), np.array([1.0, 0.5, 2.0]))),
        ([1, 5], LogNormal(np.array([0.5, 1.2]), np.array([0.6, 0.3]))),
        ([2, 8], GEV(np.array([4.0, 3.0]), np.array([1.5, 1.0]), np.array([0.0, -0.3]))),
        ([3, 6], mv.to_lognormal()),
    ]
    obs = np.array([1.5, 2.0, 5.0, 2.5, 1.0, 3.5, 4.0, 0.0, 6.0])
    return ForecastBatch(9, parts), obs


def _empirical_batch():
    # Empirical laws of 3 and 5 members in interleaved rows
    small = np.sort(np.array([[1.0, 3.0, 2.0], [0.5, 4.0, 4.0]]), axis=1)
    large = np.sort(np.array([[2.0, 2.0, 5.0, 1.0, 3.0], [1.0, 6.0, 2.5, 3.5, 0.2]]), axis=1)
    obs = np.array([2.0, 4.0, 4.0, 0.0])
    return ForecastBatch(4, [([2, 0], Empirical(small)), ([1, 3], Empirical(large))]), obs


@pytest.mark.parametrize("make", [_mixed_batch, _empirical_batch])
def test_a_batch_scores_bit_identically_to_the_list_of_its_laws(make):
    batch, obs = make()
    laws = batch.laws()
    assert len(laws) == len(batch) == obs.size
    assert ForecastBatch.of(batch) is batch
    np.testing.assert_array_equal(crps_values(batch, obs), crps_values(laws, obs))
    # Thresholds below the support, inside it, and above the bounded GEV
    for r in (-1.0, 0.0, 2.5, 8.0, -math.inf):
        np.testing.assert_array_equal(
            twcrps_values(batch, obs, r), twcrps_values(laws, obs, r), err_msg=str(r)
        )


def test_a_mean_variance_pair_is_not_a_forecast():
    # A log-normal forecast is a LogNormal law; MeanVariance only converts
    laws = [TruncatedNormal(2.0, 1.0), MeanVariance(3.0, 4.0)]
    for score in (
        lambda: ForecastBatch.of(laws),
        lambda: crps_values(laws, [1.5, 2.5]),
        lambda: twcrps_values(laws, [1.5, 2.5], 3.0),
    ):
        with pytest.raises(InvalidInputError, match="unsupported predictive law MeanVariance"):
            score()


def _params_of(d):
    return [float(getattr(d, a)) for a in ("mu", "sigma", "xi") if hasattr(d, a)]


def test_forecast_batch_joins_and_cuts_laws_in_case_order():
    a, _ = _mixed_batch()
    b = ForecastBatch(2, [
        ([1], TruncatedNormal(np.array([3.0]), np.array([1.0]))),
        ([0], GEV(np.array([2.0]), np.array([1.0]), np.array([0.2]))),
    ])  # fmt: skip
    joined = ForecastBatch.concat([a, b, ForecastBatch(0, ())])
    assert len(joined) == 11
    # one part per family, each family's rows in the order they came
    families = sorted(type(law).__name__ for _, law in joined.parts)
    assert families == ["GEV", "LogNormal", "TruncatedNormal"]
    laws = joined.laws()
    for got, want in zip(laws, a.laws() + b.laws()):
        assert type(got) is type(want)
        assert _params_of(got) == _params_of(want)
    with pytest.raises(InvalidInputError):
        ForecastBatch.of([TruncatedNormal(1.0, 1.0), "not a law"])
