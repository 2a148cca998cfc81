"""Link functions, group handling, and regime switching."""

import datetime
import math

import numpy as np
import pytest

from windemos import (
    GEV,
    DegenerateScaleWarning,
    EnsembleForecast,
    GevParams,
    GroupSpec,
    InsufficientDataError,
    InvalidParameterError,
    LnParams,
    LogNormal,
    RegimeSwitchConfig,
    TnParams,
    TruncatedNormal,
    ensemble_stats,
    gev_link,
    ln_link,
    predict_gev,
    predict_ln,
    predict_switch,
    predict_tn,
    tn_link,
)

DAY = datetime.date(2024, 3, 1)


def _case(members, obs=None):
    return EnsembleForecast(date=DAY, station="S1", members=tuple(members), obs=obs)


def test_group_spec_layout():
    g = GroupSpec((1, 10))
    assert g.m == 2
    assert g.total == 11
    np.testing.assert_array_equal(g.offsets, [0, 1])
    s = GroupSpec.singletons(4)
    assert s.sizes == (1, 1, 1, 1)
    assert s.m == s.total == 4


def test_group_sums_hand_values():
    g = GroupSpec((2, 4))
    members = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    np.testing.assert_allclose(g.group_sums(members), [3.0, 18.0])
    batch = np.array([members, [10.0] * 6])
    np.testing.assert_allclose(g.group_sums(batch), [[3.0, 18.0], [20.0, 40.0]])


def test_group_sums_rejects_size_mismatch():
    with pytest.raises(InvalidParameterError):
        GroupSpec((2, 2)).group_sums([1.0, 2.0, 3.0])


@pytest.mark.parametrize("sizes", [(), (0,), (2, -1)])
def test_group_spec_rejects_bad_sizes(sizes):
    with pytest.raises(InvalidParameterError):
        GroupSpec(sizes)


def test_forecast_case_validation():
    ok = _case([1.0, 2.0], obs=3.0)
    assert ok.members == (1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        _case([1.0, -0.5])
    with pytest.raises(InvalidParameterError):
        _case([1.0, math.nan])
    with pytest.raises(InvalidParameterError):
        _case([])
    with pytest.raises(InvalidParameterError):
        _case([1.0, 2.0], obs=-1.0)
    assert _case([1.0, 2.0]).obs is None


def test_ensemble_stats_hand_values():
    stats = ensemble_stats(_case([1.0, 2.0, 4.0, 9.0]))
    assert stats.mean == 4.0
    assert stats.variance == pytest.approx(12.666666666666666, rel=1e-15)
    assert stats.median == 3.0


def test_ensemble_stats_needs_two_members():
    with pytest.raises(InsufficientDataError):
        ensemble_stats(_case([2.0]))


def test_tn_link_hand_values():
    g = GroupSpec((2, 2))
    p = TnParams(a0=0.5, a=(0.2, 0.3), b0=1.0, b1=2.0)
    case = _case([1.0, 3.0, 2.0, 6.0])
    sums = g.group_sums(case.members)  # [4, 8]
    s2 = ensemble_stats(case).variance
    loc, scale = tn_link(p, sums, s2)
    assert loc == pytest.approx(0.5 + 0.2 * 4.0 + 0.3 * 8.0, rel=1e-15)
    assert scale == pytest.approx(math.sqrt(1.0 + 2.0 * s2), rel=1e-15)


def test_ln_link_hand_values():
    g = GroupSpec((4,))
    p = LnParams(alpha0=0.1, alpha=(0.25,), beta0=0.5, beta1=1.5)
    case = _case([2.0, 2.0, 4.0, 4.0])
    m, v = ln_link(p, g.group_sums(case.members), ensemble_stats(case).variance)
    assert m == pytest.approx(0.1 + 0.25 * 12.0, rel=1e-15)
    assert v == pytest.approx(0.5 + 1.5 * (4.0 / 3.0), rel=1e-15)


def test_gev_link_hand_values():
    p = GevParams(gamma0=-0.4, gamma=(0.5, -0.1), sigma0=0.3, sigma1=0.2, xi=0.1)
    loc, scale = gev_link(p, np.array([4.0, 8.0]), 3.0)
    assert loc == pytest.approx(-0.4 + 0.5 * 4.0 - 0.1 * 8.0, rel=1e-15)
    assert scale == pytest.approx(0.3 + 0.2 * 3.0, rel=1e-15)


def test_links_broadcast_over_cases():
    p = TnParams(a0=0.0, a=(0.5,), b0=0.2, b1=1.0)
    sums = np.array([[4.0], [8.0], [12.0]])
    s2 = np.array([1.0, 2.0, 3.0])
    loc, scale = tn_link(p, sums, s2)
    np.testing.assert_allclose(loc, [2.0, 4.0, 6.0])
    np.testing.assert_allclose(scale, np.sqrt([1.2, 2.2, 3.2]))


def test_scale_floor_engages_with_warning():
    p = TnParams(a0=1.0, a=(0.0,), b0=0.0, b1=0.0)
    with pytest.warns(DegenerateScaleWarning):
        _, scale = tn_link(p, np.array([5.0]), 0.0)
    assert float(scale) == pytest.approx(1e-2)  # sqrt of the 1e-4 variance floor


def test_mean_floor_engages_with_warning():
    p = LnParams(alpha0=-5.0, alpha=(0.0,), beta0=1.0, beta1=0.0)
    with pytest.warns(DegenerateScaleWarning):
        m, v = ln_link(p, np.array([2.0]), 1.0)
    assert float(m) == pytest.approx(1e-3)
    assert float(v) == pytest.approx(1.0)


def test_link_parameter_sign_constraints():
    with pytest.raises(InvalidParameterError):
        TnParams(a0=0.0, a=(-0.1,), b0=1.0, b1=1.0)
    with pytest.raises(InvalidParameterError):
        TnParams(a0=0.0, a=(0.1,), b0=-1.0, b1=1.0)
    with pytest.raises(InvalidParameterError):
        LnParams(alpha0=0.0, alpha=(0.5,), beta0=0.1, beta1=-0.2)
    # GEV location weights may be negative; intercepts are free
    GevParams(gamma0=-1.0, gamma=(-0.5,), sigma0=0.1, sigma1=-0.05, xi=-0.2)
    TnParams(a0=-2.0, a=(0.5,), b0=0.0, b1=0.0)


def test_link_weight_count_must_match_groups():
    p = TnParams(a0=0.0, a=(0.5, 0.5), b0=1.0, b1=1.0)
    case = _case([1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        predict_tn(p, GroupSpec((3,)), case)


def test_predictions_carry_link_parameters():
    g = GroupSpec((1, 2))
    case = _case([3.0, 2.0, 4.0])
    s2 = ensemble_stats(case).variance
    tn = predict_tn(TnParams(0.2, (0.3, 0.25), 0.4, 0.8), g, case)
    assert isinstance(tn, TruncatedNormal)
    assert tn.mu == pytest.approx(0.2 + 0.3 * 3.0 + 0.25 * 6.0)
    assert tn.sigma == pytest.approx(math.sqrt(0.4 + 0.8 * s2))

    ln = predict_ln(LnParams(0.1, (0.2, 0.3), 0.5, 0.7), g, case)
    assert isinstance(ln, LogNormal)
    want_m = 0.1 + 0.2 * 3.0 + 0.3 * 6.0
    want_v = 0.5 + 0.7 * s2
    mv = ln.mean_variance()
    assert mv.m == pytest.approx(want_m, rel=1e-12)
    assert mv.v == pytest.approx(want_v, rel=1e-12)

    gev = predict_gev(GevParams(0.3, (0.5, 0.1), 0.2, 0.15, 0.08), g, case)
    assert isinstance(gev, GEV)
    assert gev.mu == pytest.approx(0.3 + 0.5 * 3.0 + 0.1 * 6.0)
    assert gev.sigma == pytest.approx(0.2 + 0.15 * 3.0)
    assert gev.xi == 0.08


TN_P = TnParams(0.0, (1.0,), 1.0, 0.0)
LN_P = LnParams(0.0, (1.0,), 1.0, 0.0)


def _switch(theta):
    return RegimeSwitchConfig(theta=theta, low_params=TN_P, high_params=LN_P)


def test_switch_routes_on_ensemble_median():
    g = GroupSpec((3,))
    low = _case([2.0, 3.0, 4.0])  # median 3
    high = _case([5.0, 7.0, 9.0])  # median 7
    cfg = _switch(theta=6.0)
    assert isinstance(predict_switch(cfg, g, low), TruncatedNormal)
    assert isinstance(predict_switch(cfg, g, high), LogNormal)
    # the boundary case (median == theta) uses the high-wind model
    at = _case([6.0, 6.0, 6.0])
    assert isinstance(predict_switch(cfg, g, at), LogNormal)


def test_switch_extreme_thresholds_degenerate_to_pure_models():
    g = GroupSpec((3,))
    case = _case([2.0, 3.0, 4.0])
    always_high = predict_switch(_switch(0.0), g, case)
    assert isinstance(always_high, LogNormal)
    always_low = predict_switch(_switch(math.inf), g, case)
    assert isinstance(always_low, TruncatedNormal)


def test_switch_supports_gev_high_model():
    cfg = RegimeSwitchConfig(
        theta=1.0,
        low_params=TN_P,
        high_params=GevParams(0.0, (0.3,), 0.5, 0.1, 0.1),
    )
    out = predict_switch(cfg, GroupSpec((3,)), _case([5.0, 7.0, 9.0]))
    assert isinstance(out, GEV)


def test_switch_without_high_params_fails_loudly():
    # The law is chosen by the coefficients' type; None has no family
    cfg = RegimeSwitchConfig(theta=1.0, low_params=TN_P)
    with pytest.raises(InvalidParameterError):
        predict_switch(cfg, GroupSpec((3,)), _case([5.0, 7.0, 9.0]))


def test_switch_config_validation():
    with pytest.raises(InvalidParameterError):
        RegimeSwitchConfig(theta=-0.5, low_params=TN_P, high_params=LN_P)
    with pytest.raises(InvalidParameterError):
        RegimeSwitchConfig(theta=math.nan, low_params=TN_P, high_params=LN_P)
    with pytest.raises(InvalidParameterError):
        RegimeSwitchConfig(theta=5.0, low_params=TN_P, high_params=LN_P, training_strategy="other")
