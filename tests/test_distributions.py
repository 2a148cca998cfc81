"""Distribution contracts: closed forms, inversion accuracy, sampling law.

Expected values are frozen from scipy.stats (truncnorm, lognorm,
genextreme with c = -xi), which use different parameterizations and
code paths than the package.
"""

import decimal
import math

import numpy as np
import pytest

from windemos import (
    GEV,
    InvalidInputError,
    InvalidParameterError,
    LogNormal,
    MeanVariance,
    TruncatedNormal,
    UndefinedMomentError,
)

# (mu, sigma) -> mean, median, cdf(0.5), cdf(2), pdf(0.5), q(0.1), q(0.9)
TN_CASES = {
    (0.0, 1.0): (
        0.7978845608028654,
        0.6744897501960817,
        0.3829249225480262,
        0.9544997361036416,
        0.7041306535285989,
        0.12566134685507402,
        1.6448536269514729,
    ),
    (3.0, 2.0): (
        3.2775795009177013,
        3.167656973113117,
        0.04162330919271051,
        0.25903579387432946,
        0.09786245973895696,
        1.0121236282785215,
        5.641177297653892,
    ),
    (-2.0, 1.5): (
        0.6972023042053417,
        0.533564266205981,
        0.4760474378432068,
        0.9580053793919014,
        0.727082619088045,
        0.08672376330858533,
        1.5409961954405587,
    ),
    (10.0, 1.0): (
        10.0,
        10.0,
        1.0418316545120988e-21,
        6.22096049807319e-16,
        1.0077935394299998e-20,
        8.7184484344554,
        11.2815515655446,
    ),
}


@pytest.mark.parametrize("mu,sigma", sorted(TN_CASES))
def test_tn_frozen_values(mu, sigma):
    mean, median, c05, c2, p05, q01, q09 = TN_CASES[(mu, sigma)]
    d = TruncatedNormal(mu, sigma)
    assert d.mean() == pytest.approx(mean, rel=1e-12)
    assert d.median() == pytest.approx(median, rel=1e-9)
    assert d.cdf(0.5) == pytest.approx(c05, rel=1e-12)
    assert d.cdf(2.0) == pytest.approx(c2, rel=1e-12)
    assert d.pdf(0.5) == pytest.approx(p05, rel=1e-12)
    assert d.quantile(0.1) == pytest.approx(q01, rel=1e-9)
    assert d.quantile(0.9) == pytest.approx(q09, rel=1e-9)


def test_tn_cdf_zero_below_support():
    d = TruncatedNormal(2.0, 1.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(-3.0) == 0.0
    assert d.pdf(-0.5) == 0.0
    assert d.neg_mass() == 0.0


@pytest.mark.parametrize("mu", [-1e4, -1e6])
def test_tn_mean_under_deep_truncation(mu):
    # The law is nearly exponential with rate |mu| (sigma 1), so its mean
    # is -1/mu - 2/mu^3 + ...; it is left after mu + phi/Phi cancels to
    # a roundoff of order eps |mu|
    d = TruncatedNormal(mu, 1.0)
    assert d.mean() == pytest.approx(-1.0 / mu - 2.0 / mu**3, abs=1e-15 * abs(mu))


def _tn_sf_by_series(r, xs):
    """1 - F of a truncated normal at x, r = mu/sigma far below 0 and xs = x/sigma.

    1 - F = Phi(r - xs)/Phi(r), with Phi(t) = phi(t) m(t) for the Mills
    ratio's asymptotic series m(t) = sum_k (-1)^k (2k - 1)!!/|t|^(2k + 1)
    and phi(r - xs)/phi(r) = exp(-xs (xs/2 - r)); 12 terms reach 1e-36
    at |t| >= 100.  In 40-digit decimals.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        r, xs = decimal.Decimal(r), decimal.Decimal(xs)

        def mills(t):
            total, term = 0, 1 / -t
            for k in range(1, 13):
                total, term = total + term, -term * (2 * k - 1) / (t * t)
            return total

        return (-xs * (xs / 2 - r)).exp() * mills(r - xs) / mills(r)


@pytest.mark.parametrize("r", [-1e2, -1e4, -1e6])
@pytest.mark.parametrize("c", [0.1, 3.0])
@pytest.mark.parametrize("sigma", [1.0, 2.5])
def test_tn_cdf_under_deep_truncation(r, c, sigma):
    # The law is nearly exponential with rate |mu|/sigma^2; at x = c
    # sigma^2/|mu|, F is 1 - e^-c.  A log-CDF difference of size r^2/2
    # left F off by 4e-9 relative at r = -1e4 and by 8e-4 at -1e6
    x = c * sigma / -r
    got = TruncatedNormal(r * sigma, sigma).cdf(x)
    sf = _tn_sf_by_series(r, x / sigma)
    assert got == pytest.approx(float(1 - sf), rel=1e-12, abs=0.0)
    assert 1.0 - got == pytest.approx(float(sf), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (6.0, 2.5), (-8.0, 3.0), (-30.0, 1.0), (50.0, 0.5)])
def test_tn_quantile_inversion(mu, sigma):
    # The probability error of the inverted CDF must stay within 1e-10
    # even under deep truncation (mu = -30 keeps ~1e-196 of the mass).
    d = TruncatedNormal(mu, sigma)
    p = np.linspace(0.0005, 0.9995, 401)
    q = d.quantile(p)
    assert np.all(np.diff(q) >= 0.0)
    assert np.max(np.abs(d.cdf(q) - p)) < 1e-10


# (mu, sigma) -> mean, var, median, cdf(2), pdf(2), q(0.1), q(0.9)
LN_CASES = {
    (0.0, 1.0): (
        1.6487212707001282,
        4.670774270471604,
        1.0,
        0.7558914042144173,
        0.15687401927898112,
        0.2776062418520098,
        3.6022244792791573,
    ),
    (1.2, 0.4): (
        3.5966397255692812,
        2.24450492941082,
        3.3201169227365472,
        0.10255403888820458,
        0.2234412425890374,
        1.988497590171223,
        5.5434698211992455,
    ),
}


@pytest.mark.parametrize("mu,sigma", sorted(LN_CASES))
def test_ln_frozen_values(mu, sigma):
    mean, var, median, c2, p2, q01, q09 = LN_CASES[(mu, sigma)]
    d = LogNormal(mu, sigma)
    mv = d.mean_variance()
    assert mv.m == pytest.approx(mean, rel=1e-12)
    assert mv.v == pytest.approx(var, rel=1e-12)
    assert d.median() == pytest.approx(median, rel=1e-12)
    assert d.mean() == pytest.approx(mean, rel=1e-12)
    assert d.cdf(2.0) == pytest.approx(c2, rel=1e-12)
    assert d.pdf(2.0) == pytest.approx(p2, rel=1e-12)
    assert d.quantile(0.1) == pytest.approx(q01, rel=1e-9)
    assert d.quantile(0.9) == pytest.approx(q09, rel=1e-9)


def test_ln_cdf_vanishes_at_origin():
    d = LogNormal(0.3, 0.8)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(-1.0) == 0.0
    assert d.pdf(0.0) == 0.0
    assert d.neg_mass() == 0.0


@pytest.mark.parametrize(
    "m,v,mu,sigma",
    [
        (3.0, 4.0, 0.9147498986054511, 0.6064031498312961),
        (0.5, 0.01, -0.712757537136586, 0.19804220043536502),
    ],
)
def test_mean_variance_transform_frozen(m, v, mu, sigma):
    d = MeanVariance(m, v).to_lognormal()
    assert d.mu == pytest.approx(mu, rel=1e-14)
    assert d.sigma == pytest.approx(sigma, rel=1e-14)


def test_mean_variance_roundtrip_grid():
    # m spans 4 orders of magnitude, v from near-degenerate to heavy.
    ms = np.logspace(-2.0, 2.0, 25)
    ratios = np.logspace(-4.0, 1.0, 25)
    for m in ms:
        for ratio in ratios:
            v = ratio * m * m
            mv = MeanVariance(m, v).to_lognormal().mean_variance()
            assert mv.m == pytest.approx(m, rel=1e-12)
            assert mv.v == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (1.5, 0.3), (-2.0, 2.0)])
def test_ln_quantile_inversion(mu, sigma):
    d = LogNormal(mu, sigma)
    p = np.linspace(0.001, 0.999, 301)
    q = d.quantile(p)
    assert np.all(q > 0.0)
    assert np.max(np.abs(d.cdf(q) - p)) < 1e-10


# (loc, scale, xi) -> mean, median, cdf(3), cdf(12), pdf(6), q(0.1), q(0.9), negmass
GEV_CASES = {
    (5.0, 2.0, 0.2): (
        6.642297137253033,
        5.760560851390052,
        0.04727574940629055,
        0.9319933236644409,
        0.15168798738034545,
        3.463633760728375,
        10.684274065025338,
        1.2664165549094355e-14,
    ),
    (5.0, 2.0, -0.2): (
        5.818312576002394,
        5.706804098683947,
        0.08304937238711277,
        0.9975729500599676,
        0.181757982522109,
        3.1847439495782175,
        8.624186903046287,
        0.0005035890497369534,
    ),
    (5.0, 2.0, 0.0): (
        6.1544313298030655,
        5.733025841163329,
        0.06598803584531254,
        0.9702540025910624,
        0.16535214944520904,
        3.3319351095040886,
        9.50073465462489,
        5.119294298670733e-06,
    ),
}


@pytest.mark.parametrize("loc,scale,xi", sorted(GEV_CASES))
def test_gev_frozen_values(loc, scale, xi):
    mean, median, c3, c12, p6, q01, q09, negm = GEV_CASES[(loc, scale, xi)]
    d = GEV(loc, scale, xi)
    assert d.mean() == pytest.approx(mean, rel=1e-12)
    assert d.median() == pytest.approx(median, rel=1e-12)
    assert d.cdf(3.0) == pytest.approx(c3, rel=1e-12)
    assert d.cdf(12.0) == pytest.approx(c12, rel=1e-12)
    assert d.pdf(6.0) == pytest.approx(p6, rel=1e-12)
    assert d.quantile(0.1) == pytest.approx(q01, rel=1e-9)
    assert d.quantile(0.9) == pytest.approx(q09, rel=1e-9)
    assert d.neg_mass() == pytest.approx(negm, rel=1e-10, abs=1e-300)


def test_gev_support_endpoints():
    lo, hi = GEV(5.0, 2.0, 0.25).support()
    assert lo == pytest.approx(5.0 - 2.0 / 0.25)
    assert hi == math.inf
    lo, hi = GEV(5.0, 2.0, -0.25).support()
    assert lo == -math.inf
    assert hi == pytest.approx(5.0 + 2.0 / 0.25)
    lo, hi = GEV(5.0, 2.0, 0.0).support()
    assert lo == -math.inf and hi == math.inf


def test_gev_cdf_outside_support():
    d = GEV(5.0, 2.0, 0.5)  # support [1, inf)
    assert d.cdf(0.5) == 0.0
    assert d.pdf(0.5) == 0.0
    d = GEV(5.0, 2.0, -0.5)  # support (-inf, 9]
    assert d.cdf(9.5) == 1.0
    assert d.pdf(9.5) == 0.0


def test_gev_gumbel_branch_is_continuous():
    x = np.linspace(-2.0, 20.0, 200)
    base = GEV(5.0, 2.0, 0.0)
    for xi in (1e-7, -1e-7):
        near = GEV(5.0, 2.0, xi)
        assert np.max(np.abs(near.cdf(x) - base.cdf(x))) < 1e-6
        assert np.max(np.abs(near.pdf(x) - base.pdf(x))) < 1e-6


@pytest.mark.parametrize("xi", [0.35, 0.0, -0.35])
def test_gev_quantile_inversion(xi):
    d = GEV(4.0, 1.5, xi)
    p = np.linspace(0.001, 0.999, 301)
    q = d.quantile(p)
    assert np.all(np.diff(q) >= 0.0)
    assert np.max(np.abs(d.cdf(q) - p)) < 1e-10


def test_gev_mean_undefined_for_large_shape():
    assert GEV(0.0, 1.0, 0.999).mean() > 0.0
    with pytest.raises(UndefinedMomentError):
        GEV(0.0, 1.0, 1.0).mean()
    with pytest.raises(UndefinedMomentError):
        GEV(0.0, 1.0, 1.3).mean()


@pytest.mark.parametrize(
    "make",
    [
        lambda: TruncatedNormal(0.0, 0.0),
        lambda: TruncatedNormal(0.0, -1.0),
        lambda: TruncatedNormal(math.nan, 1.0),
        lambda: LogNormal(0.0, 0.0),
        lambda: LogNormal(math.inf, 1.0),
        lambda: GEV(0.0, -2.0, 0.1),
        lambda: GEV(0.0, 1.0, math.nan),
        lambda: MeanVariance(0.0, 1.0),
        lambda: MeanVariance(1.0, -0.5),
    ],
)
def test_invalid_parameters_rejected(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_quantile_rejects_degenerate_levels(p):
    with pytest.raises(InvalidInputError):
        TruncatedNormal(1.0, 1.0).quantile(p)


def _ks_distance(sample, cdf):
    s = np.sort(sample)
    n = s.size
    grid = cdf(s)
    i = np.arange(1, n + 1, dtype=float)
    return max(np.max(i / n - grid), np.max(grid - (i - 1.0) / n))


@pytest.mark.parametrize(
    "d",
    [
        TruncatedNormal(1.0, 2.0),
        LogNormal(0.5, 0.7),
        GEV(5.0, 2.0, 0.15),
        GEV(5.0, 2.0, 0.0),
    ],
    ids=["tn", "ln", "gev", "gumbel"],
)
def test_sampling_matches_cdf(d):
    rng = np.random.default_rng(2024)
    x = d.sample(rng, size=1_000_000)
    assert _ks_distance(x, d.cdf) < 0.002


def test_tn_samples_are_nonnegative():
    rng = np.random.default_rng(7)
    x = TruncatedNormal(-3.0, 2.0).sample(rng, size=20_000)
    assert np.all(x >= 0.0)


def test_sampling_is_seed_deterministic():
    d = LogNormal(0.2, 0.5)
    a = d.sample(np.random.default_rng(99), size=16)
    b = d.sample(np.random.default_rng(99), size=16)
    np.testing.assert_array_equal(a, b)


def test_vectorized_parameters_broadcast():
    mu = np.array([1.0, 2.0, 3.0])
    d = TruncatedNormal(mu, 1.0)
    out = d.cdf(2.0)
    assert out.shape == (3,)
    singles = [TruncatedNormal(m, 1.0).cdf(2.0) for m in mu]
    np.testing.assert_allclose(out, singles, rtol=1e-15)
    q = d.quantile(np.array([0.3, 0.5, 0.7]))
    assert q.shape == (3,)
    for i, p in enumerate([0.3, 0.5, 0.7]):
        assert abs(d.cdf(q)[i] - p) < 1e-10
