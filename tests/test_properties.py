"""Property tests of the closed-form scores and quantiles.

Each property is an invariant the docstrings claim: scores carry the
unit of the observation, twCRPS is a nonnegative integral that shrinks
as the threshold rises and is the CRPS below the support, and every
closed-form quantile inverts its CDF.  Runs are derandomized so the
suite stays deterministic.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windemos import GEV, Empirical, LogNormal, TruncatedNormal, crps_values, twcrps_values

deterministic = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


tn_laws = st.builds(TruncatedNormal, _real(-10.0, 15.0), _real(0.1, 5.0))
ln_laws = st.builds(LogNormal, _real(-1.0, 2.5), _real(0.05, 1.5))
gev_laws = st.builds(GEV, _real(0.0, 10.0), _real(0.2, 4.0), _real(-0.6, 0.6))
empirical_laws = st.builds(
    Empirical, st.lists(_real(0.0, 20.0), min_size=1, max_size=12)
)
laws = st.one_of(tn_laws, ln_laws, gev_laws, empirical_laws)
obs = _real(0.0, 30.0)
thresholds = _real(-5.0, 30.0)


def _scaled(d, a):
    """The law of a*X for X ~ d."""
    if isinstance(d, TruncatedNormal):
        return TruncatedNormal(a * d.mu, a * d.sigma)
    if isinstance(d, LogNormal):
        return LogNormal(d.mu + math.log(a), d.sigma)
    if isinstance(d, GEV):
        return GEV(a * d.mu, a * d.sigma, d.xi)
    return Empirical(a * d.values)


def _lower_end(d):
    if isinstance(d, Empirical):
        return float(d.values[0])
    if isinstance(d, GEV):
        return float(d.support()[0])
    return 0.0


@deterministic
@given(laws, obs, _real(0.1, 10.0))
def test_crps_scales_with_the_observation(d, x, a):
    base = crps_values([d], [x])[0]
    scaled = crps_values([_scaled(d, a)], [a * x])[0]
    assert scaled == pytest.approx(a * base, rel=1e-9, abs=1e-12)


@deterministic
@given(laws, obs, thresholds, thresholds)
def test_twcrps_is_nonnegative_and_falls_with_the_threshold(d, x, r1, r2):
    lo, hi = sorted((r1, r2))
    at_lo, at_hi = (twcrps_values([d], [x], r)[0] for r in (lo, hi))
    assert at_lo >= 0.0 and at_hi >= 0.0
    assert at_hi <= at_lo + 1e-10


@deterministic
@given(laws, obs, _real(0.0, 20.0))
def test_twcrps_below_the_support_is_the_crps(d, x, depth):
    # Raising r up to the lower support endpoint, and to the observation,
    # removes no part of the CRPS integral.
    crps = crps_values([d], [x])[0]
    assert twcrps_values([d], [x], -math.inf)[0] == crps
    r = min(_lower_end(d), x) - depth
    if math.isfinite(r):
        assert twcrps_values([d], [x], r)[0] == pytest.approx(crps, rel=1e-9, abs=1e-10)


@deterministic
@given(st.one_of(tn_laws, ln_laws, gev_laws), _real(1e-6, 1.0 - 1e-6))
def test_quantile_inverts_the_cdf(d, p):
    q = d.quantile(p)
    assert float(d.cdf(q)) == pytest.approx(p, abs=1e-10)
