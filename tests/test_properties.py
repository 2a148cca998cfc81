"""Property tests of the closed-form scores, quantiles, moments and stats.

Each property is an invariant the docstrings claim: scores carry the
unit of the observation, twCRPS is a nonnegative integral that shrinks
as the threshold rises and is the CRPS below the support, every
closed-form quantile inverts its CDF, every closed-form mean is the mean
of the law's draws, and the ensemble statistics are numpy's reductions
bit for bit, for one case and for a table of cases.  Runs are
derandomized so the suite stays deterministic.
"""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windemos import (
    GEV,
    Empirical,
    EnsembleForecast,
    GroupSpec,
    LogNormal,
    TruncatedNormal,
    crps_values,
    ensemble_stats,
    twcrps_values,
)
from windemos.estimation import CaseRows

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


# GEV laws with a finite variance (xi < 1/2), so the sample mean has a
# standard error
finite_variance_gev_laws = st.builds(GEV, _real(0.0, 10.0), _real(0.2, 4.0), _real(-0.6, 0.3))


@deterministic
@given(st.one_of(tn_laws, ln_laws, finite_variance_gev_laws))
def test_the_mean_is_the_mean_of_the_draws(d):
    draws = d.sample(np.random.default_rng(0), size=20_000)
    standard_error = np.std(draws, ddof=1) / math.sqrt(draws.size)
    assert abs(np.mean(draws) - float(d.mean())) <= 5.0 * standard_error


# Arbitrary floats, and whole numbers that tie
members = st.one_of(_real(0.0, 40.0), st.integers(0, 12).map(float))


def _ensembles(M):
    return st.lists(members, min_size=M, max_size=M)


@deterministic
@given(st.integers(2, 60).flatmap(_ensembles))
def test_ensemble_stats_are_numpys_reductions(values):
    x = np.array(values)
    stats = ensemble_stats(EnsembleForecast(datetime.date(2024, 1, 1), "S", values))
    assert stats.mean == np.mean(x)
    assert stats.variance == np.var(x, ddof=1)
    assert stats.median == np.median(x)


@deterministic
@given(st.integers(2, 60).flatmap(lambda M: st.lists(_ensembles(M), min_size=1, max_size=4)))
def test_case_rows_hold_each_cases_ensemble_stats(rows):
    day = datetime.date(2024, 1, 1)
    cases = [EnsembleForecast(day, f"S{i}", row, obs=1.0) for i, row in enumerate(rows)]
    table = CaseRows.of(cases, GroupSpec.singletons(len(rows[0])))
    for i, case in enumerate(cases):
        stats = ensemble_stats(case)
        assert (table.fbar[i], table.s2[i], table.median[i]) == (
            stats.mean,
            stats.variance,
            stats.median,
        )
