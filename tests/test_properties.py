"""Property tests of the closed-form scores, quantiles, moments and stats.

Each property is an invariant the docstrings claim: scores carry the
unit of the observation, twCRPS is a nonnegative integral that shrinks
as the threshold rises and is the CRPS below the support, every
closed-form quantile inverts its CDF, every parametric law derives its
density, median, negative mass, draws and repr from its own methods,
every closed-form mean is the mean of the law's draws, the ensemble
statistics are numpy's reductions bit for bit, for one case and for a
table of cases, an Empirical law with one sample per row is, row by
row, the law of that sample bit for bit, and the raw and climatology
streams are their per-case definitions on gappy data.  Runs are
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
    ForecastBatch,
    GroupSpec,
    InvalidInputError,
    LogNormal,
    TruncatedNormal,
    crps_values,
    ensemble_stats,
    rolling_climatology,
    rolling_raw,
    twcrps_values,
)
from windemos.estimation import CaseRows, _climatology_stream, _raw_stream

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


# TN laws of `tn_laws` and down to mu/sigma = -1e6, and GEV laws with xi
# up to 0.95 and on both sides of the Gumbel switch at |xi| = 1e-6
deep_tn_laws = st.one_of(
    tn_laws,
    st.builds(
        lambda r, sigma: TruncatedNormal(r * sigma, sigma),
        _real(1.0, 6.0).map(lambda e: -(10.0**e)),
        _real(0.1, 5.0),
    ),
)
wide_gev_laws = st.builds(
    GEV, _real(0.0, 10.0), _real(0.2, 4.0), st.one_of(_real(-0.9, 0.95), _real(-1e-5, 1e-5))
)
parametric_laws = st.one_of(deep_tn_laws, ln_laws, wide_gev_laws)


@deterministic
@given(parametric_laws, _real(1e-6, 1.0 - 1e-6))
def test_quantile_inverts_the_cdf(d, p):
    q = d.quantile(p)
    assert float(d.cdf(q)) == pytest.approx(p, abs=1e-10)


@deterministic
@given(parametric_laws, _real(0.0, 30.0), st.integers(0, 2**32 - 1))
def test_each_law_derives_the_rest_from_its_own_methods(d, x, seed):
    assert d.pdf(x) == np.exp(d.logpdf(x))
    assert d.median() == d.quantile(0.5)
    assert d.neg_mass() == d.cdf(0.0)
    # Draws are the quantiles of uniforms guarded away from 0
    u = np.maximum(np.random.default_rng(seed).random(5), np.finfo(float).tiny)
    assert np.array_equal(d.sample(np.random.default_rng(seed), size=5), d.quantile(u))
    assert all(f"{a}={getattr(d, a)!r}" in repr(d) for a in d.params)


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


signed = st.one_of(_real(-5.0, 40.0), st.integers(-2, 12).map(float))


@deterministic
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(signed, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_a_batched_empirical_law_is_each_rows_law_bit_for_bit(rows, p):
    law = Empirical(np.array(rows))
    v = law.values
    # The CDF at every member value and midway between neighbours, each
    # column of x one point per row
    x = np.concatenate([v, (v[:, :-1] + v[:, 1:]) / 2.0], axis=1).T
    cdf, q = law.cdf(x), law.quantile(p)
    mean, median, neg = law.mean(), law.median(), law.neg_mass()
    for i, row in enumerate(rows):
        one = Empirical(row)
        want = np.searchsorted(one.values, x[:, i], side="right") / one.n
        assert np.array_equal(one.cdf(x[:, i]), want)
        assert np.array_equal(cdf[:, i], want)
        assert (q[i], mean[i], median[i], neg[i]) == (
            one.quantile(p),
            one.mean(),
            one.median(),
            one.neg_mass(),
        )


@deterministic
@given(st.lists(st.lists(signed, min_size=1, max_size=12), min_size=1, max_size=8))
def test_empirical_laws_of_mixed_sizes_round_trip_through_a_batch(samples):
    laws = [Empirical(v) for v in samples]
    batch = ForecastBatch.of(laws)
    assert len(batch.parts) == len({d.n for d in laws})
    for got, want in zip(batch.laws(), laws):
        assert type(got) is Empirical
        assert np.array_equal(got.values, want.values)


@st.composite
def _gappy_datasets(draw):
    """2-6 days x 1-4 stations with missing station-days, cases without
    an observation and cases of 1-3 members, in a shuffled order."""
    days, stations = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    start = datetime.date(2024, 1, 1)
    cases = []
    for d, s in [(d, s) for d in range(days) for s in range(stations)]:
        if draw(st.integers(0, 4)) == 0:  # a missing station-day
            continue
        values = draw(st.lists(st.integers(0, 12).map(float), min_size=1, max_size=3))
        obs = draw(st.one_of(st.none(), st.integers(0, 12).map(float)))
        day = start + datetime.timedelta(days=d)
        cases.append(EnsembleForecast(day, f"S{s}", tuple(values), obs=obs))
    return draw(st.permutations(cases)), draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_gappy_datasets())
def test_the_baseline_streams_are_their_per_case_definitions(data):
    dataset, n = data
    table = sorted(dataset, key=lambda c: c.date)  # stable: each day keeps its order
    dates = sorted({c.date for c in table})
    targets = [c for c in table if c.date in dates[n:]]
    skipped = [(day, f"only {i} prior days with data, need {n}") for i, day in enumerate(dates[:n])]

    def climatology(case):
        # The station's observations in the window, else every station's
        i = dates.index(case.date)
        window = [c for c in table if c.date in dates[i - n : i] and c.obs is not None]
        own = [c.obs for c in window if c.station == case.station]
        return Empirical(own or [c.obs for c in window])  # raises when the window has none

    streams = [(rolling_raw, _raw_stream, lambda c: Empirical(c.members))]
    if n == 0:  # a climatology needs a window of at least one day
        with pytest.raises(InvalidInputError, match="window length"):
            rolling_climatology(dataset, n)
    else:
        streams.append((rolling_climatology, _climatology_stream, climatology))
    for public, stream, law in streams:
        try:
            laws = [law(c) for c in targets]
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="no observations"):
                public(dataset, n)
            continue
        pairs, got = public(dataset, n)
        assert got == skipped and [c for c, _ in pairs] == targets
        assert all(np.array_equal(d.values, want.values) for (_, d), want in zip(pairs, laws))
        if targets:
            # Scored in table order, a case without an observation at 1
            obs = [1.0 if c.obs is None else c.obs for c in targets]
            batch = stream(dataset, n).forecasts
            assert np.array_equal(crps_values(batch, obs), crps_values(ForecastBatch.of(laws), obs))
