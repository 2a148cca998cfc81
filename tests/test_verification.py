"""Rank/PIT diagnostics, uniformity testing, and the report assembly."""

import datetime

import numpy as np
import pytest

from windemos import (
    Empirical,
    EnsembleForecast,
    ForecastBatch,
    GEV,
    InsufficientDataError,
    InvalidInputError,
    LogNormal,
    MeanVariance,
    TruncatedNormal,
    build_report,
    central_interval,
    crps_values,
    ensemble_coverage,
    ks_uniform_test,
    nominal_coverage,
    pit,
    pit_histogram,
    ranks_of_obs,
    reliability_index,
)

DAY = datetime.date(2024, 5, 1)


def test_rank_without_ties_is_deterministic():
    members = np.tile([3.0, 1.0, 5.0, 7.0], (4, 1))
    ranks = ranks_of_obs(members, [0.5, 2.0, 6.0, 9.0], np.random.default_rng(0))
    np.testing.assert_array_equal(ranks, [1, 2, 4, 5])


def test_rank_ties_resolve_uniformly_over_the_block():
    # obs equal to all three members: every rank 1..4 must be reachable
    # and roughly equally likely under seeded uniform tie-breaking.
    members = np.tile([2.0, 2.0, 2.0], (40_000, 1))
    obs = np.full(40_000, 2.0)
    ranks = ranks_of_obs(members, obs, np.random.default_rng(123))
    counts = np.bincount(ranks, minlength=5)[1:]
    assert set(np.unique(ranks)) == {1, 2, 3, 4}
    expected = 10_000
    assert np.all(np.abs(counts - expected) < 4 * np.sqrt(expected))


def test_rank_ties_are_seed_deterministic():
    members = np.tile([2.0, 2.0, 4.0], (64, 1))
    obs = np.full(64, 2.0)
    a = ranks_of_obs(members, obs, np.random.default_rng(7))
    b = ranks_of_obs(members, obs, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {1, 2, 3}


def test_reliability_index_exact_values():
    assert reliability_index((25, 25, 25, 25)) == 0.0
    # frequencies (1/2, 1/2, 0, 0) against uniform 1/4
    assert reliability_index((50, 50, 0, 0)) == pytest.approx(1.0, abs=1e-15)
    # everything in one class of nine
    one_hot = (90, 0, 0, 0, 0, 0, 0, 0, 0)
    assert reliability_index(one_hot) == pytest.approx(16.0 / 9.0, rel=1e-15)


def test_ensemble_coverage_envelope_hits():
    assert ensemble_coverage([1.0, 5.0], 3.0) is True
    assert ensemble_coverage([2.0, 3.0], 5.0) is False
    assert ensemble_coverage([4.0, 8.0], 4.0) is True  # endpoints count
    assert ensemble_coverage([4.0, 8.0], 8.0) is True


@pytest.mark.parametrize(
    "M,expected",
    [(8, 100.0 * 7.0 / 9.0), (50, 100.0 * 49.0 / 51.0), (11, 100.0 * 10.0 / 12.0)],
)
def test_nominal_coverage_fractions(M, expected):
    assert nominal_coverage(M) == pytest.approx(expected, rel=1e-15)


def test_central_interval_matches_quantiles():
    d = TruncatedNormal(4.0, 1.5)
    lo, hi = central_interval(d, 0.2)
    assert lo == pytest.approx(d.quantile(0.1), rel=1e-12)
    assert hi == pytest.approx(d.quantile(0.9), rel=1e-12)


def test_pit_is_cdf_at_observation():
    d = LogNormal(0.4, 0.5)
    assert pit(d, 2.0) == pytest.approx(d.cdf(2.0), rel=1e-15)


def test_pit_histogram_bins():
    pits = np.array([0.05, 0.15, 0.15, 0.55, 0.95, 1.0])
    counts, edges = pit_histogram(pits, bins=10)
    assert counts[0] == 1 and counts[1] == 2 and counts[5] == 1 and counts[9] == 2
    assert np.sum(counts) == pits.size
    assert edges[0] == 0.0 and edges[-1] == 1.0


@pytest.mark.parametrize("bins", [0, -2])
def test_pit_histogram_needs_a_bin(bins):
    with pytest.raises(InvalidInputError):
        pit_histogram(np.array([0.2, 0.7]), bins=bins)


def test_ks_uniform_frozen_value():
    # scipy.stats.kstest(..., mode="asymp") on the same seeded sample.
    u = np.random.default_rng(42).random(200)
    stat, p = ks_uniform_test(u)
    assert stat == pytest.approx(0.04232180394216256, rel=1e-12)
    assert p == pytest.approx(0.8662354786995796, rel=1e-9)


def test_ks_equidistant_grid_has_tiny_statistic():
    n = 1000
    grid = (np.arange(1, n + 1) - 0.5) / n
    stat, p = ks_uniform_test(grid)
    assert stat == pytest.approx(0.0005, abs=1e-12)
    assert p > 0.999999


def test_ks_degenerate_sample_rejects():
    stat, p = ks_uniform_test(np.zeros(1000))
    assert stat == 1.0
    assert p < 1e-12


def test_ks_needs_ten_values():
    with pytest.raises(InsufficientDataError):
        ks_uniform_test(np.linspace(0.1, 0.9, 9))
    with pytest.raises(InvalidInputError):
        ks_uniform_test(np.linspace(-0.1, 0.9, 20))


def test_ks_p_values_are_roughly_uniform_under_the_null():
    rng = np.random.default_rng(2025)
    ps = np.array([ks_uniform_test(rng.random(100))[1] for _ in range(200)])
    assert 0.4 < np.mean(ps) < 0.6
    # crude uniformity: each decile within 3 sigma of its expectation
    counts, _ = np.histogram(ps, bins=10, range=(0, 1))
    assert np.all(np.abs(counts - 20) < 3 * np.sqrt(20 * 0.9) + 1)


def _cases(members_rows, obs):
    return [
        EnsembleForecast(DAY, "S1", tuple(row), obs=o)
        for row, o in zip(members_rows, obs)
    ]


def _tn_forecasts(n, seed):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(3.0, 7.0, size=n)
    return [TruncatedNormal(mu, 1.2) for mu in mus], mus


def test_build_report_parametric_fields():
    n = 60
    dists, mus = _tn_forecasts(n, seed=1)
    rng = np.random.default_rng(2)
    obs = np.array([d.sample(rng) for d in dists])
    members_rows = rng.uniform(2.0, 8.0, size=(n, 8))
    cases = _cases(members_rows, obs)
    report = build_report(cases, dists, model="tn")
    assert report.kind == "parametric"
    assert report.model == "tn"
    assert report.n_cases == n
    assert report.class_count == 9  # M + 1 default bins
    assert report.histogram_kind == "pit"
    assert sum(report.histogram_counts) == n
    assert report.alpha == pytest.approx(2.0 / 9.0)
    assert report.nominal_coverage_pct == pytest.approx(100.0 * 7.0 / 9.0)
    np.testing.assert_allclose(
        report.thresholds, np.percentile(obs, [90.0, 95.0, 99.0]), rtol=1e-12
    )
    assert report.mean_pit is not None and 0.0 < report.mean_pit < 1.0
    assert report.ks_p_value is not None
    assert report.neg_mass_mean == 0.0 and report.neg_mass_max == 0.0
    assert report.tie_break_seed is None
    assert set(report.scores.to_dict()["mean_twcrps"]) == {
        "%g" % t for t in report.thresholds
    }


def test_build_report_gev_reports_negative_mass():
    n = 40
    rng = np.random.default_rng(3)
    dists = [GEV(1.0, 1.0, -0.1) for _ in range(n)]
    obs = np.maximum(np.array([d.sample(rng) for d in dists]), 0.0)
    members_rows = rng.uniform(0.5, 3.0, size=(n, 4))
    report = build_report(_cases(members_rows, obs), dists, model="gev")
    assert report.neg_mass_mean > 0.0
    assert report.neg_mass_max >= report.neg_mass_mean


def test_build_report_empirical_fields():
    n = 50
    rng = np.random.default_rng(4)
    members_rows = rng.uniform(1.0, 9.0, size=(n, 8))
    obs = rng.uniform(0.5, 10.0, size=n)
    cases = _cases(members_rows, obs)
    forecasts = [Empirical(row) for row in members_rows]
    report = build_report(cases, forecasts, model="raw", seed=11)
    assert report.kind == "empirical"
    assert report.histogram_kind == "rank"
    assert report.class_count == 9
    assert sum(report.histogram_counts) == n
    assert report.tie_break_seed == 11
    assert report.mean_pit is None and report.ks_statistic is None
    # coverage equals the hand count of envelope hits at alpha = 2/(M+1)
    inside = 0
    for row, o in zip(members_rows, obs):
        lo, hi = central_interval(Empirical(row), 2.0 / 9.0)
        inside += int(lo <= o <= hi)
    assert report.coverage_pct == pytest.approx(100.0 * inside / n, rel=1e-12)


def test_build_report_empirical_is_seed_deterministic():
    n = 30
    rng = np.random.default_rng(5)
    members_rows = np.round(rng.uniform(1.0, 4.0, size=(n, 6)))  # force ties
    obs = np.round(rng.uniform(1.0, 4.0, size=n))
    cases = _cases(members_rows, obs)
    forecasts = [Empirical(row) for row in members_rows]
    a = build_report(cases, forecasts, seed=3)
    b = build_report(cases, forecasts, seed=3)
    assert a.histogram_counts == b.histogram_counts


def test_build_report_input_validation():
    rng = np.random.default_rng(6)
    members_rows = rng.uniform(1.0, 9.0, size=(12, 4))
    obs = rng.uniform(1.0, 9.0, size=12)
    cases = _cases(members_rows, obs)
    dists, _ = _tn_forecasts(12, seed=7)
    with pytest.raises(InvalidInputError):
        build_report([], [])
    with pytest.raises(InvalidInputError):
        build_report(cases, dists[:-1])
    mixed = dists[:-1] + [Empirical([1.0, 2.0])]
    with pytest.raises(InvalidInputError):
        build_report(cases, mixed)
    no_obs = list(cases)
    no_obs[0] = EnsembleForecast(DAY, "S1", (1.0, 2.0, 3.0, 4.0), obs=None)
    with pytest.raises(InvalidInputError):
        build_report(no_obs, dists)
    ragged = list(cases)
    ragged[0] = EnsembleForecast(DAY, "S1", (1.0, 2.0), obs=1.0)
    with pytest.raises(InvalidInputError):
        build_report(ragged, dists)


def test_build_report_respects_custom_thresholds_alpha_bins():
    n = 25
    dists, _ = _tn_forecasts(n, seed=8)
    rng = np.random.default_rng(9)
    obs = np.array([d.sample(rng) for d in dists])
    members_rows = rng.uniform(2.0, 8.0, size=(n, 8))
    cases = _cases(members_rows, obs)
    report = build_report(
        cases, dists, thresholds=(6.0, 9.0), alpha=0.1, bins=5
    )
    assert report.thresholds == (6.0, 9.0)
    assert report.alpha == 0.1
    assert report.nominal_coverage_pct == pytest.approx(90.0)
    assert report.class_count == 5


def test_a_mixed_batch_reports_bit_identically_to_the_list_of_its_laws():
    # TN, LN and GEV laws in interleaved rows, one LN part built from
    # mean/variance pairs
    n = 30
    rng = np.random.default_rng(12)
    rows = rng.permutation(n)
    tn, ln, mv, gev = rows[:10], rows[10:16], rows[16:22], rows[22:]
    m, v = rng.uniform(3.0, 7.0, mv.size), rng.uniform(1.0, 4.0, mv.size)
    gev_loc, gev_scale = rng.uniform(3.0, 6.0, gev.size), rng.uniform(0.5, 1.5, gev.size)
    batch = ForecastBatch(n, [
        (tn, TruncatedNormal(rng.uniform(2.0, 6.0, tn.size), rng.uniform(0.5, 2.0, tn.size))),
        (ln, LogNormal(rng.uniform(1.0, 1.8, ln.size), rng.uniform(0.2, 0.5, ln.size))),
        (mv, MeanVariance(m, v).to_lognormal()),
        (gev, GEV(gev_loc, gev_scale, np.full(gev.size, 0.1))),
    ])  # fmt: skip
    laws = batch.laws()
    obs = np.array([d.sample(rng) for d in laws]).clip(0.0)
    cases = _cases(rng.uniform(2.0, 8.0, size=(n, 8)), obs)
    want = build_report(cases, laws, model="tn-ln").to_dict()
    assert build_report(cases, batch, model="tn-ln").to_dict() == want


def test_an_empirical_batch_reports_in_case_order_with_seeded_tie_breaks():
    # The batch lists its cases in reverse; ties between members and
    # observations must still be broken by draws in case order
    n = 30
    rng = np.random.default_rng(13)
    members_rows = np.round(rng.uniform(1.0, 4.0, size=(n, 6)))
    obs = np.round(rng.uniform(1.0, 4.0, size=n))
    cases = _cases(members_rows, obs)
    laws = [Empirical(row) for row in members_rows]
    sorted_rows = np.sort(members_rows, axis=1)
    reverse = np.arange(n)[::-1]
    batch = ForecastBatch(n, [(reverse, Empirical(sorted_rows[reverse]))])
    report = build_report(cases, batch, seed=3)
    assert report.to_dict() == build_report(cases, laws, seed=3).to_dict()
    ranks = ranks_of_obs(sorted_rows, obs, np.random.default_rng(3))
    assert report.histogram_counts == tuple(np.bincount(ranks, minlength=8)[1:])


def test_empirical_laws_of_two_sample_sizes_bin_their_randomized_pits():
    # Every third case has 4 members, the rest 6; ties force tie-breaks
    n = 30
    rng = np.random.default_rng(14)
    members_rows = np.round(rng.uniform(1.0, 4.0, size=(n, 6)))
    obs = np.round(rng.uniform(1.0, 4.0, size=n))
    cases = _cases(members_rows, obs)
    samples = [row[:4] if i % 3 == 0 else row for i, row in enumerate(members_rows)]
    report = build_report(cases, [Empirical(v) for v in samples], seed=3)
    assert report.kind == "empirical" and report.histogram_kind == "rank"
    assert report.class_count == 7
    # Ties are broken in case order, then U = 1 - v is drawn per case: a
    # rank r out of n members has its PIT in [(r - 1)/(n + 1), r/(n + 1))
    less = np.array([np.sum(v < y) for v, y in zip(samples, obs)])
    ties = np.array([np.sum(v == y) for v, y in zip(samples, obs)])
    sizes = np.array([v.size for v in samples])
    draws = np.random.default_rng(3)
    ranks = less + 1 + draws.integers(0, ties + 1)
    pits = (ranks - 1.0 + draws.random(n)) / (sizes + 1.0)
    assert report.histogram_counts == tuple(np.bincount((pits * 7).astype(int), minlength=7))
    assert report.scores.mean_crps == np.mean(crps_values([Empirical(v) for v in samples], obs))


def test_randomized_pits_of_exchangeable_ensembles_of_two_sizes_are_uniform():
    # Members and observation drawn from one law: with 3 or 8 members the
    # binned randomized PITs are uniform over the 9 classes of the larger
    n = 9000
    rng = np.random.default_rng(15)
    draws = rng.gamma(2.0, 2.0, size=(n, 9))
    samples = [row[1:4] if i % 2 else row[1:] for i, row in enumerate(draws)]
    cases = _cases(draws[:, 1:], draws[:, 0])
    report = build_report(cases, [Empirical(v) for v in samples], seed=0)
    assert report.class_count == 9
    assert max(abs(c - n / 9) for c in report.histogram_counts) < 4.0 * np.sqrt(n / 9)
