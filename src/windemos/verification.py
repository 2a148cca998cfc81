"""Calibration diagnostics and report assembly.

Rank histograms (with seeded random tie-breaking), PIT histograms, the
reliability index, central-interval coverage and width, a hand-rolled
one-sample Kolmogorov-Smirnov uniformity test, negative-mass
diagnostics, and a single report builder that aggregates all of them
for either parametric or empirical (ensemble/climatology) forecasts.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .scoring import (
    Empirical,
    ForecastBatch,
    ScoreSummary,
    aggregate_log_scores,
    crps_values,
    log_score,
    mae_median,
    rmse_mean,
    twcrps_values,
)


def rank_of_obs(members, obs, rng):
    """Rank of the observation among members plus itself, 1..M+1.

    Ties are broken uniformly at random with the supplied generator.
    """
    members = np.asarray(members, dtype=float)
    if members.size == 0:
        raise InvalidInputError("rank needs at least one member")
    less = int(np.sum(members < obs))
    ties = int(np.sum(members == obs))
    offset = int(rng.integers(0, ties + 1)) if ties else 0
    return less + 1 + offset


def ranks_of_obs(member_matrix, obs, rng):
    """Vectorized ranks for uniform-size forecasts, one row per case."""
    member_matrix = np.asarray(member_matrix, dtype=float)
    obs = np.asarray(obs, dtype=float)
    less = np.sum(member_matrix < obs[:, None], axis=1)
    ties = np.sum(member_matrix == obs[:, None], axis=1)
    offsets = rng.integers(0, ties + 1)
    return (less + 1 + offsets).astype(int)


@dataclass(frozen=True)
class RankHistogram:
    """Counts of observation ranks over classes 1..c."""

    counts: tuple
    c: int

    def __post_init__(self):
        counts = tuple(int(v) for v in self.counts)
        if len(counts) != self.c or any(v < 0 for v in counts):
            raise InvalidInputError("histogram needs c nonnegative class counts")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self):
        return sum(self.counts)

    @property
    def frequencies(self):
        total = self.total
        if total == 0:
            raise InvalidInputError("empty histogram")
        return np.asarray(self.counts, dtype=float) / total

    @classmethod
    def from_ranks(cls, ranks, c):
        ranks = np.asarray(ranks, dtype=int)
        counts = np.bincount(ranks, minlength=c + 1)[1 : c + 1]
        if np.any(ranks < 1) or np.any(ranks > c):
            raise InvalidInputError("rank outside 1..c")
        return cls(tuple(int(v) for v in counts), c)


def reliability_index(h):
    """L1 distance of the class frequencies from uniformity.

    Accepts a RankHistogram or a raw count sequence.
    """
    if isinstance(h, RankHistogram):
        freqs = h.frequencies
    else:
        counts = np.asarray(h, dtype=float)
        if counts.size == 0 or counts.sum() == 0:
            raise InvalidInputError("empty histogram")
        freqs = counts / counts.sum()
    c = freqs.size
    return float(np.sum(np.abs(freqs - 1.0 / c)))


def ensemble_coverage(members, obs):
    """Whether the observation falls inside the ensemble range."""
    members = np.asarray(members, dtype=float)
    if members.size == 0:
        raise InvalidInputError("coverage needs at least one member")
    return bool(members.min() <= obs <= members.max())


def nominal_coverage(M):
    """Nominal range coverage of an M-member ensemble, in percent."""
    M = int(M)
    if M < 1:
        raise InvalidInputError("ensemble size must be >= 1")
    return 100.0 * (M - 1) / (M + 1)


def central_interval(d, alpha):
    """(alpha/2, 1 - alpha/2) quantile interval of a predictive law."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must lie in (0, 1)")
    return d.quantile(alpha / 2.0), d.quantile(1.0 - alpha / 2.0)


def pit(d, obs):
    """Probability integral transform: the predictive CDF at the obs."""
    return d.cdf(obs)


def pit_histogram(pits, bins):
    """Equal-width histogram of PIT values over [0, 1]."""
    pits = np.asarray(pits, dtype=float)
    if pits.size == 0:
        raise InvalidInputError("empty PIT sample")
    if np.any(pits < 0.0) or np.any(pits > 1.0):
        raise InvalidInputError("PIT values must lie in [0, 1]")
    counts, edges = np.histogram(pits, bins=int(bins), range=(0.0, 1.0))
    return counts, edges


def _kolmogorov_sf(lam):
    # Survival function of the asymptotic Kolmogorov law; the direct
    # alternating series stalls for small arguments, where the
    # theta-transformed CDF series converges in a couple of terms.
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        total = 0.0
        for k in range(1, 201):
            term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
            total += term
            if term < 1e-10:
                break
        cdf = math.sqrt(2.0 * math.pi) / lam * total
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    sign = 1.0
    for k in range(1, 201):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_uniform_test(pits):
    """One-sample KS test of PIT values against Uniform(0, 1).

    Returns the statistic and its asymptotic p-value.
    """
    pits = np.sort(np.asarray(pits, dtype=float).ravel())
    n = pits.size
    if n < 10:
        raise InsufficientDataError("KS test needs at least 10 values")
    if np.any(pits < 0.0) or np.any(pits > 1.0):
        raise InvalidInputError("PIT values must lie in [0, 1]")
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - pits)
    d_minus = np.max(pits - (i - 1.0) / n)
    stat = float(max(d_plus, d_minus))
    return stat, _kolmogorov_sf(math.sqrt(n) * stat)


@dataclass
class VerificationReport:
    """Every summary row of the evaluation tables, for one forecast stream."""

    kind: str  # "parametric" | "empirical"
    model: str | None
    n_cases: int
    scores: ScoreSummary
    reliability_index: float
    class_count: int
    histogram_kind: str  # "rank" | "pit"
    histogram_counts: tuple
    coverage_pct: float
    nominal_coverage_pct: float
    mean_width: float
    alpha: float
    thresholds: tuple
    mean_pit: float | None
    ks_statistic: float | None
    ks_p_value: float | None
    neg_mass_mean: float
    neg_mass_max: float
    tie_break_seed: int | None

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["scores"] = self.scores.to_dict()
        out["histogram_counts"] = list(self.histogram_counts)
        out["thresholds"] = list(self.thresholds)
        return out


def _default_thresholds(obs):
    return tuple(float(v) for v in np.percentile(obs, [90.0, 95.0, 99.0]))


def _columns(batch, obs, alpha):
    """Median, mean, interval ends and neg mass of every case, then three
    columns by kind: PIT, density and 0 for parametric laws; sample size,
    members below the obs and members tied with it for empirical ones.
    """
    columns = np.empty((8, len(batch)))
    for rows, law in batch.parts:
        x = obs[rows]
        lo, hi = central_interval(law, alpha)
        if type(law) is Empirical:
            x = x[:, None]
            kind = (law.n, np.sum(law.values < x, axis=-1), np.sum(law.values == x, axis=-1))
        else:
            kind = (np.clip(law.cdf(x), 0.0, 1.0), law.pdf(x), 0.0)
        shared = (law.median(), law.mean(), lo, hi, law.neg_mass())
        for column, values in zip(columns, shared + kind):
            column[rows] = values
    return columns


def build_report(cases, forecasts, thresholds=None, alpha=None, seed=0, bins=None, model=None):
    """Assemble the full verification report for one forecast stream.

    `forecasts` is a ForecastBatch or a list with one predictive law per
    case: either parametric distributions (TN/LN/GEV, possibly mixed via
    regime switching) or Empirical forecasts (raw ensemble, climatology)
    - not a mixture of the two kinds.  Every column is read off the laws
    of the batch, part by part.  Empirical laws of several sample sizes
    share one rank histogram with a class per rank of the largest.
    `alpha` defaults to 2/(M+1), matching the nominal coverage of the raw
    M-member ensemble; a 1-member ensemble has no default.
    """
    forecasts = ForecastBatch.of(forecasts)
    if len(cases) == 0 or len(forecasts) != len(cases):
        raise InvalidInputError("need one forecast per case and at least one case")
    if any(c.obs is None for c in cases):
        raise InvalidInputError("every verification case needs an observation")
    obs = np.array([c.obs for c in cases], dtype=float)
    M = len(cases[0].members)
    if any(len(c.members) != M for c in cases):
        raise InvalidInputError("verification cases must share one ensemble size")

    empirical = {type(law) is Empirical for _, law in forecasts.parts}
    if len(empirical) > 1:
        raise InvalidInputError("cannot mix empirical and parametric forecasts in one report")
    is_empirical = empirical == {True}

    if alpha is None:
        if M < 2:
            raise InvalidInputError(
                "the default alpha 2/(M+1) is 1 for a 1-member ensemble; set alpha (--alpha)"
            )
        alpha = 2.0 / (M + 1.0)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must lie in (0, 1)")
    nominal = 100.0 * (1.0 - alpha)
    if thresholds is None:
        thresholds = _default_thresholds(obs)
    thresholds = tuple(float(r) for r in thresholds)

    crps = crps_values(forecasts, obs)
    mean_twcrps = {
        r: float(np.mean(twcrps_values(forecasts, obs, r))) for r in thresholds
    }

    med, mean, lo, hi, neg, *kind = _columns(forecasts, obs, alpha)
    if is_empirical:
        size, less, ties = (c.astype(int) for c in kind)
        # The seeded tie-breaks are drawn in case order
        rng = np.random.default_rng(seed)
        ranks = less + 1 + rng.integers(0, ties + 1)
        class_count = int(size.max()) + 1
        if (size == size[0]).all():
            counts = RankHistogram.from_ranks(ranks, class_count).counts
        else:
            # Ranks out of different sample sizes n are binned through the
            # randomized PIT (rank - U)/(n + 1), U uniform on (0, 1]: with
            # one sample size its bins are the ranks themselves
            pits = (ranks - 1.0 + rng.random(ranks.size)) / (size + 1.0)
            counts = tuple(int(v) for v in pit_histogram(pits, class_count)[0])
        mean_log, n_inf, mean_pit, ks, tie_seed = None, 0, None, (None, None), int(seed)
    else:
        class_count = M + 1 if bins is None else int(bins)
        pits, dens, _ = kind
        counts = tuple(int(v) for v in pit_histogram(pits, class_count)[0])
        mean_log, n_inf = aggregate_log_scores(log_score(dens))
        mean_pit, tie_seed = float(np.mean(pits)), None
        ks = ks_uniform_test(pits) if pits.size >= 10 else (None, None)
    covered = (obs >= lo) & (obs <= hi)
    summary = ScoreSummary(
        mean_crps=float(np.mean(crps)),
        mean_twcrps=mean_twcrps,
        mean_log_score=mean_log,
        n_log_infinite=n_inf,
        mae=mae_median(np.column_stack([med, obs])),
        rmse=rmse_mean(np.column_stack([mean, obs])),
    )
    return VerificationReport(
        kind="empirical" if is_empirical else "parametric",
        model=model,
        n_cases=len(cases),
        scores=summary,
        reliability_index=reliability_index(counts),
        class_count=class_count,
        histogram_kind="rank" if is_empirical else "pit",
        histogram_counts=counts,
        coverage_pct=100.0 * float(np.mean(covered)),
        nominal_coverage_pct=nominal,
        mean_width=float(np.mean(hi - lo)),
        alpha=alpha,
        thresholds=thresholds,
        mean_pit=mean_pit,
        ks_statistic=ks[0],
        ks_p_value=ks[1],
        neg_mass_mean=float(np.mean(neg)),
        neg_mass_max=float(np.max(neg)),
        tie_break_seed=tie_seed,
    )
