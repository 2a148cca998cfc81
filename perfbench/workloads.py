"""The benchmark's workloads: seeded inputs, the operations of one pass, checks.

Each workload is one closed-loop client in one process.  Its inputs are
written by ``windemos simulate`` from the benchmark's seed; a pass runs
the workload's operations through the in-process CLI
(``windemos.cli.main``) and the public API, and every operation's output
is checked.  An operation that raises or fails a check is counted as
failed; the pass goes on with the next operation.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 0

# An operation's mean CRPS on the DEFAULT_SEED inputs may differ from its
# reference below by this share of it.  The value is exact for one version
# of the program, so the tolerance need only let through the known GEV
# quadrature error (at most 6.0e-3 on one case, under 0.5% of a mean CRPS
# near 1.1); a fit or scoring change that moves the accuracy more fails.
REFERENCE_TOLERANCE = 0.02

# The skill-curve percentiles of ``windemos calibrate``, copied so that a
# change to the CLI cannot silently change the score-only workload.
CURVE_PERCENTILES = (50.0, 60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 97.0, 99.0)


@dataclass(frozen=True)
class Dataset:
    """``regions`` independent ``windemos simulate`` runs merged into ``<name>.csv``.

    In one simulated region every station shares a daily AR(1) wind
    signal, so a few dozen days hold only a few independent weather
    spells and the share of high-wind cases, which sets both the work of
    the fits and the mean CRPS, swings from seed to seed.  Pooling
    independent regions on the same dates averages that out without
    adding fitted days.
    """

    name: str
    days: int
    regions: int
    stations: int  # per region
    groups: str

    @property
    def total_stations(self):
        return self.regions * self.stations

    def simulate_argv(self, path, seed, region):
        # Every workload runs on regime-switching data: the TN/GEV and TN/LN
        # models are built for it.
        return [
            "simulate", path, "--scenario", "switching", "--days", str(self.days),
            "--stations", str(self.stations), "--groups-sizes", self.groups,
            "--seed", str(seed * 100 + region),
        ]  # fmt: skip


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple
    ops: object  # (inputs: {dataset name: csv path}, out_dir) -> [(op name, thunk)]
    # SHA-256 of every input file at DEFAULT_SEED, keyed by file name.
    pinned: dict
    # mean CRPS of every operation at DEFAULT_SEED, keyed by op name.
    reference_crps: dict


@dataclass
class OpResult:
    name: str
    ok: bool
    n_cases: int = 0
    crps_sum: float = 0.0
    digest: str = ""
    error: str = ""


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _check_report(report, n_cases):
    if report is None:
        raise CheckFailed("report.json has no report")
    if report["n_cases"] != n_cases:
        raise CheckFailed(f"n_cases is {report['n_cases']}, expected {n_cases}")
    if sum(report["histogram_counts"]) != n_cases:
        raise CheckFailed("histogram counts do not sum to n_cases")
    scores = report["scores"]
    values = [scores["mean_crps"], scores["mae"], scores["rmse"], scores["mean_log_score"]]
    values += list(scores["mean_twcrps"].values())
    if not all(v is None or math.isfinite(v) for v in values):
        raise CheckFailed(f"non-finite score in {scores}")
    if not scores["mean_crps"] > 0.0:
        raise CheckFailed("mean CRPS is not positive")


def _cli(argv, out_dir, n_cases, check_payload=None):
    """Run one CLI command in-process and check its report.json."""
    from windemos import cli

    os.makedirs(out_dir, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--output-dir", out_dir])
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        raw = fh.read()
    payload = json.loads(raw)
    _check_report(payload["report"], n_cases)
    if check_payload is not None:
        check_payload(payload, out_dir)
    mean_crps = payload["report"]["scores"]["mean_crps"]
    return n_cases, n_cases * mean_crps, hashlib.sha256(raw).hexdigest()


# --- calibrate-tn-gev -------------------------------------------------------
# Fit-bound: 30 simplex fits per pass (TN and GEV branches for 10 days,
# then the TN reference calibration of the skill curve); the GEV
# quadrature path runs but stays small.

CAL_DATA = Dataset("switching", days=30, regions=32, stations=1, groups="8")
CAL_TRAIN_DAYS = 20


def calibrate_ops(inputs, out_dir):
    argv = [
        "calibrate", inputs["switching"], "--model", "tn-gev", "--theta", "6",
        "--train-days", str(CAL_TRAIN_DAYS),
    ]  # fmt: skip
    n_cases = (CAL_DATA.days - CAL_TRAIN_DAYS) * CAL_DATA.total_stations
    return [("calibrate", lambda: _cli(argv, os.path.join(out_dir, "calibrate"), n_cases))]


# --- grid-tn-ln -------------------------------------------------------------
# The same fit layer used differently: the LN objective with two member
# groups (control plus 10 exchangeable members), and 6 cells refitting
# windows they share, so reuse across cells shows here only.  Many regions
# and few days: the 3 holdout days of 120 regions spread less across seeds
# in mean CRPS than 5 days of 40 (IQR/median 0.06 against 0.10) for about
# the same pass time.

GRID_DATA = Dataset("switching-1-10", days=31, regions=120, stations=1, groups="1,10")
GRID_LENGTHS = (15, 25)


def _check_grid(payload, out_dir):
    with open(os.path.join(out_dir, "grid.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    cells = {(int(n), float(theta)) for n, theta, _ in rows}
    if len(cells) != 6 or not all(math.isfinite(float(c)) for *_, c in rows):
        raise CheckFailed(f"grid.csv has {len(cells)} cells, expected 6 finite ones")
    chosen = (payload["grid"]["chosen_train_days"], payload["grid"]["chosen_theta"])
    if chosen not in cells:
        raise CheckFailed(f"chosen cell {chosen} is not a grid cell")


def grid_ops(inputs, out_dir):
    argv = [
        "grid-search", inputs["switching-1-10"], "--model", "tn-ln",
        "--theta", "5..7:1", "--train-days", "15..25:10",
    ]  # fmt: skip
    eligible = GRID_DATA.days - max(GRID_LENGTHS)
    holdout = eligible - (eligible + 1) // 2
    n_cases = holdout * GRID_DATA.total_stations
    out = os.path.join(out_dir, "grid")
    return [("grid-search", lambda: _cli(argv, out, n_cases, _check_grid))]


# --- score-only -------------------------------------------------------------
# No fitting: scoring, verification and I/O do all the work, so a fit
# change must predict no change here.

SCORE_DATA = Dataset("switching-large", days=100, regions=10, stations=3, groups="8")
VERIFY_TRAIN_DAYS = 30  # the CLI's default alignment window


def _switch_stream(path):
    """build_report and the skill-curve twCRPS on a fixed TN/GEV stream."""
    import numpy as np

    from windemos import dataio, models, scoring, verification

    cases, g, _ = dataio.read_dataset(path)
    config = models.RegimeSwitchConfig(
        6.0,
        models.TnParams(0.2, (0.12,) * g.m, 0.8, 0.9),
        models.GevParams(0.0, (0.11,) * g.m, 0.5, 0.15, 0.1),
    )
    forecasts = [models.predict_switch(config, g, case) for case in cases]
    report = verification.build_report(cases, forecasts, model="tn-gev").to_dict()
    _check_report(report, len(cases))
    obs = np.array([c.obs for c in cases], dtype=float)
    curve = []
    for q in CURVE_PERCENTILES:
        tw = scoring.twcrps_values(forecasts, obs, float(np.percentile(obs, q)))
        if not np.all(np.isfinite(tw)) or np.any(tw < 0.0):
            raise CheckFailed(f"twCRPS at percentile {q} is negative or not finite")
        curve.append(float(np.mean(tw)))
    raw = json.dumps([report, curve], sort_keys=True).encode()
    n = len(cases)
    return n, n * report["scores"]["mean_crps"], hashlib.sha256(raw).hexdigest()


def score_ops(inputs, out_dir):
    path = inputs["switching-large"]
    n_cases = (SCORE_DATA.days - VERIFY_TRAIN_DAYS) * SCORE_DATA.total_stations
    ops = []
    for model in ("raw", "climatology"):
        argv = ["verify", path, "--model", model]
        out = os.path.join(out_dir, f"verify-{model}")
        ops.append((f"verify-{model}", lambda a=argv, o=out: _cli(a, o, n_cases)))
    ops.append(("switch-stream", lambda: _switch_stream(path)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calibrate-tn-gev",
            (CAL_DATA,),
            calibrate_ops,
            pinned={
                "switching.csv": "e3a0856bfa9d940f4047b7fc285e62b6bcdcaef47334a5f18e20c2eac8e1bac4",
                "switching.csv.groups": "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
            },
            reference_crps={"calibrate": 1.1334932715135544},
        ),
        Workload(
            "grid-tn-ln",
            (GRID_DATA,),
            grid_ops,
            pinned={
                "switching-1-10.csv": "c10b4e52f06e40ef2a717cdd84fb40342a4a9328e4733e94634470031f200cca",
                "switching-1-10.csv.groups": "40ff4198ed50c2082577005440a14aef881da06145042503940d09233cf7af16",
            },
            reference_crps={"grid-search": 1.1978175652122862},
        ),
        Workload(
            "score-only",
            (SCORE_DATA,),
            score_ops,
            pinned={
                "switching-large.csv": "fc99fb1e026c3ad4cc3116425818f1ca5655830f59da90a12a851dfaacbdd370",
                "switching-large.csv.groups": "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
            },
            reference_crps={
                "verify-raw": 1.1718225600494823,
                "verify-climatology": 1.3371290130582474,
                "switch-stream": 1.1520274719406625,
            },
        ),
    )
}


def run_op(name, thunk):
    """Run one operation; any exception counts it as failed."""
    try:
        n_cases, crps_sum, digest = thunk()
    except Exception as exc:  # noqa: BLE001 - the run must go on and count it
        return OpResult(name, False, error=f"{type(exc).__name__}: {exc}")
    return OpResult(name, True, n_cases, crps_sum, digest)
