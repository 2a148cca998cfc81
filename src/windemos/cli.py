"""Command-line interface for calibration, selection, verification, simulation.

Subcommands:

* ``calibrate``    rolling calibration of one model plus a verification report
* ``grid-search``  joint training-length / threshold selection on a score grid
* ``verify``       raw-ensemble or climatology baseline report
* ``simulate``     seeded synthetic dataset generation

The three report commands are front ends of one runner: `_read` builds
one `CaseTable` of the data, the command makes its forecasts, `_report`
scores them and `_write` writes report.json and the CSV tables.  The
report's ``config`` is the command line's options without the paths.

Exit codes: 0 on success, 1 for input or configuration problems, 2 for
numeric failures.  Output files are deterministic for a fixed command
line and input data: JSON is written with sorted keys, CSV with a fixed
column order, and nothing records timestamps, hostnames, or paths.
The ``WINDEMOS_LOG_LEVEL`` environment variable sets the stderr log
level (default WARNING).
"""

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .dataio import read_dataset, write_dataset
from .errors import (
    ConfigError,
    DataFormatError,
    EstimationError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    NumericFailureError,
    UndefinedMomentError,
    UndefinedSkillError,
)
from .estimation import (
    FAMILIES,
    MIXTURES,
    CaseTable,
    ModelSpec,
    _climatology_stream,
    _raw_stream,
    grid_search,
    rolling_calibrate,
)
from .models import GroupSpec
from .scoring import _check_threshold, twcrps_values
from .synthetic import ScenarioConfig, generate
from .verification import build_report

logger = logging.getLogger(__name__)

_CURVE_PERCENTILES = (50.0, 60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 97.0, 99.0)
# Namespace entries that are no option of the run: outputs record no paths
_NOT_CONFIG = ("command", "data", "groups", "output_dir", "func")

_SCENARIOS = {
    "calibrated": {},
    "underdispersed": {"deflation": 0.4},
    "biased": {"bias": 1.0, "deflation": 0.7},
    "switching": {"truth": "switching"},
    "gev": {"truth": "gev", "xi": 0.15},
}


def _setup_logging():
    name = os.environ.get("WINDEMOS_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _emit(out_dir, name, *content):
    # A .json file holds one payload, a .csv file a header and its rows
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if name.endswith(".json"):
            fh.write(json.dumps(content[0], indent=2, sort_keys=True) + "\n")
        else:
            header, rows = content
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows([_cell(v) for v in row] for row in [header, *rows])
    print(path)


def _parse_values(text, cast, what):
    """Parse '30', '15,20,30', or 'a..b:step' into a non-empty list of values."""
    text = text.strip()
    try:
        if ".." in text:
            span, _, step_text = text.partition(":")
            lo_text, _, hi_text = span.partition("..")
            lo, hi = float(lo_text), float(hi_text)
            step = float(step_text) if step_text else 1.0
            if step <= 0.0 or hi < lo:
                raise ValueError("range must have positive step and hi >= lo")
            count = int(round((hi - lo) / step)) + 1
            grid = [round(lo + i * step, 10) for i in range(count)]
            values = [cast(v) for v in grid if v <= hi + 1e-9]
        else:
            values = [cast(float(tok)) for tok in text.split(",") if tok.strip()]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{what} {text!r} lists no value")
    return values


def _parse_sizes(text):
    try:
        return GroupSpec(tuple(int(tok) for tok in text.split(",") if tok.strip()))
    except (ValueError, InvalidParameterError) as exc:
        raise ConfigError(f"cannot parse group sizes {text!r}: {exc}") from exc


def _thresholds_arg(args):
    if args.thresholds is None:
        return None
    return tuple(_parse_values(args.thresholds, _check_threshold, "thresholds"))


def _model_spec(args):
    """The ModelSpec of --model, and the --theta grid of grid-search.

    calibrate's --theta is one threshold; grid-search's is a grid whose
    first threshold goes into the spec.
    """
    grid = args.command == "grid-search"
    if args.model not in MIXTURES:
        if args.theta is not None:
            raise ConfigError(f"model {args.model} takes no --theta")
        return ModelSpec(args.model), None
    if args.theta is None:
        raise ConfigError(f"model {args.model} needs {'a --theta grid' if grid else '--theta'}")
    thetas = _parse_values(args.theta, float, "--theta") if grid else [args.theta]
    return ModelSpec(args.model, theta=thetas[0], strategy=args.strategy), thetas


def _read(args, fitted):
    """The data's CaseTable, for its GroupSpec when `fitted`, and the dropped-row count.

    The baselines read no group columns, so `verify` builds its table
    without a GroupSpec and also works on one-member data.
    """
    dataset, g, dropped = read_dataset(args.data, args.groups)
    return CaseTable(dataset, g if fitted else None), dropped


def _report(args, cases, forecasts, n):
    # The report of a command's forecasts under its options, as a dict
    if not cases:
        raise InsufficientDataError(f"no day has {n} prior days of training data")
    return build_report(
        cases,
        forecasts,
        thresholds=_thresholds_arg(args),
        alpha=args.alpha,
        seed=args.seed,
        bins=getattr(args, "bins", None),
        model=args.model,
    ).to_dict()


def _histogram(report):
    # The rank histogram of empirical forecasts, or the PIT histogram
    counts = report["histogram_counts"]
    if report["histogram_kind"] == "rank":
        return "rank_histogram.csv", ["rank", "count"], list(enumerate(counts, 1))
    bins = len(counts)
    rows = [(i + 1, i / bins, (i + 1) / bins, c) for i, c in enumerate(counts)]
    return "pit_histogram.csv", ["bin", "lower", "upper", "count"], rows


def _write(args, dropped, tables, config=None, **blocks):
    """Write report.json, then each (name, header, rows) CSV table.

    `config` updates the command line's options without paths; `blocks`
    are the command's own, its `report` among them.
    """
    options = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    config = {**options, **(config or {})}
    payload = {"command": args.command, "config": config, "n_rows_dropped": dropped, **blocks}
    for table in [("report.json", payload), *tables]:
        _emit(args.output_dir, *table)


def _fit_dict(fit):
    if isinstance(fit, tuple):
        return {"low": _fit_dict(fit[0]), "high": _fit_dict(fit[1])}
    return dataclasses.asdict(fit)


def _calibration_summary(calib):
    last_day = max(calib.fits) if calib.fits else None
    return {
        "n_days_fit": len(calib.fits),
        **calib.fit_counts(),
        "n_cases": len(calib.cases),
        "skipped": [[day.isoformat(), reason] for day, reason in calib.skipped],
        "last_day": None if last_day is None else last_day.isoformat(),
        "last_fit": None if last_day is None else _fit_dict(calib.fits[last_day]),
    }


def _skill_curve_rows(forecasts, ref_forecasts, obs):
    rows = []
    seen = set()
    for q in _CURVE_PERCENTILES:
        r = float(np.percentile(obs, q))
        if round(r, 12) in seen:
            continue
        seen.add(round(r, 12))
        mean_tw = float(np.mean(twcrps_values(forecasts, obs, r)))
        ref_tw = float(np.mean(twcrps_values(ref_forecasts, obs, r)))
        skill = 1.0 - mean_tw / ref_tw if ref_tw > 0.0 else None
        if skill is None:
            logger.warning("reference twCRPS is 0 at threshold %g; skill undefined", r)
        rows.append((q, r, mean_tw, ref_tw, skill))
    return rows


def cmd_calibrate(args):
    model, _ = _model_spec(args)
    table, dropped = _read(args, fitted=True)
    calib = rolling_calibrate(model, table.g, table, args.train_days)
    report = _report(args, calib.cases, calib.forecasts, args.train_days)

    ref = calib
    if args.model != "tn":
        ref = rolling_calibrate(ModelSpec("tn"), table.g, table, args.train_days)
    obs = np.array([c.obs for c in calib.cases], dtype=float)
    curve = _skill_curve_rows(calib.forecasts, ref.forecasts, obs)
    curve_header = ["percentile", "threshold", "mean_twcrps", "reference_mean_twcrps", "twcrpss"]
    tables = [_histogram(report), ("twcrpss_vs_threshold.csv", curve_header, curve)]
    _write(args, dropped, tables, calibration=_calibration_summary(calib), report=report)
    return 0


def cmd_verify(args):
    table, dropped = _read(args, fitted=False)
    stream = _raw_stream if args.model == "raw" else _climatology_stream
    result = stream(table, args.train_days)
    report = _report(args, result.cases, result.forecasts, args.train_days)
    skipped = [[day.isoformat(), reason] for day, reason in result.skipped]
    alignment = {"n_cases": len(result.cases), "skipped": skipped}
    _write(args, dropped, [_histogram(report)], alignment=alignment, report=report)
    return 0


def cmd_grid_search(args):
    lengths = _parse_values(args.train_days, lambda v: int(round(v)), "--train-days")
    model, thetas = _model_spec(args)
    table, dropped = _read(args, fitted=True)

    # Selection days default to the first half of the days every grid
    # cell can score; the final report is built on the remaining half so
    # selection and assessment never share a day.  With no such day,
    # grid_search raises.
    eligible = list(table.dates[max(lengths) :])
    selection_days = holdout_days = eligible
    if args.selection == "first-half":
        half = (len(eligible) + 1) // 2
        selection_days, holdout_days = eligible[:half], eligible[half:]

    result = grid_search(
        model, table.g, table, lengths, thetas=thetas, selection_days=selection_days
    )

    chosen = dataclasses.replace(model, theta=result.chosen_theta)
    report, holdout_fits = None, None
    if holdout_days:
        n = result.chosen_length
        calib = rolling_calibrate(chosen, table.g, table, n, days=holdout_days)
        holdout_fits = calib.fit_counts()
        report = _report(args, calib.cases, calib.forecasts, n)

    cells = result.cells.items()
    grid_rows = [(n, theta, crps) for (n, theta), crps in cells]
    length_rows = [(n, crps) for (n, theta), crps in cells if theta == result.chosen_theta]
    theta_rows = [
        (theta, crps)
        for (n, theta), crps in cells
        if n == result.chosen_length and theta is not None
    ]

    grid = {
        "chosen_train_days": result.chosen_length,
        "chosen_theta": result.chosen_theta,
        "n_selection_cases": result.n_cases,
        "selection_days": [d.isoformat() for d in result.days],
        "holdout_days": [d.isoformat() for d in holdout_days],
    }
    # The selection cells' fits, and the chosen cell's refit on the
    # holdout days (None when there are none)
    fits = {"selection": result.fit_counts, "holdout": holdout_fits}
    tables = [
        ("grid.csv", ["train_days", "theta", "mean_crps"], grid_rows),
        ("crps_vs_length.csv", ["train_days", "mean_crps"], length_rows),
        ("crps_vs_theta.csv", ["theta", "mean_crps"], theta_rows),
    ]
    # A pure model has no strategy
    config = {"strategy": args.strategy if model.is_mixture else None}
    _write(args, dropped, tables, config, grid=grid, fits=fits, report=report)
    return 0


def cmd_simulate(args):
    preset = _SCENARIOS[args.scenario]
    cfg = ScenarioConfig(
        days=args.days,
        stations=args.stations,
        group_spec=_parse_sizes(args.groups_sizes),
        theta_star=args.theta_star,
        seed=args.seed,
        **preset,
    )
    dataset = generate(cfg)
    write_dataset(args.out, dataset, cfg.group_spec)
    print(args.out)
    print(f"{args.out}.groups")
    return 0


def _add_report_args(sub):
    sub.add_argument("--alpha", type=float, default=None, help="central interval level")
    sub.add_argument(
        "--thresholds",
        default=None,
        help="comma list or lo..hi:step of threshold speeds (default: 90/95/99th pct)",
    )
    sub.add_argument("--seed", type=int, default=0, help="rank tie-breaking seed")
    sub.add_argument("--output-dir", default=".", help="directory for output files")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="windemos",
        description="Ensemble wind-speed post-processing: calibrate, select, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="rolling calibration plus verification report")
    cal.add_argument("data", help="dataset CSV (date,station,obs,m1..mM)")
    cal.add_argument("--groups", default=None, help="group map path (default <data>.groups)")
    cal.add_argument("--model", choices=FAMILIES, default="tn")
    cal.add_argument("--theta", type=float, default=None, help="switching threshold")
    cal.add_argument("--strategy", choices=("split", "shared"), default="split")
    cal.add_argument("--train-days", type=int, default=30, help="rolling window length")
    cal.add_argument("--bins", type=int, default=None, help="PIT histogram bin count")
    _add_report_args(cal)
    cal.set_defaults(func=cmd_calibrate)

    ver = sub.add_parser("verify", help="raw-ensemble or climatology baseline report")
    ver.add_argument("data")
    ver.add_argument("--groups", default=None)
    ver.add_argument("--model", choices=("raw", "climatology"), default="raw")
    ver.add_argument(
        "--train-days",
        type=int,
        default=30,
        help="alignment window: score only days a calibration of this length covers",
    )
    _add_report_args(ver)
    ver.set_defaults(func=cmd_verify)

    grid = sub.add_parser("grid-search", help="training-length / threshold selection")
    grid.add_argument("data")
    grid.add_argument("--groups", default=None)
    grid.add_argument("--model", choices=FAMILIES, default="tn")
    grid.add_argument(
        "--train-days", default="20..40:5", help="grid of window lengths (lo..hi:step)"
    )
    grid.add_argument("--theta", default=None, help="grid of thresholds (lo..hi:step)")
    grid.add_argument("--strategy", choices=("split", "shared"), default="split")
    grid.add_argument(
        "--selection",
        choices=("first-half", "all"),
        default="first-half",
        help="days scored by the grid; first-half keeps the rest for the report",
    )
    _add_report_args(grid)
    grid.set_defaults(func=cmd_grid_search)

    sim = sub.add_parser("simulate", help="write a seeded synthetic dataset")
    sim.add_argument("out", help="output CSV path (group map goes to <out>.groups)")
    sim.add_argument("--scenario", choices=sorted(_SCENARIOS), default="calibrated")
    sim.add_argument("--days", type=int, default=120)
    sim.add_argument("--stations", type=int, default=10)
    sim.add_argument(
        "--groups-sizes", default="8", help="comma list of exchangeable group sizes"
    )
    sim.add_argument("--theta-star", type=float, default=6.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "output_dir", None) is not None:
            # Before any data is read: bad thresholds, or a path that
            # cannot be a directory, fail here, not after the whole run
            _thresholds_arg(args)
            os.makedirs(args.output_dir, exist_ok=True)
        return args.func(args)
    except (
        NumericFailureError,
        EstimationError,
        UndefinedSkillError,
        UndefinedMomentError,
    ) as exc:
        logger.error("numeric failure: %s", exc)
        return 2
    except (
        DataFormatError,
        ConfigError,
        InvalidInputError,
        InvalidParameterError,
        InsufficientDataError,
        OSError,
    ) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
