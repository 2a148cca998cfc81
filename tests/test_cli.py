"""Command-line behavior: files, determinism, exit codes."""

import csv
import datetime
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windemos import ModelSpec, NumericFailureError, rolling_calibrate
from windemos.cli import main
from windemos.dataio import read_dataset

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _simulate(tmp_path, name="data.csv", **kw):
    args = [
        "simulate",
        str(tmp_path / name),
        "--days",
        str(kw.get("days", 30)),
        "--stations",
        str(kw.get("stations", 3)),
        "--seed",
        str(kw.get("seed", 0)),
        "--scenario",
        kw.get("scenario", "underdispersed"),
    ]
    assert main(args) == 0
    return tmp_path / name


def test_simulate_writes_dataset_and_sidecar(tmp_path, capsys):
    path = _simulate(tmp_path)
    assert path.exists()
    assert (tmp_path / "data.csv.groups").read_text() == "8\n"
    out = capsys.readouterr().out.splitlines()
    assert out[-2].endswith("data.csv")
    assert out[-1].endswith("data.csv.groups")
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert header == ["date", "station", "obs"] + [f"m{i}" for i in range(1, 9)]


def test_simulate_is_deterministic(tmp_path):
    a = _simulate(tmp_path, "a.csv", seed=4)
    b = _simulate(tmp_path, "b.csv", seed=4)
    assert a.read_bytes() == b.read_bytes()
    c = _simulate(tmp_path, "c.csv", seed=5)
    assert a.read_bytes() != c.read_bytes()


def test_calibrate_outputs_and_determinism(tmp_path):
    data = _simulate(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    out1.mkdir()
    out2.mkdir()
    args = [
        "calibrate",
        str(data),
        "--train-days",
        "10",
        "--output-dir",
    ]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    for name in ("report.json", "pit_histogram.csv", "twcrpss_vs_threshold.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    payload = json.loads((out1 / "report.json").read_text())
    assert payload["command"] == "calibrate"
    assert payload["config"]["model"] == "tn"
    report = payload["report"]
    assert report["kind"] == "parametric"
    assert report["n_cases"] == 20 * 3
    assert report["histogram_kind"] == "pit"
    assert sum(report["histogram_counts"]) == report["n_cases"]
    assert payload["calibration"]["n_days_fit"] == 20
    assert payload["calibration"]["last_fit"]["converged"] is True

    rows = list(csv.reader((out1 / "pit_histogram.csv").open()))
    assert rows[0] == ["bin", "lower", "upper", "count"]
    assert len(rows) == 1 + report["class_count"]

    curve = list(csv.reader((out1 / "twcrpss_vs_threshold.csv").open()))
    assert curve[0][:2] == ["percentile", "threshold"]
    # TN against its own reference scores exactly zero skill
    assert all(row[4] == "0.0" for row in curve[1:])


def test_calibrate_switching_model(tmp_path):
    data = _simulate(tmp_path, scenario="switching", days=24)
    out = tmp_path / "out"
    out.mkdir()
    code = main(
        [
            "calibrate",
            str(data),
            "--model",
            "tn-ln",
            "--theta",
            "6.0",
            "--strategy",
            "shared",
            "--train-days",
            "8",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["theta"] == 6.0
    assert "low" in payload["calibration"]["last_fit"]
    assert "high" in payload["calibration"]["last_fit"]
    curve = list(csv.reader((out / "twcrpss_vs_threshold.csv").open()))
    assert len(curve) > 1  # skill computed against the TN reference


def test_calibrate_reports_fit_counters(tmp_path):
    # Both branches of every regime-switching day are counted, and the
    # counts are those of the fits themselves
    data = _simulate(tmp_path, scenario="switching", days=24)
    dataset, g, _ = read_dataset(data)
    spec = ModelSpec("tn-gev", theta=6.0, strategy="shared")
    fits = [f for pair in rolling_calibrate(spec, g, dataset, 8).fits.values() for f in pair]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        out.mkdir()
        args = ["calibrate", str(data), "--model", "tn-gev", "--theta", "6.0"]
        args += ["--strategy", "shared", "--train-days", "8", "--output-dir", str(out)]
        assert main(args) == 0
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    calibration = json.loads((outs[0] / "report.json").read_text())["calibration"]
    assert calibration["n_fits"] == 2 * calibration["n_days_fit"] == len(fits)
    assert calibration["n_fits_nonconverged"] == sum(not f.converged for f in fits)
    assert calibration["n_fits_at_floor"] == sum(f.at_boundary for f in fits)
    assert calibration["n_optimizer_evals"] == sum(f.n_evals for f in fits) > 0
    assert calibration["n_lbfgsb_handovers"] == sum(f.handover for f in fits)
    assert calibration["n_lbfgsb_handovers"] <= calibration["n_fits"]


def test_one_day_tn_windows_write_a_finite_nonnegative_mean_crps(tmp_path):
    # Each window holds 3 cases, fewer than the 4 coefficients, so the CRPS
    # is flat along some directions of the fit
    data = _simulate(tmp_path, scenario="switching", days=30, stations=3, seed=0)
    out = tmp_path / "out"
    args = ["calibrate", str(data), "--model", "tn", "--train-days", "1"]
    assert main(args + ["--output-dir", str(out)]) == 0
    mean_crps = json.loads((out / "report.json").read_text())["report"]["scores"]["mean_crps"]
    assert math.isfinite(mean_crps) and mean_crps >= 0.0


def _reject(constant):
    raise ValueError(f"non-finite number {constant}")


@pytest.mark.parametrize("command", ["calibrate", "verify"])
def test_a_minus_inf_threshold_keeps_report_json_strict(tmp_path, command):
    # -inf is written as the key of its mean_twcrps; a finite threshold stays a number
    data = _simulate(tmp_path)
    out = tmp_path / "out"
    args = [command, str(data), "--train-days", "10", "--thresholds=-inf,5"]
    assert main(args + ["--output-dir", str(out)]) == 0
    text = (out / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject)["report"]
    assert report["thresholds"] == ["-inf", 5.0]
    assert report["scores"]["mean_twcrps"]["-inf"] == report["scores"]["mean_crps"]
    assert list(report["scores"]["mean_twcrps"]) == ["-inf", "5"]


@pytest.mark.parametrize("strategy", ["split", "shared"])
def test_grid_search_reports_fit_counters(tmp_path, strategy):
    # The selection cells and the holdout refit are counted apart, each
    # as the sum over the fits it ran; a shared-strategy length is fitted
    # once for all its thresholds
    data = _simulate(tmp_path, scenario="switching", days=26)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        args = ["grid-search", str(data), "--model", "tn-ln", "--strategy", strategy]
        args += ["--train-days", "6,8", "--theta", "5..6:1", "--output-dir", str(out)]
        assert main(args) == 0
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    payload = json.loads((outs[0] / "report.json").read_text())
    grid, counts = payload["grid"], payload["fits"]
    dataset, g, _ = read_dataset(data)

    def calibration(n, theta, days):
        spec = ModelSpec("tn-ln", theta=theta, strategy=strategy)
        days = [datetime.date.fromisoformat(d) for d in days]
        return rolling_calibrate(spec, g, dataset, n, days=days)

    thetas = (5.0,) if strategy == "shared" else (5.0, 6.0)
    selection = [calibration(n, t, grid["selection_days"]) for n in (6, 8) for t in thetas]
    n, theta = grid["chosen_train_days"], grid["chosen_theta"]
    holdout = [calibration(n, theta, grid["holdout_days"])]
    for calibs, got in ((selection, counts["selection"]), (holdout, counts["holdout"])):
        fits = [f for calib in calibs for pair in calib.fits.values() for f in pair]
        assert got["n_fits"] == len(fits) > 0
        assert got["n_fits_nonconverged"] == sum(not f.converged for f in fits)
        assert got["n_fits_at_floor"] == sum(f.at_boundary for f in fits)
        assert got["n_optimizer_evals"] == sum(f.n_evals for f in fits)
        assert got["n_lbfgsb_handovers"] == sum(f.handover for f in fits) <= got["n_fits"]
        assert got["n_split_fallbacks"] == sum(calib.n_split_fallbacks for calib in calibs)
    if strategy == "split":
        assert counts["selection"]["n_split_fallbacks"] > 0


@pytest.mark.parametrize("model,hist_classes", [("raw", 9), ("climatology", None)])
def test_verify_baselines(tmp_path, model, hist_classes):
    data = _simulate(tmp_path)
    out = tmp_path / model
    out.mkdir()
    code = main(
        [
            "verify",
            str(data),
            "--model",
            model,
            "--train-days",
            "10",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    report = payload["report"]
    assert report["kind"] == "empirical"
    assert report["n_cases"] == 60
    rows = list(csv.reader((out / "rank_histogram.csv").open()))
    assert rows[0] == ["rank", "count"]
    if hist_classes is not None:
        assert len(rows) == 1 + hist_classes
    counts = [int(r[1]) for r in rows[1:]]
    assert sum(counts) == 60


def test_verify_climatology_with_a_missing_row(tmp_path):
    # One station misses one day, so its climatology on the next days is
    # one value shorter than the other stations'
    data = _simulate(tmp_path, days=40, seed=1)
    lines = data.read_text().splitlines(keepends=True)
    data.write_text("".join(lines[:19] + lines[20:]))
    # A climatology holds at most 10 values, the raw ensemble 8 members
    for model, classes in (("climatology", 11), ("raw", 9)):
        out = tmp_path / model
        argv = ["verify", str(data), "--model", model, "--train-days", "10"]
        assert main(argv + ["--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["report"]
        # The missing row lies in the first training window
        assert report["n_cases"] == 90
        assert sum(report["histogram_counts"]) == 90
        assert report["class_count"] == classes


def test_verify_is_deterministic_with_ties(tmp_path):
    data = _simulate(tmp_path)
    outs = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        out.mkdir()
        assert (
            main(
                [
                    "verify",
                    str(data),
                    "--train-days",
                    "10",
                    "--seed",
                    "9",
                    "--output-dir",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (
        outs[0] / "rank_histogram.csv"
    ).read_bytes() == (outs[1] / "rank_histogram.csv").read_bytes()


def test_grid_search_pure_model(tmp_path):
    data = _simulate(tmp_path)
    out = tmp_path / "grid"
    out.mkdir()
    code = main(
        [
            "grid-search",
            str(data),
            "--train-days",
            "8,10",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    grid = payload["grid"]
    assert grid["chosen_train_days"] in (8, 10)
    assert grid["chosen_theta"] is None
    assert set(grid["selection_days"]).isdisjoint(grid["holdout_days"])
    assert payload["report"]["n_cases"] == len(grid["holdout_days"]) * 3

    rows = list(csv.reader((out / "grid.csv").open()))
    assert rows[0] == ["train_days", "theta", "mean_crps"]
    assert len(rows) == 3
    assert all(row[1] == "" for row in rows[1:])  # pure model: no theta
    theta_rows = list(csv.reader((out / "crps_vs_theta.csv").open()))
    assert theta_rows == [["theta", "mean_crps"]]
    length_rows = list(csv.reader((out / "crps_vs_length.csv").open()))
    assert [r[0] for r in length_rows[1:]] == ["8", "10"]


def test_grid_search_theta_grid(tmp_path):
    data = _simulate(tmp_path, scenario="switching", days=26)
    out = tmp_path / "grid"
    out.mkdir()
    code = main(
        [
            "grid-search",
            str(data),
            "--model",
            "tn-ln",
            "--strategy",
            "shared",
            "--train-days",
            "8",
            "--theta",
            "5.0..6.0:0.5",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader((out / "grid.csv").open()))
    assert [r[1] for r in rows[1:]] == ["5.0", "5.5", "6.0"]
    payload = json.loads((out / "report.json").read_text())
    assert payload["grid"]["chosen_theta"] in (5.0, 5.5, 6.0)


def test_exit_codes_for_input_problems(tmp_path):
    assert main(["calibrate", str(tmp_path / "missing.csv")]) == 1

    bad = tmp_path / "bad.csv"
    bad.write_text("date,station,obs,m1\n2024-01-01,S1,oops,3.0\n")
    assert main(["calibrate", str(bad)]) == 1

    data = _simulate(tmp_path)
    assert main(["calibrate", str(data), "--model", "tn-ln"]) == 1  # no theta
    assert main(["calibrate", str(data), "--theta", "6.0"]) == 1  # tn takes none
    assert main(["grid-search", str(data), "--train-days", "40..10:5"]) == 1
    assert main(["verify", str(data), "--model", "climatology", "--train-days", "0"]) == 1
    assert main(["calibrate", str(data), "--train-days", "500"]) == 1  # nothing eligible
    # Option values that are no values: empty lists, no bin, a negative window
    assert main(["grid-search", str(data), "--model", "tn-ln", "--theta", ","]) == 1
    assert main(["grid-search", str(data), "--train-days", ","]) == 1
    assert main(["grid-search", str(data), "--train-days", "0..inf"]) == 1
    assert main(["calibrate", str(data), "--train-days", "10", "--bins", "0"]) == 1
    assert main(["calibrate", str(data), "--train-days", "10", "--thresholds", ","]) == 1
    assert main(["verify", str(data), "--train-days", "-3"]) == 1
    assert main(["verify", str(data), "--train-days", "10", "--seed", "-1"]) == 1
    # A window that cannot hold a training day, a threshold that is no
    # number below +inf, simulation settings numpy would reject or ignore
    assert main(["calibrate", str(data), "--train-days", "0"]) == 1
    assert main(["grid-search", str(data), "--train-days", "0,5"]) == 1
    for command in ("verify", "calibrate"):
        for r in ("nan", "inf"):
            argv = [command, str(data), "--train-days", "10", "--thresholds", r]
            assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "report.json").exists()
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", out, "--days", "3", "--stations", "1", "--seed", "-1"]) == 1
    assert main(["simulate", out, "--days", "3", "--stations", "1", "--theta-star", "nan"]) == 1


def test_a_grid_longer_than_the_data_exits_1_naming_the_day_count(tmp_path, caplog):
    # grid_search decides; 30 days leave none after a 30-day window
    data = _simulate(tmp_path)
    assert main(["grid-search", str(data), "--train-days", "29..30:1"]) == 1
    assert "dataset has 30 days with data; grid needs more than 30" in caplog.text


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["calibrate"], "alpha bins model seed strategy theta thresholds train_days"),
        (
            ["calibrate", "--model", "tn-ln", "--theta", "6"],
            "alpha bins model seed strategy theta thresholds train_days",
        ),
        (["verify"], "alpha model seed thresholds train_days"),
        (
            ["grid-search", "--train-days", "6,8"],
            "alpha model seed selection strategy theta thresholds train_days",
        ),
        (
            ["grid-search", "--model", "tn-ln", "--theta", "5,6", "--train-days", "6,8"],
            "alpha model seed selection strategy theta thresholds train_days",
        ),
    ],
)
def test_config_holds_the_options_and_no_path(tmp_path, argv, keys):
    # The config block is the command line's options, so a new option
    # shows here, and no path of the data, group map or outputs leaks
    data = _simulate(tmp_path, scenario="switching", days=24)
    out = tmp_path / "out"
    extra = [] if argv[0] == "grid-search" else ["--train-days", "8"]
    args = argv[:1] + [str(data), "--groups", f"{data}.groups"] + argv[1:] + extra
    assert main(args + ["--output-dir", str(out)]) == 0
    text = (out / "report.json").read_text()
    config = json.loads(text)["config"]
    assert sorted(config) == keys.split()
    if argv[0] == "grid-search":
        assert config["strategy"] == ("split" if "--theta" in argv else None)
    assert str(tmp_path) not in text and "data.csv" not in text


# Values of each option, with empty lists, 0 and negatives among them
_OPTION_VALUES = {
    "--theta": [",", "0", "-1", "6", "5..6:1"],
    "--train-days": [",", "0", "-3", "4", "30", "3..5:2"],
    "--strategy": ["split", "shared"],
    "--selection": ["first-half", "all"],
    "--alpha": ["0", "-0.5", "0.5"],
    "--bins": ["0", "-2", "5"],
    "--thresholds": [",", "-1", "0", "5,8"],
    "--seed": ["0", "-1"],
}
_FITTED = ["tn", "ln", "gev", "tn-ln", "tn-gev"]
# Each command's models, a run that works on the small data (train days,
# then theta for a mixture) and its own options
_COMMANDS = {
    "calibrate": (_FITTED, ("4", "6"), ("--theta", "--strategy", "--bins")),
    "verify": (["raw", "climatology"], ("4", None), ()),
    "grid-search": (_FITTED, ("4", "6"), ("--theta", "--strategy", "--selection")),
}
_SHARED_OPTIONS = ("--train-days", "--alpha", "--thresholds", "--seed")


@st.composite
def _argv(draw):
    # A run that works, then up to two options set to any of their values
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    models, (train_days, theta), own = _COMMANDS[command]
    model = draw(st.sampled_from(models))
    argv = [command, "--model", model, "--train-days", train_days]
    if "-" in model:
        argv += ["--theta", theta]
    options = draw(st.lists(st.sampled_from(own + _SHARED_OPTIONS), max_size=2, unique=True))
    for option in options:
        argv += [option, draw(st.sampled_from(_OPTION_VALUES[option]))]
    return argv


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    return _simulate(tmp_path_factory.mktemp("small"), scenario="switching", days=16, stations=2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_main_returns_an_exit_code_for_any_option_values(small_data, argv):
    out = small_data.parent / "out"
    assert main(argv[:1] + [str(small_data)] + argv[1:] + ["--output-dir", str(out)]) in (0, 1, 2)


def _one_member_data(tmp_path):
    # 14 days x 2 stations, one member each and no group sidecar
    day0 = datetime.date(2024, 1, 1)
    rows = [
        f"{day0 + datetime.timedelta(days=d)},S{s},{3.0 + d % 5 + s},{2.5 + d % 4}"
        for d in range(14)
        for s in (1, 2)
    ]
    data = tmp_path / "one.csv"
    data.write_text("date,station,obs,m1\n" + "\n".join(rows) + "\n")
    return data


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["calibrate", "--train-days", "5"], 1, "needs at least 2 members"),
        (["grid-search", "--train-days", "4..6:2"], 1, "needs at least 2 members"),
        (["verify", "--train-days", "5"], 1, "--alpha"),
        (["verify", "--train-days", "5", "--alpha", "0.5"], 0, None),
    ],
)
def test_one_member_data_fails_up_front_naming_the_cause(tmp_path, caplog, argv, code, message):
    data = _one_member_data(tmp_path)
    out = tmp_path / "out"
    assert main(argv[:1] + [str(data)] + argv[1:] + ["--output-dir", str(out)]) == code
    if message is None:
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["n_cases"] == 18 and report["alpha"] == 0.5
    else:
        assert message in caplog.text


def test_exit_code_for_numeric_failure(tmp_path, monkeypatch):
    data = _simulate(tmp_path)

    def boom(*args, **kwargs):
        raise NumericFailureError("quadrature blew its budget", {"x": 1.0})

    monkeypatch.setattr("windemos.cli.rolling_calibrate", boom)
    assert main(["calibrate", str(data), "--train-days", "10"]) == 2


def test_argparse_exits_map_to_cli_codes():
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 1
    assert main(["calibrate"]) == 1  # missing positional


def test_module_entrypoint_and_log_level(tmp_path):
    env = dict(os.environ, WINDEMOS_LOG_LEVEL="CRITICAL")
    proc = subprocess.run(
        [sys.executable, "-m", "windemos", "calibrate", str(tmp_path / "missing.csv")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "ERROR" not in proc.stderr  # suppressed below CRITICAL

    proc = subprocess.run(
        [sys.executable, "-m", "windemos", "calibrate", str(tmp_path / "missing.csv")],
        capture_output=True,
        text=True,
        env=dict(os.environ, WINDEMOS_LOG_LEVEL="INFO"),
    )
    assert proc.returncode == 1
    assert "ERROR" in proc.stderr


def test_importing_the_cli_loads_neither_the_optimizers_nor_the_integrators():
    # scipy.optimize loads only when a GEV Newton run that ends
    # non-converged is handed over to L-BFGS-B, and scipy.integrate only
    # for the quadrature oracle
    code = (
        "import sys, windemos.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_a_tn_gev_calibration_on_regular_windows_never_loads_scipy_optimize(tmp_path):
    # Every GEV fit on these 20-day windows converges by Newton, so none is
    # handed over to L-BFGS-B and scipy.optimize is never imported
    data = tmp_path / "data.csv"
    args = ["simulate", str(data), "--scenario", "switching", "--days", "60", "--stations", "8"]
    assert main(args + ["--groups-sizes", "1,7", "--seed", "0"]) == 0
    out = tmp_path / "out"
    argv = ["calibrate", str(data), "--model", "tn-gev", "--theta", "6", "--train-days", "20"]
    code = (
        "import sys; from windemos.cli import main; "
        f"code = main({argv + ['--output-dir', str(out)]!r}); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
    calibration = json.loads((out / "report.json").read_text())["calibration"]
    assert calibration["n_fits"] == 80
    assert calibration["n_lbfgsb_handovers"] == calibration["n_fits_nonconverged"] == 0


def test_reports_count_dropped_rows(tmp_path):
    # One row loses its observation and another a member: both are dropped
    data = _simulate(tmp_path)
    lines = data.read_text().splitlines()
    for line, field in ((5, 2), (9, 6)):
        fields = lines[line].split(",")
        fields[field] = ""
        lines[line] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    runs = {
        "calibrate": ["calibrate", str(data), "--train-days", "8"],
        "verify": ["verify", str(data), "--train-days", "8"],
        "grid-search": ["grid-search", str(data), "--train-days", "6,8"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        out.mkdir()
        assert main(argv + ["--output-dir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["n_rows_dropped"] == 2, name


def test_calibrate_reports_split_fallbacks(tmp_path):
    # On some 8-day windows fewer than 10 ensemble medians lie on one
    # side of theta, and those days train both branches on the full window
    data = _simulate(tmp_path, scenario="switching", days=24)
    dataset, g, _ = read_dataset(data)
    want = rolling_calibrate(ModelSpec("tn-ln", theta=6.0), g, dataset, 8).n_split_fallbacks
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        out.mkdir()
        args = ["calibrate", str(data), "--model", "tn-ln", "--theta", "6.0"]
        assert main(args + ["--train-days", "8", "--output-dir", str(out)]) == 0
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    calibration = json.loads((outs[0] / "report.json").read_text())["calibration"]
    assert 0 < calibration["n_split_fallbacks"] == want < calibration["n_days_fit"]


def test_missing_output_dirs_are_created(tmp_path):
    data = _simulate(tmp_path)
    runs = {
        "calibrate": ["calibrate", str(data), "--train-days", "8"],
        "verify": ["verify", str(data), "--train-days", "8"],
        "grid-search": ["grid-search", str(data), "--train-days", "6,8"],
    }
    for name, argv in runs.items():
        out = tmp_path / "new" / name / "sub"
        assert main(argv + ["--output-dir", str(out)]) == 0, name
        assert (out / "report.json").is_file(), name


def test_an_output_dir_that_is_a_file_fails_before_reading_data(tmp_path, monkeypatch):
    data = _simulate(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    read = []
    monkeypatch.setattr("windemos.cli.read_dataset", lambda *a: read.append(a) or read_dataset(*a))
    for argv in (["calibrate", str(data)], ["verify", str(data)], ["grid-search", str(data)]):
        for out in (taken, taken / "sub"):
            assert main(argv + ["--train-days", "8", "--output-dir", str(out)]) == 1
    assert read == []
    assert taken.read_text() == "not a directory\n"
