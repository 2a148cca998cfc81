"""The benchmark's own tests: failure counting and pinned fit counts.

    python3 -m pytest perfbench/tests -q

They stay out of the tier-1 suite, which collects ``tests/`` only.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from run import Runner  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CheckFailed, Workload  # noqa: E402

import windemos  # noqa: E402
from windemos import estimation  # noqa: E402


def _workload(ops, reference_crps=None):
    return Workload("fake", (), lambda inputs, out: ops, {}, reference_crps or {})


def _boom():
    raise ZeroDivisionError("boom")


def _bad_output():
    raise CheckFailed("histogram counts do not sum to n_cases")


def test_raising_operation_is_counted_and_the_pass_goes_on(tmp_path):
    ran = []

    def ok():
        ran.append(True)
        return 4, 4.0, "digest"

    ops = [("boom", _boom), ("bad", _bad_output), ("ok", ok)]
    runner = Runner(_workload(ops), str(tmp_path))
    wall, cpu, cases, crps_sum = runner.run_pass({})
    runner.run_pass({})
    assert ran == [True, True]
    assert (runner.attempted, runner.failed) == (6, 4)
    assert runner.errors[0] == "boom: ZeroDivisionError: boom"
    assert (cases, crps_sum) == (4, 4.0)


def test_changed_output_is_a_failure(tmp_path):
    digests = iter(["a", "b"])
    ops = [("op", lambda: (1, 1.0, next(digests)))]
    runner = Runner(_workload(ops), str(tmp_path))
    runner.run_pass({})
    runner.run_pass({})
    assert runner.failed == 1
    assert "differs" in runner.errors[0]


def test_reference_pass_checks_mean_crps_against_the_reference(tmp_path):
    ops = [("near", lambda: (10, 10.1, "a")), ("far", lambda: (10, 10.5, "b"))]
    runner = Runner(_workload(ops, {"near": 1.0, "far": 1.0}), str(tmp_path))
    runner.run_pass({}, reference=True)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.errors[0].startswith("far: mean CRPS 1.05")


def _dataset(truth, days=30, stations=5):
    cfg = windemos.ScenarioConfig(
        days=days, stations=stations, group_spec=windemos.GroupSpec((8,)), truth=truth, seed=7
    )
    return windemos.generate(cfg)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    ("family", "truth", "evals"),
    [("tn", "switching", 5492), ("ln", "switching", 6003), ("gev", "gev", 9335)],
)
def test_fit_and_evaluation_counts_are_pinned(family, truth, evals):
    data = _dataset(truth)
    g = windemos.GroupSpec((8,))
    with Tracer() as tracer:
        calib = windemos.rolling_calibrate(windemos.ModelSpec(family), g, data, 20)
    assert estimation.fit_min_crps.__name__ == "fit_min_crps"
    assert not hasattr(estimation.fit_min_crps, "__wrapped__")
    fits = [f for f in tracer.fits if f.family == family]
    assert len(fits) == len(tracer.fits) == 10
    assert sum(f.n_evals for f in fits) == sum(f.n_evals for f in calib.fits.values())
    assert sum(f.n_evals for f in fits) == evals
