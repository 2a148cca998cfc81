"""windemos benchmark: seeded workloads through the in-process CLI and the API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; windemos is imported from ``src/``.
Set-up runs ``perfbench/prepare.py`` in fresh processes; then one
warm-up pass on the seed-0 inputs, checked against the reference CRPS, and
timed passes on the seed's inputs until ``--seconds`` have gone by.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics (see ``perfbench/README.md``).  Lines before
it give every metric with its unit and the environment.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the benchmark is one
# closed-loop client, and spare BLAS threads only add CPU time and noise.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

from prepare import prepare  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_TOLERANCE, WORKLOADS, run_op  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5  # fresh-process set-ups per run; setup_s is their median


def load_benchmark_spec():
    """Metric specs by name, and the metric names of each kind in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    kinds = ("end_to_end", "per_layer")
    names = {kind: [m["name"] for m in spec[kind]] for kind in kinds}
    return {m["name"]: m for kind in kinds for m in spec[kind]}, names


def import_windemos():
    """Import windemos from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "windemos", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no windemos sources at {init}")
    sys.path.insert(0, SRC)
    import windemos

    if os.path.abspath(windemos.__file__) != init:
        sys.exit(f"perfbench: imported windemos from {windemos.__file__}, not {init}")
    return windemos


def commit_id():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "windemos")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def run_setups(workload, seed, in_dir):
    """Set up SETUPS times in fresh processes; all must write identical files."""
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), workload.name, str(seed), in_dir]
    results = []
    for _ in range(SETUPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    hashes = results[0]["hashes"]
    if any(r["hashes"] != hashes for r in results):
        sys.exit("perfbench: repeated set-ups wrote different input files")
    return results, hashes


def input_paths(workload, in_dir):
    return {d.name: os.path.join(in_dir, f"{d.name}.csv") for d in workload.datasets}


def pinned_inputs(workload, seed, hashes, in_dir, pin_dir):
    """The inputs at DEFAULT_SEED, which must hash as recorded whatever seed this run uses."""
    if seed != DEFAULT_SEED:
        hashes = prepare(workload, DEFAULT_SEED, pin_dir)
        in_dir = pin_dir
    if hashes != workload.pinned:
        sys.exit(
            f"perfbench: inputs of {workload.name} at seed {DEFAULT_SEED} changed:\n"
            f"  recorded {json.dumps(workload.pinned, sort_keys=True)}\n"
            f"  now      {json.dumps(hashes, sort_keys=True)}"
        )
    return input_paths(workload, in_dir)


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = out_dir
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self, inputs, reference=False):
        """One pass; returns (wall s, CPU s, cases, CRPS sum).

        With ``reference`` the inputs are the DEFAULT_SEED ones, and each
        operation's mean CRPS must lie within REFERENCE_TOLERANCE of the
        workload's reference; otherwise each output must equal the first
        pass's.
        """
        ops = self.workload.ops(inputs, self.out_dir)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = [run_op(name, thunk) for name, thunk in ops]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        for r in results:
            self.check(r, reference)
        cases = sum(r.n_cases for r in results)
        return wall, cpu, cases, sum(r.crps_sum for r in results)

    def check(self, r, reference):
        if r.ok and reference:
            expected = self.workload.reference_crps.get(r.name)
            mean_crps = r.crps_sum / r.n_cases
            if expected is None or abs(mean_crps - expected) > REFERENCE_TOLERANCE * expected:
                r.ok, r.error = False, f"mean CRPS {mean_crps!r} vs reference {expected!r}"
        elif r.ok and r.digest != self.digests.setdefault(r.name, r.digest):
            r.ok, r.error = False, "output differs from the first pass"
        self.attempted += 1
        if not r.ok:
            self.failed += 1
            self.errors.append(f"{r.name}: {r.error}")


def traced_pass(runner, inputs, tracer, untraced_wall):
    """One traced pass, compared with the untraced pass just before it."""
    tracer.reset()
    with tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wall, *_ = runner.run_pass(inputs)
    metrics = layer_metrics(tracer, Counter(w.category.__name__ for w in caught))
    self_sum = sum(tracer.layer_self(layer) for layer in LAYERS)
    metrics["trace.overhead"] = wall / untraced_wall
    metrics["trace.self_sum_share"] = self_sum / untraced_wall
    metrics["trace.coverage"] = self_sum / wall
    return metrics


def median_dict(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def wall_line(walls):
    # A run holds a handful of passes: their maximum is the highest
    # percentile the sample supports.
    n = len(walls)
    return f"p50 of {n} passes; max = {max(walls):.4f} s, the highest of {n}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_windemos()
    spec, spec_names = load_benchmark_spec()
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(ROOT, ".perfbench_run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir, out_dir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "outputs")

    setups, hashes = run_setups(workload, args.seed, in_dir)
    pinned = pinned_inputs(workload, args.seed, hashes, in_dir, os.path.join(run_dir, "pinned"))
    inputs = input_paths(workload, in_dir)

    import numpy
    import scipy

    runner = Runner(workload, out_dir)
    # Warm-up, where lazy imports and caches fill, on the seed-0 inputs so
    # that the accuracy check against the reference holds for every seed.
    runner.run_pass(pinned, reference=True)
    walls, cpus, layer = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds or (args.trace and not layer):
        if args.trace and len(layer) < len(walls):
            layer.append(traced_pass(runner, inputs, tracer, walls[-1]))
            continue
        wall, cpu, cases, crps_sum = runner.run_pass(inputs)
        walls.append(wall)
        cpus.append(cpu)

    wall_s = statistics.median(walls)
    if args.trace:
        metrics = median_dict(layer)
        metrics["synthetic.generate_s"] = statistics.median(s["generate_s"] for s in setups)
        metrics["proc.cpu_s"] = statistics.median(cpus)
    else:
        metrics = {
            "setup_s": statistics.median(s["seconds"] for s in setups),
            "wall_s": wall_s,
            "cases_per_s": cases / wall_s,
            "mean_crps": crps_sum / cases,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - runner.failed / runner.attempted,
        }

    expected = spec_names["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(expected):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {expected}")

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print(
        f"# env nproc={len(os.sched_getaffinity(0))} blas_omp_threads={THREADS} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} commit={commit_id()} src_sha256={source_digest()}"
    )
    print(f"# inputs {json.dumps(hashes, sort_keys=True)}")
    print(f"# wall_s {wall_line(walls)}; error_rate {runner.failed}/{runner.attempted}")
    for error in runner.errors:
        print(f"# failed {error}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {spec[name]['unit']}")
    with open(os.path.join(run_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "walls": walls}, fh, indent=1)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": spec[k]["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
