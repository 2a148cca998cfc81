"""Write and hash one workload's input files in a fresh process.

    python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR

Prints one JSON line: ``seconds`` from before ``import windemos`` until
every file is hashed, ``generate_s`` (the time in ``synthetic.generate``)
and the SHA-256 of every file written.
"""

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def merge_regions(paths, out):
    """Pool per-region CSVs on shared dates; station ids get a region prefix."""
    rows = []
    for region, path in enumerate(paths, start=1):
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        for line in lines:
            date, station, rest = line.split(",", 2)
            rows.append((date, region, f"{date},R{region:02d}{station},{rest}"))
    rows.sort(key=lambda row: row[:2])
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + [row[2] for row in rows]) + "\n")


def prepare(workload, seed, out_dir):
    """Write the workload's datasets into out_dir; returns {file: sha256}."""
    import contextlib
    import io
    import shutil

    from windemos import cli

    os.makedirs(out_dir, exist_ok=True)
    hashes = {}
    for data in workload.datasets:
        path = os.path.join(out_dir, f"{data.name}.csv")
        parts = [f"{path}.region{k}" for k in range(data.regions)]
        for k, part in enumerate(parts):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(data.simulate_argv(part, seed, k))
            if code != 0:
                raise RuntimeError(f"windemos simulate exited with code {code}")
        merge_regions(parts, path)
        shutil.copyfile(f"{parts[0]}.groups", f"{path}.groups")
        for part in parts:
            os.remove(part)
            os.remove(f"{part}.groups")
        for name in (path, f"{path}.groups"):
            with open(name, "rb") as fh:
                hashes[os.path.basename(name)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def main(argv):
    name, seed, out_dir = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(spans=(("synthetic", "generate"),))
    tracer.install()
    hashes = prepare(WORKLOADS[name], seed, out_dir)
    seconds = time.perf_counter() - _START
    generate_s = tracer.total("synthetic.generate")
    print(json.dumps({"seconds": seconds, "generate_s": generate_s, "hashes": hashes}))


if __name__ == "__main__":
    main(sys.argv[1:])
