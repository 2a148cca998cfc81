"""Spans around windemos' public functions, patched in from outside.

The benchmark adds no code to ``src/``.  A `Tracer` replaces each traced
function, in every ``windemos`` module namespace that holds it, by a
wrapper that records a span: its duration, the part of it covered by
child spans (so self time is exact), and whether its parent span lies in
the same layer (so nested calls such as ``predict_switch`` ->
``predict_tn`` count once).  Aggregates are kept in memory per span name;
`layer_metrics` turns one traced pass into the per-layer metrics.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

# (module, function) pairs that get a span; the span is named
# "<module>.<function>" and the module is its layer.
TRACED = (
    ("cli", "main"),
    ("cli", "cmd_calibrate"),
    ("cli", "cmd_grid_search"),
    ("cli", "cmd_verify"),
    ("dataio", "read_dataset"),
    ("synthetic", "generate"),
    ("estimation", "grid_search"),
    ("estimation", "rolling_calibrate"),
    ("estimation", "fit_switch"),
    ("estimation", "fit_min_crps"),
    ("estimation", "fit_gev_ml"),
    ("models", "predict_tn"),
    ("models", "predict_ln"),
    ("models", "predict_gev"),
    ("models", "predict_switch"),
    ("scoring", "crps_values"),
    ("scoring", "twcrps_values"),
    ("scoring", "crps_quad_batch"),
    ("scoring", "crps_empirical"),
    ("verification", "build_report"),
)

FIT_SPANS = ("estimation.fit_min_crps", "estimation.fit_gev_ml")
# The layers a pass runs through; their self times add up to the pass.
LAYERS = ("cli", "dataio", "estimation", "models", "scoring", "verification")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outer_calls: int = 0  # calls whose parent span is in another layer
    outer_s: float = 0.0


@dataclass
class Fit:
    family: str
    seconds: float
    n_evals: int
    converged: bool
    at_boundary: bool


class Tracer:
    """Collects spans for the functions in `TRACED` while installed."""

    def __init__(self, spans=TRACED):
        self.spans = spans
        self.stats = {}
        self.fits = []
        self.counts = Counter()
        self._stack = []  # [layer, child seconds] per open span
        self._patches = []

    def reset(self):
        self.stats = {}
        self.fits = []
        self.counts = Counter()

    def install(self):
        """Patch every windemos module that holds a traced function."""
        owners = [importlib.import_module(f"windemos.{mod}") for mod, _ in self.spans]
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "windemos"]
        for owner, (mod_name, fn_name) in zip(owners, self.spans):
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", mod_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, layer, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = SpanStats()
                st.calls += 1
                st.total_s += seconds
                st.self_s += seconds - frame[1]
                if outer:
                    st.outer_calls += 1
                    st.outer_s += seconds
            self._note(name, args, kwargs, result, seconds)
            return result

        return traced

    def _note(self, name, args, kwargs, result, seconds):
        if name in FIT_SPANS:
            family = "gev"
            if name == "estimation.fit_min_crps":
                family = args[0] if args else kwargs["family"]
            self.fits.append(
                Fit(family, seconds, result.n_evals, result.converged, result.at_boundary)
            )
        elif name == "dataio.read_dataset":
            self.counts["dataio.rows"] += len(result[0]) + result[2]
        elif name in ("scoring.crps_values", "scoring.twcrps_values"):
            self.counts["scoring.cases_scored"] += len(args[0] if args else kwargs["dists"])
        elif name == "scoring.crps_quad_batch":
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.counts["scoring.quad_cases"] += x.size if hasattr(x, "size") else 1
        elif name == "estimation.grid_search":
            self.counts["estimation.grid_search.cells"] += len(result.cells)

    def total(self, name):
        st = self.stats.get(name)
        return st.total_s if st else 0.0

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def _layer(self, layer):
        return [st for n, st in self.stats.items() if n.split(".")[0] == layer]

    def layer_self(self, layer):
        return sum(st.self_s for st in self._layer(layer))

    def layer_outer(self, layer):
        """Calls and seconds of the layer's spans not nested in the same layer."""
        stats = self._layer(layer)
        return sum(st.outer_calls for st in stats), sum(st.outer_s for st in stats)


def layer_metrics(tracer, warning_counts):
    """Per-layer metrics of one traced pass (times in seconds per pass)."""
    t = tracer
    fits = t.fits
    fit_s = sum(f.seconds for f in fits)
    m = {
        "estimation.fits": len(fits),
        "estimation.fit_s": fit_s,
        "estimation.fit_ms_p50": statistics.median(f.seconds for f in fits) * 1e3 if fits else 0.0,
    }
    for family in ("tn", "ln", "gev"):
        own = [f for f in fits if f.family == family]
        evals = sum(f.n_evals for f in own)
        m[f"estimation.fit.{family}.evals_per_fit"] = evals / len(own) if own else 0.0
        m[f"estimation.fit.{family}.eval_us"] = (
            sum(f.seconds for f in own) / evals * 1e6 if evals else 0.0
        )
    rolling_s = t.total("estimation.rolling_calibrate")
    predict_calls, predict_s = t.layer_outer("models")
    read_s = t.total("dataio.read_dataset")
    m.update(
        {
            "estimation.fit.nonconverged": sum(not f.converged for f in fits),
            "estimation.fit.boundary": sum(f.at_boundary for f in fits),
            "estimation.fallbacks": warning_counts.get("TrainingFallbackWarning", 0),
            "estimation.rolling_calibrate_s": rolling_s,
            # Every fit runs inside rolling_calibrate, so this is the window
            # rebuild plus the predict loop.
            "estimation.rolling_calibrate.self_s": rolling_s - fit_s if rolling_s else 0.0,
            "estimation.grid_search_s": t.total("estimation.grid_search"),
            "estimation.grid_search.cells": t.counts["estimation.grid_search.cells"],
            "estimation.self_s": t.layer_self("estimation"),
            "models.predict_calls": predict_calls,
            "models.predict_us": predict_s / predict_calls * 1e6 if predict_calls else 0.0,
            "models.floor_hits": warning_counts.get("DegenerateScaleWarning", 0),
            "models.self_s": t.layer_self("models"),
            "scoring.crps_values_s": t.total("scoring.crps_values"),
            "scoring.twcrps_values_s": t.total("scoring.twcrps_values"),
            "scoring.cases_scored": t.counts["scoring.cases_scored"],
            "scoring.quad_cases": t.counts["scoring.quad_cases"],
            "scoring.quad_s": t.total("scoring.crps_quad_batch"),
            "scoring.crps_empirical.calls": t.calls("scoring.crps_empirical"),
            "scoring.self_s": t.layer_self("scoring"),
            "verification.build_report_s": t.total("verification.build_report"),
            "verification.build_report.self_s": t.layer_self("verification"),
            "dataio.read_s": read_s,
            "dataio.rows_per_s": t.counts["dataio.rows"] / read_s if read_s else 0.0,
            "cli.calibrate_s": t.total("cli.cmd_calibrate"),
            "cli.grid_search_s": t.total("cli.cmd_grid_search"),
            "cli.verify_s": t.total("cli.cmd_verify"),
            "cli.self_s": t.layer_self("cli"),
        }
    )
    return m
