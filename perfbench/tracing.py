"""Module-boundary spans around calibench's public functions.

:meth:`Tracer.install` replaces the public functions named in
``SPAN_METRICS`` with wrappers, in every calibench module that binds them,
so a call from ``harness`` into ``models.fit_forest`` (or from ``metrics``
into ``stats.chi2_cdf``) opens a span.  Nothing under ``src/`` changes:
:meth:`Tracer.uninstall` puts the original function objects back.  Spans
are kept in memory and written out once, when the run ends.

A span marks a call into a module from outside it: a call between two
functions of one module opens no span, except in ``harness``, whose
aggregation, persistence and bootstrap phases are timed on their own.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (per-layer metric its self time adds to, call-count metric)
SPAN_METRICS = {
    "cli.main": ("cli.self_ms", None),
    "harness.config_from_json": ("harness.self_ms", None),
    "harness.run_repeated_cv": ("harness.self_ms", None),
    "harness.run_enhanced_calibration": ("harness.self_ms", None),
    "harness.aggregate_records": ("harness.aggregate_ms", None),
    "harness.save_results": ("harness.save_ms", None),
    "harness.bootstrap_metric_ci": ("harness.bootstrap_ms", None),
    "datasets.generate_synthetic": ("datasets.ms", "datasets.calls"),
    "datasets.load_csv": ("datasets.ms", "datasets.calls"),
    "datasets.load_score_csv": ("datasets.ms", "datasets.calls"),
    "datasets.make_fold_plan": ("datasets.ms", "datasets.calls"),
    "datasets.select_features": ("datasets.ms", "datasets.calls"),
    "datasets.stratified_split": ("datasets.ms", "datasets.calls"),
    "datasets.subset": ("datasets.ms", "datasets.calls"),
    "models.fit_logistic": ("models.fit_ms", "models.fit_calls"),
    "models.fit_forest": ("models.fit_ms", "models.fit_calls"),
    "models.score_dataset": ("models.score_ms", None),
    "calibrators.fit_platt": ("calibrators.platt_ms", None),
    "calibrators.fit_isotonic": ("calibrators.isotonic_ms", None),
    "calibrators.apply_map": ("calibrators.apply_ms", None),
    "metrics.metric_report": ("metrics.report_ms", "metrics.report_calls"),
    "metrics.ece": ("metrics.ece_ms", "metrics.ece_calls"),
    "stats.mean_ci": ("stats.ms", "stats.calls"),
    "stats.paired_t_test": ("stats.ms", "stats.calls"),
    "stats.shapiro_wilk": ("stats.ms", "stats.calls"),
    "stats.chi2_cdf": ("stats.ms", "stats.calls"),
}

# every per-layer metric, in the order the traced run prints them
PER_LAYER = (
    "models.fit_ms",
    "models.fit_calls",
    "models.forest_nodes",
    "models.logistic_iters",
    "models.score_ms",
    "models.rows_scored",
    "calibrators.platt_ms",
    "calibrators.platt_iters",
    "calibrators.isotonic_ms",
    "calibrators.isotonic_knots",
    "calibrators.fit_points",
    "calibrators.apply_ms",
    "calibrators.points_mapped",
    "metrics.report_ms",
    "metrics.report_calls",
    "metrics.points_scored",
    "metrics.ece_ms",
    "metrics.ece_calls",
    "stats.ms",
    "stats.calls",
    "datasets.ms",
    "datasets.calls",
    "datasets.csv_rows",
    "harness.self_ms",
    "harness.aggregate_ms",
    "harness.save_ms",
    "harness.bootstrap_ms",
    "cli.self_ms",
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _platt_counts(args, kwargs, result, max_iter_default):
    data = _arg(args, kwargs, 0, "data")
    if result is None:  # the fit raised after running to its iteration cap
        iterations = args[3] if len(args) > 3 else kwargs.get("max_iter", max_iter_default)
    else:
        iterations = result.iterations_used
    return {"calibrators.platt_iters": iterations, "calibrators.fit_points": data.n}


# span name -> counts one call adds, read from the call's arguments and the
# value it returned; only fit_platt is also counted when it raises
COUNTERS = {
    "datasets.load_csv": lambda a, k, r: {"datasets.csv_rows": r.n},
    "datasets.load_score_csv": lambda a, k, r: {"datasets.csv_rows": r.n},
    "models.fit_logistic": lambda a, k, r: {"models.logistic_iters": r.iterations_used},
    "models.fit_forest": lambda a, k, r: {
        "models.forest_nodes": sum(tree.feature.size for tree in r.trees)
    },
    "models.score_dataset": lambda a, k, r: {"models.rows_scored": r.n},
    "calibrators.fit_isotonic": lambda a, k, r: {
        "calibrators.isotonic_knots": r.knots.size,
        "calibrators.fit_points": _arg(a, k, 0, "data").n,
    },
    "calibrators.apply_map": lambda a, k, r: {
        "calibrators.points_mapped": np.size(_arg(a, k, 1, "score"))
    },
    "metrics.metric_report": lambda a, k, r: {"metrics.points_scored": r.n},
}


class Tracer:
    """Records one span per call into a calibench module, per unit."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, unit id]
        self.counts = defaultdict(float)
        self.units = 0
        self._open = []  # indices of the open spans, innermost last
        self._unit = None
        self._patches = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "calibench"]
        for name in SPAN_METRICS:
            layer, func = name.split(".")
            if layer == "cli":
                continue  # the root span is opened by run_unit
            original = getattr(sys.modules[f"calibench.{layer}"], func)
            wrapper = self._wrap(name, layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, layer, original):
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        nests = layer == "harness"
        counter = COUNTERS.get(name)
        on_raise = None
        if name == "calibrators.fit_platt":
            cap = inspect.signature(original).parameters["max_iter"].default
            counter = on_raise = lambda a, k, r: _platt_counts(a, k, r, cap)

        def wrapper(*args, **kwargs):
            if open_spans and spans[open_spans[-1]][1] == layer and not nests:
                return original(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, open_spans[-1] if open_spans else -1, self._unit]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                open_spans.pop()
                if on_raise is not None:
                    for key, value in on_raise(args, kwargs, None).items():
                        counts[key] += value
                raise
            span[3] = clock()
            open_spans.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def run_unit(self, unit_id, main, argv):
        """Call ``main(argv)`` under a root ``cli.main`` span."""
        self._unit = unit_id
        self.units += 1
        span = ["cli.main", "cli", 0.0, 0.0, -1, unit_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return main(argv)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()
            self._unit = None

    def per_layer(self) -> dict:
        """Per-layer metrics per traced unit: self times in ms, and counts."""
        totals = defaultdict(float, self.counts)
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, layer, start, end, parent, unit), inner in zip(self.spans, child_time):
            time_metric, call_metric = SPAN_METRICS[name]
            totals[time_metric] += 1000.0 * (end - start - inner)
            if call_metric is not None:
                totals[call_metric] += 1
        units = max(self.units, 1)
        return {metric: float(totals[metric]) / units for metric in PER_LAYER}

    def write(self, path, origin: float) -> None:
        with open(path, "w") as handle:
            for name, layer, start, end, parent, unit in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "unit": unit,
                }) + "\n")
