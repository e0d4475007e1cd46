"""Outside-in tracing of calib_lab's public functions.

The benchmark never edits the package. For a traced pass it swaps each
function named in ``TARGETS`` for a wrapper that records a span, in
every ``calib_lab`` module that holds a reference to it, so calls made
inside the package are caught too (``analysis.train``,
``calibrator.grad_params``, ``baselines.nll_objective``, ...). Two
class hooks are wrapped on the class itself: ``Dataset.__init__`` and
``CalibratorParams.__post_init__``; the latter counts every parameter
object the trainer builds.

A span holds its name, start, end, parent span, pass id and the number
of records it worked on. Spans stay in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

# (layer metric prefix, module, attribute path, records-of-work function).
# The work function gets (args, kwargs, result); None means "no rate".
TARGETS = (
    ("io.load_dataset", "io", "load_dataset", lambda a, k, r: r.n),
    ("io.save_dataset", "io", "save_dataset", lambda a, k, r: a[1].n),
    *(("io.export_csv", "io", fn, None) for fn in (
        "export_metrics_csv", "export_surface_csv", "export_band_rows_csv", "export_ksweep_csv",
        "export_trace_csv", "export_confidence_csv", "save_params", "load_params")),
    ("records.Dataset", "records", "Dataset.__init__", None),
    ("records.correctness_view", "records", "correctness_view", None),
    ("datagen.generate", "datagen", "generate", None),
    ("datagen.craft_wrongness_set", "datagen", "craft_wrongness_set", None),
    ("calibrator.train", "calibrator", "train", lambda a, k, r: a[0].n * a[1].epochs),
    ("calibrator.grad_params", "calibrator", "grad_params", None),
    ("calibrator.batch_loss", "calibrator", "batch_loss", None),
    ("calibrator.params_built", "calibrator", "CalibratorParams.__post_init__", None),
    ("calibrator.feature_matrix", "calibrator", "feature_matrix", None),
    ("calibrator.forward_batch", "calibrator", "forward_batch", None),
    ("calibrator.calibrate_dataset", "calibrator", "calibrate_dataset", lambda a, k, r: a[1].n),
    ("losses.loss_values", "losses", "loss_values", None),
    ("losses.dloss_dtau_batch", "losses", "dloss_dtau_batch", None),
    ("baselines.fit_global_temperature", "baselines", "fit_global_temperature", None),
    ("baselines.nll_objective", "baselines", "nll_objective", None),
    ("baselines.apply_global", "baselines", "apply_global", None),
    ("metrics.report", "metrics", "report", None),
    ("metrics.auroc", "metrics", "auroc", lambda a, k, r: len(a[0])),
    ("metrics.ks_error", "metrics", "ks_error", None),
    ("metrics.ece", "metrics", "ece", None),
    ("analysis.k_sweep", "analysis", "k_sweep", None),
    ("analysis.wrongness_experiment", "analysis", "wrongness_experiment", None),
    ("analysis.loss_surface", "analysis", "loss_surface", None),
)

CLI_COMMANDS = ("synth", "train", "apply", "eval", "surface")

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# Each maps to (span name, statistic).
LAYER_METRICS = {
    **{f"cli.{c}.s": (f"cli.{c}", "s") for c in CLI_COMMANDS},
    "io.load_dataset.s": ("io.load_dataset", "s"),
    "io.load_dataset.records_per_s": ("io.load_dataset", "records_per_s"),
    "io.load_dataset.calls": ("io.load_dataset", "calls"),
    "io.save_dataset.s": ("io.save_dataset", "s"),
    "io.save_dataset.records_per_s": ("io.save_dataset", "records_per_s"),
    "io.export_csv.s": ("io.export_csv", "s"),
    "records.Dataset.s": ("records.Dataset", "s"),
    "records.Dataset.calls": ("records.Dataset", "calls"),
    "records.correctness_view.s": ("records.correctness_view", "s"),
    "datagen.generate.s": ("datagen.generate", "s"),
    "datagen.craft_wrongness_set.s": ("datagen.craft_wrongness_set", "s"),
    "calibrator.train.s": ("calibrator.train", "s"),
    "calibrator.train.self_s": ("calibrator.train", "self_s"),
    "calibrator.train.calls": ("calibrator.train", "calls"),
    "calibrator.train.sample_epochs_per_s": ("calibrator.train", "records_per_s"),
    "calibrator.grad_params.s": ("calibrator.grad_params", "s"),
    "calibrator.grad_params.calls": ("calibrator.grad_params", "calls"),
    "calibrator.batch_loss.s": ("calibrator.batch_loss", "s"),
    "calibrator.params_built": ("calibrator.params_built", "calls"),
    "calibrator.params_per_step": None,  # params_built / grad_params.calls
    "calibrator.feature_matrix.s": ("calibrator.feature_matrix", "s"),
    "calibrator.forward_batch.s": ("calibrator.forward_batch", "s"),
    "calibrator.calibrate_dataset.s": ("calibrator.calibrate_dataset", "s"),
    "calibrator.calibrate_dataset.records_per_s": ("calibrator.calibrate_dataset",
                                                   "records_per_s"),
    "losses.loss_values.s": ("losses.loss_values", "s"),
    "losses.dloss_dtau_batch.s": ("losses.dloss_dtau_batch", "s"),
    "baselines.fit_global_temperature.s": ("baselines.fit_global_temperature", "s"),
    "baselines.nll_objective.calls": ("baselines.nll_objective", "calls"),
    "baselines.apply_global.s": ("baselines.apply_global", "s"),
    "metrics.report.s": ("metrics.report", "s"),
    "metrics.auroc.s": ("metrics.auroc", "s"),
    "metrics.auroc.records_per_s": ("metrics.auroc", "records_per_s"),
    "metrics.ks_error.s": ("metrics.ks_error", "s"),
    "metrics.ece.s": ("metrics.ece", "s"),
    "analysis.k_sweep.s": ("analysis.k_sweep", "s"),
    "analysis.wrongness_experiment.s": ("analysis.wrongness_experiment", "s"),
    "analysis.loss_surface.s": ("analysis.loss_surface", "s"),
    "trace.overhead_s": None,  # traced wall_s minus untraced wall_s
}

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("baselines.nll_objective.calls", "calibrator.params_built",
                "calibrator.grad_params.calls", "io.load_dataset.calls")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; a span already open under the same name is not
        nested again, so recursion and aliasing cannot double-count."""
        if any(s["name"] == name for s in self._stack):
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "pass": self.pass_id, "start": time.perf_counter(), "end": None, "work": 0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if rec is not None and work is not None:
                    rec["work"] = work(args, kwargs, result)
                return result
        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        package = sys.modules["calib_lab"]
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "calib_lab" or key.startswith("calib_lab."))]
        undo = []
        try:
            for name, module_name, path, work in TARGETS:
                module = getattr(package, module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    holders = [getattr(module, cls_name)]
                    original = getattr(holders[0], attr)
                else:
                    attr = path
                    original = getattr(module, attr)
                    holders = [m for m in modules if getattr(m, attr, None) is original]
                wrapper = self._wrap(name, original, work)
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def pass_stats(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds, self seconds, calls and records/s
        over the spans of one pass."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        stats: dict[str, dict[str, float]] = {}
        for s in spans:
            dur = s["end"] - s["start"]
            st = stats.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
            st["s"] += dur
            st["self_s"] += dur - child_time.get(s["id"], 0.0)
            st["calls"] += 1
            st["work"] += s["work"]
        for st in stats.values():
            st["records_per_s"] = st["work"] / st["s"] if st["s"] > 0 else 0.0
        return stats


def layer_metrics(tracer: Tracer, pass_ids, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, as the median over the traced passes."""
    per_pass = [tracer.pass_stats(p) for p in pass_ids]
    out: dict[str, float] = {}
    for metric, source in LAYER_METRICS.items():
        if source is None:
            continue
        span_name, stat = source
        out[metric] = statistics.median(st.get(span_name, {}).get(stat, 0) for st in per_pass)
    steps = out["calibrator.grad_params.calls"]
    out["calibrator.params_per_step"] = out["calibrator.params_built"] / steps if steps else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
