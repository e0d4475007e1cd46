"""The three benchmark workloads and their correctness checks.

Each workload drives calib_lab through its public API only and is
split into the same four steps, which ``run.py`` times:

* ``setup()``       build what every pass needs (timed into ``setup_s``)
* ``run_pass(i)``   one timed pass
* ``check_pass(i)`` untimed checks on that pass; returns a digest of its
                    outputs so passes of one seed can be compared byte for byte
* ``finish()``      untimed quality metrics and end-of-run checks

Why each workload exists, and the layer shares measured on it, are in
``bench/README.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import statistics
from pathlib import Path

import numpy as np

import calib_lab
from calib_lab import cli
from tracer import CLI_COMMANDS

# Operations inside a pass that must fire in a traced pass (tracer self-check).
_TRAIN_SPANS = ("calibrator.train", "calibrator.grad_params", "calibrator.batch_loss",
                "calibrator.params_built", "losses.loss_values", "losses.dloss_dtau_batch")
_APPLY_SPANS = ("calibrator.feature_matrix", "calibrator.forward_batch",
                "calibrator.calibrate_dataset")
_TS_SPANS = ("baselines.fit_global_temperature", "baselines.nll_objective",
             "baselines.apply_global")
_METRIC_SPANS = ("metrics.auroc", "metrics.ks_error", "metrics.ece")


class Gate:
    """Named correctness checks. Every operation the benchmark calls and
    every check it makes is one attempt; failed ones are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def fail(self, name: str, detail: str) -> None:
        self.failures.append(f"{name}: {detail}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _check_calibrated(gate: Gate, taus, confidences, tau_min: float) -> None:
    taus = np.asarray(taus)
    confidences = np.asarray(confidences)
    gate.check("tau_finite_above_tau_min",
               bool(np.all(np.isfinite(taus)) and np.all(taus >= tau_min)),
               f"min tau {np.min(taus)!r}, tau_min {tau_min!r}")
    gate.check("confidence_in_unit_interval",
               bool(np.all(confidences > 0) and np.all(confidences <= 1)),
               f"range [{np.min(confidences)!r}, {np.max(confidences)!r}]")


def _check_accuracy(gate: Gate, accuracies: dict) -> None:
    gate.check("accuracy_preserved", len(set(accuracies.values())) == 1, repr(accuracies))


def _check_nll(gate: Gate, d, tau: float) -> float:
    """Mean NLL at the fitted global temperature; it may not exceed tau = 1."""
    nll = gate.call(calib_lab.nll_objective, d, tau)
    nll_one = gate.call(calib_lab.nll_objective, d, 1.0)
    gate.check("global_ts_nll_not_above_tau_1", nll <= nll_one, f"{nll!r} > {nll_one!r}")
    return nll


class CliDesk:
    """The README desk pipeline through ``cli.run`` in-process, on JSONL
    files in a scratch directory inside the checkout."""

    name = "cli_desk"
    expected_spans = (tuple(f"cli.{c}" for c in CLI_COMMANDS)
                      + ("io.load_dataset", "io.save_dataset", "io.export_csv",
                         "records.Dataset", "records.correctness_view", "datagen.generate",
                         "analysis.loss_surface", "metrics.report")
                      + _TRAIN_SPANS + _APPLY_SPANS + _TS_SPANS + _METRIC_SPANS)

    OUTPUTS = ("train.jsonl", "test.jsonl", "params.json", "trace.csv", "applied.csv",
               "uncal.csv", "ts.csv", "ca.csv", "surface.csv")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.last_dir: Path | None = None

    def setup(self):
        return None

    def _commands(self, d: Path):
        s = str(self.seed)

        def p(name):
            return str(d / name)

        return [
            ["synth", "--out", p("train.jsonl"), "--n", "20000", "--classes", "10",
             "--transforms", "3", "--seed", s],
            ["synth", "--out", p("test.jsonl"), "--n", "5000", "--classes", "10",
             "--transforms", "3", "--seed", str(self.seed + 1)],
            ["train", "--data", p("train.jsonl"), "--out", p("params.json"),
             "--trace", p("trace.csv"), "--loss", "ca", "--mode", "sq", "--k", "4",
             "--epochs", "50", "--lr", "0.01", "--batch-size", "256", "--seed", s],
            ["apply", "--data", p("test.jsonl"), "--params", p("params.json"),
             "--out", p("applied.csv")],
            ["eval", "--data", p("test.jsonl"), "--uncalibrated", "--raw", "--out", p("uncal.csv")],
            ["eval", "--data", p("test.jsonl"), "--global-ts", "--raw", "--out", p("ts.csv")],
            ["eval", "--data", p("test.jsonl"), "--params", p("params.json"), "--raw",
             "--out", p("ca.csv")],
            ["surface", "--loss", "ca", "--out", p("surface.csv")],
        ]

    def run_pass(self, pass_id: int, gate: Gate, span) -> None:
        d = self.workdir / f"pass{pass_id}"
        d.mkdir()
        self.returncodes = []
        for argv in self._commands(d):
            with span(f"cli.{argv[0]}"):
                self.returncodes.append((argv[0], gate.call(cli.run, argv)))
        self.last_dir = d

    def _metrics_row(self, name: str) -> dict:
        with open(self.last_dir / name, newline="", encoding="utf-8") as handle:
            (row,) = list(csv.DictReader(handle))
        return row

    def check_pass(self, pass_id: int, gate: Gate) -> str:
        d = self.last_dir
        for cmd, rc in self.returncodes:
            gate.check(f"cli_{cmd}_exit_0", rc == 0, f"exit code {rc}")
        missing = [n for n in self.OUTPUTS if not (d / n).is_file() or (d / n).stat().st_size == 0]
        gate.check("cli_outputs_written", not missing, f"missing {missing}")
        if missing:
            return "incomplete"
        rows = {m: self._metrics_row(f"{m}.csv") for m in ("uncal", "ts", "ca")}
        _check_accuracy(gate, {m: r["accuracy"] for m, r in rows.items()})
        tau_min = json.loads((d / "params.json").read_text())["tau_min"]
        with open(d / "applied.csv", newline="", encoding="utf-8") as handle:
            applied = list(csv.DictReader(handle))
        _check_calibrated(gate, [float(r["tau"]) for r in applied],
                          [float(r["confidence"]) for r in applied], tau_min)
        digest = _digest(*((d / n).read_bytes() for n in self.OUTPUTS))
        self.rows = rows
        # Keep only the newest pass on disk; earlier ones live on as digests.
        for old in self.workdir.glob("pass*"):
            if old != d:
                shutil.rmtree(old)
        return digest

    def finish(self, gate: Gate) -> tuple[dict, dict]:
        test = gate.call(calib_lab.load_dataset, self.last_dir / "test.jsonl")
        g = gate.call(calib_lab.fit_global_temperature, test)
        nll = _check_nll(gate, test, g.tau)
        ca = self.rows["ca"]
        metrics = {"auroc_adaptive": float(ca["auroc"]), "brier_adaptive": float(ca["bs"]),
                   "nll_global_ts": nll}
        detail = {m: {k: float(v) for k, v in r.items() if k not in ("method", "n")}
                  for m, r in self.rows.items()}
        return metrics, detail


class SweepWide:
    """In-memory diagnostics at CIFAR-100 width: generate, then the top-k
    sweep and the train-side wrongness-band experiment."""

    name = "sweep_wide"
    expected_spans = (("datagen.generate", "datagen.craft_wrongness_set", "records.Dataset",
                       "records.correctness_view", "analysis.k_sweep",
                       "analysis.wrongness_experiment")
                      + _TRAIN_SPANS + _APPLY_SPANS + _METRIC_SPANS)

    K_VALUES = (1, 4, 16)
    # The smallest wrongness band of a 10k C=100 training set held 89 wrong
    # records at worst over seeds 0-259 (mean 131), so 100 would run short on
    # some seeds; 50 keeps a wide margin and still gives 5 steps per epoch.
    TRAIN_WRONG = 50
    TRAIN_CORRECT = 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        def synth(n, seed):
            return calib_lab.SynthConfig(n_classes=100, n_transforms=4, n=n, seed=seed)

        self.train_cfg = synth(10_000, self.seed)
        self.test_cfg = synth(5_000, self.seed + 1)
        self.config = calib_lab.TrainConfig(k=4, epochs=50, batch_size=256, seed=self.seed)
        return None

    def run_pass(self, pass_id: int, gate: Gate, span) -> None:
        self.train_set = gate.call(calib_lab.generate, self.train_cfg)
        self.test_set = gate.call(calib_lab.generate, self.test_cfg)
        self.k_rows = gate.call(calib_lab.k_sweep, self.train_set, self.test_set,
                                self.K_VALUES, self.config)
        self.band_rows = gate.call(calib_lab.wrongness_experiment, self.train_set,
                                   self.test_set, self.config, vary="train",
                                   train_wrong=self.TRAIN_WRONG, train_correct=self.TRAIN_CORRECT)

    def check_pass(self, pass_id: int, gate: Gate) -> str:
        gate.check("ksweep_rows", [r.k for r in self.k_rows] == list(self.K_VALUES))
        gate.check("band_rows", len(self.band_rows) == 15 and all(
            r.n == self.test_set.n for r in self.band_rows))
        values = ([v for r in self.k_rows for v in (r.ks, r.auroc, r.ks_uncal, r.auroc_uncal)]
                  + [v for r in self.band_rows for v in (r.ece, r.auroc)])
        gate.check("metrics_in_unit_interval", all(0.0 <= v <= 1.0 for v in values))
        return _digest(self.train_set.logits.tobytes(), self.test_set.transform_probs.tobytes(),
                       self.k_rows, self.band_rows)

    def finish(self, gate: Gate) -> tuple[dict, dict]:
        # The k=4 model trained directly must be the k_sweep k=4 model.
        params, _ = gate.call(calib_lab.train, self.train_set, self.config)
        taus, conf = gate.call(calib_lab.calibrate_dataset, params, self.test_set)
        _check_calibrated(gate, taus, conf, params.tau_min)
        adaptive = gate.call(calib_lab.report, self.test_set, conf)
        (k4,) = [r for r in self.k_rows if r.k == self.config.k]
        gate.check("ksweep_matches_direct_train",
                   (k4.ks, k4.auroc) == (adaptive.ks, adaptive.auroc),
                   f"{(k4.ks, k4.auroc)} != {(adaptive.ks, adaptive.auroc)}")
        g = gate.call(calib_lab.fit_global_temperature, self.test_set)
        ts = gate.call(calib_lab.report, self.test_set,
                       gate.call(calib_lab.apply_global, self.test_set, g))
        uncal = gate.call(calib_lab.report, self.test_set)
        _check_accuracy(gate, {"uncal": uncal.accuracy, "ts": ts.accuracy,
                               "adaptive": adaptive.accuracy})
        nll = _check_nll(gate, self.test_set, g.tau)
        metrics = {"auroc_adaptive": statistics.fmean(r.auroc for r in self.k_rows),
                   "brier_adaptive": adaptive.brier, "nll_global_ts": nll}
        detail = {"ks_adaptive_mean_k_rows": statistics.fmean(r.ks for r in self.k_rows),
                  "ece_adaptive_mean_ca_bands": statistics.fmean(
                      r.ece for r in self.band_rows if r.method == "ca"),
                  "adaptive_k4": adaptive.__dict__, "ts": ts.__dict__, "uncal": uncal.__dict__}
        return metrics, detail


class ScoreLarge:
    """In-memory large-n scoring: a CA calibrator trained at set-up, then
    per pass calibrate_dataset, global TS fit and apply, and three
    reports on 300k records."""

    name = "score_large"
    expected_spans = (("records.correctness_view", "metrics.report")
                      + _APPLY_SPANS + _TS_SPANS + _METRIC_SPANS)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> str:
        self.test_set = self.train_set = self.params = None  # release the previous set-up
        self.test_set = calib_lab.generate(
            calib_lab.SynthConfig(n_classes=10, n_transforms=3, n=300_000, seed=self.seed + 1))
        self.train_set = calib_lab.generate(
            calib_lab.SynthConfig(n_classes=10, n_transforms=3, n=20_000, seed=self.seed))
        self.params, _ = calib_lab.train(self.train_set, calib_lab.TrainConfig(
            k=4, epochs=50, batch_size=256, seed=self.seed))
        p = self.params
        return _digest(p.w1.tobytes(), p.b1.tobytes(), p.w2.tobytes(), p.b2)

    def run_pass(self, pass_id: int, gate: Gate, span) -> None:
        d = self.test_set
        self.taus, self.conf = gate.call(calib_lab.calibrate_dataset, self.params, d)
        self.global_temp = gate.call(calib_lab.fit_global_temperature, d)
        self.conf_ts = gate.call(calib_lab.apply_global, d, self.global_temp)
        self.reports = {"uncal": gate.call(calib_lab.report, d),
                        "ts": gate.call(calib_lab.report, d, self.conf_ts),
                        "adaptive": gate.call(calib_lab.report, d, self.conf)}

    def check_pass(self, pass_id: int, gate: Gate) -> str:
        _check_accuracy(gate, {m: r.accuracy for m, r in self.reports.items()})
        _check_calibrated(gate, self.taus, self.conf, self.params.tau_min)
        gate.check("ts_confidence_in_unit_interval",
                   bool(np.all(self.conf_ts > 0) and np.all(self.conf_ts <= 1)))
        return _digest(self.taus.tobytes(), self.conf.tobytes(), self.conf_ts.tobytes(),
                       self.global_temp.tau, self.reports)

    def finish(self, gate: Gate) -> tuple[dict, dict]:
        nll = _check_nll(gate, self.test_set, self.global_temp.tau)
        adaptive = self.reports["adaptive"]
        metrics = {"auroc_adaptive": adaptive.auroc, "brier_adaptive": adaptive.brier,
                   "nll_global_ts": nll}
        detail = {m: r.__dict__ for m, r in self.reports.items()}
        detail["global_tau"] = self.global_temp.tau
        return metrics, detail


WORKLOADS = {w.name: w for w in (CliDesk, SweepWide, ScoreLarge)}
