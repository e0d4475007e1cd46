"""The benchmark's traced run (``bench/run.py --trace 1``) hooks the
trainer and the scoring path from outside and fails its self-check when
a span it expects never fires. These tests load its tracer and workload
list as they are and run a small training or report under the hooks."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import calib_lab
from calib_lab import calibrator, metrics
from calib_lab.datagen import SynthConfig, generate
from calib_lab.tensor_math import ROW_BLOCK

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    """bench/tracer.py and bench/workloads.py, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = {}
    for name in ("tracer", "workloads"):  # workloads imports tracer by name
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        loaded[name] = module
    return loaded["tracer"], loaded["workloads"]


def test_traced_train_fires_every_train_span(bench_modules):
    tracing, workloads = bench_modules
    d = generate(SynthConfig(n=200, seed=0))
    tracer = tracing.Tracer()
    with tracer.patched():
        calibrator.train(d, calibrator.TrainConfig(epochs=2, seed=0))
    stats = tracer.pass_stats(None)
    for name in workloads._TRAIN_SPANS:
        assert stats.get(name, {}).get("calls", 0) > 0, f"{name} never fired"
    assert stats["calibrator.train"]["calls"] == 1
    # one CalibratorParams at init and one on return, none per step
    assert stats["calibrator.params_built"]["calls"] == 2
    assert stats["calibrator.grad_params"]["calls"] == 2


def test_traced_scoring_fires_every_metric_span(bench_modules):
    tracing, workloads = bench_modules
    d = generate(SynthConfig(n=200, seed=0))
    tracer = tracing.Tracer()
    with tracer.patched():
        metrics.report(d)
    stats = tracer.pass_stats(None)
    for name in workloads._METRIC_SPANS + ("records.correctness_view", "metrics.report"):
        assert stats.get(name, {}).get("calls", 0) > 0, f"{name} never fired"


def test_traced_score_large_pass_fires_every_expected_span(bench_modules):
    # Two full row blocks and one more row, so every blocked kernel loops; the
    # spans must still fire once per call, not once per block or never.
    tracing, workloads = bench_modules
    d = generate(SynthConfig(n=2 * ROW_BLOCK + 1, n_classes=10, n_transforms=3, seed=0))
    params = calibrator.init_params(10, 3, 4, seed=0)
    tracer = tracing.Tracer()
    with tracer.patched():
        _, confidences = calib_lab.calibrate_dataset(params, d)
        ts = calib_lab.apply_global(d, calib_lab.fit_global_temperature(d))
        for scores in (None, ts, confidences):
            calib_lab.report(d, scores)
    stats = tracer.pass_stats(None)
    for name in workloads.ScoreLarge.expected_spans:
        assert stats.get(name, {}).get("calls", 0) > 0, f"{name} never fired"
    assert stats["calibrator.feature_matrix"]["calls"] == 1
    assert stats["calibrator.forward_batch"]["calls"] == 1
    assert stats["baselines.nll_objective"]["calls"] == 2


def test_workloads_use_only_existing_api():
    """Every ``calib_lab.<name>`` the workloads read exists, and so does every
    attribute of a name they import from the package (``cli.run``), so no
    deletion from the package can break a benchmark run."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    owners = {"calib_lab": calib_lab}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "calib_lab":
            for a in node.names:
                assert hasattr(calib_lab, a.name), f"calib_lab has no {a.name}"
                owners[a.asname or a.name] = getattr(calib_lab, a.name)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners}
    assert [f"{o}.{a}" for o, a in sorted(used) if not hasattr(owners[o], a)] == []
    assert {("calib_lab", "train"), ("cli", "run")} <= used
