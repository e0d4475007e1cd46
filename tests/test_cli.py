import csv
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from calib_lab import analysis, calibrator, datagen
from calib_lab.analysis import wrongness_experiment
from calib_lab.calibrator import (TrainConfig, calibrate_dataset, constant_temperature_params,
                                  train)
from calib_lab.cli import build_parser, run
from calib_lab.datagen import SynthConfig, generate
from calib_lab.io import load_dataset, save_dataset, save_params
from calib_lab.losses import DiscrepancyMode, LossKind
from calib_lab.metrics import brier_top_label, ece, ks_error
from calib_lab.records import correctness_view

SRC = Path(__file__).resolve().parents[1] / "src"

# Frozen raw metrics from the first recorded run of the pipeline
# synth(n=2000, seed=0) -> train(ca, 10 epochs, seed 0) -> eval.
PIPELINE_FROZEN = {
    "ece": 0.056761568971876654,
    "bs": 0.1612518592352247,
    "ks": 0.05028265827746137,
    "auroc": 0.8021367147007723,
    "accuracy": 0.711,
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def synth(tmp_path, name, n=600, seed=0, extra=()):
    path = tmp_path / name
    assert run(["synth", "--out", str(path), "--n", str(n), "--seed", str(seed), *extra]) == 0
    return path


def test_synth_is_byte_deterministic(tmp_path):
    a = synth(tmp_path, "a.jsonl", seed=3)
    b = synth(tmp_path, "b.jsonl", seed=3)
    c = synth(tmp_path, "c.jsonl", seed=4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_eval_uncalibrated_matches_identity_params(tmp_path):
    data = synth(tmp_path, "d.jsonl")
    params_path = tmp_path / "identity.json"
    save_params(params_path, constant_temperature_params(1.0, 10, 3, 4))
    out_a, out_b = tmp_path / "uncal.csv", tmp_path / "ident.csv"
    assert run(["eval", "--data", str(data), "--uncalibrated", "--out", str(out_a),
                "--raw"]) == 0
    assert run(["eval", "--data", str(data), "--params", str(params_path), "--out",
                str(out_b), "--raw"]) == 0
    row_a, row_b = read_csv(out_a)[0], read_csv(out_b)[0]
    for key in ("ece", "bs", "ks", "auroc", "accuracy", "n"):
        assert row_a[key] == row_b[key]


def test_pipeline_reproduces_frozen_metrics(tmp_path):
    data = synth(tmp_path, "d.jsonl", n=2000, seed=0)
    params = tmp_path / "p.json"
    out = tmp_path / "e.csv"
    assert run(["train", "--data", str(data), "--out", str(params),
                "--epochs", "10", "--seed", "0"]) == 0
    assert run(["eval", "--data", str(data), "--params", str(params), "--out", str(out),
                "--raw"]) == 0
    row = read_csv(out)[0]
    for key, frozen in PIPELINE_FROZEN.items():
        assert float(row[key]) == pytest.approx(frozen, rel=1e-9)
    assert row["method"] == "adaptive" and row["n"] == "2000"


def test_train_writes_trace(tmp_path):
    data = synth(tmp_path, "d.jsonl", n=300)
    params, trace = tmp_path / "p.json", tmp_path / "t.csv"
    assert run(["train", "--data", str(data), "--out", str(params), "--trace", str(trace),
                "--epochs", "3"]) == 0
    rows = read_csv(trace)
    assert [r["epoch"] for r in rows] == ["0", "1", "2", "3"]
    assert all(float(r["loss"]) > 0 for r in rows)
    # Without --trace the per-epoch losses are skipped, and the params do not change.
    untraced = tmp_path / "q.json"
    assert run(["train", "--data", str(data), "--out", str(untraced), "--epochs", "3"]) == 0
    assert untraced.read_bytes() == params.read_bytes()


def test_apply_emits_per_record_rows(tmp_path):
    data = synth(tmp_path, "d.jsonl", n=120)
    params = tmp_path / "p.json"
    out = tmp_path / "applied.csv"
    assert run(["train", "--data", str(data), "--out", str(params), "--epochs", "2"]) == 0
    assert run(["apply", "--data", str(data), "--params", str(params),
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 120
    assert set(rows[0]) == {"record_id", "label", "predicted", "correct", "tau", "confidence"}
    assert all(float(r["tau"]) > 0 for r in rows)


def test_train_two_hidden_then_apply_matches_the_library(tmp_path):
    data = synth(tmp_path, "d.jsonl", n=300)
    params, out = tmp_path / "p.json", tmp_path / "applied.csv"
    assert run(["train", "--data", str(data), "--out", str(params), "--epochs", "3",
                "--two-hidden"]) == 0
    assert {"W1b", "b1b"} <= set(json.loads(params.read_text()))
    assert run(["apply", "--data", str(data), "--params", str(params),
                "--out", str(out)]) == 0
    d = load_dataset(data)
    taus, conf = calibrate_dataset(train(d, TrainConfig(epochs=3, two_hidden=True))[0], d)
    rows = read_csv(out)
    assert [r["tau"] for r in rows] == [repr(float(t)) for t in taus]
    assert [r["confidence"] for r in rows] == [repr(float(c)) for c in conf]


def test_apply_scores_a_record_alone_as_in_its_file(tmp_path):
    train_data, data = synth(tmp_path, "t.jsonl", n=300), synth(tmp_path, "d.jsonl", n=40, seed=1)
    params = tmp_path / "p.json"
    assert run(["train", "--data", str(train_data), "--out", str(params), "--epochs", "3"]) == 0
    assert run(["apply", "--data", str(data), "--params", str(params),
                "--out", str(tmp_path / "all.csv")]) == 0
    for i, (line, row) in enumerate(zip(data.read_text().splitlines(keepends=True),
                                        read_csv(tmp_path / "all.csv"))):
        one, out = tmp_path / f"one{i}.jsonl", tmp_path / f"one{i}.csv"
        one.write_text(line)
        assert run(["apply", "--data", str(one), "--params", str(params), "--out", str(out)]) == 0
        (alone,) = read_csv(out)
        assert (alone["tau"], alone["confidence"]) == (row["tau"], row["confidence"])


def test_python_m_calib_lab_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "x.jsonl"

    def module(*args):
        return subprocess.run([sys.executable, "-m", "calib_lab", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = module("synth", "--out", str(out), "--n", "5")
    assert done.returncode == 0, done.stderr
    assert len(out.read_text().splitlines()) == 5
    failed = module("synth", "--out", str(tmp_path / "y.jsonl"), "--bogus")
    assert failed.returncode == 2 and "--bogus" in failed.stderr
    assert not (tmp_path / "y.jsonl").exists()


def test_eval_global_ts(tmp_path):
    data = synth(tmp_path, "d.jsonl")
    out = tmp_path / "ts.csv"
    assert run(["eval", "--data", str(data), "--global-ts", "--out", str(out)]) == 0
    assert read_csv(out)[0]["method"] == "ts"


def test_surface_subcommand(tmp_path):
    out = tmp_path / "surface.csv"
    assert run(["surface", "--loss", "mse", "--out", str(out), "--tau-points", "20",
                "--a-min", "-1.0", "--a-max", "1.0", "--a-step", "0.5"]) == 0
    rows = read_csv(out)
    assert len(rows) == 5 * 20
    assert rows[0]["loss_kind"] == "mse"


@pytest.mark.parametrize("flags,message", [
    (["--a-step", "0"], "--a-step must be finite and > 0"),
    (["--a-step", "nan"], "--a-step must be finite and > 0"),
    (["--tau-points", "0"], "at least one a value and one tau value"),
])
def test_surface_rejects_an_empty_or_undefined_grid(tmp_path, capsys, flags, message):
    out = tmp_path / "surface.csv"
    assert run(["surface", "--loss", "mse", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_tau_min_above_its_bound(tmp_path, capsys):
    # tau_min = 1e300 once trained, exit 0, a model that never moved.
    data = synth(tmp_path, "d.jsonl", n=100)
    out = tmp_path / "params.json"
    assert run(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                "--tau-min", "1e300"]) == 2
    assert "tau_min must be finite and > 0 and <= 1e+100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau_min", ["inf", "nan", "0"])
def test_train_rejects_a_tau_min_that_is_not_finite_and_positive(tmp_path, capsys, tau_min):
    data = synth(tmp_path, "d.jsonl", n=100)
    out = tmp_path / "params.json"
    assert run(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                "--tau-min", tau_min]) == 2
    assert "tau_min must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_wrongness_subcommand(tmp_path):
    train_data = synth(tmp_path, "tr.jsonl", n=3000, seed=1,
                       extra=("--wrongness-skew", "0.5"))
    test_data = synth(tmp_path, "te.jsonl", n=4000, seed=2,
                      extra=("--wrongness-skew", "0.5"))
    out = tmp_path / "w.csv"
    assert run(["wrongness", "--train-data", str(train_data), "--test-data", str(test_data),
                "--out", str(out), "--bands", "0.5:1.0", "--count", "80",
                "--epochs", "5"]) == 0
    rows = read_csv(out)
    assert [r["method"] for r in rows] == ["uncal", "ce", "ca"]


@pytest.mark.parametrize("bands", ["0.5", "0.5:0.6,0.7"])
def test_wrongness_refuses_a_band_that_is_not_a_pair(tmp_path, capsys, bands):
    data = synth(tmp_path, "d.jsonl", n=50)
    out = tmp_path / "w.csv"
    assert run(["wrongness", "--train-data", str(data), "--test-data", str(data),
                "--out", str(out), "--bands", bands]) == 2
    assert "bands" in capsys.readouterr().err
    assert not out.exists()


def test_readme_wrongness_line_runs_with_its_defaults(tmp_path):
    # The README's desk data; its sparsest band, [0.8, 1.0), holds 79 wrong
    # records of the test set and 257 of the training set.
    train_data = synth(tmp_path, "train.jsonl", n=20000, seed=0)
    test_data = synth(tmp_path, "test.jsonl", n=5000, seed=1)
    out = tmp_path / "bands.csv"
    base = ["wrongness", "--train-data", str(train_data), "--test-data", str(test_data),
            "--out", str(out)]
    # The README line as written, then the training-side variant, whose
    # --train-wrong default is what it exercises (one epoch is enough).
    for argv in (base, base + ["--vary", "train", "--epochs", "1"]):
        assert run(argv) == 0
        rows = read_csv(out)
        assert len(rows) == 15 and {r["method"] for r in rows} == {"uncal", "ce", "ca"}


def test_ksweep_subcommand(tmp_path):
    train_data = synth(tmp_path, "tr.jsonl", n=1500, seed=1)
    test_data = synth(tmp_path, "te.jsonl", n=800, seed=2)
    out = tmp_path / "k.csv"
    assert run(["ksweep", "--train-data", str(train_data), "--test-data", str(test_data),
                "--out", str(out), "--k-values", "1,4", "--epochs", "4"]) == 0
    assert [r["k"] for r in read_csv(out)] == ["1", "4"]


def test_unknown_flag_fails(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path / "x.jsonl"), "--bogus"]) != 0
    assert capsys.readouterr().err != ""


def test_missing_file_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["eval", "--data", str(tmp_path / "nope.jsonl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and err.count("\n") == 1
    assert not out.exists()  # no partial output


def test_failed_run_leaves_no_partial_output(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"label": 0, "logits": [1.0, 0.0], "transforms": [[0.9, 0.9]]}\n')
    out = tmp_path / "out.csv"
    assert run(["eval", "--data", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]


def test_eval_is_idempotent(tmp_path):
    data = synth(tmp_path, "d.jsonl")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["eval", "--data", str(data), "--out", str(out_a)]) == 0
    assert run(["eval", "--data", str(data), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()



def test_outputs_respect_umask(tmp_path):
    old = os.umask(0o022)
    try:
        path = synth(tmp_path, "d.jsonl", n=10)
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("raw", [True, False])
def test_eval_of_a_wrong_only_set_leaves_auroc_empty(tmp_path, raw):
    d = generate(SynthConfig(n=2000, seed=3))
    wrong = d.subset(np.flatnonzero(~correctness_view(d).correct)[:50])
    data, out = tmp_path / "wrong50.jsonl", tmp_path / "wrong50.csv"
    save_dataset(data, wrong)
    assert run(["eval", "--data", str(data), "--uncalibrated", "--out", str(out),
                *(["--raw"] if raw else [])]) == 0
    (row,) = read_csv(out)
    assert row["auroc"] == "" and row["n"] == "50"
    view = correctness_view(wrong)
    expected = {"ece": ece(view.confidence, view.correct),
                "bs": brier_top_label(view.confidence, view.correct),
                "ks": ks_error(view.confidence, view.correct), "accuracy": 0.0}
    for key, value in expected.items():
        assert row[key] == (repr(value) if raw else f"{100.0 * value:.2f}")


# Every config field and experiment argument set to a value other than its default.
SYNTH_FLAGS = ["--n", "7", "--classes", "3", "--transforms", "2", "--target-rho", "0.5",
               "--sharpness", "2.5", "--p-agree-correct", "0.8", "--p-agree-wrong", "0.4",
               "--noise", "0.5", "--concentration", "10", "--wrongness-skew", "2", "--seed", "9"]
SYNTH_GIVEN = SynthConfig(n=7, n_classes=3, n_transforms=2, target_rho=0.5, sharpness=2.5,
                          p_agree_correct=0.8, p_agree_wrong=0.4, noise=0.5, concentration=10.0,
                          wrongness_skew=2.0, seed=9)
TRAIN_FLAGS = ["--loss", "ce", "--mode", "l1", "--k", "3", "--epochs", "2", "--batch-size", "7",
               "--lr", "0.5", "--seed", "9", "--tau-min", "0.2", "--two-hidden"]
TRAIN_GIVEN = TrainConfig(loss=LossKind.CE, mode=DiscrepancyMode.L1, k=3, epochs=2, batch_size=7,
                          learning_rate=0.5, seed=9, tau_min=0.2, two_hidden=True)
EXPERIMENT_FLAGS = ["--bands", "0.5:1.0,0.0:0.2", "--count", "7", "--vary", "train",
                    "--train-wrong", "3", "--train-correct", "4"]
EXPERIMENT_GIVEN = {"bands": [[0.5, 1.0], [0.0, 0.2]], "count": 7, "vary": "train",
                    "train_wrong": 3, "train_correct": 4}


def test_every_config_field_has_a_flag_parsed_to_its_name(capsys):
    for config in (SYNTH_GIVEN, TRAIN_GIVEN):
        assert all(getattr(config, f.name) != f.default for f in fields(config))
    signature = inspect.signature(wrongness_experiment).parameters
    assert all(signature[name].default != value for name, value in EXPERIMENT_GIVEN.items())
    pair = ["--train-data", "a", "--test-data", "b", "--out", "c"]
    parser = build_parser()
    for argv, config, extra in (
            (["synth", "--out", "c", *SYNTH_FLAGS], SYNTH_GIVEN, {}),
            (["train", "--data", "a", "--out", "c", *TRAIN_FLAGS], TRAIN_GIVEN, {}),
            (["wrongness", *pair, *TRAIN_FLAGS, *EXPERIMENT_FLAGS], TRAIN_GIVEN, EXPERIMENT_GIVEN),
            (["ksweep", *pair, *TRAIN_FLAGS], TRAIN_GIVEN, {})):
        args = vars(parser.parse_args(argv))
        assert {name: args[name] for name in asdict(config)} == asdict(config)
        assert {name: args[name] for name in extra} == extra
    # The loss and mode parse to their enums, and the help still lists their values.
    assert run(["train", "--help"]) == 0
    assert "--loss {ca,ce,mse}" in capsys.readouterr().out
    assert run(["surface", "--help"]) == 0
    assert "--mode {l1,sq}" in capsys.readouterr().out


def test_omitted_flags_take_the_library_defaults(tmp_path, monkeypatch):
    data = synth(tmp_path, "d.jsonl", n=50)
    d = load_dataset(data)
    calls = {}

    def stub(module, name, result):
        def record(*args, **kwargs):
            calls[name] = args, kwargs
            return result
        monkeypatch.setattr(module, name, record)

    stub(datagen, "generate", d)
    stub(calibrator, "train", train(d, TrainConfig(epochs=1)))
    stub(analysis, "wrongness_experiment", [])
    stub(analysis, "k_sweep", [])
    out = str(tmp_path / "out")
    pair = ["--train-data", str(data), "--test-data", str(data), "--out", out]
    for argv in (["synth", "--out", out], ["train", "--data", str(data), "--out", out],
                 ["wrongness", *pair], ["ksweep", *pair]):
        assert run(argv) == 0
    assert calls["generate"] == ((SynthConfig(),), {})
    assert calls["train"][1:] == ({"trace": False},) and calls["train"][0][1] == TrainConfig()
    # No experiment argument is passed, so wrongness_experiment's own defaults apply.
    assert calls["wrongness_experiment"][0][2:] == (TrainConfig(),)
    assert calls["wrongness_experiment"][1] == {}
    assert calls["k_sweep"][0][3] == TrainConfig()
