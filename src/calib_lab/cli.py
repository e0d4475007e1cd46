"""Batch command-line front end.

Subcommands wire together the library modules:

* ``synth``     draw a synthetic dataset and write it as JSONL
* ``train``     fit a calibrator on a dataset, write params (+ trace CSV)
* ``apply``     per-record temperature/confidence CSV for a params file
* ``eval``      metrics CSV for a dataset (uncalibrated, global TS, or params)
* ``surface``   loss-surface grid CSV
* ``wrongness`` wrongness-band experiment CSV
* ``ksweep``    top-k sweep CSV

All writes are atomic; failed runs leave no partial outputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, baselines, calibrator, datagen, io, metrics
from .errors import CalibrationError
from .losses import DiscrepancyMode, LossKind
from .records import correctness_view
from .tensor_math import check_real


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loss", choices=[k.value for k in LossKind], default="ca")
    parser.add_argument("--mode", choices=[m.value for m in DiscrepancyMode], default="sq")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--lr", type=float, default=1e-2)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tau-min", type=float, default=calibrator.DEFAULT_TAU_MIN)
    parser.add_argument("--two-hidden", action="store_true",
                        help="use two 5-node hidden layers instead of one")


def _train_config(args) -> calibrator.TrainConfig:
    return calibrator.TrainConfig(
        loss=LossKind(args.loss), mode=DiscrepancyMode(args.mode), k=args.k,
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        seed=args.seed, tau_min=args.tau_min, two_hidden=args.two_hidden)


def _cmd_synth(args) -> int:
    cfg = datagen.SynthConfig(
        n_classes=args.classes, n_transforms=args.transforms, n=args.n,
        target_rho=args.target_rho, sharpness=args.sharpness,
        p_agree_correct=args.p_agree_correct, p_agree_wrong=args.p_agree_wrong,
        noise=args.noise, concentration=args.concentration,
        wrongness_skew=args.wrongness_skew, seed=args.seed)
    io.save_dataset(args.out, datagen.generate(cfg))
    return 0


def _cmd_train(args) -> int:
    d = io.load_dataset(args.data)
    params, trace = calibrator.train(d, _train_config(args), trace=bool(args.trace))
    io.save_params(args.out, params)
    if args.trace:
        io.export_trace_csv(args.trace, trace)
    return 0


def _cmd_apply(args) -> int:
    d = io.load_dataset(args.data)
    params = io.load_params(args.params)
    taus, confidences = calibrator.calibrate_dataset(params, d)
    view = correctness_view(d)
    io.export_confidence_csv(args.out, d.record_ids, d.labels, view.predicted,
                             view.correct, taus, confidences)
    return 0


def _cmd_eval(args) -> int:
    d = io.load_dataset(args.data)
    if args.params:
        params = io.load_params(args.params)
        _, confidences = calibrator.calibrate_dataset(params, d)
        method = args.label or "adaptive"
    elif args.global_ts:
        t = baselines.fit_global_temperature(d)
        confidences = baselines.apply_global(d, t)
        method = args.label or "ts"
    else:
        confidences = None
        method = args.label or "uncal"
    rep = metrics.report(d, confidences, bins=args.bins)
    io.export_metrics_csv(args.out, [(method, rep)], raw=args.raw)
    return 0


def _cmd_surface(args) -> int:
    check_real(args.a_step, "--a-step", 0.0)
    a_values = np.linspace(args.a_min, args.a_max,
                           int(round((args.a_max - args.a_min) / args.a_step)) + 1)
    tau_values = np.geomspace(args.tau_lo, args.tau_hi, args.tau_points)
    grid = analysis.loss_surface(LossKind(args.loss), a_values, tau_values,
                                 DiscrepancyMode(args.mode))
    io.export_surface_csv(args.out, grid)
    return 0


def _cmd_wrongness(args) -> int:
    train_set = io.load_dataset(args.train_data)
    test_set = io.load_dataset(args.test_data)
    bands = [[float(v) for v in part.split(":")] for part in args.bands.split(",")]
    rows = analysis.wrongness_experiment(
        train_set, test_set, _train_config(args), bands=bands, count=args.count,
        vary=args.vary, train_wrong=args.train_wrong, train_correct=args.train_correct)
    io.export_band_rows_csv(args.out, rows)
    return 0


def _cmd_ksweep(args) -> int:
    train_set = io.load_dataset(args.train_data)
    test_set = io.load_dataset(args.test_data)
    k_values = [int(part) for part in args.k_values.split(",")]
    rows = analysis.k_sweep(train_set, test_set, k_values, _train_config(args))
    io.export_ksweep_csv(args.out, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calib-lab",
                                     description="Post-hoc confidence calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--transforms", type=int, default=3)
    p.add_argument("--target-rho", type=float, default=0.7)
    p.add_argument("--sharpness", type=float, default=5.0)
    p.add_argument("--p-agree-correct", type=float, default=0.9)
    p.add_argument("--p-agree-wrong", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--concentration", type=float, default=20.0)
    p.add_argument("--wrongness-skew", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a calibrator")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output params JSON")
    p.add_argument("--trace", help="optional per-epoch loss CSV")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("apply", help="apply a calibrator to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("eval", help="metrics report for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--params", help="evaluate with a trained calibrator")
    group.add_argument("--global-ts", action="store_true",
                       help="fit and apply a single global temperature")
    group.add_argument("--uncalibrated", action="store_true", help="evaluate as-is (default)")
    p.add_argument("--bins", type=int, default=metrics.DEFAULT_BINS)
    p.add_argument("--raw", action="store_true", help="exact values instead of x100 rounding")
    p.add_argument("--label", help="method column override")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("surface", help="loss-surface grid CSV")
    p.add_argument("--loss", choices=[k.value for k in LossKind], required=True)
    p.add_argument("--mode", choices=[m.value for m in DiscrepancyMode], default="sq")
    p.add_argument("--out", required=True)
    p.add_argument("--a-min", type=float, default=-2.0)
    p.add_argument("--a-max", type=float, default=1.95)
    p.add_argument("--a-step", type=float, default=0.05)
    p.add_argument("--tau-lo", type=float, default=0.05)
    p.add_argument("--tau-hi", type=float, default=20.0)
    p.add_argument("--tau-points", type=int, default=200)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("wrongness", help="wrongness-band experiment CSV")
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bands", default="0.8:1.0,0.6:0.8,0.4:0.6,0.2:0.4,0.0:0.2")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--vary", choices=["test", "train"], default="test")
    p.add_argument("--train-wrong", type=int, default=200)
    p.add_argument("--train-correct", type=int, default=1000)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_wrongness)

    p = sub.add_parser("ksweep", help="top-k sweep CSV")
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-values", default="1,2,3,4,5,6,8,10")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_ksweep)
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CalibrationError, OSError, ValueError) as exc:
        print(f"calib-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
