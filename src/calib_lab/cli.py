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
from dataclasses import fields

import numpy as np

from . import analysis, baselines, calibrator, datagen, io, metrics
from .errors import CalibrationError
from .losses import DiscrepancyMode, LossKind
from .tensor_math import check_count, check_real


def _given(args, names) -> dict:
    """The arguments among ``names`` given on the command line. Config and experiment
    flags have no default (``argument_default``): an omitted one keeps the library's."""
    return {name: getattr(args, name) for name in names if name in args}


def _config(cls, args):
    """A ``cls`` config from the flags given for its fields."""
    return cls(**_given(args, (f.name for f in fields(cls))))


def _enum_flag(parser: argparse.ArgumentParser, flag: str, kind, **kwargs) -> None:
    """A flag parsed straight to a member of the enum ``kind``, listing its values."""
    parser.add_argument(flag, type=kind, metavar="{%s}" % ",".join(m.value for m in kind), **kwargs)


def _bands(text: str) -> list:
    """``low:high`` pairs separated by commas, as a list of float lists."""
    return [[float(v) for v in part.split(":")] for part in text.split(",")]


def _k_values(text: str) -> list:
    """Integers separated by commas, as a list."""
    return [int(part) for part in text.split(",")]


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    _enum_flag(parser, "--loss", LossKind)
    _enum_flag(parser, "--mode", DiscrepancyMode)
    for flag in ("--k", "--epochs", "--batch-size", "--seed"):
        parser.add_argument(flag, type=int)
    parser.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    parser.add_argument("--tau-min", type=float)
    parser.add_argument("--two-hidden", action="store_true",
                        help="use two 5-node hidden layers instead of one")


def _cmd_synth(args) -> int:
    io.save_dataset(args.out, datagen.generate(_config(datagen.SynthConfig, args)))
    return 0


def _cmd_train(args) -> int:
    d = io.load_dataset(args.data)
    params, trace = calibrator.train(d, _config(calibrator.TrainConfig, args),
                                     trace=bool(args.trace))
    io.save_params(args.out, params)
    if args.trace:
        io.export_trace_csv(args.trace, trace)
    return 0


def _cmd_apply(args) -> int:
    d = io.load_dataset(args.data)
    params = io.load_params(args.params)
    taus, confidences = calibrator.calibrate_dataset(params, d)
    io.export_confidence_csv(args.out, d, taus, confidences)
    return 0


def _cmd_eval(args) -> int:
    d = io.load_dataset(args.data)
    if args.params:
        params = io.load_params(args.params)
        _, confidences = calibrator.calibrate_dataset(params, d)
        method = "adaptive"
    elif args.global_ts:
        t = baselines.fit_global_temperature(d)
        confidences = baselines.apply_global(d, t)
        method = "ts"
    else:
        confidences = None
        method = "uncal"
    rep = metrics.report(d, confidences)
    io.export_metrics_csv(args.out, [(method, rep)], raw=args.raw)
    return 0


def _cmd_surface(args) -> int:
    a_min = check_real(args.a_min, "--a-min", -np.inf)
    a_max = check_real(args.a_max, "--a-max", a_min, closed=True)
    a_step = check_real(args.a_step, "--a-step", 0.0)
    check_count(args.tau_points, "--tau-points", 0)
    a_values = np.linspace(a_min, a_max, int(round((a_max - a_min) / a_step)) + 1)
    tau_values = np.geomspace(check_real(args.tau_lo, "--tau-lo", 0.0),
                              check_real(args.tau_hi, "--tau-hi", 0.0), args.tau_points)
    grid = analysis.loss_surface(args.loss, a_values, tau_values, **_given(args, ("mode",)))
    io.export_surface_csv(args.out, grid)
    return 0


def _cmd_wrongness(args) -> int:
    rows = analysis.wrongness_experiment(
        io.load_dataset(args.train_data), io.load_dataset(args.test_data),
        _config(calibrator.TrainConfig, args),
        **_given(args, ("bands", "count", "vary", "train_wrong", "train_correct")))
    io.export_band_rows_csv(args.out, rows)
    return 0


def _cmd_ksweep(args) -> int:
    rows = analysis.k_sweep(io.load_dataset(args.train_data), io.load_dataset(args.test_data),
                            args.k_values, _config(calibrator.TrainConfig, args))
    io.export_ksweep_csv(args.out, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calib-lab",
                                     description="Post-hoc confidence calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    no_default = {"argument_default": argparse.SUPPRESS}
    p = sub.add_parser("synth", help="generate a synthetic dataset", **no_default)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--classes", dest="n_classes", metavar="CLASSES", type=int)
    p.add_argument("--transforms", dest="n_transforms", metavar="TRANSFORMS", type=int)
    for flag in ("--target-rho", "--sharpness", "--p-agree-correct", "--p-agree-wrong",
                 "--noise", "--concentration", "--wrongness-skew"):
        p.add_argument(flag, type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a calibrator", **no_default)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output params JSON")
    p.add_argument("--trace", default=None, help="optional per-epoch loss CSV")
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
    p.add_argument("--raw", action="store_true", help="exact values instead of x100 rounding")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("surface", help="loss-surface grid CSV")
    _enum_flag(p, "--loss", LossKind, required=True)
    _enum_flag(p, "--mode", DiscrepancyMode, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--a-min", type=float, default=-2.0)
    p.add_argument("--a-max", type=float, default=1.95)
    p.add_argument("--a-step", type=float, default=0.05)
    p.add_argument("--tau-lo", type=float, default=0.05)
    p.add_argument("--tau-hi", type=float, default=20.0)
    p.add_argument("--tau-points", type=int, default=200)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("wrongness", help="wrongness-band experiment CSV", **no_default)
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bands", type=_bands)
    p.add_argument("--count", type=int)
    p.add_argument("--vary", choices=["test", "train"])
    p.add_argument("--train-wrong", type=int)
    p.add_argument("--train-correct", type=int)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_wrongness)

    p = sub.add_parser("ksweep", help="top-k sweep CSV", **no_default)
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-values", type=_k_values, default="1,2,3,4,5,6,8,10")
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
    except (CalibrationError, OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"calib-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
