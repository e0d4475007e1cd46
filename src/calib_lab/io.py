"""On-disk formats: dataset JSONL, calibrator-parameter JSON, and CSV
exports for metric/surface/experiment rows.

Floats are serialized through ``repr`` (shortest exact decimal), so
every round-trip is lossless at 64-bit precision. All writers go
through a write-to-temp-then-rename step: a failed run never leaves a
partial file behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .analysis import BandRow, KSweepRow, SurfaceGrid
from .calibrator import HIDDEN_WIDTH, CalibratorParams, TrainingTrace
from .errors import DatasetFormatError, InvalidInputError, UnsupportedVersionError
from .metrics import MetricsReport
from .records import Dataset

PARAMS_VERSION = 1

# Transform rows are accepted as-is within this sum tolerance...
_SUM_KEEP = 1e-9
# ...renormalized silently up to here...
_SUM_SILENT = 1e-6
# ...renormalized with a warning up to here, rejected beyond.
_SUM_WARN = 1e-3

METRICS_HEADER = ("method", "ece", "bs", "ks", "auroc", "accuracy", "n")
SURFACE_HEADER = ("loss_kind", "a", "tau", "loss", "c_gt")


def _umask() -> int:
    # The umask can only be read by setting it, so put it straight back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def _atomic_open(path):
    """Write to a temp file in the target directory, rename on success.
    The file gets the usual 0o666 & ~umask mode, not mkstemp's 0o600."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_dataset(path, d: Dataset) -> None:
    """One JSON object per record: label, logits, transform softmax rows."""
    with _atomic_open(path) as handle:
        for i in range(d.n):
            obj = {"label": int(d.labels[i]),
                   "logits": d.logits[i].tolist(),
                   "transforms": d.transform_probs[i].tolist()}
            handle.write(json.dumps(obj) + "\n")


def _load_transform_row(row, line_no: int, c: int, channel: int) -> np.ndarray:
    arr = np.asarray(row, dtype=np.float64)
    if arr.shape != (c,):
        raise DatasetFormatError(f"transform row has length {arr.size}, expected {c}",
                                 line=line_no, field=f"transforms[{channel}]")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise DatasetFormatError("transform row entries must be finite and >= 0",
                                 line=line_no, field=f"transforms[{channel}]")
    delta = float(arr.sum()) - 1.0
    gap = abs(delta)
    if gap <= _SUM_KEEP:
        return arr
    if gap <= _SUM_WARN:
        if gap > _SUM_SILENT:
            warnings.warn(
                f"line {line_no}: transform row {channel} sums to 1{delta:+.2e}; renormalizing")
        return arr / arr.sum()
    raise DatasetFormatError(f"transform row sums to 1{delta:+.2e}, beyond tolerance {_SUM_WARN}",
                             line=line_no, field=f"transforms[{channel}]")


def load_dataset(path) -> Dataset:
    """Parse and validate a JSONL dataset; the 1-based line numbers
    become record IDs."""
    logits_rows, labels, transform_rows, ids = [], [], [], []
    c = m = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"invalid JSON ({exc.msg})", line=line_no) from exc
            if not isinstance(obj, dict):
                raise DatasetFormatError("line must hold a JSON object", line=line_no)
            for key in ("label", "logits", "transforms"):
                if key not in obj:
                    raise DatasetFormatError("missing key", line=line_no, field=key)
            try:
                z = np.asarray(obj["logits"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise DatasetFormatError("logits are not numeric", line=line_no,
                                         field="logits") from exc
            if z.ndim != 1 or z.size < 2:
                raise DatasetFormatError(f"logits must be a flat list of >= 2 numbers, got "
                                         f"shape {z.shape}", line=line_no, field="logits")
            if not np.all(np.isfinite(z)):
                raise DatasetFormatError("logits contain non-finite values", line=line_no,
                                         field="logits")
            if c is None:
                c = z.size
            elif z.size != c:
                raise DatasetFormatError(f"logits have length {z.size}, expected {c}",
                                         line=line_no, field="logits")
            label = obj["label"]
            if not isinstance(label, int) or isinstance(label, bool) or not 0 <= label < c:
                raise DatasetFormatError(f"label must be an integer in [0, {c})",
                                         line=line_no, field="label")
            transforms = obj["transforms"]
            if not isinstance(transforms, list) or len(transforms) < 1:
                raise DatasetFormatError("transforms must be a non-empty list of rows",
                                         line=line_no, field="transforms")
            if m is None:
                m = len(transforms)
            elif len(transforms) != m:
                raise DatasetFormatError(f"{len(transforms)} transform rows, expected {m}",
                                         line=line_no, field="transforms")
            rows = [_load_transform_row(row, line_no, c, ch) for ch, row in enumerate(transforms)]
            logits_rows.append(z)
            labels.append(label)
            transform_rows.append(np.stack(rows))
            ids.append(line_no)
    if not logits_rows:
        raise DatasetFormatError("dataset file holds no records", line=1)
    return Dataset(np.stack(logits_rows), np.asarray(labels), np.stack(transform_rows),
                   record_ids=np.asarray(ids))


def save_params(path, p: CalibratorParams) -> None:
    obj = {"version": PARAMS_VERSION, "C": p.n_classes, "M": p.n_transforms, "k": p.k,
           "tau_min": p.tau_min, "W1": p.w1.tolist(), "b1": p.b1.tolist(),
           "W2": p.w2.tolist(), "b2": p.b2}
    if p.w1b is not None:
        obj["W1b"] = p.w1b.tolist()
        obj["b1b"] = p.b1b.tolist()
    with _atomic_open(path) as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")


def _require_shape(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"parameter field {name!r} is not numeric") from exc
    if arr.shape != shape:
        raise InvalidInputError(f"parameter field {name!r} has shape {arr.shape}, "
                                f"expected {shape}")
    return arr


def load_params(path) -> CalibratorParams:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"parameter file is not valid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError("parameter file must hold a JSON object")
    version = obj.get("version")
    if version != PARAMS_VERSION:
        raise UnsupportedVersionError(f"unsupported parameter file version {version!r}, "
                                      f"expected {PARAMS_VERSION}")
    for key in ("C", "M", "k", "tau_min", "W1", "b1", "W2", "b2"):
        if key not in obj:
            raise InvalidInputError(f"parameter file is missing field {key!r}")
    c, m, k = obj["C"], obj["M"], obj["k"]
    # bool is an int subclass, so JSON true/false must be rejected by name.
    for name in ("C", "M", "k"):
        if not isinstance(obj[name], int) or isinstance(obj[name], bool) or obj[name] < 1:
            raise InvalidInputError(f"parameter field {name!r} must be a positive integer")
    for name in ("b2", "tau_min"):
        if not isinstance(obj[name], (int, float)) or isinstance(obj[name], bool):
            raise InvalidInputError(f"parameter field {name!r} must be a number")
    d_in = m * k
    w1 = _require_shape("W1", obj["W1"], (HIDDEN_WIDTH, d_in))
    b1 = _require_shape("b1", obj["b1"], (HIDDEN_WIDTH,))
    w2 = _require_shape("W2", obj["W2"], (1, HIDDEN_WIDTH))
    w1b = b1b = None
    if "W1b" in obj or "b1b" in obj:
        w1b = _require_shape("W1b", obj.get("W1b"), (HIDDEN_WIDTH, HIDDEN_WIDTH))
        b1b = _require_shape("b1b", obj.get("b1b"), (HIDDEN_WIDTH,))
    return CalibratorParams(w1=w1, b1=b1, w2=w2, b2=float(obj["b2"]),
                            tau_min=float(obj["tau_min"]), n_classes=c, n_transforms=m, k=k,
                            w1b=w1b, b1b=b1b)


def _fmt(value: float, raw: bool) -> str:
    if raw:
        return repr(float(value))
    return f"{100.0 * value:.2f}"


def export_metrics_csv(path, rows, raw: bool = False) -> None:
    """Metric table rows as (method, MetricsReport) pairs. Values are
    written x100 with two decimals unless ``raw`` asks for exact floats."""
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(METRICS_HEADER)
        for method, rep in rows:
            if not isinstance(rep, MetricsReport):
                raise InvalidInputError("rows must pair a method name with a MetricsReport")
            writer.writerow([method, _fmt(rep.ece, raw), _fmt(rep.brier, raw),
                             _fmt(rep.ks, raw), _fmt(rep.auroc, raw),
                             _fmt(rep.accuracy, raw), rep.n])


def export_surface_csv(path, grid: SurfaceGrid) -> None:
    """Long-format surface grid, exact float values."""
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(SURFACE_HEADER)
        for i, a in enumerate(grid.a_values):
            for j, tau in enumerate(grid.tau_values):
                writer.writerow([grid.loss_kind.value, repr(float(a)), repr(float(tau)),
                                 repr(float(grid.loss[i, j])), repr(float(grid.c_gt[i, j]))])


def export_band_rows_csv(path, rows) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(("band_low", "band_high", "method", "ece", "auroc", "n"))
        for row in rows:
            if not isinstance(row, BandRow):
                raise InvalidInputError("expected BandRow entries")
            auc = "" if np.isnan(row.auroc) else repr(float(row.auroc))
            writer.writerow([repr(float(row.band_low)), repr(float(row.band_high)),
                             row.method, repr(float(row.ece)), auc, row.n])


def export_ksweep_csv(path, rows) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(("k", "ks", "auroc", "ks_uncal", "auroc_uncal"))
        for row in rows:
            if not isinstance(row, KSweepRow):
                raise InvalidInputError("expected KSweepRow entries")
            writer.writerow([row.k, repr(float(row.ks)), repr(float(row.auroc)),
                             repr(float(row.ks_uncal)), repr(float(row.auroc_uncal))])


def export_trace_csv(path, trace: TrainingTrace) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(("epoch", "loss"))
        for epoch, value in enumerate(trace.losses):
            writer.writerow([epoch, repr(float(value))])


def export_confidence_csv(path, record_ids, labels, predicted, correct, taus, confidences) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(("record_id", "label", "predicted", "correct", "tau", "confidence"))
        for rid, y, pred, ok, tau, conf in zip(record_ids, labels, predicted, correct,
                                               taus, confidences):
            writer.writerow([int(rid), int(y), int(pred), int(ok),
                             repr(float(tau)), repr(float(conf))])
