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
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .analysis import BandRow, KSweepRow, SurfaceGrid
from .calibrator import CalibratorParams, TrainingTrace, layer_keys
from .errors import DatasetFormatError, InvalidInputError, UnsupportedVersionError
from .metrics import MetricsReport
from .records import PROB_SUM_TOL, Dataset

PARAMS_VERSION = 1

# Transform rows off by more than records.PROB_SUM_TOL are renormalized:
# silently up to _SUM_SILENT, with one warning per file up to _SUM_WARN.
_SUM_SILENT = 1e-6
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


def _extend(buf: array, values, length: int, line_no: int, field: str, bools: bool) -> None:
    """Append a JSON list of ``length`` numbers. array.extend refuses
    strings, objects, null, nested lists and integers beyond float range;
    it would take true/false as 1/0, so on a line that may hold them
    (``bools``) every entry's type is checked first."""
    if type(values) is list and len(values) == length and not (
            bools and any(type(v) is bool for v in values)):
        try:
            return buf.extend(values)
        except (TypeError, OverflowError):
            pass
    raise DatasetFormatError(f"expected a list of {length} numbers", line=line_no, field=field)


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset; the 1-based line numbers become record IDs.

    Lines are checked only for their JSON shape (C and M are fixed by the
    first record) and streamed into flat buffers. Every value check runs
    once, in ``Dataset``; its first failure is re-raised at its line.
    """
    logits, transforms, labels, ids = array("d"), array("d"), array("q"), array("q")
    c = m = None
    # A bad byte becomes a lone surrogate, which encode() rejects.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeError as exc:
                raise DatasetFormatError("line is not valid UTF-8", line=line_no) from exc
            except (ValueError, RecursionError) as exc:
                raise DatasetFormatError(f"invalid JSON ({getattr(exc, 'msg', exc)})",
                                         line=line_no) from exc
            if type(obj) is not dict:
                raise DatasetFormatError("line must hold a JSON object", line=line_no)
            for key in ("label", "logits", "transforms"):
                if key not in obj:
                    raise DatasetFormatError("missing key", line=line_no, field=key)
            z, label, rows = obj["logits"], obj["label"], obj["transforms"]
            bools = "true" in line or "false" in line
            if c is None:
                c = max(len(z), 2) if type(z) is list else 2
                m = max(len(rows), 1) if type(rows) is list else 1
            _extend(logits, z, c, line_no, "logits", bools)
            if type(label) is not int or abs(label) >= 2 ** 63:
                raise DatasetFormatError("label must be an integer", line=line_no, field="label")
            if type(rows) is not list or len(rows) != m:
                raise DatasetFormatError(f"transforms must be a list of {m} rows",
                                         line=line_no, field="transforms")
            for ch, row in enumerate(rows):
                _extend(transforms, row, c, line_no, f"transforms[{ch}]", bools)
            labels.append(label)
            ids.append(line_no)
    if not ids:
        raise DatasetFormatError("dataset file holds no records", line=1)
    probs = np.frombuffer(transforms).reshape(-1, m, c)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = probs.sum(axis=2, keepdims=True)
    gaps = np.abs(sums - 1.0)
    # Rows further off than _SUM_WARN are left as they are for Dataset to reject.
    fix = (gaps > PROB_SUM_TOL) & (gaps <= _SUM_WARN)
    loud = fix & (gaps > _SUM_SILENT)
    if loud.any():
        warnings.warn(f"{np.count_nonzero(loud)} transform rows sum to 1 within {_SUM_WARN:g} but "
                      f"not {_SUM_SILENT:g} (first at line {ids[np.argmax(loud.any(axis=(1, 2)))]});"
                      " renormalizing", stacklevel=2)
    np.divide(probs, sums, out=probs, where=fix)
    try:
        return Dataset(np.frombuffer(logits).reshape(-1, c), np.frombuffer(labels, dtype=np.int64),
                       probs, record_ids=np.frombuffer(ids, dtype=np.int64))
    except InvalidInputError as exc:
        raise DatasetFormatError(exc.reason, line=ids[exc.row], field=exc.field) from exc


def save_params(path, p: CalibratorParams) -> None:
    obj = {"version": PARAMS_VERSION, "C": p.n_classes, "M": p.n_transforms, "k": p.k,
           "tau_min": p.tau_min}
    for keys, layer in zip(layer_keys(len(p.layers)), p.layers):
        obj.update((key, a.tolist()) for key, a in zip(keys, layer))
    obj["b2"] = p.b2  # the output bias is written as a number
    with _atomic_open(path) as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")


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
    keys = layer_keys(3 if "W1b" in obj or "b1b" in obj else 2)
    for key in ("C", "M", "k", "tau_min") + sum(keys, ()):
        if key not in obj:
            raise InvalidInputError(f"parameter file is missing field {key!r}")
    c, m, k, tau_min = obj["C"], obj["M"], obj["k"], obj["tau_min"]
    # bool is an int subclass, so JSON true/false must be rejected by name.
    for name in ("C", "M", "k"):
        if not isinstance(obj[name], int) or isinstance(obj[name], bool) or obj[name] < 1:
            raise InvalidInputError(f"parameter field {name!r} must be a positive integer")
    if not isinstance(tau_min, (int, float)) or isinstance(tau_min, bool):
        raise InvalidInputError("parameter field 'tau_min' must be a number")
    try:
        tau_min = float(tau_min)
    except OverflowError as exc:  # an integer beyond the float range
        raise InvalidInputError("parameter field 'tau_min' is beyond the float range") from exc
    layers = [[obj[w_key], obj[b_key]] for w_key, b_key in keys]
    layers[-1][1] = [obj["b2"]]
    # CalibratorParams checks every weight array's values and shape.
    return CalibratorParams(layers=layers, tau_min=tau_min, n_classes=c, n_transforms=m, k=k)


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
