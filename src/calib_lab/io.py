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
from dataclasses import astuple, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .analysis import BandRow, KSweepRow, SurfaceGrid
from .calibrator import CalibratorParams, TrainingTrace, layer_keys
from .errors import DatasetFormatError, InvalidInputError, UnsupportedVersionError
from .metrics import MetricsReport
from .records import PROB_SUM_TOL, Dataset
from .tensor_math import check_member, read_array

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
    # Only the integer: true and 1.0 compare equal to 1 but are not a version.
    if type(version) is not int or version != PARAMS_VERSION:
        raise UnsupportedVersionError(f"unsupported parameter file version {version!r}, "
                                      f"expected {PARAMS_VERSION}")
    keys = layer_keys(3 if "W1b" in obj or "b1b" in obj else 2)
    for key in ("C", "M", "k", "tau_min") + sum(keys, ()):
        if key not in obj:
            raise InvalidInputError(f"parameter file is missing field {key!r}")
    layers = [[obj[w_key], obj[b_key]] for w_key, b_key in keys]
    layers[-1][1] = [obj["b2"]]
    # CalibratorParams checks every field's type, shape and value.
    return CalibratorParams(layers=layers, tau_min=obj["tau_min"], n_classes=obj["C"],
                            n_transforms=obj["M"], k=obj["k"])


def _write_csv(path, header, rows) -> None:
    """The one CSV writer. A float cell is written as its shortest exact
    decimal, a NaN cell as an empty one; any other cell as it prints."""
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        # v == v is False only for NaN, and far cheaper per cell than np.isnan.
        writer.writerows([(repr(float(v)) if v == v else "") if isinstance(v, float) else v
                          for v in row] for row in rows)


def _export_dataclass_rows(path, cls, rows) -> None:
    """Dataclass rows under a header of their field names."""
    _write_csv(path, [f.name for f in fields(cls)],
               (astuple(check_member(row, cls, "row")) for row in rows))


def export_metrics_csv(path, rows, raw: bool = False) -> None:
    """Metric table rows as (method, MetricsReport) pairs. Values are
    written x100 with two decimals unless ``raw`` asks for exact floats;
    an undefined (NaN) value is an empty cell either way."""
    def cells(method, rep):
        check_member(rep, MetricsReport, "each row's report")
        values = (float(v) for v in (rep.ece, rep.brier, rep.ks, rep.auroc, rep.accuracy))
        return [method, *(v if raw or v != v else f"{100.0 * v:.2f}" for v in values), rep.n]
    _write_csv(path, METRICS_HEADER, (cells(method, rep) for method, rep in rows))


def export_surface_csv(path, grid: SurfaceGrid) -> None:
    """Long-format surface grid, a-major, exact float values."""
    check_member(grid, SurfaceGrid, "surface grid")
    a, tau = np.meshgrid(grid.a_values, grid.tau_values, indexing="ij")
    columns = (np.asarray(c, dtype=np.float64).ravel().tolist()
               for c in (a, tau, grid.loss, grid.c_gt))
    _write_csv(path, SURFACE_HEADER, zip(repeat(grid.loss_kind.value), *columns))


def export_band_rows_csv(path, rows) -> None:
    _export_dataclass_rows(path, BandRow, rows)


def export_ksweep_csv(path, rows) -> None:
    _export_dataclass_rows(path, KSweepRow, rows)


def export_trace_csv(path, trace: TrainingTrace) -> None:
    check_member(trace, TrainingTrace, "trace")
    _write_csv(path, ("epoch", "loss"), zip(trace.epochs.tolist(), trace.losses.tolist()))


def export_confidence_csv(path, record_ids, labels, predicted, correct, taus, confidences) -> None:
    columns = [read_array(c, "confidence CSV columns", kinds) for c, kinds in zip(
        (record_ids, labels, predicted, correct, taus, confidences), ["biu"] * 4 + ["iuf"] * 2)]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
        raise InvalidInputError("confidence CSV columns must be vectors of one length")
    ints = (c.astype(np.int64).tolist() for c in columns[:4])
    floats = (c.tolist() for c in columns[4:])
    _write_csv(path, ("record_id", "label", "predicted", "correct", "tau", "confidence"),
               zip(*ints, *floats))
