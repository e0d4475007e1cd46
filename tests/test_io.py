import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_lab.analysis import BandRow, KSweepRow, loss_surface
from calib_lab.calibrator import (TrainConfig, TrainingTrace, calibrate_dataset, forward_batch,
                                  init_params, train)
from calib_lab.cli import run
from calib_lab.datagen import SynthConfig, generate
from calib_lab.errors import (DatasetFormatError, InvalidInputError, UnsupportedVersionError)
from calib_lab.io import (export_band_rows_csv, export_confidence_csv, export_ksweep_csv,
                          export_metrics_csv, export_surface_csv, export_trace_csv, load_dataset,
                          load_params, save_dataset, save_params)
from calib_lab.losses import LossKind
from calib_lab.metrics import report
from calib_lab.records import Dataset


def test_dataset_round_trip_is_bit_exact(tmp_path):
    d = generate(SynthConfig(n=200, seed=50))
    path = tmp_path / "data.jsonl"
    save_dataset(path, d)
    loaded = load_dataset(path)
    assert loaded.logits.tobytes() == d.logits.tobytes()
    assert loaded.labels.tobytes() == d.labels.tobytes()
    assert loaded.transform_probs.tobytes() == d.transform_probs.tobytes()
    assert report(loaded) == report(d)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def good_line(label=0, c=3, m=2):
    return json.dumps({"label": label, "logits": [1.0] * c,
                       "transforms": [[1.0 / c] * c] * m})


def test_loader_rejects_inconsistent_c(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [good_line(c=3), good_line(c=4)])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert "line 2" in str(excinfo.value)
    assert excinfo.value.field == "logits"


def test_loader_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [good_line(label=7, c=3)])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.field == "label"


def test_loader_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [good_line(), "{not json"])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2


def test_loader_renormalizes_within_tolerance(tmp_path):
    row = [0.5, 0.3, 0.2 + 5e-7]  # off by 5e-7: silently renormalized
    line = json.dumps({"label": 0, "logits": [1.0, 0.0, 0.0], "transforms": [row]})
    path = tmp_path / "near.jsonl"
    write_lines(path, [line])
    d = load_dataset(path)
    assert abs(d.transform_probs[0, 0].sum() - 1.0) < 1e-15


def test_loader_warns_at_loose_tolerance(tmp_path):
    row = [0.5, 0.3, 0.2 + 5e-4]  # off by 5e-4: renormalized with a warning
    line = json.dumps({"label": 0, "logits": [1.0, 0.0, 0.0], "transforms": [row]})
    path = tmp_path / "loose.jsonl"
    write_lines(path, [line])
    with pytest.warns(UserWarning, match="renormalizing"):
        d = load_dataset(path)
    assert abs(d.transform_probs.sum() - 1.0) < 1e-15


def test_loader_rejects_beyond_tolerance(tmp_path):
    row = [0.5, 0.3, 0.3]  # off by 0.1
    line = json.dumps({"label": 0, "logits": [1.0, 0.0, 0.0], "transforms": [row]})
    path = tmp_path / "far.jsonl"
    write_lines(path, [line])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert "transforms" in str(excinfo.value)


def test_loader_keeps_line_numbers_as_record_ids(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(good_line(0) + "\n\n" + good_line(1) + "\n", encoding="utf-8")
    d = load_dataset(path)
    assert d.record_ids.tolist() == [1, 3]


def test_loader_never_mutates_input_file(tmp_path):
    d = generate(SynthConfig(n=50, seed=56))
    path = tmp_path / "data.jsonl"
    save_dataset(path, d)
    before = path.read_bytes()
    load_dataset(path)
    assert path.read_bytes() == before


def test_large_file_loads_quickly(tmp_path):
    d = generate(SynthConfig(n=10000, seed=51))
    path = tmp_path / "big.jsonl"
    save_dataset(path, d)
    start = time.monotonic()
    load_dataset(path)
    assert time.monotonic() - start < 2.0


def test_params_round_trip_exact(tmp_path):
    d = generate(SynthConfig(n=300, seed=52))
    params, _ = train(d, TrainConfig(epochs=2, seed=1))
    path = tmp_path / "params.json"
    save_params(path, params)
    loaded = load_params(path)
    assert loaded.w1.tobytes() == params.w1.tobytes()
    assert loaded.b2 == params.b2
    assert loaded.tau_min == params.tau_min
    f = np.random.default_rng(0).random(params.input_width)
    assert forward_batch(loaded, f[None])[0] == forward_batch(params, f[None])[0]  # 0 ulp


def test_params_round_trip_two_hidden(tmp_path):
    p = init_params(6, 2, 3, seed=4, two_hidden=True)
    path = tmp_path / "params.json"
    save_params(path, p)
    loaded = load_params(path)
    assert len(loaded.layers) == 3
    for got, want in zip(loaded.layers, p.layers):
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert list(json.loads(path.read_text()))[5:] == ["W1", "b1", "W1b", "b1b", "W2", "b2"]


@pytest.mark.parametrize("missing", ["b1b", "W1b"])
def test_params_lone_second_hidden_key_names_the_missing_key(tmp_path, missing):
    path = tmp_path / "params.json"
    save_params(path, init_params(6, 2, 3, seed=4, two_hidden=True))
    obj = json.loads(path.read_text())
    del obj[missing]
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidInputError, match=f"missing field '{missing}'"):
        load_params(path)


def test_params_version_check(tmp_path):
    path = tmp_path / "params.json"
    save_params(path, init_params(4, 1, 2, seed=0))
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(UnsupportedVersionError):
        load_params(path)


def test_params_truncated_file(tmp_path):
    path = tmp_path / "params.json"
    save_params(path, init_params(4, 1, 2, seed=0))
    path.write_text(path.read_text()[:40])
    with pytest.raises(InvalidInputError):
        load_params(path)


def test_params_shape_tamper_names_field(tmp_path):
    path = tmp_path / "params.json"
    save_params(path, init_params(4, 1, 2, seed=0))
    obj = json.loads(path.read_text())
    obj["b1"] = obj["b1"][:3]
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidInputError, match="'b1'"):
        load_params(path)



@pytest.mark.parametrize("field,value", [
    ("C", True), ("M", True), ("k", True), ("b2", True), ("b2", "0.5"),
    ("tau_min", True), ("tau_min", [0.05]), ("tau_min", None),
    ("b1", ["0.0"] * 5), ("b1", [True] * 5), ("W2", [[False] * 5]), ("W1", [["0.5"]] * 5),
    ("b2", 10 ** 400), ("tau_min", 10 ** 400),  # integers beyond the float range
])
def test_params_bad_field_type_names_field(tmp_path, field, value):
    path = tmp_path / "params.json"
    save_params(path, init_params(4, 1, 1, seed=0))
    obj = json.loads(path.read_text())
    obj[field] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidInputError, match=f"'{field}'"):
        load_params(path)


@pytest.mark.parametrize("field", ["b2", "W1"])
def test_params_non_finite_value_names_field(tmp_path, field):
    path = tmp_path / "params.json"
    save_params(path, init_params(4, 1, 1, seed=0))
    obj = json.loads(path.read_text())
    if field == "b2":
        obj["b2"] = float("inf")  # written as the JSON extension Infinity
    else:
        obj["W1"][2][0] = float("nan")  # written as NaN
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidInputError, match=f"'{field}'"):
        load_params(path)


def test_params_infinite_tau_min_is_refused(tmp_path):
    path = tmp_path / "params.json"
    save_params(path, init_params(4, 1, 1, seed=0))
    obj = json.loads(path.read_text())
    obj["tau_min"] = float("inf")  # written as the JSON extension Infinity
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidInputError, match="tau_min must be finite and > 0"):
        load_params(path)


def test_metrics_csv_schema_and_scaling(tmp_path):
    d = generate(SynthConfig(n=300, seed=53))
    rep = report(d)
    path = tmp_path / "metrics.csv"
    export_metrics_csv(path, [("uncal", rep)])
    lines = path.read_text().splitlines()
    assert lines[0] == "method,ece,bs,ks,auroc,accuracy,n"
    cells = lines[1].split(",")
    assert cells[0] == "uncal"
    assert cells[1] == f"{100 * rep.ece:.2f}"
    assert cells[6] == "300"
    export_metrics_csv(path, [("uncal", rep)], raw=True)
    raw_cells = path.read_text().splitlines()[1].split(",")
    assert float(raw_cells[1]) == rep.ece


def test_surface_csv_long_format(tmp_path):
    grid = loss_surface(LossKind.CE, a_values=np.array([0.0, 1.0]),
                        tau_values=np.array([0.5, 1.0, 2.0]))
    path = tmp_path / "surface.csv"
    export_surface_csv(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "loss_kind,a,tau,loss,c_gt"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "ce" and float(first[1]) == 0.0 and float(first[2]) == 0.5


def test_band_rows_csv_leaves_an_undefined_auroc_empty(tmp_path):
    rows = [BandRow(0.8, 1.0, "uncal", 0.25, float("nan"), 50),
            BandRow(0.0, 0.2, "ca", 0.1, 0.75, 5000)]
    path = tmp_path / "bands.csv"
    export_band_rows_csv(path, rows)
    assert path.read_bytes() == (b"band_low,band_high,method,ece,auroc,n\r\n"
                                 b"0.8,1.0,uncal,0.25,,50\r\n0.0,0.2,ca,0.1,0.75,5000\r\n")


def test_ksweep_csv_header_and_exact_floats(tmp_path):
    path = tmp_path / "ksweep.csv"
    export_ksweep_csv(path, [KSweepRow(k=4, ks=0.1, auroc=np.float64(0.9), ks_uncal=1 / 3,
                                       auroc_uncal=0.8)])
    assert path.read_text().splitlines() == ["k,ks,auroc,ks_uncal,auroc_uncal",
                                             f"4,0.1,0.9,{1 / 3!r},0.8"]


def test_trace_csv_numbers_epochs_from_zero(tmp_path):
    path = tmp_path / "trace.csv"
    export_trace_csv(path, TrainingTrace([0.5, 0.25, 1 / 3]))
    assert path.read_text().splitlines() == ["epoch,loss", "0,0.5", "1,0.25", f"2,{1 / 3!r}"]


def test_confidence_csv_writes_correctness_as_0_or_1(tmp_path):
    path = tmp_path / "applied.csv"
    export_confidence_csv(path, np.array([3, 7]), [1, 0], np.array([1, 2]),
                          np.array([True, False]), np.array([0.5, 2.0]), [0.9, 0.4])
    assert path.read_text().splitlines() == ["record_id,label,predicted,correct,tau,confidence",
                                             "3,1,1,1,0.5,0.9", "7,0,2,0,2.0,0.4"]
    # A short column once cut every row after its end silently; strings and ragged
    # columns raised numpy's bare ValueError.
    other = tmp_path / "other.csv"
    for taus in ([0.5], [[0.5], [2.0, 1.0]], ["a", "b"]):
        with pytest.raises(InvalidInputError):
            export_confidence_csv(other, [3, 7], [1, 0], [1, 2], [1, 0], taus, [0.9, 0.4])
    assert not other.exists()


@pytest.mark.parametrize("export, good", [
    (export_band_rows_csv, BandRow(0.8, 1.0, "uncal", 0.25, 0.5, 50)),
    (export_ksweep_csv, KSweepRow(4, 0.1, 0.9, 0.2, 0.8)),
    (export_metrics_csv, ("uncal", report(generate(SynthConfig(n=50, seed=55))))),
])
def test_writer_refuses_a_wrong_type_row_and_leaves_no_file(tmp_path, export, good):
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidInputError):
        export(path, [good, ("not", "a row")])
    assert list(tmp_path.iterdir()) == []


def test_reexport_is_byte_identical(tmp_path):
    d = generate(SynthConfig(n=200, seed=54))
    rep = report(d)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_metrics_csv(p1, [("uncal", rep)])
    export_metrics_csv(p2, [("uncal", rep)])
    assert p1.read_bytes() == p2.read_bytes()


def test_apply_then_eval_consistency(tmp_path):
    # saved params drive identical confidences after a file round-trip
    d = generate(SynthConfig(n=400, seed=55))
    params, _ = train(d, TrainConfig(epochs=3, seed=2))
    path = tmp_path / "params.json"
    save_params(path, params)
    _, before = calibrate_dataset(params, d)
    _, after = calibrate_dataset(load_params(path), d)
    assert before.tobytes() == after.tobytes()


def record_line(**fields):
    obj = {"label": 0, "logits": [1.0, 0.0, 0.0],
           "transforms": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]}
    obj.update(fields)
    return json.dumps(obj)


def write_with_bad_second_line(path, bad: bytes):
    path.write_bytes(record_line().encode() + b"\n" + bad + b"\n" + record_line().encode() + b"\n")


# One bad line per failure kind, with the field the per-row loader
# reported for it before the value checks moved into Dataset.
BAD_LINES = [
    ("invalid_json", "{not json", None),
    ("not_object", "[1, 2]", None),
    ("missing_key", json.dumps({"logits": [1.0, 0.0, 0.0], "transforms": [[0.5, 0.3, 0.2]] * 2}),
     "label"),
    ("non_numeric_logit", record_line(logits=["a", 0, 0]), "logits"),
    ("nested_logits", record_line(logits=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), "logits"),
    ("c_mismatch", record_line(logits=[1.0, 0.0, 0.0, 0.0]), "logits"),
    ("non_finite_logit", record_line(logits=[float("nan"), 0.0, 0.0]), "logits"),
    ("label_out_of_range", record_line(label=3), "label"),
    ("bool_label", record_line(label=True), "label"),
    ("float_label", record_line(label=1.0), "label"),
    ("transforms_not_list", record_line(transforms=5), "transforms"),
    ("m_mismatch", record_line(transforms=[[0.5, 0.3, 0.2]] * 3), "transforms"),
    ("row_wrong_length", record_line(transforms=[[0.5, 0.3, 0.2], [0.5, 0.5]]), "transforms[1]"),
    ("negative_entry", record_line(transforms=[[0.5, 0.3, 0.2], [1.2, -0.2, 0.0]]),
     "transforms[1]"),
    ("sum_beyond_tolerance", record_line(transforms=[[0.5, 0.3, 0.2], [0.5, 0.3, 0.3]]),
     "transforms[1]"),
]


@pytest.mark.parametrize("bad,field", [case[1:] for case in BAD_LINES],
                         ids=[case[0] for case in BAD_LINES])
def test_loader_names_line_and_field_per_failure_kind(tmp_path, bad, field):
    path = tmp_path / "bad.jsonl"
    write_with_bad_second_line(path, bad.encode())
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert excinfo.value.field == field


# Lines that once escaped as a bare TypeError, OverflowError, ValueError,
# UnicodeDecodeError or RecursionError, or loaded strings or bools as numbers.
UNTYPED_LINES = [
    ("object_row", record_line(transforms=[[0.5, 0.3, 0.2], {"a": 1}]).encode(), "transforms[1]"),
    ("huge_int_logit", record_line(logits=[10 ** 400, 0, 0]).encode(), "logits"),
    ("string_row", record_line(transforms=[[0.5, 0.3, 0.2], "abc"]).encode(), "transforms[1]"),
    ("non_utf8", b'{"note": "\xff", ' + record_line().encode()[1:], None),
    ("huge_int_label", record_line(label=10 ** 400).encode(), "label"),
    ("string_logit", record_line(logits=["1.5", 0, 0]).encode(), "logits"),
    ("string_transform", record_line(transforms=[[0.5, 0.3, 0.2], ["0.5", 0.3, 0.2]]).encode(),
     "transforms[1]"),
    ("deep_nesting", b"[" * 100000, None),
    ("over_digit_limit", record_line().replace("[1.0", "[" + "9" * 5000).encode(), None),
    ("bool_logit", record_line(logits=[True, 0, 0]).encode(), "logits"),
    ("bool_transform", record_line(transforms=[[0.5, 0.3, 0.2], [True, False, 0.0]]).encode(),
     "transforms[1]"),
]


@pytest.mark.parametrize("bad,field", [case[1:] for case in UNTYPED_LINES],
                         ids=[case[0] for case in UNTYPED_LINES])
def test_loader_types_every_malformed_line(tmp_path, capsys, bad, field):
    path = tmp_path / "bad.jsonl"
    write_with_bad_second_line(path, bad)
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert excinfo.value.field == field
    assert run(["eval", "--data", str(path), "--out", str(tmp_path / "m.csv")]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("c", [3, 10, 100])
def test_loader_renormalizes_mixed_gaps_with_one_warning(tmp_path, c):
    rng = np.random.default_rng(c)
    gaps = [0.0, 5e-10, -5e-10, 5e-7, -5e-7, 5e-4, -5e-4] * 3
    rows, lines = [], []
    for i, gap in enumerate(gaps):
        pair = rng.dirichlet(np.ones(c), size=2)
        pair[i % 2, np.argmax(pair[i % 2])] += gap
        rows.append(pair)
        lines.append(json.dumps({"label": 0, "logits": [0.0] * c, "transforms": pair.tolist()}))
    path = tmp_path / "mixed.jsonl"
    write_lines(path, lines)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = load_dataset(path)
    expected = np.stack([[r if abs(r.sum() - 1.0) <= 1e-9 else r / r.sum() for r in pair]
                         for pair in rows])
    assert d.transform_probs.tobytes() == expected.tobytes()
    assert [w.category for w in caught] == [UserWarning]
    assert "6 transform rows" in str(caught[0].message)
    assert "first at line 6" in str(caught[0].message)


FUZZ_BASE = "".join(record_line(label=i) + "\n" for i in range(3)).encode()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, len(FUZZ_BASE) - 1), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_loader_on_corrupted_bytes_returns_dataset_or_format_error(tmp_path_factory, edits):
    data = bytearray(FUZZ_BASE)
    for insert, pos, byte in edits:
        if insert:
            data.insert(pos, byte)
        else:
            data[pos] = byte
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_bytes(bytes(data))
    try:
        d = load_dataset(path)
    except DatasetFormatError:
        return
    assert isinstance(d, Dataset)
