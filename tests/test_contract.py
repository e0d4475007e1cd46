"""One contract sweep over the public API.

Every callable exported by ``calib_lab`` that takes raw arrays or numbers is
called with valid arguments, extreme finite values included, and with one of
them replaced by a raw stand-in: NaN or an infinity, a ragged list, a string,
a bool, an object, an array of the wrong shape, an out-of-range label or an
integer-valued float. Each call must return finite outputs of its documented
shape or raise a ``CalibrationError`` subclass, and must not emit a
``RuntimeWarning``.

Counts that size an allocation (records, classes, transforms, k, bins) are
drawn small: a huge one asks for memory, not for a check. ``grad_params`` is
the training step, which reads its features unchecked beyond dtype and
shape, so its valid features are transform probabilities, in [0, 1].
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import calib_lab as cl
from calib_lab import CalibrationError, DiscrepancyMode, LossKind

MAX = float(np.finfo(float).max)
TINY = 5e-324
FINITE = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, TINY, 1e-308, 1e-154, 1e100, 1e154, 1e308, MAX,
          -1e308, -MAX]
# Finite floats with the float64 extremes drawn often.
EXTREME = st.sampled_from(FINITE) | st.floats(-MAX, MAX)
FLOATS = EXTREME | st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats()
# Stand-ins for a number or an array of the wrong kind: bools, None, strings,
# ragged and mixed lists, a dict, an integer beyond 64 bits, integer-valued floats.
ODD = st.sampled_from([True, False, None, "a", "1.5", [], [[0.0], [0.0, 1.0]], [1.0, "a"],
                       {"a": 1}, 10 ** 400, 2.0, 3.0])
REALS = FLOATS | st.integers(-3, 10) | ODD
COUNTS = st.integers(-2, 6) | st.sampled_from([2 ** 63 - 1, 2 ** 63, 10 ** 400]) | ODD
SMALL_COUNTS = st.integers(-2, 6) | ODD | FLOATS
SEEDS = st.integers(0, 2 ** 63 - 1)
# A loss kind or discrepancy mode given as anything but its enum member.
ENUM_STAND_INS = st.sampled_from(["ca", "ce", "l1", "sq", LossKind.CA, DiscrepancyMode.L1]) | ODD
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

C, M, K, N = 4, 2, 2, 5
DATA = cl.generate(cl.SynthConfig(n_classes=C, n_transforms=M, n=400, seed=0))
PARAMS = cl.init_params(C, M, K, seed=0)
FEATURES = cl.feature_matrix(DATA, K)


def between(low, high):
    """Floats in [low, high], the ends drawn often."""
    return st.sampled_from([low, high]) | st.floats(low, high)


def arrays(shape, elements=EXTREME):
    return hnp.arrays(np.float64, shape, elements=elements)


def raw_arrays(shape, elements=FLOATS):
    """An array of ``shape`` holding any float, the same as nested lists, as strings,
    bools, objects or small integers, an array of another shape, or an odd stand-in."""
    floats = arrays(shape, elements)
    return st.one_of(floats, floats.map(np.ndarray.tolist), floats.map(lambda a: a.astype(str)),
                     floats.map(lambda a: a.astype(object)), hnp.arrays(bool, shape),
                     hnp.arrays(np.int64, shape, elements=st.integers(-3, 6)),
                     arrays(hnp.array_shapes(min_dims=0, max_dims=3, max_side=6), elements), ODD)


def calls(valid: dict, raw: dict):
    """Keyword arguments drawn from the ``valid`` strategies, with at most one of
    them drawn from its ``raw`` strategy instead."""
    def build(key):
        return st.fixed_dictionaries({k: raw[k] if k == key else s for k, s in valid.items()})
    return st.sampled_from([None, *raw]).flatmap(build)


def outcome(fn, *args, **kwargs):
    """The value of a call, or None where it raised a CalibrationError; any other
    exception and any RuntimeWarning propagate and fail the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn(*args, **kwargs)
        except CalibrationError:
            return None


def assert_finite(value, shape=None):
    arr = np.asarray(value, dtype=np.float64)
    assert np.all(np.isfinite(arr)), value
    assert shape is None or arr.shape == shape


PAIR = {"confidences": arrays(20, between(TINY, 1.0)), "correct": hnp.arrays(bool, 20)}
RAW_PAIR = {"confidences": raw_arrays(20), "correct": raw_arrays(20, st.sampled_from(
    [0.0, 1.0, 0.5, float("nan")]))}


@SETTINGS
@given(calls({**PAIR, "bins": st.integers(1, 50)}, {**RAW_PAIR, "bins": SMALL_COUNTS}),
       st.none() | SEEDS.map(np.random.default_rng) | REALS)
def test_metrics_and_losses(kw, rng):
    for fn in (cl.brier_top_label, cl.ks_error, cl.auroc, cl.ca_loss_batch):
        value = outcome(fn, kw["confidences"], kw["correct"])
        if value is not None:
            assert_finite(value, ())
    value = outcome(cl.ece, **kw)
    if value is not None:
        assert_finite(value, ())
    for pairing in ("lowest", "random"):
        split = outcome(cl.decompose, kw["confidences"], kw["correct"], pairing, rng=rng)
        if split is not None:
            assert_finite([split.e_diff, split.e_plus, split.rho, split.reconstruction])


@SETTINGS
@given(calls({"confidences": arrays(DATA.n, between(TINY, 1.0))},
             {"confidences": raw_arrays(DATA.n)}))
def test_report(kw):
    rep = outcome(cl.report, DATA, **kw)
    if rep is not None:
        assert_finite([rep.ece, rep.brier, rep.ks, rep.accuracy])
        assert np.isnan(rep.auroc) or 0.0 <= rep.auroc <= 1.0


@SETTINGS
@given(calls({"rho": between(0.0, 1.0), "n_classes": st.integers(2, 2 ** 63 - 1)},
             {"rho": REALS, "n_classes": COUNTS}))
def test_ca_bounds(kw):
    bounds = outcome(cl.ca_bounds, **kw)
    if bounds is not None:
        assert 0.0 <= bounds.lower <= bounds.upper <= 1.0


@SETTINGS
@given(calls({"v": arrays((3, 5)) | arrays(5), "k": st.integers(1, 5)},
             {"v": raw_arrays((3, 5)), "k": COUNTS}))
def test_top_k_indices(kw):
    picks = outcome(cl.top_k_indices, **kw)
    if picks is not None:
        v = np.asarray(kw["v"])
        assert picks.shape == v.shape[:-1] + (kw["k"],)
        assert np.all((0 <= picks) & (picks < v.shape[-1]))


LOGITS = arrays((N, C))
LABELS = hnp.arrays(np.int64, N, elements=st.integers(0, C - 1))
RAW_LABELS = (raw_arrays(N, st.sampled_from([0.0, 1.0, 2.5, -1.0]))
              | st.sampled_from([[0, 1, 2, 3, 4], [0, 1, 2, -1, 0], [0] * (N + 1)]))


@SETTINGS
@given(calls({"logits": LOGITS, "labels": LABELS, "transform_probs": st.just(
    DATA.transform_probs[:N]), "record_ids": st.none() | LABELS},
             {"logits": raw_arrays((N, C)), "labels": RAW_LABELS,
              "transform_probs": raw_arrays((N, M, C), between(0.0, 1.0)),
              "record_ids": RAW_LABELS}))
def test_dataset_and_everything_that_scores_it(kw):
    d = outcome(cl.Dataset, **kw)
    if d is None:
        return
    view = cl.correctness_view(d)
    assert_finite(view.confidence, (N,))
    ratios = outcome(cl.wrongness_ratios, d)
    assert np.all(np.isnan(ratios) == view.correct) and np.all(ratios[~view.correct] <= 1.0)
    t = outcome(cl.fit_global_temperature, d)
    assert 0.05 <= t.tau <= 50.0
    assert_finite(outcome(cl.apply_global, d, t), (N,))
    assert_finite(outcome(cl.nll_objective, d, t.tau), ())
    assert_finite(outcome(cl.feature_matrix, d, K), (N, M * K))
    taus, confidences = outcome(cl.calibrate_dataset, PARAMS, d)
    assert_finite(taus, (N,))
    assert np.all((confidences > 0.0) & (confidences <= 1.0))
    rep = outcome(cl.report, d, confidences)
    assert_finite([rep.ece, rep.brier, rep.ks, rep.accuracy])


@SETTINGS
@given(hnp.arrays(np.int64, st.integers(0, 6), elements=st.integers(-DATA.n, 2 * DATA.n))
       | st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=4) | raw_arrays(3))
def test_dataset_subset(indices):
    d = outcome(DATA.subset, indices)
    if d is not None:
        assert np.array_equal(d.record_ids, DATA.record_ids[np.asarray(indices)])
        assert_finite(d.logits, (d.n, C))


@SETTINGS
@given(between(TINY, MAX) | REALS)
def test_temperatures(tau):
    t = outcome(cl.GlobalTemp, tau)
    if t is not None:
        assert_finite(outcome(cl.apply_global, DATA, t), (DATA.n,))
    value = outcome(cl.nll_objective, DATA, tau)
    if value is not None:
        assert_finite(value, ())


@SETTINGS
@given(calls({"a_values": arrays(st.integers(1, 4), between(-MAX, 1.99)),
              "tau_values": arrays(st.integers(1, 4), between(TINY, MAX))},
             {"a_values": raw_arrays(3), "tau_values": raw_arrays(3)}),
       st.sampled_from(LossKind) | ENUM_STAND_INS, st.sampled_from(DiscrepancyMode) | ENUM_STAND_INS)
def test_loss_surface(kw, kind, mode):
    grid = outcome(cl.loss_surface, kind, mode=mode, **kw)
    if grid is not None:
        shape = (grid.a_values.size, grid.tau_values.size)
        assert_finite(grid.loss, shape)
        assert_finite(grid.c_gt, shape)


def any_rank(elements):
    """Float arrays of rank 0, 1 or 2, empty ones included."""
    return arrays(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4), elements)


@SETTINGS
@given(any_rank(between(-MAX, 1.99)), any_rank(between(TINY, MAX)))
def test_loss_surface_grids_of_any_rank(a_values, tau_values):
    # Only vectors are grids: a 2-D one once came back with a loss of another shape.
    grid = outcome(cl.loss_surface, LossKind.CA, a_values, tau_values)
    if grid is not None:
        assert grid.a_values.shape == a_values.shape and grid.tau_values.shape == tau_values.shape
        assert_finite(grid.loss, a_values.shape + tau_values.shape)
        assert_finite(grid.c_gt, a_values.shape + tau_values.shape)


GRID = cl.loss_surface(LossKind.CA, [0.0, 1.0], [0.5, 2.0])
TRACE = cl.TrainingTrace([0.5, 0.25])
# Stand-ins for the one object an exporter takes: the others' objects and raw values.
EXPORTED = st.sampled_from([GRID, TRACE, DATA, PARAMS, GRID.loss, cl.report(DATA)]) | ODD


@SETTINGS
@given(EXPORTED, EXPORTED)
def test_exporters_of_one_object(grid, trace):
    with tempfile.TemporaryDirectory() as tmp:
        for export, value, cls in ((cl.export_surface_csv, grid, cl.SurfaceGrid),
                                   (cl.export_trace_csv, trace, cl.TrainingTrace)):
            path = Path(tmp) / "out.csv"
            written = outcome(lambda: export(path, value) or True)
            assert bool(written) == isinstance(value, cls) == path.exists()
            path.unlink(missing_ok=True)


# Value objects that hold arrays, each built twice from equal inputs.
VALUE_OBJECTS = {
    "CalibratorParams": lambda: cl.init_params(C, M, K, seed=0),
    "TrainingTrace": lambda: cl.TrainingTrace([0.5, 0.25]),
    "CorrectnessView": lambda: cl.correctness_view(DATA.subset(range(N))),
    "SurfaceGrid": lambda: cl.loss_surface(LossKind.CA, [0.0, 1.0], [0.5, 2.0]),
}


@pytest.mark.parametrize("build", VALUE_OBJECTS.values(), ids=VALUE_OBJECTS)
def test_value_objects_compare_by_identity(build):
    # Comparing two equal copies once raised on an array's truth value, and hash() raised.
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, second, first}) == 2


SURFACE_FIELDS = {"loss_kind": LossKind.CA, "mode": DiscrepancyMode.SQUARED_L2,
                  "a_values": np.array([0.0, 1.0]), "tau_values": np.array([1.0]),
                  "loss": np.zeros((2, 1)), "c_gt": np.zeros((2, 1))}


@pytest.mark.parametrize("bad", [
    # Once exported 1 data row instead of 2: zip stopped at the shortest column.
    {"loss": np.zeros((3, 3)), "c_gt": np.zeros((1, 1))},
    # Once failed at export with a bare AttributeError.
    {"loss_kind": "ca"},
    {"mode": "l1"},
    {"a_values": np.zeros((2, 1))},
    {"tau_values": ["a"]},
], ids=["short-columns", "loss-kind-string", "mode-string", "2-d-grid", "string-grid"])
def test_surface_grid_checks_itself(bad):
    assert isinstance(cl.SurfaceGrid(**SURFACE_FIELDS), cl.SurfaceGrid)
    with pytest.raises(cl.InvalidInputError):
        cl.SurfaceGrid(**{**SURFACE_FIELDS, **bad})


@SETTINGS
@given(calls({"n_classes": st.integers(2, 6), "n_transforms": st.integers(1, 4),
              "n": st.integers(1, 40), "seed": SEEDS, "target_rho": between(TINY, 1.0),
              "sharpness": between(TINY, MAX), "p_agree_correct": between(0.0, 1.0),
              "p_agree_wrong": between(0.0, 1.0), "noise": between(0.0, MAX),
              "concentration": between(TINY, MAX), "wrongness_skew": between(TINY, MAX)},
             {"n_classes": SMALL_COUNTS, "n_transforms": SMALL_COUNTS, "n": SMALL_COUNTS,
              "seed": COUNTS, **{name: REALS for name in (
                  "target_rho", "sharpness", "p_agree_correct", "p_agree_wrong", "noise",
                  "concentration", "wrongness_skew")}}))
def test_synth_config_and_generate(kw):
    cfg = outcome(cl.SynthConfig, **kw)
    if cfg is not None:
        d = outcome(cl.generate, cfg)
        if d is not None:
            assert (d.n, d.n_classes, d.n_transforms) == (cfg.n, cfg.n_classes, cfg.n_transforms)


@SETTINGS
@given(calls({"ratio_low": between(0.0, 0.5), "ratio_high": between(0.5, 1.0),
              "count": st.integers(1, 30), "n_correct": st.integers(0, 30)},
             {"ratio_low": REALS, "ratio_high": REALS, "count": COUNTS, "n_correct": COUNTS}))
def test_craft_wrongness_set(kw):
    d = outcome(cl.craft_wrongness_set, DATA, **kw)
    if d is not None:
        assert d.n == kw["count"] + kw["n_correct"]


@SETTINGS
@given(calls({"k": st.integers(1, C), "epochs": st.integers(1, 2), "seed": SEEDS,
              "batch_size": st.integers(1, 2 ** 63 - 1), "learning_rate": between(TINY, MAX),
              "tau_min": between(TINY, 1e100), "loss": st.sampled_from(LossKind),
              "mode": st.sampled_from(DiscrepancyMode), "two_hidden": st.booleans()},
             {"k": SMALL_COUNTS, "epochs": SMALL_COUNTS, "seed": COUNTS, "batch_size": COUNTS,
              "learning_rate": REALS, "tau_min": REALS, "loss": ENUM_STAND_INS,
              "mode": ENUM_STAND_INS}))
def test_train_config_and_training(kw):
    config = outcome(cl.TrainConfig, **kw)
    if config is None:
        return
    trained = outcome(cl.train, DATA.subset(range(40)), config)
    if trained is not None:
        assert_finite(trained[1].losses, (config.epochs + 1,))
        assert_finite(outcome(cl.calibrate_dataset, trained[0], DATA)[0], (DATA.n,))


@settings(SETTINGS, max_examples=30)
@given(st.integers(1, C) | SMALL_COUNTS)
def test_k_sweep(k):
    rows = outcome(cl.k_sweep, DATA, DATA, [k], cl.TrainConfig(epochs=1))
    if rows is not None:
        assert [row.k for row in rows] == [k]
        assert_finite([rows[0].ks, rows[0].auroc])


@settings(SETTINGS, max_examples=30)
@given(calls({"count": st.integers(1, 20), "bands": st.just(((0.0, 1.0),))},
             {"count": COUNTS, "bands": st.sampled_from([((0.5, 0.2),), ((0.0, float("nan")),),
                                                         (("a", 1.0),), ((0.0, 1.0, 2.0),),
                                                         (0.5,), ()]) | ODD}))
def test_wrongness_experiment(kw):
    rows = outcome(cl.wrongness_experiment, DATA, DATA, cl.TrainConfig(epochs=1), **kw)
    if rows is not None:
        assert len(rows) == 3 and all(row.n == kw["count"] for row in rows)
        assert_finite([row.ece for row in rows])


@SETTINGS
@given(calls({"n_classes": st.integers(K, 2 ** 63 - 1), "n_transforms": st.integers(1, 4),
              "k": st.integers(1, K), "tau_min": between(TINY, 1e100), "seed": SEEDS,
              "two_hidden": st.booleans()},
             {"n_classes": COUNTS, "n_transforms": SMALL_COUNTS, "k": SMALL_COUNTS,
              "tau_min": REALS, "seed": COUNTS}))
def test_init_params(kw):
    p = outcome(cl.init_params, **kw)
    if p is not None:
        assert p.input_width == kw["n_transforms"] * kw["k"]
        assert len(p.layers) == 2 + kw["two_hidden"]


@SETTINGS
@given(calls({"tau": between(1.0, MAX), "tau_min": between(TINY, 0.5)},
             {"tau": REALS, "tau_min": REALS}))
def test_constant_temperature_params(kw):
    p = outcome(cl.constant_temperature_params, n_classes=C, n_transforms=M, k=K, **kw)
    if p is not None:
        taus = outcome(cl.forward_batch, p, FEATURES)
        assert_finite(taus, (DATA.n,))
        np.testing.assert_allclose(taus, kw["tau"], rtol=1e-9)


WEIGHTS = {"W1": (5, M * K), "b1": (5,), "W2": (1, 5), "b2": (1,)}


@SETTINGS
@given(calls({**{key: arrays(shape) for key, shape in WEIGHTS.items()},
              "tau_min": between(TINY, 1e100), "n_classes": st.integers(K, 2 ** 63 - 1)},
             {**{key: raw_arrays(shape) for key, shape in WEIGHTS.items()},
              "tau_min": REALS, "n_classes": COUNTS}))
def test_calibrator_params(kw):
    p = outcome(cl.CalibratorParams, layers=[(kw["W1"], kw["b1"]), (kw["W2"], kw["b2"])],
                tau_min=kw["tau_min"], n_classes=kw["n_classes"], n_transforms=M, k=K)
    if p is not None:
        assert all(np.all(np.isfinite(a)) for layer in p.layers for a in layer)


@SETTINGS
@given(arrays((N, M * K)) | raw_arrays((N, M * K)))
def test_forward_batch(F):
    taus = outcome(cl.forward_batch, PARAMS, F)
    if taus is not None:
        assert_finite(taus, np.shape(F)[:1])
        assert np.all(taus >= PARAMS.tau_min)


@SETTINGS
@given(calls({"F": arrays((N, M * K), between(0.0, 1.0)), "Z": LOGITS, "labels": LABELS,
              "kind": st.sampled_from(LossKind), "mode": st.sampled_from(DiscrepancyMode)},
             {"F": raw_arrays((N, M * K), between(0.0, 1.0)), "Z": raw_arrays((N, C)),
              "labels": RAW_LABELS}))
def test_grad_params(kw):
    grads = outcome(cl.grad_params, PARAMS, **kw)
    if grads is not None:
        for (dw, db), (w, b) in zip(grads, PARAMS.layers):
            assert_finite(dw, w.shape)
            assert_finite(db, b.shape)


@SETTINGS
@given(calls({"d": st.just(DATA.subset(range(N))), "taus": arrays(N), "confidences": arrays(N)},
             {"d": EXPORTED, "taus": raw_arrays(N), "confidences": raw_arrays(N)}))
def test_export_confidence_csv(kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "applied.csv"
        if outcome(lambda: cl.export_confidence_csv(path, **kw) or True):
            assert len(path.read_text().splitlines()) == N + 1
        else:
            assert not path.exists()
