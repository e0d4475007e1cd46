import math

import numpy as np
import pytest

from calib_lab.analysis import DEFAULT_BANDS
from calib_lab.datagen import SynthConfig, craft_wrongness_set, generate
from calib_lab.errors import InvalidInputError
from calib_lab.records import Dataset, correctness_view, wrongness_ratios
from calib_lab.tensor_math import row_softmax


def make_dataset(logit_rows, labels, m=2):
    """Records with uniform transform rows."""
    logits = np.asarray(logit_rows, dtype=float)
    n, c = logits.shape
    return Dataset(logits, labels, np.full((n, m, c), 1.0 / c))


def one_ratio(logits, label):
    """Wrongness ratio of a single record, as a one-row dataset."""
    return wrongness_ratios(make_dataset([logits], [label]))[0]


def test_correctness_flags():
    d = make_dataset([[5, 0, 0, 0], [5, 0, 0, 0]], [0, 1])
    view = correctness_view(d)
    assert view.correct.tolist() == [True, False]
    assert view.predicted.tolist() == [0, 0]


def test_accuracy_matches_brute_count():
    rng = np.random.default_rng(3)
    rows = rng.normal(0, 2, (200, 5))
    labels = rng.integers(0, 5, 200)
    d = make_dataset(rows, labels)
    view = correctness_view(d)
    count = sum(1 for i in range(200) if int(np.argmax(rows[i])) == labels[i])
    assert view.accuracy == count / 200


def test_view_independent_of_transforms():
    rng = np.random.default_rng(4)
    logits = rng.normal(0, 2, (50, 4))
    labels = rng.integers(0, 4, 50)
    probs_a = np.full((50, 3, 4), 0.25)
    probs_b = rng.dirichlet(np.ones(4), size=(50, 3))
    va = correctness_view(Dataset(logits, labels, probs_a))
    vb = correctness_view(Dataset(logits, labels, probs_b))
    np.testing.assert_array_equal(va.predicted, vb.predicted)
    np.testing.assert_array_equal(va.confidence, vb.confidence)


def test_wrongness_ratio_narrow_case():
    # Probabilities ~0.412 / ~0.455 on ground truth vs predicted class;
    # the ratio is exactly e^(1.9 - 2.0).
    ratio = one_ratio([1.9, 2.0, 0.1, 0.05], 0)
    assert abs(ratio - math.exp(-0.1)) < 1e-12
    assert ratio > 0.5  # narrowly wrong


def test_wrongness_ratio_absolute_case():
    ratio = one_ratio([0.0, 4.5, -3.0], 0)
    assert ratio == pytest.approx(math.exp(-4.5), rel=1e-12)
    assert ratio < 0.05


def test_wrongness_ratio_bounds_on_random_wrong_records():
    rng = np.random.default_rng(5)
    seen = 0
    while seen < 100:
        z = rng.normal(0, 2, 6)
        label = int(rng.integers(6))
        if int(np.argmax(z)) == label:
            continue
        ratio = one_ratio(z, label)
        assert 0.0 < ratio <= 1.0
        seen += 1


def test_wrongness_ratios_match_one_row_subsets():
    rng = np.random.default_rng(6)
    rows = rng.normal(0, 2, (80, 5))
    labels = rng.integers(0, 5, 80)
    d = make_dataset(rows, labels)
    ratios = wrongness_ratios(d)
    for i in range(80):
        if int(np.argmax(rows[i])) == labels[i]:
            assert np.isnan(ratios[i])
        else:
            assert ratios[i] == wrongness_ratios(d.subset([i]))[0]


def test_one_row_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset([[1.0, np.nan]], [0], [np.full((1, 2), 0.5)])
    with pytest.raises(InvalidInputError):
        Dataset([[1.0, 2.0]], [5], [np.full((1, 2), 0.5)])
    with pytest.raises(InvalidInputError):
        Dataset([[1.0, 2.0]], [0], [[[0.7, 0.7]]])  # sums to 1.4


def test_dataset_requires_consistent_shapes():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((2, 3)), [0, 0], np.full((2, 2, 2), 0.5))  # C = 3 vs 2
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((0, 3)), [], np.zeros((0, 2, 3)))


def test_dataset_subset_preserves_contents():
    rng = np.random.default_rng(7)
    rows = rng.normal(0, 2, (20, 4))
    labels = rng.integers(0, 4, 20)
    d = make_dataset(rows, labels)
    sub = d.subset([3, 7, 11])
    np.testing.assert_array_equal(sub.logits[1], d.logits[7])
    np.testing.assert_array_equal(sub.record_ids, [3, 7, 11])


@pytest.mark.parametrize("labels,record_ids", [([1.5], None), ([True], None), ([1], [1.7]),
                                               ([1], [True]), ([[1], [0, 1]], None)])
def test_dataset_refuses_non_integer_labels_and_ids(labels, record_ids):
    with pytest.raises(InvalidInputError):
        Dataset([[1.0, 0.0]], labels, [[[0.5, 0.5]]], record_ids=record_ids)


@pytest.mark.parametrize("indices", [np.array([False, True, True]), [0.9], np.array([1.0])])
def test_subset_refuses_non_integer_indices(indices):
    d = Dataset(np.zeros((3, 2)), [0, 1, 0], np.full((3, 1, 2), 0.5))
    with pytest.raises(InvalidInputError):
        d.subset(indices)


@pytest.mark.parametrize("indices", [[3], [-1], [0, 10 ** 6], [-4]])
def test_subset_refuses_indices_outside_the_dataset(indices):
    d = Dataset(np.zeros((3, 2)), [0, 1, 0], np.full((3, 1, 2), 0.5))
    with pytest.raises(InvalidInputError, match=r"subset indices must lie in \[0, 3\)"):
        d.subset(indices)


def _corrupt(what):
    logits, labels = np.zeros((4, 3)), np.array([0, 1, 2, 0])
    probs = np.full((4, 2, 3), 1.0 / 3.0)
    if "logit" in what:
        logits[2, 1] = np.inf
    if "label" in what:
        labels[2] = 3
    if "sign" in what:
        probs[3, 1] = [1.2, -0.2, 0.0]
    if "sum" in what:
        probs[1, 0, 0] += 1e-6
    return logits, labels, probs


@pytest.mark.parametrize("what,row,field", [
    (("logit",), 2, "logits"), (("label",), 2, "label"), (("sign",), 3, "transforms[1]"),
    (("sum",), 1, "transforms[0]"), (("label", "logit"), 2, "logits"),
    (("logit", "sum"), 1, "transforms[0]"),
])
def test_dataset_names_first_bad_row_and_field(what, row, field):
    with pytest.raises(InvalidInputError) as excinfo:
        Dataset(*_corrupt(what))
    assert (excinfo.value.row, excinfo.value.field) == (row, field)


# --- one view per dataset ---

def test_view_is_built_once_per_dataset():
    d = generate(SynthConfig(n=300, seed=30))
    view = correctness_view(d)
    assert correctness_view(d) is view
    wrongness_ratios(d)
    assert correctness_view(d) is view


def test_stored_view_is_read_only():
    view = correctness_view(generate(SynthConfig(n=50, seed=31)))
    for arr in (view.predicted, view.correct, view.confidence):
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_dataset_copies_caller_arrays_and_freezes_its_own():
    logits, probs = np.zeros((3, 4)), np.full((3, 2, 4), 0.25)
    d = Dataset(logits, [0, 1, 2], probs)
    logits[0, 0] = probs[0, 0, 0] = 1.0  # the caller's arrays stay writable and apart
    assert d.logits[0, 0] == 0.0 and d.transform_probs[0, 0, 0] == 0.25
    generated = generate(SynthConfig(n=40, seed=33))
    sub = generated.subset([2, 0])
    assert not np.shares_memory(sub.logits, generated.logits)
    assert not np.shares_memory(sub.transform_probs, generated.transform_probs)
    for ds in (d, generated, sub):
        for arr in (ds.logits, ds.labels, ds.transform_probs, ds.record_ids):
            with pytest.raises(ValueError):
                arr[0] = arr[-1]


def test_subset_gets_a_view_of_its_own_rows():
    d = generate(SynthConfig(n=400, seed=32))
    full = correctness_view(d)
    rows = np.array([5, 3, 399, 0, 5])
    sub_view = correctness_view(d.subset(rows))
    assert sub_view is not full
    for name in ("predicted", "correct", "confidence"):
        assert np.array_equal(getattr(sub_view, name), getattr(full, name)[rows])


# --- wrong-rows-only ratios equal the full-softmax formula ---

def full_softmax_wrongness_ratios(d):
    """The ratio as first written: one softmax over every row, then NaN on correct rows."""
    probs = row_softmax(d.logits)
    predicted = np.argmax(d.logits, axis=1)
    idx = np.arange(d.n)
    ratios = probs[idx, d.labels] / probs[idx, predicted]
    return np.where(predicted == d.labels, np.nan, ratios)


def ratio_fixtures():
    """Generated sets at several widths, plus rows with ties and with logits
    spanning the float64 range."""
    for c, seed in ((2, 33), (3, 34), (10, 7), (100, 35)):
        yield generate(SynthConfig(n_classes=c, n=3000, seed=seed))
    ties = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [-1.0, -1.0, -1.0], [1e307, -1e307, 0.0],
                     [0.0, 5e306, -1e307], [1e308, -1e308, 0.0], [1.9, 2.0, 0.1]])
    yield Dataset(np.repeat(ties, 3, axis=0), np.tile([0, 1, 2], len(ties)),
                  np.full((3 * len(ties), 1, 3), 1.0 / 3.0))


@pytest.mark.parametrize("d", list(ratio_fixtures()), ids=["C2", "C3", "C10", "C100", "ties"])
def test_wrongness_ratios_equal_full_softmax_formula(d):
    assert np.array_equal(wrongness_ratios(d), full_softmax_wrongness_ratios(d), equal_nan=True)


@pytest.mark.parametrize("seed", [7, 8, 9, 11, 43])
def test_crafted_bands_select_the_full_softmax_rows(seed):
    d = generate(SynthConfig(n=10000, seed=seed))
    ratios = full_softmax_wrongness_ratios(d)
    correct_idx = np.flatnonzero(np.argmax(d.logits, axis=1) == d.labels)
    bands = DEFAULT_BANDS + ((0.0, 0.1), (0.0, 0.3), (0.3, 0.6), (0.2, 0.8), (0.5, 1.0), (0.0, 1.0))
    for low, high in bands:
        with np.errstate(invalid="ignore"):
            in_band = np.flatnonzero((ratios >= low) & (ratios < high))
        # every record of the band, so a band that grew or shrank fails too
        crafted = craft_wrongness_set(d, low, high, in_band.size, n_correct=20)
        assert np.array_equal(crafted.record_ids, np.concatenate([in_band, correct_idx[:20]]))
