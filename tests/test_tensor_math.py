import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_lab.errors import InvalidInputError
from calib_lab.tensor_math import (predicted_labels, row_softmax, sigmoid, softplus,
                                   stable_order, top_confidence, top_k_indices)

# Softmax of [1.0, 2.0, 0.1, 0.05], computed with a 60-digit
# arbitrary-precision oracle ahead of the build.
ORACLE_LOGITS = [1.0, 2.0, 0.1, 0.05]
ORACLE_SOFTMAX = np.array([0.22165122346861876, 0.6025104930104614,
                           0.09011666250672383, 0.08572162101419598])


def test_softmax_uniform_logits():
    assert np.allclose(row_softmax([[0.0, 0.0, 0.0, 0.0]])[0], 0.25, atol=1e-15)


def test_softmax_matches_arbitrary_precision_oracle():
    np.testing.assert_allclose(row_softmax([ORACLE_LOGITS])[0], ORACLE_SOFTMAX, rtol=0,
                               atol=1e-15)


def test_softmax_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        row_softmax([[np.inf, 0.0]])
    with pytest.raises(InvalidInputError):
        row_softmax([[np.nan, 0.0]])


def test_logits_that_are_not_a_matrix_are_named_in_the_error():
    for Z in ([0.0, 1.0], [[[0.0, 1.0]]], 0.5):
        with pytest.raises(InvalidInputError, match=r"logits has shape .*, expected \(None, None\)"):
            row_softmax(Z)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=20))
def test_softmax_sums_to_one(logits):
    assert abs(row_softmax([logits])[0].sum() - 1.0) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=10),
       st.floats(-30, 30))
def test_softmax_shift_invariance(logits, c):
    z = np.asarray(logits)
    assert np.max(np.abs(row_softmax([z])[0] - row_softmax([z + c])[0])) < 1e-12


def test_row_softmax_rejects_bad_tau():
    for tau in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            row_softmax([[1.0, 2.0]], tau)


def test_infinite_temperature_limit_flattens():
    p = row_softmax([[1.0, 2.0, 0.1, 0.05]], 1e9)[0]
    np.testing.assert_allclose(p, 0.25, atol=1e-9)


def test_top_k_obvious_ordering():
    np.testing.assert_array_equal(top_k_indices([0.1, 0.6, 0.2, 0.1], 2), [1, 2])


def test_top_k_tie_breaks_by_smaller_index():
    np.testing.assert_array_equal(top_k_indices([0.25, 0.25, 0.25, 0.25], 2), [0, 1])


def test_top_k_of_oracle_softmax():
    np.testing.assert_array_equal(top_k_indices(row_softmax([ORACLE_LOGITS])[0], 4), [1, 0, 2, 3])


def test_top_k_rejects_out_of_range_k():
    with pytest.raises(InvalidInputError):
        top_k_indices([0.5, 0.5], 3)
    with pytest.raises(InvalidInputError):
        top_k_indices([0.5, 0.5], 0)


def test_top_k_is_prefix_of_full_sort():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.random(rng.integers(2, 12))
        full = top_k_indices(v, v.size)
        for k in range(1, v.size + 1):
            np.testing.assert_array_equal(top_k_indices(v, k), full[:k])


def argsort_top_k(v, k):
    """The oracle: the first k entries of a stable descending argsort."""
    return np.argsort(-v, axis=-1, kind="stable")[..., :k]


@settings(max_examples=300, deadline=None)
@given(n_classes=st.sampled_from([2, 10, 100]), n_rows=st.sampled_from([None, 0, 1, 7, 40]),
       seed=st.integers(0, 2 ** 32 - 1), tied=st.booleans(), data=st.data())
def test_top_k_equals_stable_argsort(n_classes, n_rows, seed, tied, data):
    k = data.draw(st.one_of(st.just(1), st.just(n_classes), st.integers(1, n_classes)))
    shape = (n_classes,) if n_rows is None else (n_rows, n_classes)
    v = 3.0 * np.random.default_rng(seed).standard_normal(shape)
    if tied:
        # Logits rounded to 0.1: heavy ties, signed zeros among them.
        v = np.round(v, 1)
    got = top_k_indices(v, k)
    assert np.array_equal(got, argsort_top_k(v, k))
    assert got.shape == shape[:-1] + (k,) and got.flags.c_contiguous


def test_top_k_leaves_its_input_unchanged():
    v = np.round(np.random.default_rng(3).standard_normal((50, 10)), 1)
    before = v.copy()
    top_k_indices(v, 10)
    assert np.array_equal(v, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("matrix", [False, True])
def test_top_k_rejects_non_finite_entries(bad, matrix):
    v = np.array([[0.5, bad, 0.1], [0.2, 0.3, 0.4]])
    with pytest.raises(InvalidInputError, match="non-finite"):
        top_k_indices(v if matrix else v[0], 2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # integer-valued floats: heavy ties, signed zeros among them
    st.lists(st.integers(-3, 3), min_size=0, max_size=300),
    st.integers(1, 300).map(lambda n: [0.5] * n),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=50),
))
def test_stable_order_equals_stable_argsort(values):
    values = np.asarray(values, dtype=np.float64)
    if values.size:
        values[::4] = -values[::4]
    assert np.array_equal(stable_order(values), np.argsort(values, kind="stable"))


def test_stable_order_of_300k_untied_and_tied_values():
    untied = np.random.default_rng(2).random(300_000)
    assert np.unique(untied).size == untied.size
    for values in (untied, np.round(untied, 3)):
        assert np.array_equal(stable_order(values), np.argsort(values, kind="stable"))


def test_top_confidence_closed_form():
    z = [[5.0, 0.0, 0.0, 0.0]]
    assert predicted_labels(np.array(z))[0] == 0
    # e^5 / (e^5 + 3), oracle-checked.
    assert abs(top_confidence(z, 1.0)[0] - 0.980186662653491) < 1e-15


def test_softmax_argmax_invariant_to_tau():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(0, 3, 6)
        labels = {int(np.argmax(row_softmax([z], tau)[0])) for tau in (0.1, 0.7, 1.0, 5.0, 40.0)}
        assert labels == {int(predicted_labels(z[None, :])[0])}


def test_top_confidence_uniform_degenerate():
    assert abs(top_confidence([[2.0, 2.0, 2.0, 2.0]], 1.0)[0] - 0.25) < 1e-15


def test_top_confidence_decreasing_in_tau():
    z = [1.0, 2.0, 0.1, 0.05]
    taus = np.geomspace(0.05, 50, 60)
    scores = [top_confidence([z], t)[0] for t in taus]
    assert np.all(np.diff(scores) < 0)


def test_softplus_at_zero():
    assert abs(softplus(np.array(0.0)) - np.log(2.0)) < 1e-15


def test_sigmoid_equals_the_two_branch_formula_bit_for_bit():
    x = np.concatenate([np.random.default_rng(7).normal(0.0, 5.0, 100_000),
                        [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308]])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert sigmoid(x).tobytes() == expected.tobytes()
