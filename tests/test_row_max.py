"""``row_max`` and ``shift_rows`` against the numpy formulas they replace: the
row max equals ``A.max(axis=-1)`` and the shift equals Z - max clamped at
-finfo.max, on both sides of the width where ``row_max`` stops folding columns.
The one difference is the sign of a zero max, and the top confidence, every
loss and the global-TS fit come out bit-identical either way."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calib_lab import tensor_math
from calib_lab.baselines import fit_global_temperature
from calib_lab.losses import DiscrepancyMode, LossKind, loss_values
from calib_lab.records import Dataset
from calib_lab.tensor_math import ROW_BLOCK, ROW_MAX_FOLD_LIMIT, row_max, shift_rows, top_confidence

MAX = float(np.finfo(float).max)
WIDTHS = [2, 3, 10, ROW_MAX_FOLD_LIMIT - 1, ROW_MAX_FOLD_LIMIT, 64, 65, 100, 1000]
# Rows spanning more than the float64 range, as in test_numeric_core.
EXTREME = np.array([[1e307, -1e307, 0.0], [0.0, 5e306, -1e307], [1e308, -1e308, 0.0]])
# Finite floats with the float64 extremes and both zeros drawn often.
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, MAX, -MAX, 5e-324]) \
    | st.floats(-MAX, MAX)


def old_shift(Z):
    """The row shift as one numpy expression over the whole matrix."""
    with np.errstate(over="ignore"):
        S = Z - Z.max(axis=1, keepdims=True)
    return np.maximum(S, -MAX, out=S)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def agrees(got, want, zero_max) -> bool:
    """Equal values everywhere and equal bits on the rows whose max is not zero."""
    return np.array_equal(got, want) and same_bits(got[~zero_max], want[~zero_max])


@pytest.mark.parametrize("c", WIDTHS)
def test_row_max_equals_the_reduction_bit_for_bit(c):
    rng = np.random.default_rng(c)
    for A in (rng.normal(0.0, 3.0, (300, c)),
              np.round(rng.normal(0.0, 2.0, (300, c))) + 0.5,  # tied maxima
              rng.normal(size=(1, c)),                          # one row
              rng.normal(size=(3, 40, c))):                     # an (R, n, C) stack
        assert same_bits(row_max(A), A.max(axis=-1))


def test_row_max_of_rows_spanning_the_float64_range():
    assert same_bits(row_max(EXTREME), EXTREME.max(axis=-1))
    assert same_bits(row_max(EXTREME[None]), EXTREME.max(axis=-1)[None])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WIDTHS[:6]).flatmap(lambda c: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 3), st.integers(1, 12), st.just(c)), elements=ENTRIES)))
def test_row_max_equals_the_reduction_on_any_finite_stack(A):
    want = A.max(axis=-1)
    assert agrees(row_max(A), want, want == 0)
    for matrix in A:
        assert agrees(row_max(matrix), matrix.max(axis=-1), matrix.max(axis=-1) == 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WIDTHS[:7]).flatmap(lambda c: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 30), st.just(c)), elements=ENTRIES)))
def test_shift_rows_equals_the_old_formula(Z):
    want = old_shift(Z)
    zero_max = Z.max(axis=1) == 0
    assert agrees(shift_rows(Z), want, zero_max)
    out = np.empty_like(Z)
    assert shift_rows(Z, out=out) is out and agrees(out, want, zero_max)
    assert shift_rows(Z, out=Z) is Z and agrees(Z, want, zero_max)


@pytest.mark.parametrize("c", [10, 100])
def test_shift_rows_across_row_blocks_equals_the_old_formula(c):
    Z = np.random.default_rng(5).normal(0.0, 4.0, (2 * ROW_BLOCK + 1, c))
    assert same_bits(shift_rows(Z), old_shift(Z))
    assert same_bits(shift_rows(EXTREME), old_shift(EXTREME))


def signed_zero_rows(n, c, seed):
    """Rows of +0, -0 and -1 entries: the max is a zero of either sign."""
    rng = np.random.default_rng(seed)
    Z = np.where(rng.random((n, c)) < 0.5, -0.0, 0.0)
    Z[rng.random((n, c)) < 0.2] = -1.0
    Z[:, -1] = -2.0  # a label of nonzero logit, so the fit sees a slope
    return Z


def reduced(fn, *args):
    """``fn(*args)`` with numpy's reduction in place of the column fold."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tensor_math, "row_max", lambda A: A.max(axis=-1))
        return fn(*args)


def test_a_zero_max_can_differ_in_sign_from_the_reduction():
    # From about 9 columns up, numpy's reduction meets ties of +0 and -0 in
    # another order than the fold does.
    Z = signed_zero_rows(4000, 10, 0)
    assert np.any(np.signbit(row_max(Z)) != np.signbit(Z.max(axis=-1)))


@settings(max_examples=40, deadline=None)
@given(c=st.integers(9, ROW_MAX_FOLD_LIMIT - 1), n=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32 - 1))
def test_signed_zero_maxima_leave_every_consumer_bit_identical(c, n, seed):
    Z = signed_zero_rows(n, c, seed)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, n)
    taus = rng.uniform(0.05, 5.0, n)
    for t in (None, 0.3, taus):
        assert same_bits(top_confidence(Z, t), reduced(top_confidence, Z, t))
    for kind in LossKind:
        for mode in DiscrepancyMode:
            assert same_bits(loss_values(Z, labels, taus, kind, mode),
                             reduced(loss_values, Z, labels, taus, kind, mode))
    d = Dataset(Z, labels, np.full((n, 1, c), 1.0 / c))
    assert fit_global_temperature(d).tau.hex() == reduced(fit_global_temperature, d).tau.hex()
