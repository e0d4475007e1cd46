"""Scoring and generation run in plain row blocks: the blocks are invisible in
the bits of every output, a record scores the same in any batch, and the
temporaries they leave are block-sized."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_lab import tensor_math
from calib_lab.baselines import GlobalTemp, apply_global, fit_global_temperature, nll_objective
from calib_lab.calibrator import calibrate_dataset, feature_matrix, forward_batch, init_params
from calib_lab.datagen import SynthConfig, _random_other, generate
from calib_lab.losses import DiscrepancyMode, LossKind, loss_values
from calib_lab.records import Dataset
from calib_lab.tensor_math import (ROW_BLOCK, map_row_blocks, predicted_labels, row_blocks,
                                   top_confidence)

B = ROW_BLOCK
SIZES = [1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]


# --- the blocks ---

@pytest.mark.parametrize("n", [0, 1, 7, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1,
                               5 * B + 3, 300_001])
def test_row_blocks_are_plain_blocks_covering_the_rows_in_order(n):
    blocks = row_blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(rows.stop - rows.start == B for rows in blocks[:-1])
    assert 0 < blocks[-1].stop - blocks[-1].start <= B or n == 0
    assert len(blocks) == max(-(-n // B), 1)


def test_one_block_is_returned_as_it_is():
    out = np.arange(5.0)
    assert map_row_blocks(lambda rows: out, out.size) is out


def test_blocks_are_joined_along_the_row_axis():
    n = 2 * B + 1
    M = np.arange(3 * n, dtype=np.float64).reshape(n, 3)
    assert np.array_equal(map_row_blocks(lambda rows: M[rows], n), M)


# --- every blocked kernel equals the same kernel run once on the whole matrix ---

@pytest.fixture(scope="module")
def full():
    return generate(SynthConfig(n=2 * B + 1, n_classes=10, n_transforms=3, seed=4))


@pytest.fixture
def whole(monkeypatch):
    """Calls ``fn`` with every row in one block of 4 * B rows, more than any
    size in ``SIZES``."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(tensor_math, "ROW_BLOCK", 4 * B)
            return fn(*args)
    return run


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def randomised(p, seed: int):
    """``p`` with nonzero biases, so every layer moves the temperatures."""
    rng = np.random.default_rng(seed)
    return replace(p, layers=[(w, rng.normal(size=b.shape)) for w, b in p.layers])


@pytest.mark.parametrize("n", SIZES)
def test_top_confidence_is_blocked_invisibly(full, whole, n):
    Z = full.logits[:n]
    per_row = np.random.default_rng(n).uniform(0.05, 20.0, n)
    for taus in (None, 0.7, per_row):
        assert same_bits(top_confidence(Z, taus), whole(top_confidence, Z, taus))


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("n", SIZES)
def test_loss_values_are_blocked_invisibly(full, whole, n, kind):
    Z, labels = full.logits[:n], full.labels[:n]
    taus = np.random.default_rng(n).uniform(0.05, 20.0, n)
    for mode in DiscrepancyMode:
        assert same_bits(loss_values(Z, labels, taus, kind, mode),
                         whole(loss_values, Z, labels, taus, kind, mode))


@pytest.mark.parametrize("n", SIZES)
def test_features_temperatures_and_scores_are_blocked_invisibly(full, whole, n):
    d = full.subset(np.arange(n))
    for k in (1, 4, d.n_classes):
        assert same_bits(feature_matrix(d, k), whole(feature_matrix, d, k))
    F = feature_matrix(d, 4)
    for two_hidden in (False, True):
        p = randomised(init_params(10, 3, 4, seed=n, two_hidden=two_hidden), n)
        assert same_bits(forward_batch(p, F), whole(forward_batch, p, F))
        for got, want in zip(calibrate_dataset(p, d), whole(calibrate_dataset, p, d)):
            assert same_bits(got, want)


@pytest.mark.parametrize("n", SIZES)
def test_global_temperature_fit_is_blocked_invisibly(full, whole, n):
    d = full.subset(np.arange(n))
    assert fit_global_temperature(d).tau.hex() == whole(fit_global_temperature, d).tau.hex()


# --- a record's temperature and confidence are functions of that record alone ---

MAX_OFFSET = 64


@pytest.fixture(scope="module")
def networks():
    """(pool, network, the pool's temperatures and confidences scored as one
    batch) for one and two hidden layers, at C = 10, k = 4 and at C = 100, k = 16."""
    out = []
    for c, m, k in ((10, 3, 4), (100, 2, 16)):
        pool = generate(SynthConfig(n=2 * B + 1 + MAX_OFFSET, n_classes=c, n_transforms=m, seed=c))
        for two_hidden in (False, True):
            p = randomised(init_params(c, m, k, seed=k, two_hidden=two_hidden), k)
            out.append((pool, p, *calibrate_dataset(p, pool)))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_scores_the_same_alone_in_chunks_and_from_an_offset_view(networks, data):
    pool, p, taus, confidences = data.draw(st.sampled_from(networks))
    n = data.draw(st.sampled_from([1, 2, 7, 255, 256, B - 1, B, B + 1, 2 * B + 1]))
    start = data.draw(st.integers(0, MAX_OFFSET))

    def scores_as_in_the_pool(d, lo):
        for got, want in zip(calibrate_dataset(p, d), (taus, confidences)):
            assert same_bits(got, want[lo:lo + d.n])

    # The records as a view at a row offset into the pool's arrays, kept as it is.
    rows = slice(start, start + n)
    scores_as_in_the_pool(Dataset(pool.logits[rows], pool.labels[rows],
                                  pool.transform_probs[rows], _owned=True), start)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=4)))) if n > 1 else []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        scores_as_in_the_pool(pool.subset(np.arange(start + lo, start + hi)), start + lo)
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        scores_as_in_the_pool(pool.subset([start + i]), start + i)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_a_record_scores_the_same_whatever_the_feature_layout(networks, layout):
    for pool, p, taus, _ in networks:
        F = feature_matrix(pool, p.k)
        F = np.asfortranarray(F) if layout == "fortran" else np.repeat(F, 2, axis=0)[::2]
        assert same_bits(forward_batch(p, F), taus)


def unblocked_generate(cfg: SynthConfig):
    """The generator as it was before it drew its Dirichlet vectors per row
    block: one draw over all rows per channel. Logits, labels, transforms."""
    rng = np.random.default_rng(cfg.seed)
    n, c, m = cfg.n, cfg.n_classes, cfg.n_transforms
    rows = np.arange(n)
    labels = rng.integers(0, c, size=n)
    correct = rng.random(n) < cfg.target_rho
    predicted = labels.copy()
    predicted[~correct] = _random_other(rng, labels[~correct], c)
    logits = rng.normal(0.0, abs(cfg.noise), size=(n, c))
    logits[rows, predicted] += cfg.sharpness
    wrong_lift = (rng.random(n) ** cfg.wrongness_skew) * cfg.sharpness
    logits[~correct, labels[~correct]] += wrong_lift[~correct]
    top = predicted_labels(logits)
    off = top != predicted
    off_rows = rows[off]
    logits[off_rows, top[off]], logits[off_rows, predicted[off]] = (
        logits[off_rows, predicted[off]], logits[off_rows, top[off]])
    agree_p = np.where(correct, cfg.p_agree_correct, cfg.p_agree_wrong)
    transform_probs, alpha = np.empty((n, m, c)), np.ones((n, c))
    for i in range(m):
        agrees = rng.random(n) < agree_p
        channel_class = predicted.copy()
        channel_class[~agrees] = _random_other(rng, predicted[~agrees], c)
        alpha[rows, channel_class] += cfg.concentration
        probs = rng.standard_gamma(alpha)
        alpha[rows, channel_class] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        top_p = np.argmax(probs, axis=1)
        off = top_p != channel_class
        off_rows = rows[off]
        probs[off_rows, top_p[off]], probs[off_rows, channel_class[off]] = (
            probs[off_rows, channel_class[off]], probs[off_rows, top_p[off]])
        transform_probs[:, i, :] = probs
    return logits, labels, transform_probs


@pytest.mark.parametrize("cfg", [
    SynthConfig(n=2 * B + 1, n_classes=10, n_transforms=3, seed=11),
    SynthConfig(n=3 * B + 5, n_classes=7, n_transforms=2, concentration=3.0,
                wrongness_skew=0.5, p_agree_wrong=0.2, seed=12)])
def test_generate_draws_the_bytes_of_one_unblocked_draw(cfg):
    d = generate(cfg)
    for got, want in zip((d.logits, d.labels, d.transform_probs), unblocked_generate(cfg)):
        assert same_bits(got, want)


# --- memory: tracemalloc peaks as multiples of the logit matrix ---
# At 100k x C=10 x M=3 (twelve full blocks and a short tail), measured before
# the row blocks -> with them: generate 7.84 -> 5.66 (its output alone is about
# 4.25), calibrate_dataset 1.90 -> 1.47, fit_global_temperature 3.40 -> 1.48,
# apply_global 1.20 -> 0.21, nll_objective 1.30 -> 0.22. Each bound keeps a
# margin of at least 0.15 (1.2 MB) over the blocked peak and lies below the
# unblocked one.

@pytest.fixture(scope="module")
def large():
    cfg = SynthConfig(n=100_000, n_classes=10, n_transforms=3, seed=5)
    return cfg, generate(cfg)


def peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_holds_its_output_and_block_sized_draws(large):
    cfg, d = large
    assert peak(generate, cfg) <= 6.5 * d.logits.nbytes


def test_scoring_holds_the_features_and_block_sized_temporaries(large):
    _, d = large
    p = randomised(init_params(10, 3, 4, seed=0), 0)
    assert peak(calibrate_dataset, p, d) <= 1.7 * d.logits.nbytes


@pytest.mark.parametrize("two_hidden", [False, True])
def test_scoring_one_record_holds_one_row(large, two_hidden):
    _, d = large
    one = d.subset([0])
    p = randomised(init_params(10, 3, 4, seed=0, two_hidden=two_hidden), 0)
    F = feature_matrix(one, 4)
    assert peak(forward_batch, p, F) <= 64 * 1024
    assert peak(calibrate_dataset, p, one) <= 64 * 1024


def test_global_temperature_fit_holds_one_shifted_matrix(large):
    _, d = large
    assert peak(fit_global_temperature, d) <= 2.0 * d.logits.nbytes


def test_global_scores_hold_block_sized_temporaries(large):
    _, d = large
    assert peak(apply_global, d, GlobalTemp(1.3)) <= 0.4 * d.logits.nbytes


def test_global_objective_holds_block_sized_temporaries(large):
    _, d = large
    assert peak(nll_objective, d, 1.3) <= 0.4 * d.logits.nbytes
