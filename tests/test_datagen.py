import numpy as np
import pytest

from calib_lab.calibrator import TrainConfig, calibrate_dataset, train
from calib_lab.datagen import SynthConfig, craft_wrongness_set, generate
from calib_lab.errors import InvalidInputError, ShortfallError
from calib_lab.metrics import auroc
from calib_lab.records import correctness_view, wrongness_ratios

# A wrong record is narrowly wrong when its ground-truth/predicted probability ratio exceeds this.
NARROWLY_WRONG_THRESHOLD = 0.5


def test_all_correct_at_rho_one():
    d = generate(SynthConfig(n=500, target_rho=1.0, seed=0))
    assert correctness_view(d).accuracy == 1.0


def test_realized_rho_within_binomial_bound():
    for seed in range(5):
        cfg = SynthConfig(n=20000, target_rho=0.7, seed=seed)
        rho_hat = correctness_view(generate(cfg)).accuracy
        sigma = np.sqrt(0.7 * 0.3 / cfg.n)
        assert abs(rho_hat - 0.7) <= 3 * sigma


def test_transform_rows_are_valid_and_peaked():
    d = generate(SynthConfig(n=200, seed=1))
    sums = d.transform_probs.sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    assert np.all(d.transform_probs >= 0)


def test_generation_deterministic_per_seed():
    a = generate(SynthConfig(n=300, seed=2))
    b = generate(SynthConfig(n=300, seed=2))
    c = generate(SynthConfig(n=300, seed=3))
    assert a.logits.tobytes() == b.logits.tobytes()
    assert a.transform_probs.tobytes() == b.transform_probs.tobytes()
    assert a.logits.tobytes() != c.logits.tobytes()


def test_wrongness_spectrum_spans_bands():
    d = generate(SynthConfig(n=20000, seed=4))
    ratios = wrongness_ratios(d)
    for lo, hi in ((0.8, 1.0), (0.6, 0.8), (0.4, 0.6), (0.2, 0.4), (0.0, 0.2)):
        with np.errstate(invalid="ignore"):
            count = np.sum((ratios >= lo) & (ratios < hi))
        assert count > 50, f"band [{lo},{hi}) too thin: {count}"


def test_uninformative_features_give_no_auroc_improvement():
    cfg = dict(n_classes=10, n_transforms=3, target_rho=0.7,
               p_agree_correct=0.6, p_agree_wrong=0.6)
    d_train = generate(SynthConfig(n=6000, seed=5, **cfg))
    d_test = generate(SynthConfig(n=3000, seed=6, **cfg))
    params, _ = train(d_train, TrainConfig(epochs=25, seed=0))
    view = correctness_view(d_test)
    _, conf = calibrate_dataset(params, d_test)
    assert auroc(conf, view.correct) <= auroc(view.confidence, view.correct) + 0.01


def test_transform_count_is_data_driven():
    # M is a dataset property end to end, never hard-coded.
    for m in (1, 2, 5):
        d = generate(SynthConfig(n=300, n_transforms=m, seed=12))
        assert d.n_transforms == m
        params, _ = train(d, TrainConfig(epochs=2, seed=0))
        assert params.input_width == m * 4


def test_config_validation():
    # A config checks itself when it is made.
    with pytest.raises(InvalidInputError):
        SynthConfig(target_rho=0.0)
    with pytest.raises(InvalidInputError):
        SynthConfig(n_classes=1)
    with pytest.raises(InvalidInputError):
        SynthConfig(p_agree_wrong=1.2)
    with pytest.raises(InvalidInputError):
        SynthConfig(wrongness_skew=0.0)
    # The counts once raised a bare TypeError or ValueError, and an infinite
    # concentration a RuntimeWarning in generate.
    for bad in (dict(n=1.5), dict(n_classes=2.5), dict(seed=-1), dict(n=True),
                dict(concentration=float("inf")), dict(noise=float("nan"))):
        with pytest.raises(InvalidInputError):
            SynthConfig(**bad)
    with pytest.raises(InvalidInputError):
        SynthConfig(sharpness="5")
    assert SynthConfig(noise=0.0, p_agree_wrong=0.0, p_agree_correct=1.0).noise == 0.0


# --- wrongness-band crafting ---

def test_crafted_band_satisfies_narrow_definition():
    d = generate(SynthConfig(n=20000, seed=7))
    subset = craft_wrongness_set(d, 0.5, 1.0, 200)
    ratios = wrongness_ratios(subset)
    assert subset.n == 200
    assert np.all(~np.isnan(ratios))
    assert np.all(ratios > NARROWLY_WRONG_THRESHOLD)


def test_crafted_absolute_band():
    d = generate(SynthConfig(n=20000, seed=7))
    subset = craft_wrongness_set(d, 0.0, 0.1, 200)
    ratios = wrongness_ratios(subset)
    assert np.all(ratios < 0.1)


def test_disjoint_bands_give_disjoint_records():
    d = generate(SynthConfig(n=20000, seed=8))
    a = craft_wrongness_set(d, 0.0, 0.3, 100)
    b = craft_wrongness_set(d, 0.3, 0.6, 100)
    assert set(a.record_ids.tolist()).isdisjoint(b.record_ids.tolist())


def test_crafting_preserves_contents_bit_exactly():
    d = generate(SynthConfig(n=5000, seed=9))
    subset = craft_wrongness_set(d, 0.2, 0.8, 50)
    for pos, rid in enumerate(subset.record_ids):
        src = int(np.flatnonzero(d.record_ids == rid)[0])
        assert subset.logits[pos].tobytes() == d.logits[src].tobytes()
        assert subset.transform_probs[pos].tobytes() == d.transform_probs[src].tobytes()


def test_shortfall_error_names_band():
    d = generate(SynthConfig(n=200, seed=10))
    with pytest.raises(ShortfallError) as excinfo:
        craft_wrongness_set(d, 0.9, 1.0, 10 ** 6)
    err = excinfo.value
    assert err.band == (0.9, 1.0)
    assert err.requested == 10 ** 6
    assert "[0.9, 1.0)" in str(err)


def test_crafting_refuses_counts_that_are_not_integers():
    # Each once raised a bare TypeError.
    d = generate(SynthConfig(n=200, seed=12))
    with pytest.raises(InvalidInputError):
        craft_wrongness_set(d, 0.0, 1.0, 1.5)
    with pytest.raises(InvalidInputError):
        craft_wrongness_set(d, 0.0, 1.0, 1, n_correct=1.5)
    with pytest.raises(InvalidInputError):
        craft_wrongness_set(d, 0.5, 0.5, 1)


def test_crafting_with_correct_padding():
    d = generate(SynthConfig(n=10000, seed=11))
    subset = craft_wrongness_set(d, 0.0, 1.0, 300, n_correct=300)
    view = correctness_view(subset)
    assert subset.n == 600
    assert int(np.sum(~view.correct)) == 300
    assert int(np.sum(view.correct)) == 300
