import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_lab.calibrator import constant_temperature_params, calibrate_dataset
from calib_lab.datagen import SynthConfig, generate
from calib_lab.errors import InvalidInputError, UndefinedMetricError
from calib_lab.losses import DiscrepancyMode, ca_loss_batch
from calib_lab.metrics import _midranks, auroc, brier_top_label, ece, ks_error, report
from calib_lab.records import correctness_view, wrongness_ratios


# ---- brute-force oracles (independent, naive implementations) ----

def ece_oracle(conf, correct, bins):
    edges = np.linspace(0.0, 1.0, bins + 1)
    n = len(conf)
    total = 0.0
    for b in range(bins):
        members = [i for i in range(n) if edges[b] < conf[i] <= edges[b + 1]]
        if not members:
            continue
        gap = abs(np.mean([conf[i] for i in members]) - np.mean([correct[i] for i in members]))
        total += len(members) / n * gap
    return total


def ks_oracle(conf, correct):
    order = sorted(range(len(conf)), key=lambda i: (conf[i], i))
    best = 0.0
    for stop in range(1, len(conf) + 1):
        prefix = order[:stop]
        gap = abs(sum(conf[i] for i in prefix) - sum(float(correct[i]) for i in prefix))
        best = max(best, gap / len(conf))
    return best


def auroc_oracle(conf, correct):
    pos = conf[correct]
    neg = conf[~correct]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


def ks_error_stable_argsort(conf, correct):
    """ks_error on numpy's stable argsort in place of ``stable_order``: the reference."""
    order = np.argsort(conf, kind="stable")
    diff = conf[order] - correct[order].astype(np.float64)
    return float(np.max(np.abs(np.cumsum(diff))) / conf.size)


def midranks_oracle(values):
    """The original tie-walking loop: 1-based ranks, ties averaged."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def random_set(rng, n=None):
    n = n or int(rng.integers(2, 200))
    conf = rng.uniform(1e-6, 1.0, n)
    correct = rng.random(n) < rng.uniform(0.2, 0.8)
    if correct.all():
        correct[0] = False
    if not correct.any():
        correct[0] = True
    # quantize some confidences to force ties
    ties = rng.random(n) < 0.3
    conf[ties] = np.clip(np.round(conf[ties], 1), 0.05, 1.0)
    return conf, correct


def test_ece_perfectly_calibrated_two_bins():
    conf = np.array([0.5, 0.5, 0.75, 0.75, 0.75, 0.75])
    correct = np.array([True, False, True, True, True, False])
    assert ece(conf, correct, bins=25) == 0.0


def test_ece_single_sample():
    assert ece([0.7], [True]) == pytest.approx(0.3, abs=1e-15)


def test_ece_boundary_confidence_of_one():
    assert ece([1.0], [True], bins=25) == 0.0


def test_ece_matches_brute_force():
    rng = np.random.default_rng(30)
    for _ in range(60):
        conf, correct = random_set(rng)
        assert abs(ece(conf, correct, 25) - ece_oracle(conf, correct, 25)) <= 1e-12


def test_ks_trivial_cases():
    assert ks_error([1.0, 1.0], [True, True]) == 0.0
    assert ks_error([0.8], [False]) == pytest.approx(0.8, abs=1e-15)


def test_ks_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(40):
        conf, correct = random_set(rng, n=int(rng.integers(2, 120)))
        assert abs(ks_error(conf, correct) - ks_oracle(conf, correct)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_ks_bit_equal_to_stable_argsort_version(seed, digits):
    rng = np.random.default_rng(seed)
    conf, correct = random_set(rng)
    # rounding every confidence makes most of them tied
    conf = np.clip(np.round(conf, digits), 10.0 ** -digits, 1.0)
    assert ks_error(conf, correct) == ks_error_stable_argsort(conf, correct)


def test_auroc_trivial_cases():
    assert auroc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5


def test_auroc_matches_all_pairs():
    rng = np.random.default_rng(32)
    for _ in range(60):
        conf, correct = random_set(rng)
        assert abs(auroc(conf, correct) - auroc_oracle(conf, correct)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-5, 5), min_size=1, max_size=300),
    st.integers(1, 300).map(lambda n: [7] * n),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
))
def test_midranks_bit_identical_to_loop(values):
    values = np.asarray(values, dtype=np.float64)
    assert np.array_equal(_midranks(values), midranks_oracle(values))


def test_auroc_undefined_for_single_class():
    with pytest.raises(UndefinedMetricError):
        auroc([0.5, 0.6], [True, True])


def test_report_gives_nan_auroc_for_a_single_outcome_class():
    d = generate(SynthConfig(n=400, seed=9))
    view = correctness_view(d)
    wrong = d.subset(np.flatnonzero(~view.correct)[:30])
    rep = report(wrong)
    conf, correct = correctness_view(wrong).confidence, np.zeros(30, dtype=bool)
    assert np.isnan(rep.auroc) and rep.accuracy == 0.0
    assert (rep.ece, rep.brier, rep.ks) == (ece(conf, correct), brier_top_label(conf, correct),
                                            ks_error(conf, correct))


def test_brier_values():
    assert brier_top_label([1.0, 1.0], [True, True]) == 0.0
    assert brier_top_label([0.5], [False]) == pytest.approx(0.25, abs=1e-15)
    rng = np.random.default_rng(33)
    conf, correct = random_set(rng)
    direct = sum((c - float(k)) ** 2 for c, k in zip(conf, correct)) / len(conf)
    assert brier_top_label(conf, correct) == pytest.approx(direct, abs=1e-12)


def test_metrics_invariant_under_permutation():
    rng = np.random.default_rng(34)
    conf, correct = random_set(rng, n=150)
    perm = rng.permutation(150)
    assert ece(conf[perm], correct[perm]) == pytest.approx(ece(conf, correct), abs=1e-15)
    assert brier_top_label(conf[perm], correct[perm]) == pytest.approx(
        brier_top_label(conf, correct), abs=1e-15)
    assert ks_error(conf[perm], correct[perm]) == pytest.approx(
        ks_error(conf, correct), abs=1e-12)
    assert auroc(conf[perm], correct[perm]) == pytest.approx(
        auroc(conf, correct), abs=1e-15)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(35)
    conf, correct = random_set(rng, n=120)
    squashed = 1.0 / (1.0 + np.exp(-3.0 * conf))  # strictly increasing
    assert auroc(squashed, correct) == pytest.approx(auroc(conf, correct), abs=1e-15)


def test_per_sample_bins_equal_l1_loss():
    rng = np.random.default_rng(36)
    bins = 10 ** 6
    idx = rng.choice(bins, size=64, replace=False)
    conf = (idx + 0.5) / bins
    correct = rng.random(64) < 0.6
    l1 = ca_loss_batch(conf, correct, DiscrepancyMode.L1)
    assert abs(ece(conf, correct, bins=bins) - l1) <= 1e-12


def test_metric_ranges():
    rng = np.random.default_rng(37)
    for _ in range(20):
        conf, correct = random_set(rng)
        for value in (ece(conf, correct), brier_top_label(conf, correct),
                      ks_error(conf, correct), auroc(conf, correct)):
            assert 0.0 <= value <= 1.0


def test_ece_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        ece([0.0, 0.5], [True, False])
    with pytest.raises(InvalidInputError):
        ece([1.5, 0.5], [True, False])
    with pytest.raises(InvalidInputError):
        ece([0.5], [True], bins=0)
    with pytest.raises(InvalidInputError):
        ece([0.5], [True], bins=1.5)


# Each once escaped as numpy's bare ValueError ("setting an array element with a sequence").
def test_auroc_refuses_ragged_confidences():
    with pytest.raises(InvalidInputError, match="rectangular"):
        auroc([[0.5], [0.6, 0.7]], [True, False])


def test_auroc_refuses_ragged_correctness_flags():
    with pytest.raises(InvalidInputError, match="rectangular"):
        auroc([0.5, 0.6], [[1], [0, 1]])


def test_report_refuses_ragged_confidences():
    d = generate(SynthConfig(n=2, seed=3))
    with pytest.raises(InvalidInputError, match="rectangular"):
        report(d, [[0.5], [0.6, 0.7]])


@pytest.mark.parametrize("metric", [ece, brier_top_label, ks_error, auroc])
def test_metrics_refuse_correctness_flags_other_than_0_and_1(metric):
    # 0.3 once counted as correct by its truthiness.
    with pytest.raises(InvalidInputError):
        metric([0.5, 0.6], [0.3, 0.0])
    assert metric([0.5, 0.6], [1, 0]) == metric([0.5, 0.6], [True, False])


def test_report_uncalibrated_equals_identity_temperature():
    d = generate(SynthConfig(n=400, seed=20))
    p = constant_temperature_params(1.0, d.n_classes, d.n_transforms, 4)
    _, conf = calibrate_dataset(p, d)
    assert report(d) == report(d, conf)


def test_report_fields_match_standalone_ops():
    d = generate(SynthConfig(n=300, seed=21))
    view = correctness_view(d)
    rep = report(d)
    assert rep.ece == ece(view.confidence, view.correct)
    assert rep.brier == brier_top_label(view.confidence, view.correct)
    assert rep.ks == ks_error(view.confidence, view.correct)
    assert rep.auroc == auroc(view.confidence, view.correct)
    assert rep.accuracy == view.accuracy
    assert rep.n == 300 and rep.bins == 25


def test_reports_sharing_a_stored_view_equal_reports_on_fresh_copies():
    def fresh():
        return generate(SynthConfig(n=500, seed=22))

    d = fresh()
    p = constant_temperature_params(0.7, d.n_classes, d.n_transforms, 4)
    confidences = (None, calibrate_dataset(p, d)[1], correctness_view(d).confidence ** 2)
    shared = [report(d, conf) for conf in confidences]
    for rep, conf in zip(shared, confidences):
        alone = report(fresh(), conf)
        for field in dataclasses.fields(rep):
            assert getattr(rep, field.name) == getattr(alone, field.name), field.name


def test_report_regression_fixture():
    # Frozen from the first run on the default synthetic fixture (seed 0).
    d = generate(SynthConfig())
    rep = report(d)
    assert rep.ece == pytest.approx(0.16038402528591927, rel=1e-12)
    assert rep.brier == pytest.approx(0.20978061138755916, rel=1e-12)
    assert rep.ks == pytest.approx(0.1577096397199725, rel=1e-12)
    assert rep.auroc == pytest.approx(0.7062585072595281, rel=1e-12)
    assert rep.accuracy == pytest.approx(0.696, rel=1e-12)
    # share of records that are wrong with a ground-truth/predicted probability ratio above 0.5
    assert np.count_nonzero(wrongness_ratios(d) > 0.5) / d.n == pytest.approx(0.047, rel=1e-12)
