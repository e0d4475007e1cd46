import numpy as np
import pytest

from calib_lab import baselines
from calib_lab.baselines import (TAU_GRID_HI, TAU_GRID_LO, GlobalTemp, apply_global,
                                 fit_global_temperature, nll_objective)
from calib_lab.datagen import SynthConfig, generate
from calib_lab.errors import DomainError
from calib_lab.metrics import auroc
from calib_lab.records import Dataset, correctness_view
from calib_lab.tensor_math import row_softmax


def well_specified_dataset(n=20000, c=6, scale=2.0, seed=0):
    """Labels drawn from softmax(z) itself, so the CE optimum sits at
    tau = 1 up to sampling noise."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (n, c))
    probs = row_softmax(logits)
    u = rng.random(n)
    labels = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
    transforms = np.full((n, 1, c), 1.0 / c)
    return Dataset(logits, labels, transforms)


def grid_argmin_oracle(d, taus):
    values = [nll_objective(d, float(t)) for t in taus]
    return float(taus[int(np.argmin(values))])


def test_fitted_temperature_near_one_on_well_specified_data():
    d = well_specified_dataset()
    # independent fine-grid oracle first: confirm the empirical optimum
    oracle = grid_argmin_oracle(d, np.linspace(0.9, 1.1, 2001))
    assert abs(oracle - 1.0) < 8e-3
    fitted = fit_global_temperature(d)
    assert abs(fitted.tau - oracle) < 2e-3
    assert abs(fitted.tau - 1.0) < 1e-2


def test_fitted_temperature_scales_with_logits():
    d = well_specified_dataset(n=5000, seed=1)
    t1 = fit_global_temperature(d)
    scaled = Dataset(2.0 * d.logits, d.labels, d.transform_probs)
    t2 = fit_global_temperature(scaled)
    assert abs(t2.tau - 2.0 * t1.tau) < 1e-3 * max(1.0, t1.tau)


def one_confident_mistake():
    """100 records z = [2, 0] labelled 0 and one z = [10, 0] labelled 1.
    The mistake's label probability hits PROB_FLOOR for tau below about 0.36,
    where its loss stops growing; the optimum is tau = 0.679."""
    logits = np.array([[2.0, 0.0]] * 100 + [[10.0, 0.0]])
    return Dataset(logits, [0] * 100 + [1], np.full((101, 1, 2), 0.5))


@pytest.mark.parametrize("make", [
    lambda: generate(SynthConfig(n=2000, seed=8)),
    lambda: generate(SynthConfig(n_classes=100, n=1000, seed=9)),
    lambda: well_specified_dataset(n=5000, seed=2),
    one_confident_mistake,
], ids=["c10", "c100", "well-specified", "confident-mistake"])
def test_fit_beats_fine_grid_around_it_and_coarse_grid_across_bracket(make):
    d = make()
    tau = fit_global_temperature(d).tau
    best = nll_objective(d, tau)
    fine = tau * np.linspace(0.99, 1.01, 2001)
    assert best <= min(nll_objective(d, float(t)) for t in fine) + 1e-12
    coarse = np.append(np.geomspace(TAU_GRID_LO, TAU_GRID_HI, 60), 1.0)
    assert best <= min(nll_objective(d, float(t)) for t in coarse) + 1e-12


def test_fit_stops_at_bracket_edges():
    rng = np.random.default_rng(0)
    logits = rng.normal(0.0, 2.0, (500, 5))
    transforms = np.full((500, 1, 5), 0.2)
    # every record correct: sharper is always better
    all_correct = Dataset(logits, np.argmax(logits, axis=1), transforms)
    assert fit_global_temperature(all_correct).tau == TAU_GRID_LO
    # every label is the least likely class: flatter is always better
    all_wrong = Dataset(logits, np.argmin(logits, axis=1), transforms)
    assert fit_global_temperature(all_wrong).tau == TAU_GRID_HI


def test_fit_evaluates_the_objective_twice(monkeypatch):
    calls = []

    def counting(d, tau):
        calls.append(tau)
        return nll_objective(d, tau)

    monkeypatch.setattr(baselines, "nll_objective", counting)
    t = fit_global_temperature(generate(SynthConfig(n=2000, seed=0)))
    assert len(calls) == 2 and set(calls) == {t.tau, 1.0}


def test_objective_at_optimum_beats_tau_one():
    for seed in range(3):
        d = generate(SynthConfig(n=2000, seed=seed))
        t = fit_global_temperature(d)
        assert nll_objective(d, t.tau) <= nll_objective(d, 1.0) + 1e-12


def test_apply_identity_temperature():
    d = generate(SynthConfig(n=300, seed=3))
    view = correctness_view(d)
    np.testing.assert_allclose(apply_global(d, GlobalTemp(1.0)), view.confidence, atol=0)


def test_apply_preserves_accuracy():
    d = generate(SynthConfig(n=1000, seed=4))
    view = correctness_view(d)
    t = fit_global_temperature(d)
    P = row_softmax(d.logits / t.tau)
    np.testing.assert_array_equal(np.argmax(P, axis=1), view.predicted)


def test_binary_auroc_exactly_invariant():
    # For two classes the confidence is a strictly monotone function of
    # the logit gap at every temperature, so the ranking cannot move.
    d = generate(SynthConfig(n_classes=2, n=4000, seed=5))
    view = correctness_view(d)
    before = auroc(view.confidence, view.correct)
    for tau in (fit_global_temperature(d).tau, 0.3, 7.0):
        after = auroc(apply_global(d, GlobalTemp(tau)), view.correct)
        assert abs(after - before) <= 1e-12


def test_adaptive_temperature_can_change_auroc():
    from calib_lab.calibrator import TrainConfig, calibrate_dataset, train
    d_train = generate(SynthConfig(n=4000, seed=6))
    d_test = generate(SynthConfig(n=2000, seed=7))
    params, _ = train(d_train, TrainConfig(epochs=25, seed=0))
    view = correctness_view(d_test)
    _, conf = calibrate_dataset(params, d_test)
    assert auroc(conf, view.correct) > auroc(view.confidence, view.correct)


def test_global_temp_validation():
    with pytest.raises(DomainError):
        GlobalTemp(0.0)
    with pytest.raises(DomainError):
        GlobalTemp(-2.0)
