"""Every value object holds read-only copies of its arrays: a write to the
caller's array after construction does not reach the object, and a write to
one of the object's arrays raises ``ValueError``."""

import numpy as np
import pytest

from calib_lab.analysis import SurfaceGrid, loss_surface
from calib_lab.calibrator import CalibratorParams, TrainingTrace
from calib_lab.errors import InvalidInputError
from calib_lab.losses import DiscrepancyMode, LossKind
from calib_lab.records import CorrectnessView, Dataset

RNG = np.random.default_rng(0)
N, C = 6, 3


def dataset():
    given = {"logits": RNG.normal(size=(N, C)), "labels": np.arange(N) % C,
             "transform_probs": np.full((N, 2, C), 1.0 / C), "record_ids": np.arange(N) + 10}
    return Dataset(**given), given


def correctness():
    given = {"predicted": np.arange(N) % C, "correct": np.arange(N) % 2 == 0,
             "confidence": RNG.uniform(0.4, 1.0, N)}
    return CorrectnessView(**given), given


def params():
    w1, b1, w2, b2 = RNG.normal(size=(5, 4)), RNG.normal(size=5), RNG.normal(size=(1, 5)), [0.5]
    p = CalibratorParams(layers=[(w1, b1), (w2, np.array(b2))], tau_min=0.05, n_classes=C,
                         n_transforms=2, k=2)
    return p, {"w1": w1, "b1": b1, "w2": w2}


def trace():
    given = {"losses": RNG.uniform(size=4), "epochs": np.array([0, 2, 5, 9])}
    return TrainingTrace(**given), given


def surface():
    given = {"a_values": np.array([-1.0, 0.5]), "tau_values": np.array([0.5, 1.0, 3.0]),
             "loss": RNG.uniform(size=(2, 3)), "c_gt": RNG.uniform(size=(2, 3))}
    return SurfaceGrid(LossKind.CA, DiscrepancyMode.L1, **given), given


def computed_surface():
    given = {"a_values": np.array([-1.0, 0.0, 1.5]), "tau_values": np.array([0.2, 1.0])}
    return loss_surface(LossKind.CE, **given), given


@pytest.mark.parametrize("make", [dataset, correctness, params, trace, surface, computed_surface])
def test_a_value_object_holds_read_only_copies(make):
    obj, given = make()
    held = {name: np.array(getattr(obj, name)) for name in given}
    for arr in given.values():
        arr.flat[0] = not arr.flat[0] if arr.dtype == bool else arr.flat[0] + 5
    for name, before in held.items():
        now = getattr(obj, name)
        assert now.tobytes() == before.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            now.flat[0] = now.flat[0]
    if isinstance(obj, SurfaceGrid):
        for name in ("loss", "c_gt"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0, 0] = -1


def test_a_surface_grid_holds_float64_arrays():
    g = SurfaceGrid(LossKind.CE, DiscrepancyMode.L1, [0, 1], [1, 2], [[0, 1], [2, 3]],
                    [[0.5, 0.5], [0.25, 0.75]])
    assert all(getattr(g, name).dtype == np.float64
               for name in ("a_values", "tau_values", "loss", "c_gt"))


def test_an_owned_dataset_freezes_its_fresh_arrays_in_place():
    logits, probs = RNG.normal(size=(N, C)), np.full((N, 1, C), 1.0 / C)
    d = Dataset(logits, np.zeros(N, int), probs, _owned=True)
    assert d.logits is logits or d.logits.base is logits
    assert not logits.flags.writeable and not probs.flags.writeable


@pytest.mark.parametrize("losses", [["a"], ["1.5", "2"], 0.5, [[0.5, 0.25], [0.125, 0.0625]]],
                         ids=["string", "numeric-strings", "scalar", "2-d"])
def test_a_trace_refuses_losses_that_are_not_a_vector_of_numbers(losses):
    with pytest.raises(InvalidInputError, match="trace losses"):
        TrainingTrace(losses)
