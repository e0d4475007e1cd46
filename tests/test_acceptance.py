"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and runtime budget.

Criterion 6 checks what global temperature scaling guarantees, and
asserts each part only where it is a theorem:

- predicted labels are unchanged on every fixture, whatever C, since a
  shared temperature cannot change an argmax;
- AUROC of the top softmax score is unchanged exactly (1e-12) on binary
  fixtures, where that score is a monotone function of |z1 - z0| at
  every temperature;
- for C >= 3 it is not: the top score is no monotone transform of the
  unscaled one, so rankings can move. The counterexample
  z1 = [5, 0, 0] and z2 = [10, 9, -50] gives top scores
  (0.9867, 0.7311) at tau = 1 but (0.4519, 0.5243) at tau = 10, and
  the test asserts that flip through ``apply_global``. The multi-class
  AUROC gaps at the fitted temperature are therefore reported in the
  PASS/FAIL line, not asserted against a bound.
"""

import dataclasses
import time

import numpy as np

import calib_lab as cl
from calib_lab.losses import DiscrepancyMode, LossKind, dloss_dtau_batch, loss_values
from calib_lab.tensor_math import row_softmax

L1 = DiscrepancyMode.L1
SQ = DiscrepancyMode.SQUARED_L2

# Pinned end-to-end fixture (criterion 8); criterion 6 reuses it.
C8_TRAIN = cl.SynthConfig(n_classes=10, n_transforms=3, n=20000, target_rho=0.7,
                          p_agree_correct=0.9, p_agree_wrong=0.5, seed=0)
C8_TEST = cl.SynthConfig(n_classes=10, n_transforms=3, n=5000, target_rho=0.7,
                         p_agree_correct=0.9, p_agree_wrong=0.5, seed=1)
# Wrongness-trend fixture (criterion 9): the narrow-heavy spectrum keeps
# the banded test pools deep enough and the training mix realistic.
C9_TRAIN = cl.SynthConfig(n_classes=10, n_transforms=3, n=20000, target_rho=0.7,
                          p_agree_correct=0.9, p_agree_wrong=0.5, wrongness_skew=0.35,
                          seed=10)
C9_TEST = cl.SynthConfig(n_classes=10, n_transforms=3, n=30000, target_rho=0.7,
                         p_agree_correct=0.9, p_agree_wrong=0.5, wrongness_skew=0.35,
                         seed=11)


def verdict(num, description, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {description}{suffix}"
    print(line)
    assert ok, line


def test_criterion_1_bounds_identity():
    start = time.monotonic()
    rng = np.random.default_rng(100)
    violations = 0
    for _ in range(1000):
        c = int(rng.choice([2, 4, 10, 100, 1000]))
        n = int(rng.integers(1, 5001))
        conf = rng.uniform(1.0 / c, 1.0, n)
        correct = rng.random(n) < rng.random()
        bounds = cl.ca_bounds(float(np.mean(correct)), c)
        value = cl.ca_loss_batch(conf, correct, L1)
        if not bounds.lower <= value <= bounds.upper:
            violations += 1
    elapsed = time.monotonic() - start
    verdict(1, "L1 batch loss within closed-form bounds on 1000 random datasets",
            violations == 0 and elapsed < 10.0,
            f"violations={violations}, {elapsed:.1f}s")


def test_criterion_2_decomposition_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    pair_rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 2001))
        n_correct = int(rng.integers((n + 1) // 2, n + 1))  # rho >= 0.5
        correct = np.zeros(n, dtype=bool)
        correct[rng.permutation(n)[:n_correct]] = True
        conf = rng.uniform(1e-6, 1.0, n)
        direct = cl.ca_loss_batch(conf, correct, L1)
        for dec in (cl.decompose(conf, correct, "lowest"),
                    cl.decompose(conf, correct, "random", rng=pair_rng)):
            worst = max(worst, abs(dec.reconstruction - direct))
    elapsed = time.monotonic() - start
    verdict(2, "gap/residual split reconstructs the batch loss under both pairings",
            worst < 1e-10 and elapsed < 10.0, f"worst={worst:.2e}, {elapsed:.1f}s")


def _net_loss_raw(w1, b1, w2, b2, tau_min, F, Z, labels, kind, mode):
    """Independent plain-numpy forward + loss for finite differencing."""
    h = np.maximum(F @ w1.T + b1, 0.0)
    o = (h @ w2.T)[:, 0] + b2
    tau = np.log1p(np.exp(o)) + tau_min
    S = Z / tau[:, None]
    P = np.exp(S - S.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    idx = np.arange(Z.shape[0])
    if kind is LossKind.CE:
        return float(np.mean(-np.log(np.maximum(P[idx, labels], 1e-12))))
    if kind is LossKind.MSE:
        onehot = np.zeros_like(P)
        onehot[idx, labels] = 1.0
        return float(np.mean(np.sum((P - onehot) ** 2, axis=1)))
    resid = P[idx, np.argmax(Z, axis=1)] - (np.argmax(Z, axis=1) == labels)
    return float(np.mean(np.abs(resid) if mode is L1 else resid * resid))


def test_criterion_3_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    kinds = ((LossKind.CA, L1), (LossKind.CA, SQ), (LossKind.CE, L1), (LossKind.MSE, L1))
    h = 1e-5
    worst_tau = 0.0
    for kind, mode in kinds:
        done = 0
        while done < 1000:
            c = int(rng.integers(2, 11))
            z = rng.normal(0, 1.5, c)
            zs = np.sort(z)
            if zs[-1] - zs[-2] < 1e-3:
                continue
            label = int(rng.integers(c))
            tau = float(np.exp(rng.uniform(np.log(0.3), np.log(5.0))))
            analytic = dloss_dtau_batch([z], [label], [tau], kind, mode)[0]
            fd = (loss_values([z], [label], [tau + h], kind, mode)[0]
                  - loss_values([z], [label], [tau - h], kind, mode)[0]) / (2 * h)
            worst_tau = max(worst_tau, abs(analytic - fd) / max(1.0, abs(analytic)))
            done += 1
    assert worst_tau < 1e-5

    worst_theta = 0.0
    hp = 1e-6
    c, m, k = 5, 2, 2
    for kind, mode in kinds:
        done = 0
        while done < 1000:
            p = cl.init_params(c, m, k, seed=int(rng.integers(2 ** 31)))
            F = rng.random((2, m * k))
            Z = rng.normal(0, 1.5, (2, c))
            labels = rng.integers(0, c, 2)
            pre = F @ p.w1.T + p.b1
            if np.min(np.abs(pre)) < 1e-3:  # keep clear of the ReLU kink
                continue
            gaps = np.sort(Z, axis=1)
            if np.min(gaps[:, -1] - gaps[:, -2]) < 1e-3:
                continue
            g = cl.grad_params(p, F, Z, labels, kind, mode)
            arrays = {"w1": (p.w1.copy(), g[0][0]), "b1": (p.b1.copy(), g[0][1]),
                      "w2": (p.w2.copy(), g[-1][0])}
            vals = {name: arr for name, (arr, _) in arrays.items()}

            def loss_of(w1, b1, w2, b2):
                return _net_loss_raw(w1, b1, w2, b2, p.tau_min, F, Z, labels, kind, mode)

            for name, (arr, grad) in arrays.items():
                flat = arr.reshape(-1)
                gflat = np.asarray(grad).reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + hp
                    up = loss_of(vals["w1"], vals["b1"], vals["w2"], p.b2)
                    flat[i] = orig - hp
                    down = loss_of(vals["w1"], vals["b1"], vals["w2"], p.b2)
                    flat[i] = orig
                    fd = (up - down) / (2 * hp)
                    worst_theta = max(worst_theta,
                                      abs(gflat[i] - fd) / max(1.0, abs(gflat[i])))
            up = loss_of(vals["w1"], vals["b1"], vals["w2"], p.b2 + hp)
            down = loss_of(vals["w1"], vals["b1"], vals["w2"], p.b2 - hp)
            fd = (up - down) / (2 * hp)
            worst_theta = max(worst_theta, abs(g[-1][1][0] - fd) / max(1.0, abs(g[-1][1][0])))
            done += 1
    elapsed = time.monotonic() - start
    verdict(3, "analytic temperature and parameter gradients match central differences",
            worst_tau < 1e-5 and worst_theta < 1e-4 and elapsed < 30.0,
            f"tau={worst_tau:.2e}, theta={worst_theta:.2e}, {elapsed:.1f}s")


def test_criterion_4_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    edges25 = np.linspace(0.0, 1.0, 26)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        conf = rng.uniform(1e-6, 1.0, n)
        ties = rng.random(n) < 0.3
        conf[ties] = np.clip(np.round(conf[ties], 1), 0.05, 1.0)
        correct = rng.random(n) < rng.uniform(0.2, 0.8)
        if correct.all():
            correct[0] = False
        if not correct.any():
            correct[0] = True

        # naive double-loop binning
        expected_ece = 0.0
        for b in range(25):
            members = [i for i in range(n) if edges25[b] < conf[i] <= edges25[b + 1]]
            if members:
                gap = abs(np.mean([conf[i] for i in members])
                          - np.mean([float(correct[i]) for i in members]))
                expected_ece += len(members) / n * gap
        worst = max(worst, abs(cl.ece(conf, correct, 25) - expected_ece))

        # O(n^2) prefix re-summation
        order = sorted(range(n), key=lambda i: (conf[i], i))
        diff = np.array([conf[i] - float(correct[i]) for i in order])
        expected_ks = max(abs(float(np.sum(diff[:stop]))) / n for stop in range(1, n + 1))
        worst = max(worst, abs(cl.ks_error(conf, correct) - expected_ks))

        # all-pairs count
        pos, neg = conf[correct], conf[~correct]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        expected_auroc = wins / (len(pos) * len(neg))
        worst = max(worst, abs(cl.auroc(conf, correct) - expected_auroc))
    elapsed = time.monotonic() - start
    verdict(4, "ECE/KS/AUROC equal brute-force implementations on 200 random sets",
            worst <= 1e-12 and elapsed < 5.0, f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_surface_shape():
    start = time.monotonic()
    ok = True
    details = []
    for mode in (L1, SQ):
        grid = cl.loss_surface(LossKind.CA, mode=mode)
        if not np.all(np.diff(grid.loss, axis=1) <= 1e-15):
            ok = False
            details.append(f"ca-{mode.value} rows not monotone")
    ce = cl.loss_surface(LossKind.CE, tau_values=np.geomspace(0.05, 5000.0, 200))
    ce_gap = float(np.max(np.abs(ce.loss[:, -1] - np.log(4.0))))
    if ce_gap > 1e-3:
        ok = False
        details.append(f"ce limit gap {ce_gap:.2e}")
    mse = cl.loss_surface(LossKind.MSE, a_values=np.array([1.9]))
    j = int(np.argmin(mse.loss[0]))
    if not 0 < j < mse.tau_values.size - 1:
        ok = False
        details.append("mse argmin on boundary")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    verdict(5, "loss surfaces: CA monotone, CE uniform limit, MSE interior optimum",
            ok, "; ".join(details) or f"ce gap={ce_gap:.1e}, {elapsed:.1f}s")


def test_criterion_6_global_ts_separability():
    multiclass = {"c8-train": C8_TRAIN, "c8-test": C8_TEST,
                  "c9-train": C9_TRAIN, "c9-test": C9_TEST}
    binary = {"binary": cl.SynthConfig(n_classes=2, n_transforms=3, n=5000,
                                       target_rho=0.7, seed=3)}
    # Binary twins of the multi-class fixtures check the exact identity at
    # the same scale.
    binary.update({f"{name}-c2": dataclasses.replace(cfg, n_classes=2)
                   for name, cfg in multiclass.items()})
    ok = True
    details = []
    gaps = []
    for name, cfg in {**multiclass, **binary}.items():
        d = cl.generate(cfg)
        view = cl.correctness_view(d)
        t = cl.fit_global_temperature(d)
        conf = cl.apply_global(d, t)
        labels_after = np.argmax(row_softmax(d.logits, t.tau), axis=1)
        if not np.array_equal(labels_after, view.predicted):
            ok = False
            details.append(f"{name}: labels moved")
        gap = abs(cl.auroc(conf, view.correct) - cl.auroc(view.confidence, view.correct))
        if name in binary:
            if gap > 1e-12:
                ok = False
                details.append(f"{name}: auroc gap {gap:.2e}")
        else:
            gaps.append(f"{name} {gap:.2e}")

    # For C >= 3 a shared temperature can reorder top scores.
    pair = cl.Dataset([[5.0, 0.0, 0.0], [10.0, 9.0, -50.0]], [0, 0],
                      np.full((2, 1, 3), 1.0 / 3.0))
    cold = cl.apply_global(pair, cl.GlobalTemp(1.0))
    hot = cl.apply_global(pair, cl.GlobalTemp(10.0))
    if not (cold[0] > cold[1] and hot[0] < hot[1]):
        ok = False
        details.append(f"counterexample did not flip: tau=1 {cold}, tau=10 {hot}")

    verdict(6, "global temperature keeps predicted labels on every fixture and AUROC "
               "exactly on binary ones; C >= 3 counterexample reorders",
            ok, "; ".join(details + ["multi-class auroc gaps (reported): " + ", ".join(gaps)]))


def test_criterion_7_ece_as_ca_limit():
    rng = np.random.default_rng(105)
    bins = 10 ** 6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 129))
        idx = rng.choice(bins, size=n, replace=False)
        conf = (idx + 0.5) / bins
        correct = rng.random(n) < 0.6
        gap = abs(cl.ece(conf, correct, bins=bins) - cl.ca_loss_batch(conf, correct, L1))
        worst = max(worst, gap)
    verdict(7, "per-sample-bin ECE equals the L1 batch loss",
            worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_8_desk_scale_end_to_end():
    start = time.monotonic()
    d_train = cl.generate(C8_TRAIN)
    d_test = cl.generate(C8_TEST)
    params, trace = cl.train(d_train, cl.TrainConfig(loss=LossKind.CA, k=4, seed=0))
    view = cl.correctness_view(d_test)
    _, conf = cl.calibrate_dataset(params, d_test)
    ece_uncal = cl.ece(view.confidence, view.correct)
    ece_ca = cl.ece(conf, view.correct)
    auroc_uncal = cl.auroc(view.confidence, view.correct)
    auroc_ca = cl.auroc(conf, view.correct)
    elapsed = time.monotonic() - start
    ok = (ece_ca <= 0.5 * ece_uncal and auroc_ca >= auroc_uncal + 0.02
          and np.all(np.isfinite(trace.losses)) and elapsed < 60.0)
    verdict(8, "trained calibrator halves held-out ECE and lifts AUROC by 0.02",
            ok, f"ece {ece_uncal:.4f}->{ece_ca:.4f}, auroc {auroc_uncal:.4f}->{auroc_ca:.4f}, "
                f"{elapsed:.1f}s")


def test_criterion_9_wrongness_trend():
    start = time.monotonic()
    d_train = cl.generate(C9_TRAIN)
    d_test = cl.generate(C9_TEST)
    rows = cl.wrongness_experiment(d_train, d_test, cl.TrainConfig(k=4, seed=0),
                                   bands=((0.5, 1.0),), count=500)
    ece = {r.method: r.ece for r in rows}
    ca_beats_ce = ece["ca"] < ece["ce"]
    ce_move = abs(ece["ce"] - ece["uncal"])
    ca_move = abs(ece["ca"] - ece["uncal"])
    ratio_ok = ce_move < 0.5 * ca_move
    elapsed = time.monotonic() - start
    verdict(9, "narrow-wrong band: CA beats CE and CE stays near no-calibration",
            ca_beats_ce and ratio_ok and elapsed < 120.0,
            f"ece uncal={ece['uncal']:.3f} ce={ece['ce']:.3f} ca={ece['ca']:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_10_determinism():
    d1 = cl.generate(cl.SynthConfig(n=2000, seed=42))
    d2 = cl.generate(cl.SynthConfig(n=2000, seed=42))
    synth_ok = (d1.logits.tobytes() == d2.logits.tobytes()
                and d1.transform_probs.tobytes() == d2.transform_probs.tobytes())

    cfg = cl.TrainConfig(epochs=10, seed=7)
    pa, ta = cl.train(d1, cfg)
    pb, tb = cl.train(d2, cfg)
    train_ok = (pa.w1.tobytes() == pb.w1.tobytes() and pa.b1.tobytes() == pb.b1.tobytes()
                and pa.w2.tobytes() == pb.w2.tobytes() and pa.b2 == pb.b2
                and ta.losses.tobytes() == tb.losses.tobytes())

    test_pool = cl.generate(cl.SynthConfig(n=6000, wrongness_skew=0.5, seed=43))
    train_pool = cl.generate(cl.SynthConfig(n=4000, wrongness_skew=0.5, seed=44))
    exp_cfg = cl.TrainConfig(epochs=5, seed=0)
    r1 = cl.wrongness_experiment(train_pool, test_pool, exp_cfg, bands=((0.0, 1.0),), count=100)
    r2 = cl.wrongness_experiment(train_pool, test_pool, exp_cfg, bands=((0.0, 1.0),), count=100)
    exp_ok = all(a.ece == b.ece and a.method == b.method for a, b in zip(r1, r2))

    verdict(10, "synth, training, and experiment runs are bit-identical per seed",
            synth_ok and train_ok and exp_ok,
            f"synth={synth_ok}, train={train_ok}, experiment={exp_ok}")
