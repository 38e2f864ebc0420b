import json
import math
import tracemalloc

import numpy as np
import pytest

from calibkit.core import Dataset, validate_dataset
from calibkit.emcal import (
    EmConfig,
    NonFiniteGradient,
    NonFiniteLoss,
    _history_row,
    _one_hot,
    mean_ece_loss,
    mean_sft,
    run_em,
)
from calibkit.metrics import _binned_gaps, accuracy, binned_ece, conf_ece, metric_row
from calibkit.toylab import (
    BadEpsilon,
    BadParams,
    BadTemperature,
    DimensionMismatch,
    LinearPolicy,
    TabularPolicy,
    apply_temperature,
    fit_temperature,
    gen_toy_task,
    label_smooth_targets,
    softmax,
    task_dataset,
    temperature_transform,
    train,
)
from calibkit import toylab
from calibkit.targetmap import build_target_matrix


def combined_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    targets: np.ndarray | None,
    lam: float,
    divergence: str = "mse",
    sft_weight: float = 1.0,
) -> float:
    """The mean combined loss whose gradient ``combined_grad`` computes: the
    reference for the finite-difference gradient checks."""
    loss = sft_weight * mean_sft(probs, labels)
    if lam != 0.0:
        loss += lam * mean_ece_loss(probs, targets, divergence)
    return float(loss)


def test_gen_toy_task_deterministic():
    a = gen_toy_task(d=16, k=4, n=500, teacher_temperature=1.0, seed=7)
    b = gen_toy_task(d=16, k=4, n=500, teacher_temperature=1.0, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert 0.25 <= a.bayes_accuracy <= 1.0


def test_gen_toy_task_temperature_limits():
    hot = gen_toy_task(d=16, k=4, n=2000, teacher_temperature=1e6, seed=1)
    assert hot.bayes_accuracy < 0.27
    cold = gen_toy_task(d=16, k=4, n=2000, teacher_temperature=1e-6, seed=1)
    assert cold.bayes_accuracy > 0.999


def test_gen_toy_task_bad_params():
    with pytest.raises(BadParams):
        gen_toy_task(d=0, k=4, n=10)
    with pytest.raises(BadParams):
        gen_toy_task(d=4, k=4, n=10, teacher_temperature=0.0)


def test_forward_zero_weights_uniform():
    task = gen_toy_task(d=8, k=4, n=20, seed=2)
    policy = LinearPolicy(task.d, task.k)
    probs = policy.probs(task.features)
    assert np.allclose(probs, 0.25)


def test_forward_tabular_hand_softmax():
    policy = TabularPolicy(np.array([[math.log(2.0), 0.0, 0.0, 0.0]]))
    probs = policy.probs()
    assert probs[0] == pytest.approx([0.4, 0.2, 0.2, 0.2], abs=1e-12)


def test_forward_high_temperature_uniform():
    task = gen_toy_task(d=8, k=4, n=20, seed=3)
    # Tiny weights act as a huge temperature: every logit is near 0.
    W = np.random.default_rng(3).standard_normal((8, 4)) * 1e-9
    policy = LinearPolicy(task.d, task.k, W=W)
    assert np.allclose(policy.probs(task.features), 0.25, atol=1e-6)


def test_forward_dimension_mismatch():
    policy = LinearPolicy(8, 4)
    with pytest.raises(DimensionMismatch):
        policy.probs(np.zeros((5, 3)))


def test_grad_single_record_softmax_nll():
    policy = TabularPolicy(np.array([[0.3, -0.1, 0.2, 0.0]]))
    probs = policy.probs()
    y1 = _one_hot(np.array([2]), 4)
    grad = policy.combined_grad(None, y1, None, 0.0, "mse")
    assert grad == pytest.approx(probs - y1, abs=1e-15)


@pytest.mark.parametrize("k", [4, 9])
@pytest.mark.parametrize("kind", ["linear", "tabular"])
def test_a_step_in_the_loop_workspace_has_the_bits_of_a_fresh_step(kind, k):
    """``combined_grad``, ``probs`` and ``descend`` given the EM loop's
    workspace write into it and return what they return without one, bit
    for bit, however stale the workspace is; without one the results are
    fresh arrays."""
    rng = np.random.default_rng(k)
    n, d = 40, 5
    X, y1 = rng.standard_normal((n, d)), _one_hot(rng.integers(0, k, n), k)
    if kind == "linear":
        policy, features = LinearPolicy(d, k, rng.standard_normal((d, k))), X
    else:
        policy, features = TabularPolicy(rng.standard_normal((n, k))), None
    targets = build_target_matrix(policy.probs(features), np.full(n, 0.55))[0]
    work = np.full((3, n, k), np.nan)
    for lam, div in ((0.0, "mse"), (0.3, "mse"), (0.3, "cross-entropy")):
        fresh = policy.combined_grad(features, y1, targets, lam, div)
        reused = policy.combined_grad(features, y1, targets, lam, div, work=work)
        assert fresh.tobytes() == reused.tobytes()
        assert not np.shares_memory(fresh, work)
        written = policy.probs(features, out=work[0])
        assert np.shares_memory(written, work[0])
        assert written.tobytes() == policy.probs(features).tobytes()
    stepped = _copy(policy)
    stepped.descend(fresh, 0.5)
    policy.descend(fresh, 0.5, work=work)
    assert _params(policy) == _params(stepped)


def test_grad_stationary_at_target():
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(4), 6)
    policy = TabularPolicy(np.log(probs))
    targets = policy.probs()
    y1 = _one_hot(rng.integers(0, 4, 6), 4)
    grad = policy.combined_grad(None, y1, targets, 1.0, "mse", sft_weight=0.0)
    assert np.abs(grad).max() < 1e-8


def test_grad_matches_finite_differences():
    h = 1e-5
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 5))
        y = rng.integers(0, 4, 6)
        y1 = _one_hot(y, 4)
        for lam in (0.0, 1.0):
            for div in ("mse", "cross-entropy"):
                policy = LinearPolicy(5, 4, rng.standard_normal((5, 4)) * 0.4)
                targets = build_target_matrix(policy.probs(X), np.full(6, 0.55))[0]
                grad = policy.combined_grad(X, y1, targets, lam, div)
                fd = np.zeros_like(policy.W)
                for idx in np.ndindex(*policy.W.shape):
                    orig = policy.W[idx]
                    policy.W[idx] = orig + h
                    up = combined_loss(policy.probs(X), y, targets, lam, div)
                    policy.W[idx] = orig - h
                    dn = combined_loss(policy.probs(X), y, targets, lam, div)
                    policy.W[idx] = orig
                    fd[idx] = (up - dn) / (2 * h)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-4


def _single_products(policy, X, soft, targets, lam, div):
    """The confidences and the gradient as one matmul each computes them."""
    probs = softmax(X @ policy.W)
    g = toylab._grad_wrt_logits(probs, soft, targets, lam, div, 1.0)
    return probs, X.T @ g


def _products(d, k, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    policy = LinearPolicy(d, k, rng.standard_normal((d, k)) * 0.3)
    soft = _one_hot(rng.integers(0, k, n), k)
    targets = build_target_matrix(policy.probs(X), np.full(n, 0.55))[0]
    return policy, X, soft, targets


@pytest.mark.parametrize("n", [1, 7, 2047, 2048, 2049, 2 * 2048 + 37])
def test_linear_products_run_in_blocks_that_keep_the_single_products(n):
    """At d = 32 and k = 4 a block is 2048 rows: up to one block both
    products are the single matmul bit for bit, and beyond it they stay
    within 1e-12 of it."""
    policy, X, soft, targets = _products(32, 4, n, seed=n)
    assert policy._block == 2048
    for lam, div in ((0.0, "mse"), (1.0, "mse"), (0.5, "cross-entropy")):
        probs = policy.probs(X)
        grad = policy.combined_grad(X, soft, targets, lam, div)
        want_probs, want_grad = _single_products(policy, X, soft, targets, lam, div)
        if n <= 2048:
            assert probs.tobytes() == want_probs.tobytes()
            assert grad.tobytes() == want_grad.tobytes()
        else:
            np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


def test_linear_gradient_sums_its_blocks_in_order(monkeypatch):
    """The block is max(1, _PRODUCT_BLOCK_ENTRIES // (d * k)) rows; the
    gradient adds each block's product to the first block's, in row order,
    and each confidence row is its block's product."""
    policy, X, soft, targets = _products(5, 3, 10, seed=3)
    for entries, block in ((45, 3), (14, 1), (150, 10)):
        monkeypatch.setattr(toylab, "_PRODUCT_BLOCK_ENTRIES", entries)
        assert policy._block == block
        g = toylab._grad_wrt_logits(policy.probs(X), soft, targets, 1.0, "mse", 1.0)
        want = X[:block].T @ g[:block]
        for i in range(block, 10, block):
            want += X[i:i + block].T @ g[i:i + block]
        grad = policy.combined_grad(X, soft, targets, 1.0, "mse")
        assert grad.tobytes() == want.tobytes()
        want_probs = np.concatenate(
            [softmax(X[i:i + block] @ policy.W) for i in range(0, 10, block)])
        assert policy.probs(X).tobytes() == want_probs.tobytes()


def test_linear_gradient_of_overflowing_blocks_raises_without_warnings(monkeypatch):
    """Blocks whose sum overflows give a non-finite gradient, which is
    reported as such; pytest turns a numpy warning into a failure."""
    monkeypatch.setattr(toylab, "_PRODUCT_BLOCK_ENTRIES", 1)
    X = np.full((4, 1), 1e308)
    policy = LinearPolicy(1, 2)
    soft = np.array([[0.0, 1.0]] * 4)
    with pytest.raises(NonFiniteGradient):
        policy.combined_grad(X, soft, None, 0.0, "mse", sft_weight=4.0)


def test_fit_temperature_identity_when_calibrated():
    # A generative predictor's own samples are already calibrated, so the
    # identity temperature is kept and nothing degrades.
    from calibkit.genmodel import Predictor, make_model, sample_dataset

    model = make_model("dirichlet", 4, 30, alpha=1.0, seed=5)
    ds = sample_dataset(model, Predictor.from_model(model), 5000, seed=5)
    t, before, after = fit_temperature(ds)
    assert after <= before


def test_fit_temperature_improves_overconfident_data():
    rng = np.random.default_rng(6)
    n = 500
    conf = rng.dirichlet([20, 1, 1, 1], n)
    conf = np.sort(conf, axis=1)[:, ::-1]
    labels = np.where(rng.random(n) < 0.5, 0, 3)
    ds = Dataset.from_arrays(conf, labels)
    t, before, after = fit_temperature(ds)
    assert t > 1.0
    assert after < before


def test_fit_temperature_scores_near_ties_at_the_source_argmax():
    """Overconfident rows at 50% accuracy push the fit to the top of the grid,
    where the [0.5-ulp, 0.5+ulp] rows round to ties. Their label is the
    source argmax 1, so they stay correct; a fresh argmax of the tempered
    tie would pick 0. The exact ties (label 0) share their bin, so the two
    readings give different errors."""
    over = np.tile([[0.9, 0.1], [0.1, 0.9]], (50, 1))
    tie = np.full((10, 2), 0.5)
    near = np.tile([np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)], (10, 1))
    probs = np.vstack([over, tie, near])
    labels = np.concatenate([np.tile([0, 0, 1, 1], 25), np.zeros(10, int), np.ones(10, int)])
    t, before, after = fit_temperature(Dataset.from_arrays(probs, labels))
    scaled = temperature_transform(probs, t)
    assert t >= 13.0 and scaled[-1, 0] == scaled[-1, 1]
    top = probs.argmax(axis=1)
    assert after == binned_ece(scaled[np.arange(len(labels)), top], top == labels, 10)


def test_apply_temperature_examples():
    ds = Dataset.from_arrays(np.array([[0.7, 0.2, 0.06, 0.04]]), np.array([0]))
    same = apply_temperature(ds, 1.0)
    assert same.probs_matrix[0] == pytest.approx(ds.probs_matrix[0], abs=1e-12)

    p = np.array([0.7, 0.2, 0.06, 0.04])
    expected = np.sqrt(p) / np.sqrt(p).sum()
    half = apply_temperature(ds, 2.0)
    assert half.probs_matrix[0] == pytest.approx(expected, abs=1e-12)

    hot = apply_temperature(ds, 1e9)
    assert hot.probs_matrix[0] == pytest.approx([0.25] * 4, abs=1e-6)

    with pytest.raises(BadTemperature):
        apply_temperature(ds, 0.0)


def test_apply_temperature_preserves_accuracy():
    rng = np.random.default_rng(7)
    for _ in range(30):
        probs = rng.dirichlet(np.ones(4), 40)
        labels = rng.integers(0, 4, 40)
        ds = Dataset.from_arrays(probs, labels)
        for T in (0.07, 0.5, 3.0, 15.0):
            assert accuracy(apply_temperature(ds, T)) == accuracy(ds)


def _reference_smooth_matrix(labels, k, epsilon):
    """The smoothing body ``train`` used before it called
    ``label_smooth_targets``."""
    out = np.full((labels.shape[0], k), epsilon / (k - 1))
    out[np.arange(labels.shape[0]), labels] = 1.0 - epsilon
    return out


def test_label_smooth_targets():
    rows = label_smooth_targets(np.array([2, 0]), 4, 0.1)
    assert rows[0] == pytest.approx((0.1 / 3, 0.1 / 3, 0.9, 0.1 / 3), abs=1e-15)
    assert rows[1] == pytest.approx((0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3), abs=1e-15)
    assert label_smooth_targets(np.array([0]), 4, 0.0).tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert label_smooth_targets(np.array([0]), 2, 0.3)[0] == pytest.approx((0.7, 0.3), abs=1e-15)
    assert label_smooth_targets(np.array([], dtype=np.int64), 3, 0.1).shape == (0, 3)
    with pytest.raises(BadEpsilon):
        label_smooth_targets(np.array([0]), 4, 1.0)
    with pytest.raises(BadEpsilon):
        label_smooth_targets(np.array([0]), 4, math.nan)
    for bad in ([4], [-1], [0, 7]):
        with pytest.raises(BadParams):
            label_smooth_targets(np.array(bad), 4, 0.1)


def test_label_smooth_targets_matches_reference_body():
    rng = np.random.default_rng(12)
    for k in (2, 4, 9):
        for n in (1, 13, 500):
            labels = rng.integers(0, k, n)
            for eps in (0.0, 0.1, 0.37, 0.999):
                assert np.array_equal(
                    label_smooth_targets(labels, k, eps), _reference_smooth_matrix(labels, k, eps)
                )


@pytest.mark.parametrize("mode", ["sft-only", "label-smooth"])
def test_train_plain_descent_rejects_bad_lr_and_epochs(mode):
    task = gen_toy_task(d=4, k=3, n=30, seed=13)
    for kwargs in ({"lr": -1.0}, {"lr": 0.0}, {"lr": math.nan}, {"lr": math.inf},
                   {"epochs": -3}):
        with pytest.raises(BadParams):
            train(LinearPolicy(task.d, task.k), task, mode=mode, **kwargs)
    _, history = train(LinearPolicy(task.d, task.k), task, mode=mode, epochs=0, lr=0.5)
    assert [row["epoch"] for row in history] == [0]


def test_bad_params_is_one_class():
    from calibkit import core, genmodel

    assert BadParams is core.BadParams is genmodel.BadParams


def _reference_gd_train(policy, features, labels, soft_labels, epochs, lr, M):
    """The plain-descent loop ``train`` ran before every mode went through
    ``run_em``, kept as the reference for its lam = 0 trajectory."""
    if epochs < 0 or not (math.isfinite(lr) and lr > 0.0):
        raise BadParams(f"plain descent needs epochs >= 0 and a finite lr > 0, "
                        f"got epochs={epochs!r}, lr={lr!r}")
    history = [_history_row(0, policy.probs(features), labels, M, None)]
    for epoch in range(1, epochs + 1):
        grad = policy.combined_grad(features, soft_labels, None, 0.0, "mse")
        policy.descend(grad, lr)
        probs = policy.probs(features)
        if not np.isfinite(probs).all():
            raise NonFiniteLoss(epoch, "policy produced non-finite confidences")
        history.append(_history_row(epoch, probs, labels, M, None))
    return policy, history


def _params(policy):
    return (policy.W if isinstance(policy, LinearPolicy) else policy.logits).tobytes()


def _copy(policy):
    """A policy of the same kind built from a copy of ``policy``'s weights."""
    if isinstance(policy, LinearPolicy):
        return LinearPolicy(*policy.W.shape, policy.W)
    return TabularPolicy(policy.logits)


@pytest.mark.parametrize("k", [2, 4, 9])
@pytest.mark.parametrize("epochs", [0, 7])
@pytest.mark.parametrize("mode", ["sft-only", "label-smooth"])
@pytest.mark.parametrize("kind", ["linear", "tabular"])
def test_plain_descent_matches_reference_loop_bitwise(k, epochs, mode, kind):
    task = gen_toy_task(d=5, k=k, n=60, seed=20 + k)
    rng = np.random.default_rng(k)
    if kind == "linear":
        start, features = LinearPolicy(task.d, k, rng.standard_normal((task.d, k))), task.features
    else:
        start, features = TabularPolicy(rng.standard_normal((task.n, k))), None
    if mode == "label-smooth":
        soft = label_smooth_targets(task.labels, k, 0.1)
    else:
        soft = _one_hot(task.labels, k)
    ref, ref_hist = _reference_gd_train(
        _copy(start), features, task.labels, soft, epochs, 0.5, 7
    )
    got, hist = train(_copy(start), task, mode=mode, epochs=epochs, lr=0.5, bins=7)
    assert _params(got) == _params(ref)
    assert hist == ref_hist


@pytest.mark.parametrize("k", [2, 4, 9])
@pytest.mark.parametrize("overfit_epochs", [0, 7])
def test_rcft_analog_overfit_stage_matches_reference_loop_bitwise(
    k, overfit_epochs, monkeypatch
):
    monkeypatch.setattr(toylab, "OVERFIT_EPOCHS", overfit_epochs)
    task = gen_toy_task(d=5, k=k, n=60, seed=30 + k)
    policy = LinearPolicy(task.d, k, np.random.default_rng(k).standard_normal((task.d, k)))
    tab = TabularPolicy.from_probs(policy.probs(task.features))
    ref, ref_hist = _reference_gd_train(
        tab, None, task.labels, _one_hot(task.labels, k), overfit_epochs,
        toylab.OVERFIT_LR, 7,
    )
    # With zero EM epochs the EM stage adds no row and leaves the logits alone.
    got, hist = train(
        policy, task, mode="rcft",
        em=EmConfig(epochs=0, bins=7, lam=1.0, learning_rate=0.1),
    )
    assert _params(got) == _params(ref)
    assert hist == ref_hist


@pytest.mark.parametrize("mode", ["cft", "rcft"])
def test_train_em_modes_need_an_em_config(mode):
    task = gen_toy_task(d=4, k=3, n=30, seed=16)
    with pytest.raises(BadParams):
        train(LinearPolicy(task.d, task.k), task, mode=mode)


def test_train_rejects_the_old_rcft_analog_name():
    task = gen_toy_task(d=4, k=3, n=30, seed=16)
    em = EmConfig(epochs=1, lam=1.0, learning_rate=0.1)
    with pytest.raises(BadParams):
        train(LinearPolicy(task.d, task.k), task, mode="rcft-analog", em=em)
    with pytest.raises(BadParams):
        toylab._run_mode(task, "rcft-analog", 5, 0.5, 0.1, em, 10)


def test_plain_descent_non_finite_gradient_names_its_epoch():
    class Diverging(LinearPolicy):
        def combined_grad(self, *args, **kwargs):
            raise NonFiniteGradient("linear policy gradient is not finite")

    task = gen_toy_task(d=4, k=3, n=30, seed=17)
    with pytest.raises(NonFiniteLoss) as err:
        train(Diverging(task.d, task.k), task, mode="sft-only", epochs=3, lr=0.5)
    assert err.value.epoch == 1


def test_train_sft_equals_label_smooth_zero_bitwise():
    task = gen_toy_task(d=8, k=4, n=200, seed=8)
    a = LinearPolicy(task.d, task.k)
    a, _ = train(a, task, mode="sft-only", epochs=50, lr=0.5)
    b = LinearPolicy(task.d, task.k)
    b, _ = train(b, task, mode="label-smooth", epsilon=0.0, epochs=50, lr=0.5)
    assert np.array_equal(a.W, b.W)


def test_train_deterministic_repeat():
    task = gen_toy_task(d=8, k=4, n=200, seed=9)
    runs = []
    for _ in range(2):
        p = LinearPolicy(task.d, task.k)
        p, hist = train(p, task, mode="sft-only", epochs=30, lr=0.5)
        runs.append((p.W.copy(), json.dumps(hist)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_train_cft_delegates_to_em():
    task = gen_toy_task(d=8, k=4, n=300, seed=10)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=60, lr=0.5)
    before = conf_ece(task_dataset(task, policy))[0]
    policy, history = train(
        policy, task, mode="cft", em=EmConfig(epochs=4, lam=1.0, learning_rate=0.5)
    )
    assert history[-1]["conf_ece"] < before


def test_train_rcft_analog_shapes(monkeypatch):
    monkeypatch.setattr(toylab, "OVERFIT_EPOCHS", 150)
    task = gen_toy_task(d=8, k=4, n=300, seed=11)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=60, lr=0.5)
    out, history = train(
        policy, task, mode="rcft",
        em=EmConfig(epochs=3, lam=1.0, learning_rate=0.1),
    )
    assert isinstance(out, TabularPolicy)
    epochs = [row["epoch"] for row in history]
    assert epochs == sorted(epochs)


def test_train_rcft_analog_overfit_rows_use_the_em_bins(monkeypatch):
    """The plain-descent rows before the EM stage bin like the EM rows."""
    monkeypatch.setattr(toylab, "OVERFIT_EPOCHS", 2)
    task = gen_toy_task(d=8, k=4, n=300, seed=11)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=30, lr=0.5)
    start = TabularPolicy.from_probs(policy.probs(task.features)).probs(None)
    _, history = train(
        policy, task, mode="rcft",
        em=EmConfig(epochs=1, bins=7, lam=1.0, learning_rate=0.1),
    )
    correct = start.argmax(axis=1) == task.labels
    assert history[0]["conf_ece"] == binned_ece(start.max(axis=1), correct, 7)
    assert history[0]["conf_ece"] != binned_ece(start.max(axis=1), correct, 10)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("seed", [1, 7])
def test_sft_baseline_matches_train_sft_only_bitwise(k, seed):
    """The row-free baseline of cft, rcft and ts takes the same steps as
    ``train``'s sft-only mode. Both run here, on one machine: the policy's
    matrix products go through BLAS."""
    task = gen_toy_task(d=8, k=k, n=300, seed=seed)
    drained = toylab._sft_baseline(task, 40, 0.5)
    trained, history = train(
        LinearPolicy(task.d, task.k), task, mode="sft-only", epochs=40, lr=0.5
    )
    assert len(history) == 41
    assert drained.W.tobytes() == trained.W.tobytes()


def reference_run_mode(task, mode, epochs, lr, epsilon, em, bins):
    """The before and after datasets and the history of one ``train-toy``
    mode, built from public pieces: the start policy (zero, or trained by
    ``train``'s sft-only mode), then ``train``, ``run_em`` on a zero tabular
    policy for ece-only, or ``fit_temperature`` and ``apply_temperature``
    for ts. Kept as the reference for ``toylab._run_mode``."""
    if mode == "ece-only":
        policy = TabularPolicy.zeros(task.n, task.k)
        before = task_dataset(task, policy)
        policy, history = run_em(policy, task.labels, em, features=None)
        return before, task_dataset(task, policy), history
    policy = LinearPolicy(task.d, task.k)
    if mode in ("cft", "rcft", "ts"):
        policy, _ = train(policy, task, mode="sft-only", epochs=epochs, lr=lr)
    before = task_dataset(task, policy)
    if mode == "ts":
        t, ece_before, ece_after = fit_temperature(before, bins)
        history = [{"temperature": t, "ece_before": ece_before, "ece_after": ece_after}]
        return before, apply_temperature(before, t), history
    policy, history = train(
        policy, task, mode=mode, epochs=epochs, lr=lr, epsilon=epsilon, em=em, bins=bins
    )
    return before, task_dataset(task, policy), history


@pytest.mark.parametrize("mode", ["sft-only", "label-smooth", "ece-only", "cft", "rcft", "ts"])
def test_run_mode_matches_the_reference_recipe_bitwise(mode, monkeypatch):
    monkeypatch.setattr(toylab, "OVERFIT_EPOCHS", 20)
    task = gen_toy_task(d=6, k=3, n=200, seed=40)
    em = None
    if mode in ("cft", "rcft", "ece-only"):
        em = EmConfig(
            epochs=2, bins=7, lam=0.5 if mode == "cft" else 1.0,
            sft_weight=0.0 if mode == "ece-only" else 1.0, divergence="cross-entropy",
            learning_rate=0.3, inner_steps=5,
        )
    args = (task, mode, 30, 0.5, 0.2, em, 7)
    got, ref = toylab._run_mode(*args), reference_run_mode(*args)
    for ds, ref_ds in zip(got[:2], ref[:2]):
        assert ds.probs_matrix.tobytes() == ref_ds.probs_matrix.tobytes()
        assert ds.labels_array.tobytes() == ref_ds.labels_array.tobytes()
    assert got[2] == ref[2]


def test_tradeoff_study_fits_one_baseline_and_matches_the_reference_stages(monkeypatch):
    """One study call fits its SFT baseline once and trains no sft-only
    policy; each stage's row equals the row of the same stage run alone by
    ``reference_run_mode``, which fits its own baseline."""
    study = toylab.STUDY
    fits, modes = [], []
    sft_baseline, train_mode = toylab._sft_baseline, toylab.train

    def counted_baseline(task, epochs, lr):
        fits.append((epochs, lr))
        return sft_baseline(task, epochs, lr)

    def counted_train(policy, task, mode="sft-only", *args, **kwargs):
        modes.append(mode)
        return train_mode(policy, task, mode, *args, **kwargs)

    monkeypatch.setattr(toylab, "_sft_baseline", counted_baseline)
    monkeypatch.setattr(toylab, "train", counted_train)
    got = toylab.tradeoff_study(5)
    assert fits == [(study["sft_epochs"], study["sft_lr"])]
    assert modes == ["cft", "rcft", "cft"]

    task = gen_toy_task(d=study["d"], k=study["k"], n=study["n"],
                        teacher_temperature=study["teacher_temperature"], seed=5)
    bins = study["bins"]

    def em(epochs, lr, sft_weight=1.0):
        return EmConfig(epochs=epochs, bins=bins, lam=1.0, sft_weight=sft_weight,
                        learning_rate=lr)

    stages = {
        "sft": ("sft-only", None),
        "cft": ("cft", em(study["em_epochs"], study["em_lr"])),
        "rcft": ("rcft", em(study["em_epochs"], study["rcft_em_lr"])),
        "ece_only": ("ece-only", em(study["ece_only_epochs"], study["em_lr"], 0.0)),
    }
    want = {"bayes_accuracy": task.bayes_accuracy}
    for key, (mode, cfg) in stages.items():
        _, after, _ = reference_run_mode(
            task, mode, study["sft_epochs"], study["sft_lr"], 0.0, cfg, bins
        )
        want[key] = metric_row(after.probs_matrix, after.labels_array, bins)
    assert repr(got) == repr(want)


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((50, 6)) * 30
    p = softmax(z)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert p.min() >= 0.0


def test_temperature_transform_keeps_argmax_with_zeros():
    probs = np.array([[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    out = temperature_transform(probs, 2.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert out[1].argmax() == 0


@pytest.mark.parametrize("k", [2, 4, 9])
def test_grid_objective_matches_per_temperature_softmax(k):
    """The stacked grid pass of fit_temperature is elementwise identical to
    softmax(logp / T) plus binned_ece at each grid point, including one-hot
    rows, zero entries, a tie and a near-tie that rounds to a tie at high T.
    Correctness is the source argmax's: row 25 stays correct at every T,
    though a fresh argmax of its rounded tie would pick class 0."""
    rng = np.random.default_rng(40 + k)
    n = 60
    probs = rng.dirichlet(np.ones(k) * 0.5, n)
    probs[:6] = np.eye(k)[rng.integers(0, k, 6)]
    zeros = rng.random((n, k)) < 0.4
    zeros[np.arange(n), probs.argmax(axis=1)] = False
    probs[6:24] = np.where(zeros[6:24], 0.0, probs[6:24])
    probs[6:24] /= probs[6:24].sum(axis=1, keepdims=True)
    probs[24:26] = 0.0
    probs[24, :2] = 0.5
    probs[25, :2] = [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
    labels = rng.integers(0, k, n)
    labels[24:26] = 1
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    assert np.isneginf(logp).any()
    grid = np.geomspace(0.05, 20.0, 400)
    top = probs.argmax(axis=1)
    correct = top == labels
    tops = toylab._tempered_top(logp, logp.max(axis=1, keepdims=True), grid[:, None, None])
    scores = _binned_gaps(tops, np.broadcast_to(correct, tops.shape), 10)[0]
    assert softmax(logp[25:26] / 20.0)[0, 0] == softmax(logp[25:26] / 20.0)[0, 1]
    for g, T in enumerate(grid):
        scaled = softmax(logp / T)
        expected = binned_ece(scaled.max(axis=1), correct, 10)
        assert scores[g] == expected, (g, T)


def test_apply_temperature_keeps_the_labels():
    ds = validate_dataset(
        [
            {"id": "x", "confidences": [0.7, 0.2, 0.1], "label": 0, "split": "train"},
            {"id": "y", "confidences": [0.1, 0.3, 0.6], "label": 2},
            {"id": "z", "confidences": [0.3, 0.4, 0.3], "label": 1, "split": "test"},
        ]
    )
    hot = apply_temperature(ds, 3.0)
    assert hot.labels_array.tolist() == [0, 2, 1]
    assert hot.probs_matrix.tobytes() == temperature_transform(ds.probs_matrix, 3.0).tobytes()
    assert hot.probs_matrix is not ds.probs_matrix


def test_fit_temperature_memory_stays_bounded():
    """At n = 2e4, k = 4 the whole 400-temperature tensor would take 256 MB;
    the grid is scored in chunks of at most ``_GRID_CHUNK_ENTRIES`` tempered
    entries, and the fit must peak below four times its input matrix."""
    rng = np.random.default_rng(0)
    n, k = 20_000, 4
    ds = Dataset.from_arrays(rng.dirichlet(np.ones(k), n), rng.integers(0, k, n))
    tracemalloc.start()
    try:
        fit_temperature(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ds.probs_matrix.nbytes


@pytest.mark.parametrize("k", [3, 4, 9])
def test_fit_temperature_does_not_depend_on_the_grid_chunk(k, monkeypatch):
    """Each stacked row of the grid is scored alone, so one temperature per
    chunk, the module's chunk and the whole grid in one chunk give the same
    bits; from k = 8 on the chunk is a (chunk, n, k) tensor."""
    rng = np.random.default_rng(k)
    n = 300
    ds = Dataset.from_arrays(rng.dirichlet(np.full(k, 0.5), n), rng.integers(0, k, n))
    fits = []
    for entries in (1, toylab._GRID_CHUNK_ENTRIES, 2**40):
        monkeypatch.setattr(toylab, "_GRID_CHUNK_ENTRIES", entries)
        fits.append(tuple(float(x).hex() for x in fit_temperature(ds)))
    assert fits[0] == fits[1] == fits[2]
