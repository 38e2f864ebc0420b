import json
import math
import tracemalloc

import numpy as np
import pytest

from calibkit.core import Dataset, validate_dataset
from calibkit.emcal import EmConfig, NonFiniteGradient, NonFiniteLoss, _history_row
from calibkit.metrics import _binned_gaps, accuracy, binned_ece, conf_ece
from calibkit.toylab import (
    BadEpsilon,
    BadParams,
    BadTemperature,
    DimensionMismatch,
    LinearPolicy,
    TabularPolicy,
    apply_temperature,
    combined_loss,
    fit_temperature,
    gen_toy_task,
    label_smooth_targets,
    softmax,
    task_dataset,
    temperature_transform,
    train,
    _one_hot,
    _tempered,
)
from calibkit.targetmap import build_target_matrix


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
    policy = LinearPolicy(task.d, task.k, W=np.ones((8, 4)), temperature=1e9)
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


def test_train_rcft_rejects_bad_overfit_lr_and_epochs():
    task = gen_toy_task(d=4, k=3, n=30, seed=14)
    em = EmConfig(epochs=1, learning_rate=0.1)
    for kwargs in ({"overfit_lr": -0.5}, {"overfit_lr": 0.0}, {"overfit_lr": math.nan},
                   {"overfit_epochs": -1}):
        with pytest.raises(BadParams):
            train(LinearPolicy(task.d, task.k), task, mode="rcft-analog", em=em, **kwargs)


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
        start.clone(), features, task.labels, soft, epochs, 0.5, 7
    )
    got, hist = train(start.clone(), task, mode=mode, epochs=epochs, lr=0.5, bins=7)
    assert _params(got) == _params(ref)
    assert hist == ref_hist


@pytest.mark.parametrize("k", [2, 4, 9])
@pytest.mark.parametrize("overfit_epochs", [0, 7])
def test_rcft_analog_overfit_stage_matches_reference_loop_bitwise(k, overfit_epochs):
    task = gen_toy_task(d=5, k=k, n=60, seed=30 + k)
    policy = LinearPolicy(task.d, k, np.random.default_rng(k).standard_normal((task.d, k)))
    tab = TabularPolicy.from_probs(policy.probs(task.features))
    ref, ref_hist = _reference_gd_train(
        tab, None, task.labels, _one_hot(task.labels, k), overfit_epochs, 0.5, 7
    )
    # With zero EM epochs the EM stage adds no row and leaves the logits alone.
    got, hist = train(
        policy, task, mode="rcft-analog",
        em=EmConfig(epochs=0, bins=7, lam=1.0, learning_rate=0.1),
        overfit_epochs=overfit_epochs, overfit_lr=0.5,
    )
    assert _params(got) == _params(ref)
    assert hist == ref_hist


@pytest.mark.parametrize("mode", ["cft", "rcft-analog"])
def test_train_em_modes_need_an_em_config(mode):
    task = gen_toy_task(d=4, k=3, n=30, seed=16)
    with pytest.raises(BadParams):
        train(LinearPolicy(task.d, task.k), task, mode=mode)


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


def test_train_rcft_analog_shapes():
    task = gen_toy_task(d=8, k=4, n=300, seed=11)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=60, lr=0.5)
    out, history = train(
        policy, task, mode="rcft-analog",
        em=EmConfig(epochs=3, lam=1.0, learning_rate=0.1),
        overfit_epochs=150, overfit_lr=0.5,
    )
    assert isinstance(out, TabularPolicy)
    epochs = [row["epoch"] for row in history]
    assert epochs == sorted(epochs)


def test_train_rcft_analog_overfit_rows_use_the_em_bins():
    """The plain-descent rows before the EM stage bin like the EM rows."""
    task = gen_toy_task(d=8, k=4, n=300, seed=11)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=30, lr=0.5)
    start = TabularPolicy.from_probs(policy.probs(task.features)).probs(None)
    _, history = train(
        policy, task, mode="rcft-analog",
        em=EmConfig(epochs=1, bins=7, lam=1.0, learning_rate=0.1),
        overfit_epochs=2, overfit_lr=0.5,
    )
    correct = start.argmax(axis=1) == task.labels
    assert history[0]["conf_ece"] == binned_ece(start.max(axis=1), correct, 7)
    assert history[0]["conf_ece"] != binned_ece(start.max(axis=1), correct, 10)


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
    tops = _tempered(logp, logp.max(axis=1, keepdims=True), grid[:, None, None])
    tops = tops[:, np.arange(n), top]
    scores = _binned_gaps(tops, np.broadcast_to(correct, tops.shape), 10)[0]
    assert softmax(logp[25:26] / 20.0)[0, 0] == softmax(logp[25:26] / 20.0)[0, 1]
    for g, T in enumerate(grid):
        scaled = softmax(logp / T)
        expected = binned_ece(scaled.max(axis=1), correct, 10)
        assert scores[g] == expected, (g, T)


def test_apply_temperature_keeps_ids_labels_and_splits():
    ds = validate_dataset(
        [
            {"id": "x", "confidences": [0.7, 0.2, 0.1], "label": 0, "split": "train"},
            {"id": "y", "confidences": [0.1, 0.3, 0.6], "label": 2},
            {"id": "z", "confidences": [0.3, 0.4, 0.3], "label": 1, "split": "test"},
        ]
    )
    hot = apply_temperature(ds, 3.0)
    assert list(zip(hot.ids, hot.labels_array.tolist(), hot.splits)) == [
        ("x", 0, "train"), ("y", 2, None), ("z", 1, "test")
    ]
    assert hot.probs_matrix.tobytes() == temperature_transform(ds.probs_matrix, 3.0).tobytes()


def test_fit_temperature_memory_stays_bounded():
    """At n = 2e4, k = 4 the whole 400-temperature tensor would take 256 MB;
    the grid is scored in chunks, and the fit must peak below a quarter of
    that."""
    rng = np.random.default_rng(0)
    n, k = 20_000, 4
    ds = Dataset.from_arrays(rng.dirichlet(np.ones(k), n), rng.integers(0, k, n))
    tracemalloc.start()
    try:
        fit_temperature(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * n * k * 8 / 4
