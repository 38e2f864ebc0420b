import dataclasses
import math

import numpy as np
import pytest

from calibkit.core import CalibrationError
from calibkit.emcal import (
    BinAccuracy,
    EmConfig,
    LOG_FLOOR,
    LatentAssignment,
    NonFiniteLoss,
    _history_row,
    build_all_targets,
    e_step,
    ece_loss,
    m_step,
    mean_ece_loss,
    mean_sft,
    run_em,
    sft_loss,
)
from calibkit.metrics import accuracy_arrays, conf_ece_arrays, cw_ece_arrays, metric_row
from calibkit.targetmap import build_target_matrix
from calibkit.toylab import LinearPolicy, TabularPolicy, gen_toy_task, train


def _cases():
    """(probs, labels) for k in {2, 4, 9}: n = 1, a one-hot batch, and a
    mixed batch with one-hot rows, zero entries and a tie."""
    rng = np.random.default_rng(31)
    for k in (2, 4, 9):
        eye = np.eye(k)
        yield rng.dirichlet(np.ones(k), 1), rng.integers(0, k, 1)
        yield eye[rng.integers(0, k, 12)], rng.integers(0, k, 12)
        probs = rng.dirichlet(np.full(k, 0.3), 400)
        probs[::7] = eye[rng.integers(0, k, probs[::7].shape[0])]
        probs[3, :] = 0.0
        probs[3, :2] = 0.5
        yield probs, rng.integers(0, k, 400)


# The per-epoch and endpoint row builders this package used before the one
# ``metric_row``, kept as references: each built full reliability tables.


def _reference_history_row(epoch, probs, labels, targets, bins, divergence):
    conf, _ = conf_ece_arrays(probs, labels, bins)
    cw, _ = cw_ece_arrays(probs, labels, bins)
    return {
        "epoch": epoch,
        "acc": accuracy_arrays(probs, labels),
        "conf_ece": conf,
        "cw_ece": cw,
        "mean_sft": mean_sft(probs, labels),
        "mean_ece": mean_ece_loss(probs, targets, divergence),
    }


def _reference_gd_history_row(epoch, probs, labels, M):
    conf, _ = conf_ece_arrays(probs, labels, M)
    cw, _ = cw_ece_arrays(probs, labels, M)
    return {
        "epoch": epoch,
        "acc": accuracy_arrays(probs, labels),
        "conf_ece": conf,
        "cw_ece": cw,
        "mean_sft": mean_sft(probs, labels),
        "mean_ece": None,
    }


def _reference_endpoint(probs, labels, M):
    conf, _ = conf_ece_arrays(probs, labels, M)
    cw, _ = cw_ece_arrays(probs, labels, M)
    return {"acc": accuracy_arrays(probs, labels), "conf_ece": conf, "cw_ece": cw}


# The single-row loss bodies from before ``ece_loss`` and ``sft_loss`` became
# one-row calls into ``mean_ece_loss`` and ``mean_sft``.


def _reference_ece_loss(t, c, divergence):
    t, c = np.asarray(t, dtype=float), np.asarray(c, dtype=float)
    if divergence == "mse":
        return float(np.mean((t - c) ** 2))
    return float(-(t * np.log(np.maximum(c, LOG_FLOOR))).sum())


def _reference_sft_loss(c, label):
    return float(-np.log(max(float(np.asarray(c, dtype=float)[label]), LOG_FLOOR)))


def test_e_step_examples():
    probs = np.array([[0.77, 0.13, 0.05, 0.05]])
    assert e_step(probs, 10).z.tolist() == [8]
    onehot = np.eye(4)
    assert e_step(onehot, 10).z.tolist() == [10, 10, 10, 10]
    assert e_step(onehot, 1).z.tolist() == [1, 1, 1, 1]


def test_m_step_plain_and_laplace():
    probs = np.array([[0.8, 0.2, 0.0, 0.0]] * 4)
    labels = np.array([0, 0, 1, 1])
    z = e_step(probs, 10)
    qs = m_step(probs, labels, z, min_bin_count=1)
    assert qs.q[7] == 0.5
    assert qs.counts[7] == 4

    one = np.array([[0.9, 0.1, 0.0, 0.0]])
    z1 = e_step(one, 10)
    qs1 = m_step(one, np.array([0]), z1, min_bin_count=5)
    assert qs1.q[8] == pytest.approx(2.0 / 3.0, abs=1e-15)

    assert np.isnan(qs.q[0])


def test_build_all_targets_composition():
    # A bin with accuracy 0.6 produces the worked tail mapping per record.
    probs = np.array([[0.7, 0.2, 0.06, 0.04]] * 5)
    labels = np.array([0, 0, 0, 1, 1])
    z = e_step(probs, 10)
    qs = m_step(probs, labels, z, min_bin_count=1)
    targets = build_all_targets(probs, qs, z)
    assert targets.shape == (5, 4)
    assert targets[0, 0] == pytest.approx(0.6, abs=1e-15)
    q = qs.q[z.z[0] - 1]
    single, _, rank = build_target_matrix(np.array([[0.7, 0.2, 0.06, 0.04]]), np.array([q]))
    assert rank[0]
    assert np.array_equal(targets, np.tile(single[0], (5, 1)))


def test_build_all_targets_clamps_extreme_bins():
    probs = np.array([[0.9, 0.05, 0.03, 0.02]] * 3)
    z = e_step(probs, 10)
    perfect = m_step(probs, np.zeros(3, dtype=np.int64), z, min_bin_count=1)
    targets = build_all_targets(probs, perfect, z)
    assert targets[0, 0] == pytest.approx(0.999, abs=1e-12)

    hopeless = m_step(probs, np.ones(3, dtype=np.int64), z, min_bin_count=1)
    targets = build_all_targets(probs, hopeless, z)
    assert targets[0, 0] == pytest.approx(0.001, abs=1e-12)


def test_ece_loss_fixtures():
    assert ece_loss([0.25] * 4, [0.25] * 4, "mse") == 0.0
    assert abs(ece_loss([1, 0, 0, 0], [0.25] * 4, "mse") - 0.1875) < 1e-12
    assert abs(ece_loss([1, 0, 0, 0], [0.25] * 4, "cross-entropy") - math.log(4)) < 1e-12


def test_sft_loss_fixtures():
    assert sft_loss([0.0, 1.0, 0.0, 0.0], 1) == 0.0
    assert abs(sft_loss([0.25] * 4, 2) - math.log(4)) < 1e-12
    assert abs(sft_loss([0.5, 0.5], 0) - math.log(2)) < 1e-12


def test_row_losses_match_their_reference_bodies():
    for probs, labels in _cases():
        targets = np.roll(probs, 1, axis=0)
        for t, c, y in zip(targets, probs, labels):
            for div in ("mse", "cross-entropy"):
                assert ece_loss(t, c, div) == _reference_ece_loss(t, c, div)
            assert sft_loss(c, int(y)) == _reference_sft_loss(c, int(y))
    assert ece_loss([1, 0, 0, 0], [0.25] * 4, "cross-entropy") == _reference_ece_loss(
        [1, 0, 0, 0], [0.25] * 4, "cross-entropy"
    )
    with pytest.raises(CalibrationError):
        ece_loss([0.5, 0.5], [0.5, 0.5], "kl")


def test_history_and_endpoint_rows_match_their_references():
    for probs, labels in _cases():
        targets = build_target_matrix(probs, np.full(probs.shape[0], 0.5))[0]
        for M in (1, 10, 15):
            for div in ("mse", "cross-entropy"):
                mean_ece = mean_ece_loss(probs, targets, div)
                assert _history_row(3, probs, labels, M, mean_ece) == (
                    _reference_history_row(3, probs, labels, targets, M, div)
                )
            assert _history_row(3, probs, labels, M, None) == (
                _reference_gd_history_row(3, probs, labels, M)
            )
            assert metric_row(probs, labels, M) == _reference_endpoint(probs, labels, M)


def test_loss_nonnegativity():
    rng = np.random.default_rng(23)
    probs = rng.dirichlet(np.ones(4), 50)
    targets = rng.dirichlet(np.ones(4), 50)
    labels = rng.integers(0, 4, 50)
    assert mean_ece_loss(probs, targets, "mse") >= 0.0
    assert mean_ece_loss(probs, targets, "cross-entropy") >= 0.0
    assert mean_sft(probs, labels) >= 0.0


def test_em_reproduces_conf_ece_bin_table():
    task = gen_toy_task(d=8, k=4, n=400, seed=5)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=40, lr=0.5)
    probs = policy.probs(task.features)
    z = e_step(probs, 10)
    qs = m_step(probs, task.labels, z, min_bin_count=1)
    _, bins = conf_ece_arrays(probs, task.labels, 10)
    for b in bins:
        if b.count:
            assert qs.q[b.m - 1] == pytest.approx(b.empirical_freq, abs=1e-12)
            assert qs.counts[b.m - 1] == b.count


def test_e_step_pure_function_of_policy():
    task = gen_toy_task(d=6, k=4, n=100, seed=6)
    policy = LinearPolicy(task.d, task.k)
    probs = policy.probs(task.features)
    assert np.array_equal(e_step(probs, 10).z, e_step(policy.probs(task.features), 10).z)


def test_run_em_zero_epochs_returns_unchanged():
    task = gen_toy_task(d=6, k=4, n=100, seed=7)
    policy = LinearPolicy(task.d, task.k)
    before = policy.W.copy()
    policy, history = run_em(policy, task.labels, EmConfig(epochs=0), features=task.features)
    assert np.array_equal(policy.W, before)
    assert len(history) == 1 and history[0]["epoch"] == 0
    assert set(history[0]) == {"epoch", "acc", "conf_ece", "cw_ece", "mean_sft", "mean_ece"}


def test_run_em_lam_zero_matches_sft_bitwise():
    task = gen_toy_task(d=8, k=4, n=300, seed=8)
    a = LinearPolicy(task.d, task.k)
    a, _ = train(a, task, mode="sft-only", epochs=60, lr=0.5)
    b = LinearPolicy(task.d, task.k)
    b, _ = run_em(
        b, task.labels,
        EmConfig(epochs=3, inner_steps=20, lam=0.0, learning_rate=0.5),
        features=task.features,
    )
    assert np.array_equal(a.W, b.W)


def test_run_em_large_lambda_drives_toward_chance():
    # With lam >> 1 the fit term is swamped; the step size compensates for the
    # gradient scale so descent stays stable.
    task = gen_toy_task(d=8, k=4, n=500, seed=9)
    policy = TabularPolicy.zeros(task.n, task.k)
    cfg = EmConfig(epochs=10, lam=1000.0, learning_rate=0.001)
    policy, history = run_em(policy, task.labels, cfg, features=None)
    assert abs(history[-1]["acc"] - 0.25) <= 0.1
    assert history[-1]["conf_ece"] < 0.05


def test_run_em_endpoint_improves_conf_ece():
    task = gen_toy_task(d=16, k=4, n=800, seed=10)
    policy = LinearPolicy(task.d, task.k)
    policy, _ = train(policy, task, mode="sft-only", epochs=80, lr=0.5)
    policy, history = run_em(
        policy, task.labels, EmConfig(epochs=6, lam=1.0, learning_rate=0.5),
        features=task.features,
    )
    assert history[-1]["conf_ece"] < history[0]["conf_ece"]


def test_run_em_rejects_non_finite_policy():
    broken = TabularPolicy(np.array([[0.0, 0.0, 0.0, 0.0]]))
    broken.logits[0, 0] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as err:
            run_em(broken, np.array([0]), EmConfig(epochs=2), features=None)
    assert err.value.epoch == 0


def test_combined_grad_rejects_non_finite_targets():
    from calibkit.emcal import NonFiniteGradient

    policy = TabularPolicy(np.zeros((3, 4)))
    y1 = np.eye(4)[:3]
    targets = np.full((3, 4), np.nan)
    with pytest.raises(NonFiniteGradient):
        policy.combined_grad(None, y1, targets, 1.0, "mse")


def test_em_config_validation():
    with pytest.raises(CalibrationError):
        EmConfig(divergence="kl")
    with pytest.raises(CalibrationError):
        EmConfig(bins=0)
    with pytest.raises(CalibrationError):
        EmConfig(learning_rate=0.0)
    # NaN compares false with everything, so each bound is checked as finite.
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(CalibrationError):
            EmConfig(lam=bad)
        with pytest.raises(CalibrationError):
            EmConfig(learning_rate=bad)
    assert len(dataclasses.fields(EmConfig)) == 8
