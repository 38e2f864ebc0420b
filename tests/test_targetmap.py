import math

import numpy as np
import pytest

from calibkit.core import ConfidenceVector
from calibkit.targetmap import BadQ, build_target, build_target_matrix

LN3 = math.log(3.0)


def _tail_tanh(row: np.ndarray, q: float) -> tuple[float, np.ndarray]:
    """Independent recomputation of gamma and the tail's tanh values."""
    tail = np.delete(row, int(np.argmax(row)))
    gamma = LN3 / (tail.max() * (1.0 - q))
    return gamma, np.tanh(gamma * tail)


def _tail_coefficients(out_row: np.ndarray, top: int, t: np.ndarray) -> tuple[float, float]:
    """(alpha, beta) of the affine tail map, read back from an output row."""
    o = np.delete(out_row, top)
    hi, lo = int(np.argmax(t)), int(np.argmin(t))
    alpha = (o[hi] - o[lo]) / (t[hi] - t[lo])
    return alpha, o[hi] - alpha * t[hi]


def test_compute_gamma_examples():
    # gamma = ln(3) / (max tail * (1 - q)), read back from build_target_matrix
    # output: with alpha = beta each tail entry maps to alpha * (tanh(gamma * c)
    # + 1), and the largest one lands at tanh(ln(3) / (1 - q)), which fixes alpha.
    for row, q, gamma, worked in (
        ([0.7, 0.2, 0.06, 0.04], 0.6, LN3 / (0.2 * 0.4), 13.7327),
        # A tied top leaves the tail (0.5, 0.3, 0.2); the map needs no unit-mass source.
        ([0.5, 0.5, 0.3, 0.2], 0.5, LN3 / 0.25, 4.3944),
    ):
        assert gamma == pytest.approx(worked, abs=1e-3)
        assert _tail_tanh(np.array(row), q)[0] == pytest.approx(gamma, abs=1e-12)
        out, top, _ = build_target_matrix(np.array([row]), np.array([q]))
        assert top[0] == 0
        mapped = out[0, 1:]
        alpha = mapped.max() / (math.tanh(LN3 / (1.0 - q)) + 1.0)
        t = mapped / alpha - 1.0
        assert np.arctanh(t) / np.array(row[1:]) == pytest.approx([gamma] * 3, rel=1e-9)
        if q == 0.6:
            assert t.sum() == pytest.approx(2.1690, abs=1e-3)


def test_compute_gamma_errors():
    # An all-zero tail has no gamma: the remaining mass is spread uniformly
    # instead. q must lie strictly inside (0, 1).
    out, _, _ = build_target_matrix(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([0.5]))
    assert out[0].tolist() == [0.5] + [0.5 / 3] * 3
    for q in (0.0, 1.0, math.nan):
        with pytest.raises(BadQ):
            build_target_matrix(np.array([[0.7, 0.2, 0.1]]), np.array([q]))


def test_solve_alpha_beta_simplified():
    # Wherever the rank rescue does not step in, the tail coefficients are
    # alpha = beta = (1 - q) / (tanh_sum + k - 1).
    row = np.array([0.7, 0.2, 0.06, 0.04])
    out, top, rank = build_target_matrix(row[None, :], np.array([0.6]))
    _, t = _tail_tanh(row, 0.6)
    alpha, beta = _tail_coefficients(out[0], 0, t)
    assert alpha == pytest.approx(0.4 / (t.sum() + 3), abs=1e-12)
    assert beta == pytest.approx(alpha, abs=1e-12)
    assert alpha == pytest.approx(0.4 / 5.1691, abs=1e-4)
    assert out[0, 1:] == pytest.approx(0.4 / (t.sum() + 3) * (t + 1.0), abs=1e-15)
    assert top[0] == 0 and rank[0]
    # tanh_sum = 0 (a one-hot source): alpha = beta = (1 - q) / (k - 1).
    out, _, _ = build_target_matrix(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([0.5]))
    assert out[0, 1:] == pytest.approx([0.5 / 3] * 3, abs=1e-12)
    # At q = 1/k no alpha keeps the tail below the top, so alpha = beta stands.
    row = np.array([0.4, 0.3, 0.2, 0.1])
    out, _, rank = build_target_matrix(row[None, :], np.array([0.25]))
    _, t = _tail_tanh(row, 0.25)
    alpha, beta = _tail_coefficients(out[0], 0, t)
    assert alpha == pytest.approx(0.75 / (t.sum() + 3), abs=1e-12)
    assert beta == pytest.approx(alpha, abs=1e-12)
    assert not rank[0]


def test_build_target_worked_example_against_recomputation():
    conf = ConfidenceVector((0.7, 0.2, 0.06, 0.04))
    out = build_target(conf, 0.6)
    # Independent recomputation of the closed-form coefficients.
    gamma = LN3 / (0.2 * (1 - 0.6))
    tanh_sum = sum(math.tanh(gamma * c) for c in (0.2, 0.06, 0.04))
    alpha = (1 - 0.6) / (tanh_sum + 3)
    expected = (0.6,) + tuple(alpha * math.tanh(gamma * c) + alpha for c in (0.2, 0.06, 0.04))
    assert out.probs.probs == pytest.approx(expected, abs=1e-9)
    assert out.top_index == 0
    assert out.q_m == 0.6
    assert out.rank_preserved
    # Oracle: pinned top, unit mass, strict ordering.
    assert out.probs.probs[0] == 0.6
    assert math.fsum(out.probs.probs) == pytest.approx(1.0, abs=1e-9)
    assert sorted(out.probs.probs, reverse=True) == list(out.probs.probs)


def test_build_target_one_hot_fallback():
    out = build_target(ConfidenceVector((1.0, 0.0, 0.0, 0.0)), 0.7)
    assert out.probs.probs == pytest.approx((0.7, 0.1, 0.1, 0.1), abs=1e-12)


def test_build_target_low_q_keeps_simplex():
    out = build_target(ConfidenceVector((0.4, 0.3, 0.2, 0.1)), 0.2)
    assert math.fsum(out.probs.probs) == pytest.approx(1.0, abs=1e-9)
    assert out.probs.probs[0] == 0.2
    assert not out.rank_preserved


def test_build_target_bad_q():
    with pytest.raises(BadQ):
        build_target(ConfidenceVector((0.7, 0.3)), 0.0)
    with pytest.raises(BadQ):
        build_target(ConfidenceVector((0.7, 0.3)), 1.0)


def test_matrix_mass_constraint():
    # alpha * tanh_sum + (k - 1) * beta = 1 - q, with alpha = beta on the
    # worked example and on every row the rank rescue leaves alone.
    out, _, _ = build_target_matrix(np.array([[0.7, 0.2, 0.06, 0.04]]), np.array([0.6]))
    _, t = _tail_tanh(np.array([0.7, 0.2, 0.06, 0.04]), 0.6)
    alpha, beta = _tail_coefficients(out[0], 0, t)
    assert alpha == pytest.approx(beta, abs=1e-12)
    assert alpha * t.sum() + 3 * beta == pytest.approx(0.4, abs=1e-12)

    rng = np.random.default_rng(21)
    for k in (3, 4, 9):
        conf = rng.dirichlet(np.ones(k), 200)
        q = rng.uniform(1.0 / k + 0.01, 0.95, 200)
        out, top, _ = build_target_matrix(conf, q)
        for i in range(200):
            _, t = _tail_tanh(conf[i], q[i])
            if t.max() - t.min() < 1e-3:
                continue
            alpha, beta = _tail_coefficients(out[i], int(top[i]), t)
            assert alpha * t.sum() + (k - 1) * beta == pytest.approx(1.0 - q[i], abs=1e-9)
            assert beta >= 0.0


def test_matrix_rescues_alpha_where_the_general_solve_failed():
    # At q = 0.27 the alpha = beta solution lifts the largest tail entry to
    # the pinned top. The old scalar general solve took alpha from the caller
    # and raised NegativeBeta for any alpha above (1 - q) / tanh_sum; the
    # matrix path takes alpha at the midpoint of the feasible interval.
    row, q, k = np.array([0.4, 0.3, 0.2, 0.1]), 0.27, 4
    _, t = _tail_tanh(row, q)
    simplified = (1.0 - q) / (t.sum() + k - 1)
    assert simplified * (t.max() + 1.0) >= q
    assert 1.0 - q - 10.0 * t.sum() < 0.0

    out, top, rank = build_target_matrix(row[None, :], np.array([q]))
    alpha, beta = _tail_coefficients(out[0], 0, t)
    alpha_max = (q * (k - 1) - (1.0 - q)) / ((t.max() - t.sum() / (k - 1)) * (k - 1))
    assert alpha == pytest.approx(0.5 * alpha_max, rel=1e-9)
    assert alpha < simplified and beta > 0.0
    assert top[0] == 0 and out[0, 0] == q
    assert math.fsum(out[0]) == pytest.approx(1.0, abs=1e-12)
    assert out.min() >= 0.0
    assert rank[0]
    assert (np.diff(out[0]) < 0.0).all()


def test_rank_condition_examples():
    # q > 2 / (tanh_sum + k + 1) is sufficient for the mapped tail to stay
    # strictly below the pinned top, not necessary.
    row = np.array([0.7, 0.2, 0.06, 0.04])
    _, t = _tail_tanh(row, 0.6)
    assert 0.6 > 2.0 / (t.sum() + 5)
    out, _, rank = build_target_matrix(row[None, :], np.array([0.6]))
    assert rank[0] and out[0, 0] > out[0, 1:].max()
    # Below the threshold but above 1/k the rescued alpha still keeps the rank.
    row = np.array([0.4, 0.3, 0.2, 0.1])
    _, t = _tail_tanh(row, 0.27)
    assert not 0.27 > 2.0 / (t.sum() + 5)
    out, _, rank = build_target_matrix(row[None, :], np.array([0.27]))
    assert rank[0] and out[0, 0] > out[0, 1:].max()
    # Below 1/k nothing can: the uniform tail level already exceeds q.
    _, t = _tail_tanh(row, 0.2)
    assert not 0.2 > 2.0 / (t.sum() + 5)
    out, _, rank = build_target_matrix(row[None, :], np.array([0.2]))
    assert not rank[0]


def test_rank_condition_general_k():
    # The threshold generalizes to 2 / (tanh_sum + k + 1): above it every
    # mapped tail entry stays strictly below the pinned top, for any k.
    rng = np.random.default_rng(22)
    checked = 0
    for k in (3, 4, 6, 9):
        conf = rng.dirichlet(np.ones(k), 500)
        q = rng.uniform(0.05, 0.95, 500)
        out, top, rank = build_target_matrix(conf, q)
        for i in range(500):
            _, t = _tail_tanh(conf[i], q[i])
            if q[i] > 2.0 / (t.sum() + k + 1):
                checked += 1
                assert rank[i]
                assert out[i, top[i]] > np.delete(out[i], top[i]).max()
    assert checked > 1000


def test_property_sweep_simplex_and_rank():
    rng = np.random.default_rng(17)
    n = 3000
    conf = rng.dirichlet(np.ones(4), n)
    q = rng.uniform(0.26 + 1e-9, 0.99, n)
    out, top, rank = build_target_matrix(conf, q)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
    assert out.min() >= 0.0
    assert np.abs(out[np.arange(n), top] - q).max() <= 1e-12
    assert rank.all()


def test_property_sweep_low_q_simplex_only():
    rng = np.random.default_rng(18)
    n = 3000
    conf = rng.dirichlet(np.ones(4), n)
    q = rng.uniform(1e-3, 0.25, n)
    out, top, _ = build_target_matrix(conf, q)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
    assert out.min() >= 0.0
    assert np.abs(out[np.arange(n), top] - q).max() <= 1e-12


def test_tail_monotonicity_with_ties():
    rng = np.random.default_rng(19)
    for _ in range(200):
        row = rng.dirichlet(np.ones(5))
        row[2] = row[3]  # force a tail tie
        row = row / row.sum()
        q = rng.uniform(0.05, 0.95)
        out, top, _ = build_target_matrix(row[None, :], np.asarray([q]))
        o = out[0]
        t = int(top[0])
        for i in range(5):
            for j in range(5):
                if i == t or j == t:
                    continue
                if row[i] > row[j]:
                    assert o[i] >= o[j]
                if row[i] == row[j]:
                    assert o[i] == o[j]


def test_uniform_tail_is_fixed_point():
    # A target whose tail is already uniform maps to itself, so reapplying
    # the construction is a no-op at the same pinned top.
    for q in (0.3, 0.6, 0.9):
        tail = (1.0 - q) / 3
        cv = ConfidenceVector((q, tail, tail, tail))
        out = build_target(cv, q)
        assert np.abs(np.asarray(out.probs.probs) - np.asarray(cv.probs)).max() < 1e-6
        again = build_target(out.probs, q)
        assert np.abs(
            np.asarray(again.probs.probs) - np.asarray(out.probs.probs)
        ).max() < 1e-6


def test_batch_matches_scalar():
    rng = np.random.default_rng(20)
    conf = rng.dirichlet(np.ones(4), 50)
    q = rng.uniform(0.3, 0.95, 50)
    out, top, rank = build_target_matrix(conf, q)
    for i in range(50):
        single = build_target(ConfidenceVector(tuple(conf[i])), float(q[i]))
        assert single.probs.probs == pytest.approx(tuple(out[i]), abs=1e-15)
        assert single.top_index == top[i]
        assert single.rank_preserved == bool(rank[i])
