import numpy as np
import pytest

from calibkit.genmodel import FiniteGenerativeModel, Predictor, make_model


def _count_rows(rng, s, k, top):
    """Rows of small integer counts divided by their sum: equal count rows give
    bit-identical floats, so values repeat within and across classes."""
    counts = rng.integers(0, top + 1, size=(s, k))
    counts[counts.sum(axis=1) == 0, 0] = 1
    return counts / counts.sum(axis=1, keepdims=True)


def _tie_heavy_case(rng, k, s):
    """Quantized label and predictor rows, about a quarter of the predictor
    rows one-hot, and integer weights of which some are zero."""
    label_probs = _count_rows(rng, s, k, 3)
    pred = _count_rows(rng, s, k, 2)
    hot = rng.random(s) < 0.25
    pred[hot] = np.eye(k)[rng.integers(0, k, int(hot.sum()))]
    w = rng.integers(0, 4, size=s).astype(float)
    if w.sum() == 0.0:
        w[rng.integers(0, s)] = 1.0
    return FiniteGenerativeModel(k, w / w.sum(), label_probs), Predictor(pred)


def _zero_mass_group_case():
    """Point c has zero weight and a predicted vector, and per-class values,
    that no other point shares, so every grouping has a zero-mass group."""
    model = FiniteGenerativeModel(
        3, [0.5, 0.5, 0.0],
        [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    )
    pred = Predictor([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [0.6, 0.3, 0.1]])
    return model, pred


def _all_distinct_case(rng, k, s):
    model = make_model("dirichlet", k, s, alpha=1.0, seed=int(rng.integers(1 << 30)))
    pred = rng.dirichlet(np.ones(k), size=s)
    pred /= pred.sum(axis=1, keepdims=True)
    return model, Predictor(pred)


@pytest.fixture(scope="session")
def finite_cases():
    """(model, predictor) pairs for checking the exact population gaps against
    their per-group reference loops: tie-heavy models for k = 2..5 and
    s = 1..30, a model with a zero-mass group, and an all-distinct support of
    s = 2000."""
    rng = np.random.default_rng(20261017)
    cases = [
        _tie_heavy_case(rng, k, s)
        for k in (2, 3, 4, 5)
        for s in (1, 2, 7, 30)
        for _ in range(6)
    ]
    cases.append(_zero_mass_group_case())
    cases.append(_all_distinct_case(rng, 4, 2000))
    return cases
