"""Finite-support generative models for multiple-choice labels, plus exact
population-level calibration quantities built on them.

A model assigns each support point a weight and a label distribution p*(x).
Keeping the support finite makes every expectation a finite sum, so the
accuracy/distance bound constructions and the cw-ECE <= TCE relation can be
checked exactly instead of estimated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BadParams,
    CalibrationError,
    Dataset,
    SIMPLEX_ATOL,
    SimplexViolation,
    _check_simplex_rows,
    _sum_gaps,
)

MODEL_KINDS = ("pure-random", "deterministic", "dirichlet")


class UnreachableAccuracy(CalibrationError):
    pass


class NoDisagreement(CalibrationError):
    pass


class FiniteGenerativeModel:
    """Finite-support distribution over points, each with a label distribution."""

    def __init__(self, k: int, support: Sequence[str], weights, label_probs):
        support = [str(s) for s in support]
        weights = np.asarray(weights, dtype=float)
        label_probs = np.asarray(label_probs, dtype=float)
        if k < 2:
            raise BadParams("class count k must be >= 2")
        if len(support) != len(set(support)):
            raise BadParams("support ids must be unique")
        if weights.shape != (len(support),):
            raise BadParams("weights must align with the support")
        if not support:
            raise BadParams("support must be nonempty")
        if not np.isfinite(weights).all() or weights.min() < 0.0:
            raise BadParams("weights must be finite and nonnegative")
        gap, total = _sum_gaps(weights[None, :], np.ones(1, dtype=bool))
        if gap[0] > SIMPLEX_ATOL:
            raise BadParams(f"weights sum to {float(total[0])!r}, not 1")
        if label_probs.shape != (len(support), k):
            raise BadParams("label_probs must be (n_support, k)")
        _check_simplex_rows(label_probs, "label distributions")
        self.k = k
        self.support = support
        self.weights = weights
        self.label_probs = label_probs

    @property
    def n_support(self) -> int:
        return len(self.support)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "support": [
                {
                    "id": self.support[i],
                    "weight": float(self.weights[i]),
                    "label_dist": [float(p) for p in self.label_probs[i]],
                }
                for i in range(self.n_support)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FiniteGenerativeModel":
        """Parse ``to_json_dict`` output. ``k`` must be an integer; a missing
        key, a non-numeric weight or entry, or ragged label rows raise
        ``BadParams``."""
        try:
            k = operator.index(obj["k"])
            points = obj["support"]
            ids = [p["id"] for p in points]
            weights = np.asarray([p["weight"] for p in points], dtype=float)
            rows = np.asarray([p["label_dist"] for p in points], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadParams(f"malformed model object: {exc}") from exc
        return cls(k, ids, weights, rows)


class Predictor:
    """Assignment of a confidence vector to every support point it knows."""

    def __init__(self, ids: Sequence[str], probs):
        ids = [str(s) for s in ids]
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2 or probs.shape[1] < 2:
            raise SimplexViolation("predictor confidences must be an (s, k>=2) matrix")
        if probs.shape[0] != len(ids):
            raise BadParams("probs must align with ids")
        _check_simplex_rows(probs, "predictor confidences")
        if len(ids) != len(set(ids)):
            raise BadParams("predictor ids must be unique")
        self.ids = ids
        self.probs = probs

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    def matrix_for(self, support: Sequence[str]) -> np.ndarray:
        """This predictor's confidence rows for ``support``, which must be the
        id list it was built on, in the same order; any other raises
        ``BadParams``.

        The result is ``self.probs`` itself, not a copy: callers only read it.
        """
        if list(support) != self.ids:
            raise BadParams("predictor ids must equal the support, in order")
        return self.probs

    @classmethod
    def from_model(cls, model: FiniteGenerativeModel) -> "Predictor":
        """The model's own label distribution used as a predictor."""
        return cls(list(model.support), model.label_probs.copy())


def make_model(
    kind: str,
    k: int,
    n_support: int,
    alpha: float = 1.0,
    seed: int = 0,
) -> FiniteGenerativeModel:
    """Build a uniform-weight model of one of the three archetypes.

    pure-random: every point labels uniformly at 1/k.
    deterministic: one-hot labels, classes assigned round-robin over points.
    dirichlet: label rows drawn from a symmetric Dirichlet(alpha), seeded.
    """
    if kind not in MODEL_KINDS:
        raise BadParams(f"unknown model kind {kind!r}")
    if n_support < 1:
        raise BadParams("n_support must be >= 1")
    if k < 2:
        raise BadParams("k must be >= 2")
    ids = [f"x{i}" for i in range(n_support)]
    weights = np.full(n_support, 1.0 / n_support)
    if kind == "pure-random":
        rows = np.full((n_support, k), 1.0 / k)
    elif kind == "deterministic":
        rows = np.zeros((n_support, k))
        rows[np.arange(n_support), np.arange(n_support) % k] = 1.0
    else:
        if not (0.0 < alpha < np.inf):
            raise BadParams(f"dirichlet concentration alpha must be finite and > 0, got {alpha!r}")
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(k, float(alpha)), size=n_support)
        # Sampler rows can sit a few ulp off unit sum; pin them down.
        rows = rows / rows.sum(axis=1, keepdims=True)
    return FiniteGenerativeModel(k, ids, weights, rows)


def _draw_labels(label_probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one label per row of ``label_probs`` from the
    uniforms ``u``; a row whose cumulative sum rounds below u takes the last
    class."""
    k = label_probs.shape[1]
    return np.minimum((np.cumsum(label_probs, axis=1) < u[:, None]).sum(axis=1), k - 1)


def sample_dataset(
    model: FiniteGenerativeModel,
    predictor: Predictor,
    n: int,
    seed: int = 0,
) -> Dataset:
    """Draw n i.i.d. (point, label) pairs and attach the predictor's confidences.

    Rows are ids ``r0 .. r{n-1}``."""
    if n < 1:
        raise BadParams("n must be >= 1")
    pred = predictor.matrix_for(model.support)
    rng = np.random.default_rng(seed)
    idx = rng.choice(model.n_support, size=n, p=model.weights)
    labels = _draw_labels(model.label_probs[idx], rng.random(n))
    return Dataset.from_arrays(pred[idx], labels)


def population_accuracy(model: FiniteGenerativeModel, predictor: Predictor) -> float:
    """Probability that the predictor's top choice matches a label drawn from p*."""
    pred = predictor.matrix_for(model.support)
    top = np.argmax(pred, axis=1)
    return float(model.weights @ model.label_probs[np.arange(model.n_support), top])


def labeled_accuracy(
    model: FiniteGenerativeModel, predictor: Predictor, labels: np.ndarray
) -> float:
    """Weighted accuracy against one realized label per support point."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (model.n_support,):
        raise BadParams("labels must align with the support")
    pred = predictor.matrix_for(model.support)
    return float(model.weights @ (np.argmax(pred, axis=1) == labels))


def realize_labels(model: FiniteGenerativeModel, seed: int = 0) -> np.ndarray:
    """Draw one label per support point from its label distribution."""
    rng = np.random.default_rng(seed)
    return _draw_labels(model.label_probs, rng.random(model.n_support))


def labels_matching_accuracy(
    model: FiniteGenerativeModel, target_acc: float
) -> np.ndarray:
    """Deterministic labeling under which the model's own top choice scores
    as close to ``target_acc`` as the point masses allow.

    A prefix of points (in support order) gets its modal label; the rest get
    the lowest-index non-modal label.
    """
    if not (0.0 <= target_acc <= 1.0):
        raise BadParams("target accuracy must lie in [0, 1]")
    modal = np.argmax(model.label_probs, axis=1)
    labels = np.where(modal == 0, 1, 0)
    count, _ = _greedy_prefix(model.weights, target_acc)
    labels[:count] = modal[:count]
    return labels


def _greedy_prefix(weights: np.ndarray, target: float) -> tuple[int, float]:
    """Length and total mass of the prefix of ``weights`` taken greedily:
    each next weight is taken while adding it moves the running total no
    further from ``target``.

    ``np.cumsum`` adds in sequence, so each prefix total equals a running
    ``+=`` over the same weights bit for bit.
    """
    totals = np.concatenate(([0.0], np.cumsum(weights)))
    further = np.abs(totals[1:] - target) > np.abs(totals[:-1] - target)
    stops = np.flatnonzero(further)
    count = int(stops[0]) if stops.size else len(weights)
    return count, float(totals[count])


def tce(model: FiniteGenerativeModel, predictor: Predictor) -> float:
    """Expected per-class L1 gap (scaled by 1/k) between p* and the predictor."""
    pred = predictor.matrix_for(model.support)
    per_point = np.abs(model.label_probs - pred).sum(axis=1) / model.k
    return float(model.weights @ per_point)


@dataclass(frozen=True)
class BoundConstruction:
    """Result of the accuracy-trading construction: the predictor, the
    accuracy it achieves under the given labels, and the reference accuracy."""

    predictor: Predictor
    achieved_acc: float
    reference_acc: float


def construct_bound_predictor(
    model: FiniteGenerativeModel,
    labels: np.ndarray,
    target_acc: float,
) -> BoundConstruction:
    """Modify the reference predictor to hit ~target_acc while keeping the
    distribution distance within twice the accuracy gap.

    The reference predictor is the model's own label distribution. Points are
    flipped greedily in support order: to a one-hot on their realized label
    (raising accuracy) or on the lowest-index wrong class (lowering it),
    stopping at the nearest achievable mass. The result satisfies
    ``tce(model, out) <= 2 * |achieved - reference|`` exactly.
    """
    if not (0.0 <= target_acc <= 1.0):
        raise BadParams("target accuracy must lie in [0, 1]")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (model.n_support,):
        raise BadParams("labels must align with the support")
    if labels.min() < 0 or labels.max() >= model.k:
        raise BadParams("labels outside [0, k)")
    base = model.label_probs
    top = np.argmax(base, axis=1)
    correct = top == labels
    a_star = float(model.weights @ correct)

    raise_acc = target_acc >= a_star
    pool = np.flatnonzero(~correct) if raise_acc else np.flatnonzero(correct)
    needed = abs(target_acc - a_star)
    if needed > float(model.weights[pool].sum()) + 1e-9:
        raise UnreachableAccuracy(
            f"cannot move accuracy from {a_star} to {target_acc}: "
            f"only {model.weights[pool].sum()} mass available"
        )

    count, moved = _greedy_prefix(model.weights[pool], needed)
    flip = pool[:count]
    out = base.copy()
    out[flip] = 0.0
    # One-hot on the realized label, or on the lowest-index wrong class.
    out[flip, labels[flip] if raise_acc else np.where(labels[flip] != 0, 0, 1)] = 1.0

    # a_star and moved are sums of the same masses in different orders, so
    # an exact 0 or 1 can round an ulp past [0, 1].
    achieved = min(a_star + moved, 1.0) if raise_acc else max(a_star - moved, 0.0)
    return BoundConstruction(Predictor(list(model.support), out), achieved, a_star)


def lower_bound_constant(
    model: FiniteGenerativeModel, pi_star: Predictor, pi: Predictor
) -> tuple[float, bool]:
    """Smallest scaled per-point gap over points where the two predictors
    pick different top classes, and whether it lower-bounds TCE against the
    accuracy difference (it must).
    """
    ref = pi_star.matrix_for(model.support)
    other = pi.matrix_for(model.support)
    disagree = np.argmax(ref, axis=1) != np.argmax(other, axis=1)
    if not disagree.any():
        raise NoDisagreement("the predictors pick the same top class everywhere")
    gaps = np.abs(model.label_probs[disagree] - other[disagree]).max(axis=1)
    c = float(gaps.min()) / model.k
    acc_gap = abs(population_accuracy(model, pi_star) - population_accuracy(model, pi))
    holds = tce(model, pi) >= c * acc_gap - 1e-12
    return c, holds


def _group_means(
    keys: np.ndarray, weights: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group support points whose keys are equal as floats and return each
    group's key, mass and weighted mean of ``values``, in sorted key order.

    ``keys`` and ``values`` are (s,). Float equality makes -0.0 and 0.0 one
    group. Groups of zero mass have no mean and are dropped. The work is one
    sort of the s keys and two bincounts.
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    g = uniq.shape[0]
    mass = np.bincount(inverse, weights=weights, minlength=g)
    hits = np.bincount(inverse, weights=weights * values, minlength=g)
    kept = mass > 0.0
    mass = mass[kept]
    return uniq[kept], mass, hits[kept] / mass


def population_cw_ece(model: FiniteGenerativeModel, predictor: Predictor) -> float:
    """Classwise calibration gap conditioning on exact per-class confidences.

    For each class j, support points whose class-j confidences are equal as
    floats form one group (so -0.0 and 0.0 share a group); a group of zero
    mass contributes nothing. Each group adds its mass times the absolute
    difference between its class-j label frequency and the shared confidence;
    the sum over groups and classes is divided by k. One sort per class:
    O(k * s log s) for s support points.
    """
    pred = predictor.matrix_for(model.support)
    total = 0.0
    for j in range(model.k):
        vals, mass, freq = _group_means(pred[:, j], model.weights, model.label_probs[:, j])
        total += float(mass @ np.abs(freq - vals))
    return total / model.k


def verify_ece_le_tce(
    model: FiniteGenerativeModel, predictor: Predictor
) -> tuple[float, float, bool]:
    """Population classwise gap, the distribution distance, and whether the
    first is bounded by the second (it must be, up to 1e-12)."""
    cw = population_cw_ece(model, predictor)
    t = tce(model, predictor)
    return cw, t, bool(cw <= t + 1e-12)


def classify_regime(acc: float, acc_star: float) -> str:
    """Split on the reference accuracy: at or below it, zero calibration error
    is achievable ("calibratable"); above it, the error is strictly positive
    ("non-calibratable")."""
    if not (0.0 <= acc <= 1.0 and 0.0 <= acc_star <= 1.0):
        raise BadParams("accuracies must lie in [0, 1]")
    return "calibratable" if acc <= acc_star else "non-calibratable"
