"""EM loop that calibrates a trainable policy toward per-bin accuracy.

Each epoch stratifies records into M equal-width bins of top confidence
(E-step), estimates the accuracy q_m inside each bin (M-step), freezes a
rank-preserving target per record with its bin's q_m pinned on top, then runs
a fixed number of full-batch gradient steps on

    mean( sft_weight * L_fit + lambda * L_target_divergence )

against those frozen targets, where L_fit is cross-entropy to the fit targets
(one-hot labels unless the caller passes smoothed ones). At lambda = 0 no
targets are built and the loop is plain full-batch descent on L_fit: this is
the package's one training loop.

A policy supplies (see toylab):

- ``k``, its class count;
- ``probs(features)``, the (n, k) confidence matrix;
- ``combined_grad(features, fit_targets, targets, lam, divergence,
  sft_weight=1.0, probs=None)``, the gradient of the mean combined loss.
  ``probs`` is the policy's own ``probs(features)`` at its current weights
  when the caller already holds it; None makes the policy compute it. The
  loop passes each epoch's yielded matrix to that epoch's first inner
  step, so one softmax serves the epoch's state and its first step;
- ``descend(grad, lr)``, one step against that gradient.

The loop is one generator, ``_epochs``, which yields each epoch's state
(the epoch, its confidence matrix and its mean target divergence) before
that epoch's gradient steps. ``run_em`` builds one history row from each
yield (``metric_row`` and ``mean_sft``, about 1 ms at n = 1e4); the CLI's
SFT baseline for cft, rcft and ts drains the same generator and builds no
rows, and rcft-analog's EM stage builds none for its epoch 0. Per epoch of
``inner_steps`` gradient steps the loop takes ``inner_steps`` softmaxes (the
yielded one, which the first step reuses, and one per later step) and the
row argmax of one confidence matrix twice at lam > 0 (``m_step`` and the
target build) and never at lam = 0; the final epoch yields and takes no
step. Each history row takes one more argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BadParams,
    CalibrationError,
    NonFiniteGradient,
    NonFiniteLoss,
    _row_argmax,
    _row_max,
    _row_sum,
    bin_index_array,
)
from .metrics import metric_row
from .targetmap import _target_rows

DIVERGENCES = ("mse", "cross-entropy")

# A bin with perfect or zero accuracy would pin the target top at 1 or 0,
# which the tail solve cannot absorb; clamp into the open interval.
Q_CLAMP = 1e-3
LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class EmConfig:
    epochs: int = 10
    bins: int = 10
    lam: float = 1.0
    divergence: str = "mse"
    learning_rate: float = 0.1
    min_bin_count: int = 5
    inner_steps: int = 50
    sft_weight: float = 1.0

    def __post_init__(self):
        if self.epochs < 0 or self.bins < 1 or self.min_bin_count < 1:
            raise BadParams(
                f"bad EM configuration: epochs={self.epochs!r}, bins={self.bins!r}, "
                f"min_bin_count={self.min_bin_count!r}"
            )
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise BadParams(f"lam {self.lam!r} must be finite and >= 0")
        # A negative rate would ascend, and a zero rate would train nothing.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise BadParams(f"learning rate {self.learning_rate!r} must be finite and > 0")
        if self.inner_steps < 1:
            raise BadParams(f"bad EM configuration: inner_steps={self.inner_steps!r}")
        if self.divergence not in DIVERGENCES:
            raise BadParams(f"unknown divergence {self.divergence!r}")


def e_step(probs: np.ndarray, M: int) -> np.ndarray:
    """Stratify records by top confidence into M equal-width bins: the (n,)
    bin index in [1, M] of each record."""
    return bin_index_array(_row_max(probs), M)


def m_step(
    probs: np.ndarray, labels: np.ndarray, z: np.ndarray, M: int, min_bin_count: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin fraction of records whose top class is the label, and the
    per-bin record counts, for the bins ``z`` in [1, M] of ``e_step``.

    Bins smaller than ``min_bin_count`` use the Laplace-shrunk estimate
    (wins + 1) / (count + 2); empty bins are NaN and skipped downstream.
    """
    correct = (_row_argmax(probs) == labels).astype(float)
    counts = np.bincount(z, minlength=M + 1)[1:]
    wins = np.bincount(z, weights=correct, minlength=M + 1)[1:]
    q = np.full(M, np.nan)
    occupied = counts > 0
    small = occupied & (counts < min_bin_count)
    plain = occupied & ~small
    q[plain] = wins[plain] / counts[plain]
    q[small] = (wins[small] + 1.0) / (counts[small] + 2.0)
    return q, counts


def build_all_targets(probs: np.ndarray, q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (n, k) target matrix: row i is record i's calibration target, its
    top class pinned to its bin's accuracy ``q[z[i] - 1]`` clamped into
    [Q_CLAMP, 1 - Q_CLAMP]."""
    q_rec = q[z - 1]
    if np.isnan(q_rec).any():
        raise CalibrationError("a record fell in a bin with undefined accuracy")
    return _target_rows(probs, np.clip(q_rec, Q_CLAMP, 1.0 - Q_CLAMP))[0]


def ece_loss(target, conf, divergence: str = "mse") -> float:
    """Divergence from a target distribution to a confidence vector: the
    one-row ``mean_ece_loss``."""
    conf, target = np.asarray(conf, dtype=float), np.asarray(target, dtype=float)
    return mean_ece_loss(conf[None, :], target[None, :], divergence)


def sft_loss(conf, label: int) -> float:
    """Negative log-confidence of the true class: the one-row ``mean_sft``."""
    return mean_sft(np.asarray(conf, dtype=float)[None, :], np.asarray([label]))


def mean_sft(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-confidence of the true class (floored at 1e-12)."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def mean_ece_loss(probs: np.ndarray, targets: np.ndarray, divergence: str) -> float:
    """Mean divergence from each target row to its confidence row.

    mse averages squared per-class gaps; cross-entropy is the negative
    target-weighted log-confidence (confidences floored at 1e-12).
    """
    if divergence == "mse":
        return float(((targets - probs) ** 2).mean())
    if divergence == "cross-entropy":
        return float(-_row_sum(targets * np.log(np.maximum(probs, LOG_FLOOR))).mean())
    raise CalibrationError(f"unknown divergence {divergence!r}")


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], k))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def run_em(
    policy,
    labels: np.ndarray,
    cfg: EmConfig,
    features: np.ndarray | None = None,
    fit_targets: np.ndarray | None = None,
) -> tuple[object, list[dict]]:
    """Run the EM calibration loop, mutating and returning the policy.

    ``features`` is forwarded to the policy (tabular policies ignore it).
    ``fit_targets`` are the (n, k) cross-entropy targets of the fit term,
    one-hot ``labels`` by default. The loop (``_epochs``) yields each epoch's
    state, and ``run_em`` builds one history row from it: the metrics of the
    policy at that epoch and the mean losses against the targets built from
    that same state; the epoch's inner gradient passes then reuse exactly
    those frozen targets. With lam = 0 the target term is skipped entirely:
    no targets are built, every row carries ``mean_ece: None``, and the
    trajectory is plain full-batch descent on the fit term.
    """
    labels = np.asarray(labels, dtype=np.int64)
    stage = _epochs(policy, labels, cfg, features, fit_targets)
    return policy, _history(stage, labels, cfg.bins)


def _epochs(
    policy,
    labels: np.ndarray,
    cfg: EmConfig,
    features: np.ndarray | None = None,
    fit_targets: np.ndarray | None = None,
):
    """The EM loop of ``run_em``, which mutates the policy: it yields
    ``(epoch, probs, mean_ece)`` for epochs 0 to ``cfg.epochs``, each before
    that epoch's gradient steps, where ``probs`` is the policy's confidence
    matrix and ``mean_ece`` its mean divergence from the epoch's targets
    (None at lam = 0). The consumer must not write to ``probs``: the epoch's
    first inner step reuses it. ``labels`` is the (n,) int64 label array.
    """
    if fit_targets is None:
        fit_targets = _one_hot(labels, policy.k)
    targets = None

    for epoch in range(cfg.epochs + 1):
        probs = policy.probs(features)
        if not np.isfinite(probs).all():
            raise NonFiniteLoss(epoch, "policy produced non-finite confidences")
        mean_ece = None
        if cfg.lam != 0.0:
            z = e_step(probs, cfg.bins)
            q, _ = m_step(probs, labels, z, cfg.bins, cfg.min_bin_count)
            targets = build_all_targets(probs, q, z)
            mean_ece = mean_ece_loss(probs, targets, cfg.divergence)
        yield epoch, probs, mean_ece
        if epoch == cfg.epochs:
            return
        for step in range(cfg.inner_steps):
            try:
                grad = policy.combined_grad(
                    features,
                    fit_targets,
                    targets,
                    cfg.lam,
                    cfg.divergence,
                    sft_weight=cfg.sft_weight,
                    # The weights have not moved since the yielded softmax.
                    probs=probs if step == 0 else None,
                )
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(epoch + 1, str(exc)) from exc
            policy.descend(grad, cfg.learning_rate)


def _history(stage, labels: np.ndarray, M: int) -> list[dict]:
    """One history row for each yield of the ``_epochs`` generator ``stage``."""
    return [_history_row(epoch, probs, labels, M, mean_ece) for epoch, probs, mean_ece in stage]


def _history_row(
    epoch: int, probs: np.ndarray, labels: np.ndarray, M: int, mean_ece: float | None
) -> dict:
    """One per-epoch history row; lam = 0 rows pass ``mean_ece=None``. A
    non-finite value raises ``NonFiniteLoss`` at ``epoch``."""
    row = {
        "epoch": epoch,
        **metric_row(probs, labels, M),
        "mean_sft": mean_sft(probs, labels),
        "mean_ece": mean_ece,
    }
    if not all(v is None or np.isfinite(v) for v in row.values()):
        raise NonFiniteLoss(epoch, f"history row {row}")
    return row
