"""EM loop that calibrates a trainable policy toward per-bin accuracy.

Each epoch stratifies records into M equal-width bins of top confidence
(E-step), estimates the accuracy q_m inside each bin (M-step), freezes a
rank-preserving target per record with its bin's q_m pinned on top, then runs
a fixed number of full-batch gradient steps on

    mean( sft_weight * L_nll + lambda * L_target_divergence )

against those frozen targets. Policies supply ``probs``/``combined_grad``/
``descend`` (see toylab).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CalibrationError, bin_index_array
from .metrics import metric_row
from .targetmap import build_target_matrix

DIVERGENCES = ("mse", "cross-entropy")

# A bin with perfect or zero accuracy would pin the target top at 1 or 0,
# which the tail solve cannot absorb; clamp into the open interval.
Q_CLAMP = 1e-3
LOG_FLOOR = 1e-12


class NonFiniteLoss(CalibrationError):
    def __init__(self, epoch: int, detail: str):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}: {detail}")


class NonFiniteGradient(CalibrationError):
    pass


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
            raise CalibrationError("bad EM configuration")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise CalibrationError(f"lam {self.lam!r} must be finite and >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise CalibrationError(f"learning rate {self.learning_rate!r} must be finite and > 0")
        if self.inner_steps < 1:
            raise CalibrationError("bad EM configuration")
        if self.divergence not in DIVERGENCES:
            raise CalibrationError(f"unknown divergence {self.divergence!r}")


@dataclass(frozen=True)
class LatentAssignment:
    """Per-record bin index in [1, M] of the current top confidence."""

    z: np.ndarray
    M: int


@dataclass(frozen=True)
class BinAccuracy:
    """Per-bin accuracy estimates; q is NaN where a bin is empty."""

    q: np.ndarray
    counts: np.ndarray


def e_step(probs: np.ndarray, M: int) -> LatentAssignment:
    """Stratify records by top confidence into M equal-width bins."""
    return LatentAssignment(z=bin_index_array(probs.max(axis=1), M), M=M)


def m_step(
    probs: np.ndarray,
    labels: np.ndarray,
    z: LatentAssignment,
    min_bin_count: int = 1,
) -> BinAccuracy:
    """Per-bin fraction of records whose top class is the label.

    Bins smaller than ``min_bin_count`` use the Laplace-shrunk estimate
    (wins + 1) / (count + 2); empty bins are NaN and skipped downstream.
    """
    M = z.M
    correct = (np.argmax(probs, axis=1) == labels).astype(float)
    counts = np.bincount(z.z, minlength=M + 1)[1:]
    wins = np.bincount(z.z, weights=correct, minlength=M + 1)[1:]
    q = np.full(M, np.nan)
    occupied = counts > 0
    small = occupied & (counts < min_bin_count)
    plain = occupied & ~small
    q[plain] = wins[plain] / counts[plain]
    q[small] = (wins[small] + 1.0) / (counts[small] + 2.0)
    return BinAccuracy(q=q, counts=counts)


def _clamped_record_q(qs: BinAccuracy, z: LatentAssignment) -> np.ndarray:
    q_rec = qs.q[z.z - 1]
    if np.isnan(q_rec).any():
        raise CalibrationError("a record fell in a bin with undefined accuracy")
    return np.clip(q_rec, Q_CLAMP, 1.0 - Q_CLAMP)


def build_all_targets(
    probs: np.ndarray, qs: BinAccuracy, z: LatentAssignment
) -> np.ndarray:
    """The (n, k) target matrix: row i is record i's calibration target, its
    top class pinned to the record's bin accuracy clamped into
    [Q_CLAMP, 1 - Q_CLAMP]."""
    return build_target_matrix(probs, _clamped_record_q(qs, z))[0]


def _as_row(x) -> np.ndarray:
    if hasattr(x, "as_array"):
        return x.as_array()
    return np.asarray(x, dtype=float)


def ece_loss(target, conf, divergence: str = "mse") -> float:
    """Divergence from a target distribution to a confidence vector: the
    one-row ``mean_ece_loss``."""
    return mean_ece_loss(_as_row(conf)[None, :], _as_row(target)[None, :], divergence)


def sft_loss(conf, label: int) -> float:
    """Negative log-confidence of the true class: the one-row ``mean_sft``."""
    return mean_sft(_as_row(conf)[None, :], np.asarray([label]))


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
        return float(-(targets * np.log(np.maximum(probs, LOG_FLOOR))).sum(axis=1).mean())
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
) -> tuple[object, list[dict]]:
    """Run the EM calibration loop, mutating and returning the policy.

    ``features`` is forwarded to the policy (tabular policies ignore it).
    Each history row evaluates the policy state at that epoch, including the
    mean losses against the targets built from that same state; the epoch's
    inner gradient passes then reuse exactly those frozen targets. With
    lam = 0 the target term is skipped entirely, so the trajectory matches
    plain NLL training bitwise.
    """
    labels = np.asarray(labels, dtype=np.int64)
    y1 = _one_hot(labels, policy.k)
    history: list[dict] = []

    for epoch in range(cfg.epochs + 1):
        probs = policy.probs(features)
        if not np.isfinite(probs).all():
            raise NonFiniteLoss(epoch, "policy produced non-finite confidences")
        z = e_step(probs, cfg.bins)
        qs = m_step(probs, labels, z, cfg.min_bin_count)
        targets = build_all_targets(probs, qs, z)
        row = _history_row(
            epoch, probs, labels, cfg.bins, mean_ece_loss(probs, targets, cfg.divergence)
        )
        if not all(np.isfinite(v) for v in row.values()):
            raise NonFiniteLoss(epoch, f"history row {row}")
        history.append(row)
        if epoch == cfg.epochs:
            break
        for _ in range(cfg.inner_steps):
            try:
                grad = policy.combined_grad(
                    features,
                    y1,
                    targets,
                    cfg.lam,
                    cfg.divergence,
                    sft_weight=cfg.sft_weight,
                )
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(epoch + 1, str(exc)) from exc
            policy.descend(grad, cfg.learning_rate)
    return policy, history


def _history_row(
    epoch: int, probs: np.ndarray, labels: np.ndarray, M: int, mean_ece: float | None
) -> dict:
    """One per-epoch history row; plain-descent rows pass ``mean_ece=None``."""
    return {
        "epoch": epoch,
        **metric_row(probs, labels, M),
        "mean_sft": mean_sft(probs, labels),
        "mean_ece": mean_ece,
    }
