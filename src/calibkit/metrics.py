"""Binned calibration-error estimators, accuracy, reliability tables, and the
pairwise win-rate metric.

The two sample estimators stratify records into equal-width probability bins:
conf-ECE bins by the top confidence and compares bin accuracy against bin mean
confidence; cw-ECE bins every record per class by that class's probability and
compares the class frequency against the mean class probability, averaged over
classes. Empty bins appear in the tables with count 0 and contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BinningConfig,
    CalibrationError,
    Dataset,
    EmptyDataset,
    bin_index_array,
)
from .genmodel import FiniteGenerativeModel, Predictor, _group_means


class EmptyInput(CalibrationError):
    pass


class NonFiniteInput(CalibrationError):
    pass


@dataclass(frozen=True)
class BinStats:
    """One reliability-table row for the bin ((m-1)/M, m/M]."""

    m: int
    lo: float
    hi: float
    count: int
    mean_conf: float
    empirical_freq: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
            "mean_conf": self.mean_conf,
            "empirical_freq": self.empirical_freq,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BinStats":
        return cls(
            m=int(obj["m"]),
            lo=float(obj["lo"]),
            hi=float(obj["hi"]),
            count=int(obj["count"]),
            mean_conf=float(obj["mean_conf"]),
            empirical_freq=float(obj["empirical_freq"]),
        )


@dataclass
class CalibrationReport:
    """Persisted result of one evaluation run."""

    n: int
    k: int
    M: int
    accuracy: float
    conf_ece: float
    cw_ece: float
    conf_bins: list[BinStats]
    classwise_bins: list[list[BinStats]]
    regime: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "M": self.M,
            "accuracy": self.accuracy,
            "conf_ece": self.conf_ece,
            "cw_ece": self.cw_ece,
            "conf_bins": [b.to_json_dict() for b in self.conf_bins],
            "classwise_bins": [
                [b.to_json_dict() for b in rows] for rows in self.classwise_bins
            ],
        }
        if self.regime is not None:
            out["regime"] = self.regime
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CalibrationReport":
        return cls(
            n=int(obj["n"]),
            k=int(obj["k"]),
            M=int(obj["M"]),
            accuracy=float(obj["accuracy"]),
            conf_ece=float(obj["conf_ece"]),
            cw_ece=float(obj["cw_ece"]),
            conf_bins=[BinStats.from_json_dict(b) for b in obj["conf_bins"]],
            classwise_bins=[
                [BinStats.from_json_dict(b) for b in rows]
                for rows in obj["classwise_bins"]
            ],
            regime=obj.get("regime"),
        )


@dataclass(frozen=True)
class PairwisePreferenceRecord:
    """Log-probabilities a model assigns to the chosen and rejected response."""

    id: str
    logp_chosen: float
    logp_reject: float

    def __post_init__(self):
        if not (math.isfinite(self.logp_chosen) and math.isfinite(self.logp_reject)):
            raise NonFiniteInput(f"pair {self.id!r} has non-finite log-probabilities")


def _binned_gaps(
    values: np.ndarray, events: np.ndarray, M: int
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-gap sum plus per-bin counts, mean values, and event rates."""
    n = values.shape[0]
    idx = bin_index_array(values, M)
    counts = np.bincount(idx, minlength=M + 1)[1:]
    val_sums = np.bincount(idx, weights=values, minlength=M + 1)[1:]
    evt_sums = np.bincount(idx, weights=events.astype(float), minlength=M + 1)[1:]
    occupied = counts > 0
    mean_conf = np.divide(val_sums, counts, out=np.zeros(M), where=occupied)
    freq = np.divide(evt_sums, counts, out=np.zeros(M), where=occupied)
    ece = float((np.abs(freq - mean_conf) * counts).sum() / n)
    return ece, counts, mean_conf, freq


def binned_ece(values: np.ndarray, events: np.ndarray, M: int) -> float:
    """Gap sum only; the cheap path for optimizers that discard the table."""
    return _binned_gaps(values, events, M)[0]


def _bin_table(
    values: np.ndarray, events: np.ndarray, M: int
) -> tuple[float, list[BinStats]]:
    """Weighted-gap sum and full M-row table for one stratification."""
    ece, counts, mean_conf, freq = _binned_gaps(values, events, M)
    table = [
        BinStats(
            m=m,
            lo=(m - 1) / M,
            hi=m / M,
            count=int(counts[m - 1]),
            mean_conf=float(mean_conf[m - 1]),
            empirical_freq=float(freq[m - 1]),
        )
        for m in range(1, M + 1)
    ]
    return ece, table


def accuracy_arrays(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def conf_ece_arrays(
    probs: np.ndarray, labels: np.ndarray, M: int
) -> tuple[float, list[BinStats]]:
    values = probs.max(axis=1)
    events = np.argmax(probs, axis=1) == labels
    return _bin_table(values, events, M)


def cw_ece_arrays(
    probs: np.ndarray, labels: np.ndarray, M: int
) -> tuple[float, list[list[BinStats]]]:
    k = probs.shape[1]
    tables = []
    total = 0.0
    for j in range(k):
        ece_j, table = _bin_table(probs[:, j], labels == j, M)
        total += ece_j
        tables.append(table)
    return total / k, tables


def accuracy(ds: Dataset) -> float:
    """Fraction of records whose top-confidence class is the label."""
    if ds.n < 1:
        raise EmptyDataset("accuracy needs at least one record")
    return accuracy_arrays(ds.probs_matrix, ds.labels_array)


def conf_ece(
    ds: Dataset, bins: BinningConfig = BinningConfig()
) -> tuple[float, list[BinStats]]:
    """Top-confidence calibration error and its reliability table."""
    if ds.n < 1:
        raise EmptyDataset("conf_ece needs at least one record")
    return conf_ece_arrays(ds.probs_matrix, ds.labels_array, bins.effective_bins(ds.n))


def cw_ece(
    ds: Dataset, bins: BinningConfig = BinningConfig()
) -> tuple[float, list[list[BinStats]]]:
    """Classwise calibration error and the per-class reliability tables."""
    if ds.n < 1:
        raise EmptyDataset("cw_ece needs at least one record")
    return cw_ece_arrays(ds.probs_matrix, ds.labels_array, bins.effective_bins(ds.n))


def reliability_diagram(
    ds: Dataset,
    bins: BinningConfig = BinningConfig(),
    mode: str | int = "confidence",
) -> list[BinStats]:
    """Bin table for plotting.

    mode "confidence" is the conf-ECE stratification, "classwise-merged" (or
    "classwise") pools all (record, class) pairs into one table, and an
    integer j selects the class-j table of the cw-ECE stratification.
    """
    if ds.n < 1:
        raise EmptyDataset("reliability_diagram needs at least one record")
    M = bins.effective_bins(ds.n)
    probs, labels = ds.probs_matrix, ds.labels_array
    if mode == "confidence":
        return conf_ece_arrays(probs, labels, M)[1]
    if mode in ("classwise", "classwise-merged"):
        values = probs.reshape(-1)
        events = (labels[:, None] == np.arange(ds.k)[None, :]).reshape(-1)
        return _bin_table(values, events, M)[1]
    if isinstance(mode, int):
        if not (0 <= mode < ds.k):
            raise EmptyInput(f"class index {mode} outside [0, {ds.k})")
        return _bin_table(probs[:, mode], labels == mode, M)[1]
    raise EmptyInput(f"unknown reliability mode {mode!r}")


def build_report(
    ds: Dataset,
    bins: BinningConfig = BinningConfig(),
    regime: str | None = None,
) -> CalibrationReport:
    """Compute every standard metric on the dataset at one bin resolution."""
    M = bins.effective_bins(ds.n)
    conf, conf_table = conf_ece_arrays(ds.probs_matrix, ds.labels_array, M)
    cw, cw_tables = cw_ece_arrays(ds.probs_matrix, ds.labels_array, M)
    return CalibrationReport(
        n=ds.n,
        k=ds.k,
        M=M,
        accuracy=accuracy(ds),
        conf_ece=conf,
        cw_ece=cw,
        conf_bins=conf_table,
        classwise_bins=cw_tables,
        regime=regime,
    )


def mc_ece_population(model: FiniteGenerativeModel, predictor: Predictor) -> float:
    """Calibration gap conditioning on the full predicted vector.

    Support points whose predicted vectors are equal as floats, entry by
    entry, form one group (so -0.0 and 0.0 match); a group of zero mass
    contributes nothing. The gap is the mean absolute difference between the
    group's label frequencies and that vector, averaged over classes and
    weighted by group mass. One lexicographic sort of the s vectors:
    O(k * s log s). This is the strongest of the three calibration notions
    and is only computable in population form on a finite support.
    """
    pred = predictor.matrix_for(model.support)
    vecs, mass, freqs = _group_means(pred, model.weights, model.label_probs)
    return float(mass @ np.abs(freqs - vecs).mean(axis=1))


def win_rate(pairs: Sequence[PairwisePreferenceRecord]) -> float:
    """Fraction of pairs where the chosen response is strictly more likely.

    Ties count as losses.
    """
    if not pairs:
        raise EmptyInput("win_rate needs at least one pair")
    wins = sum(1 for p in pairs if p.logp_chosen > p.logp_reject)
    return wins / len(pairs)


def sequence_logprob(token_logps: Sequence[float]) -> float:
    """Log-probability of a token sequence: the sum of per-token log-probs.

    The empty sequence has log-probability 0 (an empty product).
    """
    vals = [float(v) for v in token_logps]
    if any(not math.isfinite(v) for v in vals):
        raise NonFiniteInput("token log-probabilities must be finite")
    return math.fsum(vals)
