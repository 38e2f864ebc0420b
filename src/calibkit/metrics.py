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
    SchemaError,
    _row_argmax,
    _row_max,
    bin_index_array,
)


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

    def to_json_dict(self) -> dict:
        return {
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
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-gap sum plus per-bin counts, mean values, and event rates.

    ``values`` and ``events`` are one stratification of shape (n,), or a
    stack of shape (G, n) whose rows are G separate stratifications. A stack
    offsets each row's bin ids by row * M and makes one ``np.bincount`` per
    sum; bincount adds each (row, bin) cell in row order and the gap sum
    reduces each row alone, so row g of the result equals the (n,) call on
    row g bit for bit. The gap is a Python float for (n,) input and a (G,)
    array for a stack; the tables are (M,) or (G, M).
    """
    shape = values.shape[:-1] + (M,)
    idx = bin_index_array(values, M)
    if values.ndim == 2:
        idx += M * np.arange(values.shape[0])[:, None]
    idx = idx.ravel()
    evt_sums = np.bincount(
        idx, weights=events.astype(float).ravel(), minlength=math.prod(shape) + 1
    )[1:].reshape(shape)
    gaps, *tables = _gap_tables(idx, values, evt_sums, shape, values.shape[-1])
    return (float(gaps) if values.ndim == 1 else gaps), *tables


def _gap_tables(
    idx: np.ndarray, values: np.ndarray, evt_sums: np.ndarray, shape: tuple, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The gap sums over the last axis of ``shape``, the counts, mean values
    and event rates, from the flat offset bin ids of ``values`` (one id per
    entry, in memory order; 0 is never used) and each cell's event sum."""
    size = math.prod(shape) + 1
    counts = np.bincount(idx, minlength=size)[1:].reshape(shape)
    val_sums = np.bincount(idx, weights=values.ravel(), minlength=size)[1:].reshape(shape)
    occupied = counts > 0
    mean_conf = np.divide(val_sums, counts, out=np.zeros(shape), where=occupied)
    freq = np.divide(evt_sums, counts, out=np.zeros(shape), where=occupied)
    gaps = (np.abs(freq - mean_conf) * counts).sum(axis=-1) / n
    return gaps, counts, mean_conf, freq


def binned_ece(values: np.ndarray, events: np.ndarray, M: int) -> float:
    """Gap sum only; the cheap path for optimizers that discard the table."""
    return _binned_gaps(values, events, M)[0]


def _table(counts: np.ndarray, mean_conf: np.ndarray, freq: np.ndarray) -> list[BinStats]:
    """The M-row reliability table of one stratification's bin arrays."""
    M = counts.shape[0]
    return [
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


def _classwise_gaps(probs: np.ndarray, labels: np.ndarray, M: int):
    """cw-ECE and the (k, M) bin arrays: one pass over the k class columns
    of the row-major matrix.

    Column j's bin ids are offset by j * M, so one ``np.bincount`` per sum
    over the entries as they lie in memory adds each (class, bin) cell in
    ascending row order, as the per-class call on ``probs[:, j]`` does.
    Class j's events are the rows with ``labels == j``; a running sum of
    0.0/1.0 event weights is an exact integer, so the event sums are integer
    counts of the bin ids of each row's label cell. The k gaps are summed in
    class order as Python floats and divided by k, the same sequential sum
    as a per-class loop.
    """
    n, k = probs.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise SchemaError("probs must be (n, k) aligned with labels")
    idx = bin_index_array(probs, M)
    for j in range(1, k):
        idx[:, j] += j * M
    idx = idx.ravel()
    if labels.dtype.kind in "iu":
        # An unsigned label beyond the int64 range wraps to a negative one.
        cls = labels.astype(np.int64, copy=False)
    else:
        cls = np.full(n, -1)
        for j in range(k):
            cls[labels == j] = j
    # The flat position of each row's label cell; a row whose label is no
    # class in [0, k) has none.
    cells = np.arange(0, n * k, k) + cls
    inside = (cls >= 0) & (cls < k)
    evt_sums = np.bincount(
        idx[cells if inside.all() else cells[inside]], minlength=k * M + 1
    )[1:].reshape(k, M).astype(float)
    gaps, counts, mean_conf, freq = _gap_tables(idx, probs, evt_sums, (k, M), n)
    return sum(gaps.tolist()) / k, counts, mean_conf, freq


def accuracy_arrays(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(_row_argmax(probs) == labels))


def conf_ece_arrays(
    probs: np.ndarray, labels: np.ndarray, M: int
) -> tuple[float, list[BinStats]]:
    correct = _row_argmax(probs) == labels
    ece, *arrays = _binned_gaps(_row_max(probs), correct, M)
    return ece, _table(*arrays)


def cw_ece_arrays(
    probs: np.ndarray, labels: np.ndarray, M: int
) -> tuple[float, list[list[BinStats]]]:
    cw, counts, mean_conf, freq = _classwise_gaps(probs, labels, M)
    return cw, [_table(*rows) for rows in zip(counts, mean_conf, freq)]


def metric_row(probs: np.ndarray, labels: np.ndarray, M: int) -> dict:
    """Accuracy, conf-ECE and cw-ECE at M bins, without reliability tables.

    The values equal those of ``accuracy_arrays``, ``conf_ece_arrays`` and
    ``cw_ece_arrays`` bit for bit.
    """
    correct = _row_argmax(probs) == labels
    return {
        "acc": float(np.mean(correct)),
        "conf_ece": binned_ece(_row_max(probs), correct, M),
        "cw_ece": _classwise_gaps(probs, labels, M)[0],
    }


def accuracy(ds: Dataset) -> float:
    """Fraction of records whose top-confidence class is the label."""
    return accuracy_arrays(ds.probs_matrix, ds.labels_array)


def conf_ece(
    ds: Dataset, bins: BinningConfig = BinningConfig()
) -> tuple[float, list[BinStats]]:
    """Top-confidence calibration error and its reliability table."""
    return conf_ece_arrays(ds.probs_matrix, ds.labels_array, bins.effective_bins(ds.n))


def cw_ece(
    ds: Dataset, bins: BinningConfig = BinningConfig()
) -> tuple[float, list[list[BinStats]]]:
    """Classwise calibration error and the per-class reliability tables."""
    return cw_ece_arrays(ds.probs_matrix, ds.labels_array, bins.effective_bins(ds.n))


def build_report(ds: Dataset, bins: BinningConfig = BinningConfig()) -> CalibrationReport:
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
    )


def win_rate(pairs: Sequence[PairwisePreferenceRecord]) -> float:
    """Fraction of pairs where the chosen response is strictly more likely.

    Ties count as losses.
    """
    if not pairs:
        raise EmptyInput("win_rate needs at least one pair")
    wins = sum(1 for p in pairs if p.logp_chosen > p.logp_reject)
    return wins / len(pairs)

