"""Core types: simplex-constrained confidence vectors, labeled prediction
records, datasets, and the shared equal-width binning convention.

Everything here is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Constructor tolerance on sum(probs) == 1.
SIMPLEX_ATOL = 1e-9
# Ingestion renormalizes vectors whose sum is off by at most this; worse is rejected.
INGEST_SIMPLEX_ATOL = 1e-6

VALID_SPLITS = (None, "train", "val", "test")


class CalibrationError(Exception):
    """Base class for every error raised by this package."""


class SimplexViolation(CalibrationError):
    pass


class AllZeroScores(CalibrationError):
    pass


class NonFiniteScore(CalibrationError):
    pass


class OutOfRange(CalibrationError):
    pass


class LabelOutOfRange(CalibrationError):
    pass


class DuplicateId(CalibrationError):
    pass


class SchemaError(CalibrationError):
    pass


class EmptyDataset(CalibrationError):
    pass


class BadParams(CalibrationError):
    pass


@dataclass(frozen=True)
class ConfidenceVector:
    """A probability vector over k >= 2 classes.

    Entries must lie in [0, 1] and sum to 1 within ``SIMPLEX_ATOL``.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) < 2:
            raise SimplexViolation("a confidence vector needs at least two classes")
        for p in probs:
            if not math.isfinite(p):
                raise SimplexViolation(f"non-finite entry {p!r}")
            if p < 0.0 or p > 1.0:
                raise SimplexViolation(f"entry {p!r} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise SimplexViolation(f"entries sum to {total!r}, not 1")

    @property
    def k(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def normalize_options(raw_scores: Sequence[float]) -> ConfidenceVector:
    """Turn nonnegative per-option scores into option confidences.

    Each score is divided by the total so the result lies on the simplex.
    Scale-invariant and idempotent on already-normalized input.
    """
    scores = [float(s) for s in raw_scores]
    for s in scores:
        if not math.isfinite(s):
            raise NonFiniteScore(f"score {s!r} is not finite")
        if s < 0.0:
            raise OutOfRange(f"score {s!r} is negative")
    total = math.fsum(scores)
    if total == 0.0:
        raise AllZeroScores("all option scores are zero")
    return ConfidenceVector(tuple(s / total for s in scores))


def argmax_option(cv: ConfidenceVector) -> int:
    """Index of the most probable option; ties resolve to the lowest index."""
    return int(np.argmax(cv.as_array()))


def bin_index(value: float, M: int) -> int:
    """Equal-width bin of ``value`` in [0, 1]: bin m covers ((m-1)/M, m/M].

    The left edge 0 is folded into bin 1. Returns m in [1, M].
    """
    if not (0.0 <= value <= 1.0):
        raise OutOfRange(f"value {value!r} outside [0, 1]")
    if M < 1:
        raise OutOfRange(f"bin count {M} must be >= 1")
    m = int(math.ceil(value * M))
    return min(max(m, 1), M)


def bin_index_array(values: np.ndarray, M: int) -> np.ndarray:
    """Vectorized ``bin_index`` over an array of values in [0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise OutOfRange("values outside [0, 1]")
    idx = np.ceil(values * M).astype(np.int64)
    return np.minimum(np.maximum(idx, 1, out=idx), M, out=idx)


@dataclass(frozen=True)
class BinningConfig:
    """Bin count policy: a fixed M, or the n**(1/3) heuristic resolved at use time."""

    M: int = 10
    strategy: str = "fixed"

    def __post_init__(self):
        if self.M < 1:
            raise OutOfRange(f"bin count {self.M} must be >= 1")
        if self.strategy not in ("fixed", "cube-root-heuristic"):
            raise SchemaError(f"unknown binning strategy {self.strategy!r}")

    def effective_bins(self, n: int) -> int:
        if self.strategy == "cube-root-heuristic":
            return max(1, round(n ** (1.0 / 3.0)))
        return self.M


@dataclass(frozen=True)
class PredictionRecord:
    """One labeled multiple-choice instance with its confidence vector."""

    id: str
    confidences: ConfidenceVector
    label: int
    split: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise SchemaError("record id must be a nonempty string")
        if not (0 <= self.label < self.confidences.k):
            raise LabelOutOfRange(
                f"label {self.label} outside [0, {self.confidences.k})"
            )
        if self.split not in VALID_SPLITS:
            raise SchemaError(f"unknown split tag {self.split!r}")


class Dataset:
    """An ordered collection of records sharing one class count.

    Record ids are unique; ``probs_matrix`` and ``labels_array`` expose the
    data in array form for the metric estimators, and ``records`` is the
    per-row view. A dataset built from records derives the arrays when they
    are first read, and one built from arrays (``from_arrays``,
    ``with_probs``) builds its records only when they are first read.
    """

    def __init__(self, records: Sequence[PredictionRecord]):
        records = list(records)
        if not records:
            raise EmptyDataset("a dataset needs at least one record")
        k = records[0].confidences.k
        seen: set[str] = set()
        for r in records:
            if r.confidences.k != k:
                raise SchemaError(
                    f"record {r.id!r} has k={r.confidences.k}, expected {k}"
                )
            if r.id in seen:
                raise DuplicateId(f"duplicate record id {r.id!r}")
            seen.add(r.id)
        self.records = records
        self.k = k
        self.n = len(records)

    @cached_property
    def records(self) -> list[PredictionRecord]:
        return [
            PredictionRecord(rid, ConfidenceVector(tuple(row)), int(label), split)
            for rid, row, label, split in zip(
                self._ids, self.probs_matrix, self.labels_array, self._splits
            )
        ]

    @cached_property
    def probs_matrix(self) -> np.ndarray:
        return np.asarray([r.confidences.probs for r in self.records], dtype=float)

    @cached_property
    def labels_array(self) -> np.ndarray:
        return np.asarray([r.label for r in self.records], dtype=np.int64)

    @cached_property
    def _ids(self) -> list[str]:
        return [r.id for r in self.records]

    @cached_property
    def _splits(self) -> list[str | None]:
        return [r.split for r in self.records]

    @classmethod
    def _from_columns(
        cls,
        probs: np.ndarray,
        labels: np.ndarray,
        ids: list[str],
        splits: list[str | None],
    ) -> "Dataset":
        ds = cls.__new__(cls)
        ds.probs_matrix, ds.labels_array, ds._ids, ds._splits = probs, labels, ids, splits
        ds.n, ds.k = probs.shape
        return ds

    @classmethod
    def from_arrays(
        cls,
        probs: np.ndarray,
        labels: np.ndarray,
        ids: Sequence[str] | None = None,
        split: str | None = None,
    ) -> "Dataset":
        """Build a dataset from an (n, k) confidence matrix and n labels.

        The whole array is validated in one pass. It rejects exactly what
        building one ``PredictionRecord`` per row and then the ``Dataset``
        would reject, and raises the error class that the first bad row would
        raise there. ``ids`` defaults to ``r0 .. r{n-1}``; ``split`` tags
        every row.
        """
        probs = np.array(probs, dtype=float)
        labels = np.asarray(labels, dtype=np.int64)
        if probs.ndim != 2 or labels.ndim != 1 or probs.shape[0] != labels.shape[0]:
            raise SchemaError("probs must be (n, k) aligned with labels")
        n, k = probs.shape
        if ids is None:
            ids = [f"r{i}" for i in range(n)]
            bad_id = np.zeros(n, dtype=bool)
        else:
            ids = list(ids)
            if len(ids) != n:
                raise SchemaError(f"{len(ids)} ids for {n} rows")
            bad_id = np.fromiter(
                (not (isinstance(rid, str) and rid) for rid in ids), dtype=bool, count=n
            )
        bad_simplex = _bad_simplex_rows(probs)
        bad_label = (labels < 0) | (labels >= k)
        bad = bad_simplex | bad_id | bad_label | (split not in VALID_SPLITS)
        if bad.any():
            # The per-row checks run in this order, so the first bad row's
            # first failing check names the error.
            i = int(np.argmax(bad))
            if bad_simplex[i]:
                _raise_simplex_violation(probs[i])
            if bad_id[i]:
                raise SchemaError("record id must be a nonempty string")
            if bad_label[i]:
                raise LabelOutOfRange(f"label {labels[i]} outside [0, {k})")
            raise SchemaError(f"unknown split tag {split!r}")
        if n == 0:
            raise EmptyDataset("a dataset needs at least one record")
        if len(set(ids)) != n:
            seen: set[str] = set()
            for rid in ids:
                if rid in seen:
                    raise DuplicateId(f"duplicate record id {rid!r}")
                seen.add(rid)
        return cls._from_columns(probs, labels, ids, [split] * n)

    def with_probs(self, probs: np.ndarray) -> "Dataset":
        """The same ids, labels and splits with a new (n, k) confidence matrix,
        validated row by row as in ``from_arrays``."""
        probs = np.array(probs, dtype=float)
        if probs.shape != (self.n, self.k):
            raise SchemaError(f"probs must be ({self.n}, {self.k})")
        bad = _bad_simplex_rows(probs)
        if bad.any():
            _raise_simplex_violation(probs[int(np.argmax(bad))])
        return self._from_columns(probs, self.labels_array, self._ids, self._splits)


_EPS = float(np.finfo(float).eps)


def _bad_simplex_rows(probs: np.ndarray) -> np.ndarray:
    """Rows of an (n, k) matrix that ``ConfidenceVector`` would reject.

    A vectorized sum decides every row whose distance from the tolerance
    exceeds its rounding error (at most k ulp for entries in [0, 1]); rows
    within that band fall back to the exact ``math.fsum`` rule.
    """
    n, k = probs.shape
    if k < 2:
        return np.ones(n, dtype=bool)
    bad = ~(np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    with np.errstate(invalid="ignore"):
        off = np.abs(probs.sum(axis=1) - 1.0)
    band = 2.0 * k * _EPS
    bad |= off > SIMPLEX_ATOL + band
    for i in np.flatnonzero(~bad & (off >= SIMPLEX_ATOL - band)):
        bad[i] = abs(math.fsum(probs[i].tolist()) - 1.0) > SIMPLEX_ATOL
    return bad


def _raise_simplex_violation(row: np.ndarray) -> None:
    """Raise the ``SimplexViolation`` that ``ConfidenceVector`` gives for a
    row that ``_bad_simplex_rows`` rejected."""
    ConfidenceVector(tuple(row))
    raise SimplexViolation(f"row {row!r} is not a probability vector")


@dataclass(frozen=True)
class Violation:
    """One ingestion problem: record index, error kind, human-readable reason."""

    index: int
    kind: str
    message: str


class DatasetValidationError(CalibrationError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(f"[{v.index}] {v.kind}: {v.message}" for v in violations[:20])
        more = "" if len(violations) <= 20 else f" (+{len(violations) - 20} more)"
        super().__init__(f"{len(violations)} invalid record(s): {lines}{more}")


def validate_dataset(raw_records: Iterable[dict]) -> Dataset:
    """Build a Dataset from raw dict rows, collecting all violations.

    Confidence vectors whose sum is within ``INGEST_SIMPLEX_ATOL`` of 1 are
    renormalized; anything worse is rejected. Raises
    ``DatasetValidationError`` carrying every per-record violation.
    """
    violations: list[Violation] = []
    records: list[PredictionRecord] = []
    seen_ids: set[str] = set()
    k: int | None = None

    for i, row in enumerate(raw_records):
        if not isinstance(row, dict):
            violations.append(Violation(i, "SchemaError", "record is not an object"))
            continue
        problems_before = len(violations)

        rid = row.get("id")
        if not isinstance(rid, str) or not rid:
            violations.append(Violation(i, "SchemaError", "missing or empty 'id'"))
        elif rid in seen_ids:
            violations.append(Violation(i, "DuplicateId", f"id {rid!r} already used"))

        conf = row.get("confidences")
        cv: ConfidenceVector | None = None
        if not isinstance(conf, (list, tuple)) or len(conf) < 2:
            violations.append(
                Violation(i, "SchemaError", "'confidences' must be a list of >= 2 numbers")
            )
        else:
            try:
                vals = [float(c) for c in conf]
            except (TypeError, ValueError):
                vals = None
                violations.append(Violation(i, "SchemaError", "non-numeric confidence entry"))
            if vals is not None:
                if any(not math.isfinite(v) for v in vals):
                    violations.append(Violation(i, "SimplexViolation", "non-finite confidence"))
                elif any(v < 0.0 or v > 1.0 + INGEST_SIMPLEX_ATOL for v in vals):
                    violations.append(
                        Violation(i, "SimplexViolation", "confidence entry outside [0, 1]")
                    )
                else:
                    total = math.fsum(vals)
                    if abs(total - 1.0) > INGEST_SIMPLEX_ATOL:
                        violations.append(
                            Violation(
                                i,
                                "SimplexViolation",
                                f"confidences sum to {total!r}, beyond tolerance",
                            )
                        )
                    else:
                        if abs(total - 1.0) > SIMPLEX_ATOL:
                            vals = [min(v / total, 1.0) for v in vals]
                        cv = ConfidenceVector(tuple(vals))
                        if k is None:
                            k = cv.k
                        elif cv.k != k:
                            violations.append(
                                Violation(i, "SchemaError", f"k={cv.k} differs from {k}")
                            )

        label = row.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            violations.append(Violation(i, "SchemaError", "'label' must be an integer"))
        elif cv is not None and not (0 <= label < cv.k):
            violations.append(
                Violation(i, "LabelOutOfRange", f"label {label} outside [0, {cv.k})")
            )

        split = row.get("split")
        if split not in VALID_SPLITS:
            violations.append(Violation(i, "SchemaError", f"unknown split {split!r}"))

        if len(violations) == problems_before and cv is not None:
            records.append(PredictionRecord(rid, cv, label, split))
            seen_ids.add(rid)

    if violations:
        raise DatasetValidationError(violations)
    if not records:
        raise DatasetValidationError([Violation(0, "SchemaError", "no records supplied")])
    return Dataset(records)
