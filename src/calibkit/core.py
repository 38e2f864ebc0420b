"""Core types: the columnar dataset of labeled confidence rows, its
validation, the error classes, and the shared equal-width binning convention
and its bin-count rule.

A confidence row is a probability vector over k >= 2 classes: its entries
are finite, lie in [0, 1] and have an exact (``math.fsum``) sum within
``SIMPLEX_ATOL`` of 1. Everything here is an immutable value; all operations
are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


class OutOfRange(CalibrationError):
    pass


class LabelOutOfRange(CalibrationError):
    pass


class SchemaError(CalibrationError):
    pass


class EmptyDataset(CalibrationError):
    pass


class BadParams(CalibrationError):
    pass


class NonFiniteLoss(CalibrationError):
    def __init__(self, epoch: int, detail: str):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}: {detail}")


class NonFiniteGradient(CalibrationError):
    pass


def bin_index_array(values: np.ndarray, M: int) -> np.ndarray:
    """Equal-width bin of each value in [0, 1]: bin m covers ((m-1)/M, m/M].

    The left edge 0 is folded into bin 1. Returns each m in [1, M].
    """
    values = np.asarray(values, dtype=float)
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise OutOfRange("values outside [0, 1]")
    # For values in [0, 1] the rounded product lies in [0, M], so only the
    # left edge needs folding.
    scaled = values * M
    idx = np.ceil(scaled, out=scaled).astype(np.int64)
    return np.maximum(idx, 1, out=idx)


# The largest bin count. Bin ids, their stacked offsets and the lengths of
# the per-bin arrays stay far inside int64 below it; beyond int64 numpy
# cannot even size the arrays.
_MAX_BINS = 2**31 - 1


def _check_bins(M: int) -> None:
    """The one bin-count rule: raise ``OutOfRange`` unless 1 <= M <= _MAX_BINS."""
    if M < 1:
        raise OutOfRange(f"bin count {M} must be >= 1")
    if M > _MAX_BINS:
        raise OutOfRange(f"bin count {M} must be <= {_MAX_BINS}")


class Dataset:
    """An ordered collection of labeled rows sharing one class count.

    The data are two columns: ``probs_matrix`` (n, k) and ``labels_array``.
    A dataset is built only by ``from_arrays`` and ``validate_dataset``, each
    of which validates its columns as arrays.
    """

    def __init__(self):
        raise TypeError("build a Dataset with from_arrays or validate_dataset")

    @classmethod
    def _from_columns(cls, probs: np.ndarray, labels: np.ndarray) -> "Dataset":
        ds = cls.__new__(cls)
        ds.probs_matrix, ds.labels_array = probs, labels
        ds.n, ds.k = probs.shape
        return ds

    @classmethod
    def from_arrays(cls, probs: np.ndarray, labels: np.ndarray) -> "Dataset":
        """Build a dataset from an (n, k) confidence matrix and n labels.

        The whole array is validated in one pass. Each row is checked in
        turn: its confidences against the row rule (``SimplexViolation``),
        then its label against ingestion's rule, an integer and not a bool
        (``SchemaError``), then its label in [0, k) (``LabelOutOfRange``);
        the first bad row's first failing check names the error. Then zero
        rows raise ``EmptyDataset``. Ragged rows or labels, or an entry
        that is not a number, raise ``SchemaError`` first.
        """
        try:
            probs = np.array(probs, dtype=float)
            arr = np.asarray(labels)
        except ValueError as exc:  # numpy's "inhomogeneous shape", or a non-numeric entry
            raise SchemaError(f"probs must be (n, k) aligned with labels: {exc}") from exc
        if probs.ndim != 2 or arr.ndim != 1 or probs.shape[0] != arr.shape[0]:
            raise SchemaError("probs must be (n, k) aligned with labels")
        if arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64):
            labels = label_col = arr.astype(np.int64, copy=False)
            is_int = np.ones(len(labels), dtype=bool)
        else:
            # Each label's own value for the integer rule: numpy's common
            # type would make [7, 0.5] two floats.
            labels = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
            label_col, is_int = _label_column(labels)
        n, k = probs.shape
        bad_simplex = _bad_simplex_rows(probs)
        bad = bad_simplex | ~is_int | (label_col < 0) | (label_col >= k)
        if bad.any():
            i = int(np.argmax(bad))
            if bad_simplex[i]:
                raise SimplexViolation(_simplex_reason(probs[i]))
            if not is_int[i]:
                raise SchemaError(f"label {labels[i]!r} is not an integer")
            raise LabelOutOfRange(f"label {labels[i]} outside [0, {k})")
        if n == 0:
            raise EmptyDataset("a dataset needs at least one record")
        return cls._from_columns(probs, label_col)


_EPS = float(np.finfo(float).eps)

# numpy 2.4 reduces slowly over a short innermost axis: on a (1e4, 4)
# matrix, max(axis=1) costs over 20 times a running np.maximum over the 4
# columns. Below this many classes ``_row_max``, ``_row_argmax`` and
# ``_row_sum`` take a column pass. From k = 8 on numpy's own reduction runs:
# the max and sum passes would no longer give numpy's bits, and the argmax
# pass falls behind numpy's argmax, further as k grows.
_COLUMN_PASS_K = 8


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` of a float array, bit for bit.

    For k < 8 it is a running ``np.maximum`` over the k column slices: the
    same elementwise maximum taken in row order, so the bits equal numpy's,
    signed zeros included. From k = 8 on numpy's own reduction runs, because
    its vector loop may return the other zero of a -0.0/0.0 tie. A row with
    a NaN gives NaN; only the NaN's sign is not pinned, as numpy itself
    returns +NaN for a C-ordered row that starts with -NaN and -NaN for the
    same row in Fortran order.
    """
    k = a.shape[-1]
    if not 0 < k < _COLUMN_PASS_K:
        return a.max(axis=-1)
    out = a[..., 0].copy()
    for j in range(1, k):
        np.maximum(out, a[..., j], out=out)
    return out


def _row_argmax(a: np.ndarray) -> np.ndarray:
    """``np.argmax(a, axis=-1)`` of a float array, exactly.

    A column pass that keeps the running maximum and moves the index to
    column j only where column j is strictly greater: the first index wins a
    tie, a -0.0/0.0 tie included, as in numpy. A NaN would stop the
    comparisons, so the rows that hold one (their running maximum is NaN)
    take numpy's argmax, which returns the first NaN. From k = 8 on, and for
    an empty last axis (which raises), numpy's own argmax runs.
    """
    if not 0 < a.shape[-1] < _COLUMN_PASS_K:
        return np.argmax(a, axis=-1)
    best = a[..., 0].copy()
    arg = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, a.shape[-1]):
        col = a[..., j]
        np.maximum(arg, (col > best) * j, out=arg)
        np.maximum(best, col, out=best)
    nan = np.isnan(best)
    if nan.any():
        arg[nan] = np.argmax(a[nan], axis=-1)
    return arg


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a float array, bit for bit.

    For k < 8 numpy adds a row's entries in sequence onto 0.0, and the
    column pass makes the same additions in the same order: it starts from
    ``0.0 + a[..., 0]``, which turns a -0.0 into 0.0 as numpy does. From
    k = 8 on numpy sums pairwise in blocks, an order a column pass does not
    reproduce, so numpy's own reduction runs.
    """
    k = a.shape[-1]
    if not 0 < k < _COLUMN_PASS_K:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, k):
        out += a[..., j]
    return out


def _sum_gaps(probs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's |sum - 1| and sum, as the row rule's exact ``math.fsum``
    sum has them: the one place a row sum is judged against 1.

    ``rows`` marks the rows of the (n, k) matrix to judge; their entries must
    be finite and nonnegative, and every other row gets an infinite gap. A
    vectorized sum decides each row whose gap lies below ``SIMPLEX_ATOL`` by
    more than its rounding error (at most k ulp for entries in [0, 1]); every
    other row gets its exact ``math.fsum`` total and gap, unless its rounded
    sum exceeds 2k + 1: that row is off by more than any tolerance, and its
    exact sum could overflow.
    """
    k = probs.shape[1]
    with np.errstate(invalid="ignore"):
        total = _row_sum(probs)
        gap = np.abs(total - 1.0)
    gap[~rows] = np.inf
    exact = np.flatnonzero((gap >= SIMPLEX_ATOL - 2.0 * k * _EPS) & (gap <= 2.0 * k))
    total[exact] = [math.fsum(row) for row in probs[exact].tolist()]
    gap[exact] = np.abs(total[exact] - 1.0)
    return gap, total


def _bad_simplex_rows(probs: np.ndarray) -> np.ndarray:
    """Rows of an (n, k) matrix that break the row rule: k < 2, an entry
    that is not finite or lies outside [0, 1], or an exact sum off 1 by more
    than ``SIMPLEX_ATOL``."""
    n, k = probs.shape
    if k < 2:
        return np.ones(n, dtype=bool)
    in_range = (np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    return _sum_gaps(probs, in_range)[0] > SIMPLEX_ATOL


def _simplex_reason(row: np.ndarray) -> str:
    """The row rule's reason for rejecting a row that ``_bad_simplex_rows``
    rejected: too few classes, else the first entry that is not finite or
    lies outside [0, 1], else the exact sum."""
    vals = row.tolist()
    if len(vals) < 2:
        return "a confidence vector needs at least two classes"
    for p in vals:
        if not math.isfinite(p):
            return f"non-finite entry {p!r}"
        if p < 0.0 or p > 1.0:
            return f"entry {p!r} outside [0, 1]"
    return f"entries sum to {math.fsum(vals)!r}, not 1"


def _check_simplex_rows(probs: np.ndarray, what: str) -> None:
    """Raise ``SimplexViolation`` for the first row of an (s, k >= 2) matrix
    that breaks the row rule, naming ``what``, the row's index and the
    reason."""
    bad = _bad_simplex_rows(probs)
    if bad.any():
        i = int(np.argmax(bad))
        raise SimplexViolation(f"{what}: row {i}: {_simplex_reason(probs[i])}")


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

    When every row passes the row test (``_row_entries``), their columns meet
    the accept check (``_accept``), which builds the dataset: only the
    confidences and labels. Any other input, or one the check rejects, goes
    to the per-row walk (``_violations``), which states every violation.

    Confidence entries are whatever ``float()`` accepts; an integer too large
    for a float is an entry outside [0, 1]. Confidence vectors whose sum is
    within ``INGEST_SIMPLEX_ATOL`` of 1 are renormalized; anything worse is
    rejected. The first row whose confidences pass fixes k. A ``DuplicateId``
    is reported only against the id of a row accepted earlier. Raises
    ``DatasetValidationError`` carrying every per-record violation, in row
    order.
    """
    rows = list(raw_records)
    ids, confs, labels = [], [], []
    for row in rows:
        entries = _row_entries(row, len(confs[0]) if confs else None)
        if entries is None:
            break
        ids.append(row["id"])
        confs.append(entries)
        labels.append(row["label"])
    if rows and len(ids) == len(rows):
        ds = _accept(ids, np.array(confs), np.array(labels, dtype=np.int64))
        if ds is not None:
            return ds
    raise DatasetValidationError(_violations(rows))


def _row_entries(row, k: int | None) -> list[float] | None:
    """The row test of ingestion: ``float()`` of each confidence entry of a
    row that passes it, else None. A row passes when it is a dict with a
    nonempty str id, a list or tuple of exactly k entries that ``float()``
    takes (at least 2 while k is unknown), an int label (not a bool) in
    [0, 2**63), and an absent, null or known split: the types of the
    per-row walk."""
    if not isinstance(row, dict):
        return None
    rid, conf, label = row.get("id"), row.get("confidences"), row.get("label")
    if not (isinstance(rid, str) and rid and isinstance(conf, (list, tuple))
            and isinstance(label, int) and not isinstance(label, bool)
            and 0 <= label < 2**63 and row.get("split") in VALID_SPLITS):
        return None
    if len(conf) != k if k else len(conf) < 2:
        return None
    try:
        return [float(c) for c in conf]
    except (TypeError, ValueError, OverflowError):
        return None


def _accept(ids: list, probs: np.ndarray, labels: np.ndarray) -> Dataset | None:
    """The dataset of n >= 1 rows that all passed the row test, or None if
    one of them breaks a rule.

    ``probs`` is their (n, k) float matrix and ``labels`` their int64
    labels. Every entry must be finite and in [0, 1 + INGEST_SIMPLEX_ATOL],
    every exact sum (``_sum_gaps``) within ``INGEST_SIMPLEX_ATOL`` of 1, no
    row kept as it is may hold an entry above 1, every label must lie below
    k and the ids must be unique. Only then are the rows off by more than
    ``SIMPLEX_ATOL`` divided in place by their exact sum.
    """
    n, k = probs.shape
    # A NaN fails both comparisons.
    if not (probs.min() >= 0.0 and probs.max() <= 1.0 + INGEST_SIMPLEX_ATOL):
        return None
    gap, total = _sum_gaps(probs, np.ones(n, dtype=bool))
    if gap.max() > INGEST_SIMPLEX_ATOL or labels.max() >= k or len(set(ids)) != n:
        return None
    if (gap[_row_max(probs) > 1.0] <= SIMPLEX_ATOL).any():
        return None
    renorm = gap > SIMPLEX_ATOL
    # Entries are >= 0, so none exceeds the exact sum: no quotient exceeds 1.
    probs[renorm] /= total[renorm, None]
    return Dataset._from_columns(probs, labels)


# Stands in for an integer entry too large for a float: any finite value
# outside [0, 1] gets the same verdict.
_HUGE_ENTRY = 2.0


def _violations(rows: Iterable) -> list[Violation]:
    """The per-row walk: every violation of ``rows``, in file order.

    It carries the running k, fixed by the first row whose confidences
    pass, and the ids of the rows accepted so far. Each row's violations
    come in this order: not an object; its id (missing or empty, else a
    duplicate of an accepted row); its confidences; its label (type, else
    range against the row's own length); its split. No rows at all is one
    violation. The walk only explains: it builds no dataset.
    """
    violations: list[Violation] = []
    add = violations.append
    k: int | None = None
    accepted: set = set()
    i = -1
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            add(Violation(i, "SchemaError", "record is not an object"))
            continue
        before = len(violations)
        rid = row.get("id")
        if not (isinstance(rid, str) and rid):
            add(Violation(i, "SchemaError", "missing or empty 'id'"))
        elif rid in accepted:
            add(Violation(i, "DuplicateId", f"id {rid!r} already used"))
        conf = row.get("confidences")
        problem = _confidence_problem(conf)
        if problem is not None:
            add(Violation(i, *problem))
        elif k is None:
            k = len(conf)
        elif len(conf) != k:
            add(Violation(i, "SchemaError", f"k={len(conf)} differs from {k}"))
        label = row.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            add(Violation(i, "SchemaError", "'label' must be an integer"))
        elif problem is None and not 0 <= label < len(conf):
            add(Violation(i, "LabelOutOfRange", f"label {label} outside [0, {len(conf)})"))
        split = row.get("split")
        if split not in VALID_SPLITS:
            add(Violation(i, "SchemaError", f"unknown split {split!r}"))
        if len(violations) == before:
            accepted.add(rid)
    if i < 0:
        add(Violation(0, "SchemaError", "no records supplied"))
    return violations


_OUTSIDE = ("SimplexViolation", "confidence entry outside [0, 1]")


def _confidence_problem(conf) -> tuple[str, str] | None:
    """The kind and message of the first confidence rule that ``conf``
    breaks, whatever k is, or None."""
    if not isinstance(conf, (list, tuple)) or len(conf) < 2:
        return "SchemaError", "'confidences' must be a list of >= 2 numbers"
    try:
        vals = list(map(float, conf))
    except (TypeError, ValueError, OverflowError):
        vals = []
        for c in conf:
            try:
                vals.append(float(c))
            except OverflowError:
                vals.append(_HUGE_ENTRY)
            except (TypeError, ValueError):
                return "SchemaError", "non-numeric confidence entry"
    if not all(map(math.isfinite, vals)):
        return "SimplexViolation", "non-finite confidence"
    top = max(vals)
    if min(vals) < 0.0 or top > 1.0 + INGEST_SIMPLEX_ATOL:
        return _OUTSIDE
    total = math.fsum(vals)
    if abs(total - 1.0) > INGEST_SIMPLEX_ATOL:
        return "SimplexViolation", f"confidences sum to {total!r}, beyond tolerance"
    # A row kept as it is may not hold an entry above 1.
    if abs(total - 1.0) <= SIMPLEX_ATOL and top > 1.0:
        return _OUTSIDE
    return None


_INT64_MAX = int(np.iinfo(np.int64).max)


def _label_column(labels: list) -> tuple[np.ndarray, np.ndarray]:
    """int64 labels and a mask of the entries that are integers (not bools).
    An integer beyond int64 is clamped to -1 or the int64 maximum, which is
    out of range either way."""
    n = len(labels)
    is_int = np.fromiter(
        (isinstance(v, int) and not isinstance(v, bool) for v in labels), dtype=bool, count=n
    )
    col = np.fromiter(
        (min(max(v, -1), _INT64_MAX) if ok else 0 for v, ok in zip(labels, is_int)),
        dtype=np.int64,
        count=n,
    )
    return col, is_int
