"""Core types: the columnar dataset of labeled confidence rows, its
validation, the error classes, and the shared equal-width binning convention.

A confidence row is a probability vector over k >= 2 classes: its entries
are finite, lie in [0, 1] and have an exact (``math.fsum``) sum within
``SIMPLEX_ATOL`` of 1. Everything here is an immutable value; all operations
are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Constructor tolerance on sum(probs) == 1.
SIMPLEX_ATOL = 1e-9
# Ingestion renormalizes vectors whose sum is off by at most this; worse is rejected.
INGEST_SIMPLEX_ATOL = 1e-6

VALID_SPLITS = (None, "train", "val", "test")
_SPLIT_SET = frozenset(VALID_SPLITS)


class CalibrationError(Exception):
    """Base class for every error raised by this package."""


class SimplexViolation(CalibrationError):
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


class Dataset:
    """An ordered collection of labeled rows sharing one class count.

    The data are four columns: ``probs_matrix`` (n, k), ``labels_array``,
    ``ids`` (unique) and ``splits``. A dataset is built only by
    ``from_arrays``, ``with_probs`` and ``validate_dataset``, each of which
    validates its columns as arrays.
    """

    def __init__(self):
        raise TypeError("build a Dataset with from_arrays, with_probs or validate_dataset")

    @classmethod
    def _from_columns(
        cls,
        probs: np.ndarray,
        labels: np.ndarray,
        ids: list[str],
        splits: list[str | None],
    ) -> "Dataset":
        ds = cls.__new__(cls)
        ds.probs_matrix, ds.labels_array, ds.ids, ds.splits = probs, labels, ids, splits
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

        The whole array is validated in one pass. Each row is checked in
        turn: its confidences against the row rule (``SimplexViolation``),
        its id (a nonempty str, else ``SchemaError``), its label in [0, k)
        (``LabelOutOfRange``) and the split tag (``SchemaError``); the first
        bad row's first failing check names the error. Then zero rows raise
        ``EmptyDataset`` and a repeated id ``DuplicateId``. ``ids`` defaults
        to ``r0 .. r{n-1}``; ``split`` tags every row.
        """
        probs = np.array(probs, dtype=float)
        labels = np.asarray(labels, dtype=np.int64)
        if probs.ndim != 2 or labels.ndim != 1 or probs.shape[0] != labels.shape[0]:
            raise SchemaError("probs must be (n, k) aligned with labels")
        n, k = probs.shape
        if ids is None:
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
                raise SimplexViolation(_simplex_reason(probs[i]))
            if bad_id[i]:
                raise SchemaError("record id must be a nonempty string")
            if bad_label[i]:
                raise LabelOutOfRange(f"label {labels[i]} outside [0, {k})")
            raise SchemaError(f"unknown split tag {split!r}")
        if n == 0:
            raise EmptyDataset("a dataset needs at least one record")
        if ids is None:
            # Distinct by construction, so they skip the duplicate check.
            ids = [f"r{i}" for i in range(n)]
        elif len(set(ids)) != n:
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
            raise SimplexViolation(_simplex_reason(probs[int(np.argmax(bad))]))
        return self._from_columns(probs, self.labels_array, self.ids, self.splits)


_EPS = float(np.finfo(float).eps)

# numpy 2.4 reduces slowly over a short innermost axis: on a (1e4, 4)
# matrix, max(axis=1) costs over 20 times a running np.maximum over the 4
# columns. Below this many classes the row max and row sum take a column
# pass; from k = 8 on that pass would no longer give numpy's bits.
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
    take numpy's argmax, which returns the first NaN. Every step is
    elementwise, so the pass runs at every k; an empty last axis raises as
    numpy does.
    """
    if a.shape[-1] == 0:
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

    Rows are validated as columns: one pass gathers the ids, confidences,
    labels and splits, and array masks decide every check.

    Confidence entries are whatever ``float()`` accepts; an integer too large
    for a float is an entry outside [0, 1]. Confidence vectors whose sum is
    within ``INGEST_SIMPLEX_ATOL`` of 1 are renormalized; anything worse is
    rejected. The first row whose confidences pass fixes k. A ``DuplicateId``
    is reported only against the id of a row accepted earlier. Raises
    ``DatasetValidationError`` carrying every per-record violation, in row
    order.
    """
    rows = list(raw_records)
    n = len(rows)
    is_obj = np.fromiter((isinstance(r, dict) for r in rows), dtype=bool, count=n)
    if not is_obj.all():
        rows = [r if ok else {} for r, ok in zip(rows, is_obj)]
    return _validate_columns(
        [r.get("id") for r in rows],
        [r.get("confidences") for r in rows],
        [r.get("label") for r in rows],
        [r.get("split") for r in rows],
        is_obj,
    )


def _validate_columns(ids: list, confs, labels, splits: list, is_obj: np.ndarray) -> Dataset:
    """``validate_dataset``'s checks over the columns of n raw rows.

    ``ids``, ``splits`` and ``labels`` hold each row's raw value (None where
    the key is missing); ``labels`` may instead be an int64 array. ``confs``
    holds each row's raw confidences, or is one (n, k >= 2) float matrix when
    every row has k float entries; such a matrix is renormalized in place and
    becomes the dataset's. ``is_obj`` is False for a row that is not
    an object; its other values must be None.
    """
    n = len(ids)
    conf = _ConfidenceColumns(confs)
    built = (conf.code == _CONF_OK) | (conf.code == _CONF_K)
    label_col, label_int = _label_column(labels)
    bad_label_type = ~label_int
    bad_label_range = label_int & built & ((label_col < 0) | (label_col >= conf.lengths))
    # Columns with only valid splits, or only nonempty str ids (the reader's
    # strict rows), need no per-row pass.
    try:
        splits_ok = set(splits) <= _SPLIT_SET
    except TypeError:  # an unhashable split
        splits_ok = False
    if splits_ok:
        bad_split = np.zeros(n, dtype=bool)
    else:
        bad_split = np.fromiter((s not in VALID_SPLITS for s in splits), dtype=bool, count=n)
    id_set = set(ids) if set(map(type, ids)) <= {str} else None
    if id_set is not None and "" not in id_set:
        bad_id = np.zeros(n, dtype=bool)
    else:
        bad_id = np.fromiter(
            (not (isinstance(rid, str) and rid) for rid in ids), dtype=bool, count=n
        )
    # Every check but the duplicate one; among rows with one id, the first
    # that passes them all is accepted and every later one is a duplicate.
    clean = is_obj & (conf.code == _CONF_OK) & ~bad_label_type & ~bad_label_range & ~bad_split
    duplicate = np.zeros(n, dtype=bool)
    # id_set is None when some id is not exactly a str: a str subclass such
    # as np.str_ passes the per-row check, so its set is built here.
    if bad_id.any() or len(set(ids) if id_set is None else id_set) != n:
        first: dict[str, int] = {}
        for i in np.flatnonzero(clean & ~bad_id).tolist():
            first.setdefault(ids[i], i)
        for i in np.flatnonzero(~bad_id).tolist():
            duplicate[i] = first.get(ids[i], i) < i

    bad = ~is_obj | bad_id | duplicate | (conf.code != _CONF_OK)
    bad |= bad_label_type | bad_label_range | bad_split
    violations: list[Violation] = []
    for i in np.flatnonzero(bad).tolist():
        if not is_obj[i]:
            violations.append(Violation(i, "SchemaError", "record is not an object"))
            continue
        if bad_id[i]:
            violations.append(Violation(i, "SchemaError", "missing or empty 'id'"))
        elif duplicate[i]:
            violations.append(Violation(i, "DuplicateId", f"id {ids[i]!r} already used"))
        if conf.code[i] != _CONF_OK:
            violations.append(Violation(i, *conf.violation(i)))
        if bad_label_type[i]:
            violations.append(Violation(i, "SchemaError", "'label' must be an integer"))
        elif bad_label_range[i]:
            violations.append(
                Violation(
                    i, "LabelOutOfRange", f"label {labels[i]} outside [0, {conf.lengths[i]})"
                )
            )
        if bad_split[i]:
            violations.append(Violation(i, "SchemaError", f"unknown split {splits[i]!r}"))

    if violations:
        raise DatasetValidationError(violations)
    if not n:
        raise DatasetValidationError([Violation(0, "SchemaError", "no records supplied")])
    return Dataset._from_columns(conf.probs[conf.k], label_col, ids, splits)


# Outcome of the confidence checks for one row; the first that fails is reported.
_CONF_OK, _CONF_SHAPE, _CONF_NON_NUMERIC, _CONF_NON_FINITE, _CONF_RANGE, _CONF_SUM, _CONF_K = (
    range(7)
)
_CONF_MESSAGES = {
    _CONF_SHAPE: ("SchemaError", "'confidences' must be a list of >= 2 numbers"),
    _CONF_NON_NUMERIC: ("SchemaError", "non-numeric confidence entry"),
    _CONF_NON_FINITE: ("SimplexViolation", "non-finite confidence"),
    _CONF_RANGE: ("SimplexViolation", "confidence entry outside [0, 1]"),
}
# Stands in for an integer entry too large for a float: any finite value
# outside [0, 1] gets the same verdict.
_HUGE_ENTRY = 2.0


class _ConfidenceColumns:
    """The confidence checks of ``validate_dataset`` over whole columns.

    ``confs`` is a list of raw per-row values or one (n, L) float matrix.
    Rows are grouped by length and each group becomes one (m, L) float
    matrix. ``code`` holds each row's outcome, ``lengths`` its entry count,
    ``probs[L]`` the (renormalized) matrix of the length-L rows and ``k`` the
    length of the first row that passes.
    """

    def __init__(self, confs):
        n = len(confs)
        if isinstance(confs, np.ndarray):
            self.lengths = np.full(n, confs.shape[1], dtype=np.int64)
        else:
            self.lengths = np.fromiter(
                (len(c) if isinstance(c, (list, tuple)) else 0 for c in confs),
                dtype=np.int64,
                count=n,
            )
        self.code = np.full(n, _CONF_SHAPE, dtype=np.int8)
        self.totals: dict[int, float] = {}
        self.probs: dict[int, np.ndarray] = {}
        self.k: int | None = None
        first_pass = n
        sizes = np.bincount(self.lengths, minlength=2)
        for L in (np.flatnonzero(sizes[2:]) + 2).tolist():
            rows = np.flatnonzero(self.lengths == L)
            group = confs if sizes[L] == n else [confs[i] for i in rows.tolist()]
            probs, code, totals = _check_confidences(group, L)
            self.code[rows] = code
            self.totals.update(zip(rows[list(totals)].tolist(), totals.values()))
            self.probs[L] = probs
            passed = rows[code == _CONF_OK]
            if passed.size and passed[0] < first_pass:
                first_pass, self.k = int(passed[0]), L
        if first_pass < n:
            self.code[(self.code == _CONF_OK) & (self.lengths != self.k)] = _CONF_K

    def violation(self, i: int) -> tuple[str, str]:
        code = self.code[i]
        if code == _CONF_SUM:
            return "SimplexViolation", f"confidences sum to {self.totals[i]!r}, beyond tolerance"
        if code == _CONF_K:
            return "SchemaError", f"k={self.lengths[i]} differs from {self.k}"
        return _CONF_MESSAGES[code]


def _check_confidences(group, L: int):
    """Check m confidence lists of length L, or an (m, L) float matrix, which
    is renormalized in place.

    Returns the (m, L) matrix with renormalized rows divided by their exact
    sum, each row's outcome code and the exact sum of each row rejected for
    it; ``_sum_gaps`` gives both sums. A row kept as it is may still hold an
    entry in (1, 1 + SIMPLEX_ATOL]; that is an entry outside [0, 1].
    """
    m = len(group)
    code = np.zeros(m, dtype=np.int8)
    try:
        probs = np.asarray(group)
        numeric = probs.dtype.kind in "fiub" and probs.shape == (m, L)
    except (TypeError, ValueError, OverflowError):
        numeric = False
    if numeric:
        probs = probs.astype(float, copy=False)
    else:
        probs = np.empty((m, L))
        for j, conf in enumerate(group):
            vals = _float_entries(conf)
            if vals is None:
                probs[j] = np.nan
                code[j] = _CONF_NON_NUMERIC
            else:
                probs[j] = vals
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(probs).all(axis=1)
        outside = ((probs < 0.0) | (probs > 1.0 + INGEST_SIMPLEX_ATOL)).any(axis=1)
    code[(code == _CONF_OK) & ~finite] = _CONF_NON_FINITE
    code[(code == _CONF_OK) & outside] = _CONF_RANGE
    checked = code == _CONF_OK
    gap, total = _sum_gaps(probs, checked)
    rejected = np.flatnonzero(checked & (gap > INGEST_SIMPLEX_ATOL))
    code[rejected] = _CONF_SUM
    renorm = checked & (gap > SIMPLEX_ATOL) & (gap <= INGEST_SIMPLEX_ATOL)
    # Entries are >= 0, so none exceeds the exact sum: no quotient exceeds 1.
    probs[renorm] /= total[renorm, None]
    kept = (code == _CONF_OK) & ~renorm
    code[kept & (probs > 1.0).any(axis=1)] = _CONF_RANGE
    return probs, code, dict(zip(rejected.tolist(), total[rejected].tolist()))


def _float_entries(conf) -> list[float] | None:
    """``float()`` of each entry, or None if one is not numeric."""
    vals = []
    for c in conf:
        try:
            vals.append(float(c))
        except OverflowError:
            vals.append(_HUGE_ENTRY)
        except (TypeError, ValueError):
            return None
    return vals


_INT64_MAX = int(np.iinfo(np.int64).max)


def _label_column(labels) -> tuple[np.ndarray, np.ndarray]:
    """int64 labels and a mask of the entries that are integers (not bools).
    An integer beyond int64 is clamped to -1 or the int64 maximum, which is
    out of range either way. An int64 array is taken as it is."""
    n = len(labels)
    if isinstance(labels, np.ndarray):
        return labels, np.ones(n, dtype=bool)
    if set(map(type, labels)) <= {int}:
        try:
            return np.array(labels, dtype=np.int64), np.ones(n, dtype=bool)
        except OverflowError:
            pass
    is_int = np.fromiter(
        (isinstance(v, int) and not isinstance(v, bool) for v in labels), dtype=bool, count=n
    )
    col = np.fromiter(
        (min(max(v, -1), _INT64_MAX) if ok else 0 for v, ok in zip(labels, is_int)),
        dtype=np.int64,
        count=n,
    )
    return col, is_int

