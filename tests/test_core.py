import math
from types import SimpleNamespace

import numpy as np
import pytest

from calibkit.core import (
    INGEST_SIMPLEX_ATOL,
    SIMPLEX_ATOL,
    VALID_SPLITS,
    BinningConfig,
    CalibrationError,
    Dataset,
    DatasetValidationError,
    DuplicateId,
    EmptyDataset,
    LabelOutOfRange,
    OutOfRange,
    SchemaError,
    SimplexViolation,
    Violation,
    _bad_simplex_rows,
    _row_max,
    _row_sum,
    _simplex_reason,
    bin_index_array,
    validate_dataset,
)


def test_argmax_option_examples():
    # Ties resolve to the lowest index.
    assert np.argmax(np.array([0.1, 0.6, 0.2, 0.1])) == 1
    assert np.argmax(np.array([0.25, 0.25, 0.25, 0.25])) == 0
    assert np.argmax(np.array([0.4, 0.4, 0.1, 0.1])) == 0


def test_argmax_invariant_under_monotone_rescale():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scores = rng.random(5) + 1e-9
        probs = scores / scores.sum()
        squared = probs ** 2 / (probs ** 2).sum()
        assert np.argmax(squared) == np.argmax(probs)


def test_bin_index_examples():
    values = np.array([0.8, 0.8000001, 0.0, 1.0])
    assert bin_index_array(values, 10).tolist() == [8, 9, 1, 10]


def test_bin_index_errors():
    with pytest.raises(OutOfRange):
        bin_index_array(np.array([0.5, -0.1]), 10)
    with pytest.raises(OutOfRange):
        bin_index_array(np.array([1.1]), 10)


@pytest.mark.parametrize("values", [[np.nan, 0.5], [0.5, np.nan], [np.nan]])
def test_bin_index_rejects_nan(values):
    with pytest.raises(OutOfRange):
        bin_index_array(np.array(values), 10)


def test_bin_index_monotone_and_surjective():
    M = 7
    values = np.linspace(0.0, 1.0, 2000)
    idx = bin_index_array(values, M)
    assert (np.diff(idx) >= 0).all()
    assert set(idx.tolist()) == set(range(1, M + 1))


def test_max_confidence_pigeonhole_bins():
    # With k classes the top confidence is at least 1/k, so at M=10, k=4 the
    # first two bins can never hold any record.
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(4), 500)
    assert probs.max(axis=1).min() >= 0.25
    idx = bin_index_array(probs.max(axis=1), 10)
    assert idx.min() >= 3


def _reference_row_reason(vals) -> str | None:
    """The probability-row rule, one entry at a time: why the row is not a
    confidence vector over k >= 2 classes, or None if it is one. The
    reference for core's vectorized row checks and their messages."""
    vals = [float(p) for p in vals]
    if len(vals) < 2:
        return "a confidence vector needs at least two classes"
    for p in vals:
        if not math.isfinite(p):
            return f"non-finite entry {p!r}"
        if p < 0.0 or p > 1.0:
            return f"entry {p!r} outside [0, 1]"
    total = math.fsum(vals)
    if abs(total - 1.0) > SIMPLEX_ATOL:
        return f"entries sum to {total!r}, not 1"
    return None


# Rows whose plain float sum and exact sum fall on opposite sides of the
# 1e-9 tolerance: A is off by just over 1e-9 exactly, B by just under.
_ROW_A = [0.1546744237306553, 0.10034343689274351, 0.0543537952962544,
          0.4177227225641658, 0.26860158680495844, 0.004304033711222465]
_ROW_B = [0.5610598664116091, 0.3363082748347637, 0.10263185775362717]


def test_confidence_vector_invariants():
    """core rejects exactly the rows the reference rule rejects, with the
    reference's message."""
    rows = [
        [1.0],
        [0.5, float("nan")],
        [float("inf"), 0.0],
        [0.5, float("-inf"), 0.5],
        [-0.25, 1.25],
        [0.5, -0.0, 1.5],
        [0.6, 0.5],
        [0.3, 0.3, 0.3],
        [0.5, 0.5],
        _ROW_A,
        _ROW_B,
    ]
    reasons = [_reference_row_reason(row) for row in rows]
    assert reasons[-2:] == ["entries sum to 0.9999999989999999, not 1", None]
    for row, reason in zip(rows, reasons):
        probs = np.asarray([row], dtype=float)
        assert bool(_bad_simplex_rows(probs)[0]) == (reason is not None), row
        if reason is not None:
            assert _simplex_reason(probs[0]) == reason


def test_from_arrays_rejects_a_single_class():
    with pytest.raises(SimplexViolation) as exc:
        Dataset.from_arrays(np.ones((3, 1)), np.zeros(3, dtype=int))
    assert str(exc.value) == "a confidence vector needs at least two classes"


def test_dataset_invariants():
    with pytest.raises(TypeError, match="from_arrays"):
        Dataset()
    with pytest.raises(EmptyDataset, match="a dataset needs at least one record"):
        Dataset.from_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DuplicateId, match="duplicate record id 'a'"):
        Dataset.from_arrays(np.full((2, 2), 0.5), np.array([0, 1]), ["a", "a"])
    ds = Dataset.from_arrays(np.full((2, 2), 0.5), np.array([0, 1]), ["a", "b"])
    assert ds.n == 2 and ds.k == 2
    assert ds.probs_matrix.shape == (2, 2)

    # The first id seen twice is named, not the first repeat found.
    ids = ["a", "b", "a", "b"]
    with pytest.raises(DuplicateId) as exc:
        Dataset.from_arrays(np.full((4, 2), 0.5), np.zeros(4, dtype=int), ids)
    assert str(exc.value) == "duplicate record id 'a'"


def _record_path_error(probs, labels, ids=None, split=None):
    """Error class of the per-record rules, or None if they accept the
    input: each row's confidences, id, label and the split tag in turn, row
    after row; then an empty input; then a repeated id."""
    ids = [f"r{i}" for i in range(len(labels))] if ids is None else ids
    for i in range(len(labels)):
        if _reference_row_reason(probs[i]) is not None:
            return SimplexViolation
        if not (isinstance(ids[i], str) and ids[i]):
            return SchemaError
        if not 0 <= labels[i] < len(probs[i]):
            return LabelOutOfRange
        if split not in VALID_SPLITS:
            return SchemaError
    if not len(labels):
        return EmptyDataset
    if len(set(ids)) != len(ids):
        return DuplicateId
    return None


_GOOD = [[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]


@pytest.mark.parametrize(
    "probs, labels, ids, split, error",
    [
        pytest.param(_GOOD[:1] + [[float("nan"), 0.5]] + _GOOD[1:], [0, 1, 0, 1], None, None,
                     SimplexViolation, id="nan"),
        pytest.param(_GOOD + [[-0.25, 1.25]], [0, 1, 0, 1], None, None,
                     SimplexViolation, id="negative-entry"),
        pytest.param(_GOOD + [[1.0 + 1e-10, 0.0]], [0, 1, 0, 1], None, None,
                     SimplexViolation, id="entry-above-one"),
        pytest.param(_GOOD + [[0.5, 0.5 + 3 * SIMPLEX_ATOL]], [0, 1, 0, 1], None, None,
                     SimplexViolation, id="sum-off"),
        pytest.param(_GOOD, [0, 2, 0], None, None, LabelOutOfRange, id="label-above-k"),
        pytest.param(_GOOD, [0, 1, -1], None, None, LabelOutOfRange, id="negative-label"),
        pytest.param(_GOOD, [0, 1, 0], ["a", "b", "a"], None, DuplicateId, id="duplicate-ids"),
        pytest.param(_GOOD, [0, 1, 0], ["a", "", "c"], None, SchemaError, id="empty-id"),
        pytest.param([[1.0], [1.0]], [0, 0], None, None, SimplexViolation, id="k-equals-1"),
        pytest.param(np.zeros((0, 4)), [], None, None, EmptyDataset, id="zero-rows"),
        pytest.param(_GOOD, [0, 1, 0], None, "dev", SchemaError, id="bad-split"),
        pytest.param([[0.5, 0.5], [0.5, 0.7]], [0, 5], None, None,
                     SimplexViolation, id="first-failing-check-wins"),
        pytest.param([[0.5, 0.5], [0.5, 0.5]], [0, 5], ["a", "a"], None,
                     LabelOutOfRange, id="row-checks-before-duplicates"),
        pytest.param([[0.5, 0.5], [0.5, 0.5]], [0, 5], None, "dev",
                     SchemaError, id="bad-split-fails-the-first-row"),
    ],
)
def test_from_arrays_rejects_like_the_record_path(probs, labels, ids, split, error):
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    assert _record_path_error(probs, labels, ids, split) is error
    with pytest.raises(error):
        Dataset.from_arrays(probs, labels, ids, split)


@pytest.mark.parametrize("k", [2, 3, 6, 9])
def test_from_arrays_sum_tolerance_matches_fsum_rule(k):
    """Rows whose exact sum lies within a few ulp of 1 +- SIMPLEX_ATOL are
    accepted or rejected exactly as the row rule's math.fsum sum decides,
    where a plain floating-point sum can land on the other side."""
    rng = np.random.default_rng(k)
    outcomes = set()
    for _ in range(20):
        row = rng.dirichlet(np.ones(k))
        for edge in (1.0 + SIMPLEX_ATOL, 1.0 - SIMPLEX_ATOL):
            row[-1] += edge - math.fsum(row.tolist())
            for ulps in range(-6, 7):
                probe = row.copy()
                probe[-1] += ulps * 2.0**-53
                accepted = _record_path_error(probe[None, :], [0]) is None
                outcomes.add(accepted)
                if accepted:
                    assert Dataset.from_arrays(probe[None, :], [0]).n == 1
                else:
                    with pytest.raises(SimplexViolation):
                        Dataset.from_arrays(probe[None, :], [0])
    assert outcomes == {True, False}


def test_from_arrays_accepts_sum_within_tolerance():
    probs = np.array([[0.5, 0.5 + 0.5 * SIMPLEX_ATOL], [0.3, 0.7 - 0.5 * SIMPLEX_ATOL]])
    assert _record_path_error(probs, [0, 1]) is None
    assert Dataset.from_arrays(probs, np.array([0, 1])).n == 2


def test_from_arrays_records_round_trip():
    """A dataset's columns, written out as one raw record per row, read back
    through ``validate_dataset`` bit for bit."""
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(5) * 0.6, 30)
    probs[0] = [0.0, 1.0, 0.0, 0.0, 0.0]
    labels = rng.integers(0, 5, 30)
    ids = [f"q{i}" for i in range(30)]
    ds = Dataset.from_arrays(probs, labels, ids, split="val")
    assert ds.ids == ids and ds.splits == ["val"] * 30
    assert ds.probs_matrix.tobytes() == probs.tobytes()
    assert ds.labels_array.tolist() == labels.tolist()
    records = [
        {"id": rid, "confidences": row, "label": label, "split": split}
        for rid, row, label, split in zip(
            ds.ids, ds.probs_matrix.tolist(), ds.labels_array.tolist(), ds.splits
        )
    ]
    assert _ingest(validate_dataset, records) == _ingest(lambda rows: ds, records)
    assert Dataset.from_arrays(probs, labels).ids[7] == "r7"


def test_from_arrays_copies_its_input():
    probs = np.array([[0.5, 0.5], [0.2, 0.8]])
    ds = Dataset.from_arrays(probs, np.array([0, 1]))
    probs[0] = [2.0, -1.0]
    assert ds.probs_matrix[0].tolist() == [0.5, 0.5]


def test_with_probs_validates_the_new_matrix():
    ds = Dataset.from_arrays(np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([0, 1]))
    with pytest.raises(SimplexViolation):
        ds.with_probs(np.array([[0.5, 0.5], [0.2, 0.9]]))
    with pytest.raises(SchemaError):
        ds.with_probs(np.array([[0.5, 0.5]]))
    moved = ds.with_probs(np.array([[0.4, 0.6], [0.1, 0.9]]))
    assert list(zip(moved.ids, moved.labels_array.tolist())) == [("r0", 0), ("r1", 1)]


def test_validate_dataset_happy_path():
    rows = [
        {"id": "a", "confidences": [0.7, 0.1, 0.1, 0.1], "label": 0},
        {"id": "b", "confidences": [0.25, 0.25, 0.25, 0.25], "label": 3, "split": "test"},
    ]
    ds = validate_dataset(rows)
    assert ds.n == 2 and ds.k == 4


def test_validate_dataset_label_out_of_range():
    rows = [{"id": "a", "confidences": [0.25, 0.25, 0.25, 0.25], "label": 5}]
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(rows)
    assert err.value.violations[0].index == 0
    assert err.value.violations[0].kind == "LabelOutOfRange"


def test_validate_dataset_renormalizes_within_tolerance():
    rows = [{"id": "a", "confidences": [0.4000003, 0.3, 0.2, 0.1], "label": 0}]
    ds = validate_dataset(rows)
    assert math.fsum(ds.probs_matrix[0].tolist()) == pytest.approx(1.0, abs=1e-12)


def test_validate_dataset_rejects_bad_simplex():
    rows = [{"id": "a", "confidences": [0.6, 0.3, 0.2, 0.1], "label": 0}]
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(rows)
    assert err.value.violations[0].kind == "SimplexViolation"


def test_validate_dataset_collects_multiple_violations():
    rows = [
        {"id": "a", "confidences": [0.5, 0.5], "label": 0},
        {"id": "a", "confidences": [0.5, 0.5], "label": 0},
        {"confidences": [0.5, 0.5], "label": 0},
        {"id": "b", "confidences": [0.5, 0.5], "label": "x"},
    ]
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(rows)
    kinds = {v.kind for v in err.value.violations}
    assert "DuplicateId" in kinds and "SchemaError" in kinds


def _reference_validate_dataset(raw_records):
    """The per-row ingestion rules, one record at a time: the reference that
    ``validate_dataset``'s column checks must match bit for bit. Kept as the
    rules were before ingestion became columnar, with one deliberate
    difference marked below. It raises OverflowError on an integer entry too
    large for a float, which ``validate_dataset`` reports as a violation.
    It returns the accepted rows' columns, under a ``Dataset``'s names."""
    violations: list[Violation] = []
    ids: list = []
    rows: list[list[float]] = []
    labels: list[int] = []
    splits: list = []
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
        accepted: list[float] | None = None
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
                        if any(v > 1.0 for v in vals):
                            # Deliberate difference from the old rules: a row
                            # kept as it is with an entry in (1, 1 + SIMPLEX_ATOL]
                            # is one more per-row violation, not a bare
                            # SimplexViolation from the row rule.
                            violations.append(
                                Violation(i, "SimplexViolation", "confidence entry outside [0, 1]")
                            )
                        else:
                            reason = _reference_row_reason(vals)
                            if reason is not None:
                                raise SimplexViolation(reason)
                            accepted = vals
                            if k is None:
                                k = len(vals)
                            elif len(vals) != k:
                                violations.append(
                                    Violation(i, "SchemaError", f"k={len(vals)} differs from {k}")
                                )

        label = row.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            violations.append(Violation(i, "SchemaError", "'label' must be an integer"))
        elif accepted is not None and not (0 <= label < len(accepted)):
            violations.append(
                Violation(i, "LabelOutOfRange", f"label {label} outside [0, {len(accepted)})")
            )

        split = row.get("split")
        if split not in VALID_SPLITS:
            violations.append(Violation(i, "SchemaError", f"unknown split {split!r}"))

        if len(violations) == problems_before and accepted is not None:
            ids.append(rid)
            rows.append(accepted)
            labels.append(label)
            splits.append(split)
            seen_ids.add(rid)

    if violations:
        raise DatasetValidationError(violations)
    if not rows:
        raise DatasetValidationError([Violation(0, "SchemaError", "no records supplied")])
    return SimpleNamespace(
        probs_matrix=np.array(rows, dtype=float),
        labels_array=np.array(labels, dtype=np.int64),
        ids=ids,
        splits=splits,
    )


def _ingest(validate, rows):
    """What ingestion makes of rows: the dataset's columns as bytes, the
    violation list, or the class and message of another CalibrationError."""
    try:
        ds = validate(rows)
    except DatasetValidationError as exc:
        return "violations", exc.violations
    except CalibrationError as exc:
        return type(exc).__name__, str(exc)
    return (
        "dataset",
        ds.probs_matrix.shape,
        ds.probs_matrix.tobytes(),
        ds.labels_array.dtype,
        ds.labels_array.tobytes(),
        ds.ids,
        ds.splits,
    )


def _assert_ingests_like_reference(rows):
    got = _ingest(validate_dataset, rows)
    assert got == _ingest(_reference_validate_dataset, rows)
    return got


def _row(i, conf=(0.25, 0.75), label=0, **extra):
    return {"id": f"r{i}", "confidences": list(conf), "label": label, **extra}


_ABOVE_INGEST = math.nextafter(1.0 + INGEST_SIMPLEX_ATOL, 2.0)

_INGEST_CASES = {
    "non-dict-rows": [_row(0), 5, None, "row", [0.5, 0.5], _row(1)],
    "missing-and-empty-ids": [
        {"confidences": [0.5, 0.5], "label": 0},
        {"id": "", "confidences": [0.5, 0.5], "label": 0},
        {"id": 7, "confidences": [0.5, 0.5], "label": 0},
        {"id": None, "confidences": [0.5, 0.5], "label": 0},
        _row(4),
    ],
    "duplicate-after-invalid-first-then-third": [
        {"id": "a", "confidences": [0.5, 0.6], "label": 0},
        {"id": "a", "confidences": [0.5, 0.5], "label": 0},
        {"id": "a", "confidences": [0.5, 0.5], "label": 1},
        {"id": "a", "confidences": [0.5, 0.5], "label": 9, "split": "dev"},
    ],
    "duplicate-after-valid-first": [
        {"id": "a", "confidences": [0.5, 0.5], "label": 0},
        {"id": "b", "confidences": [0.5, 0.5], "label": 0},
        {"id": "a", "confidences": [0.5, 0.5], "label": 0},
        {"id": "b", "confidences": "no", "label": 0},
    ],
    "only-duplicates": [_row(0), _row(0)],
    "numpy-str-ids": [_row(0, id=np.str_("a")), _row(1, id=np.str_("b"))],
    "numpy-str-duplicate-ids": [
        _row(0, id=np.str_("a")),
        _row(1, id="b"),
        _row(2, id=np.str_("a")),
    ],
    "ragged-k": [
        _row(0, (0.2, 0.3, 0.6)),
        {"id": "r1", "confidences": [0.2, 0.3, 0.5], "label": 0, "split": "dev"},
        _row(2, (0.5, 0.5), label=2),
        _row(3, (0.1, 0.2, 0.3, 0.4), label=3),
        _row(4, (0.2, 0.8)),
        _row(5, (0.2, 0.3, 0.5), label=5),
        _row(6, (0.5,)),
        _row(7, ()),
        {"id": "r8", "confidences": 0.5, "label": 0},
        {"id": "r9", "label": 0},
    ],
    "bad-entries": [
        _row(0, (float("nan"), 0.5)),
        _row(1, (float("inf"), 0.0)),
        _row(2, (-0.25, 1.25)),
        _row(3, (-1e-300, 1.0)),
        _row(4, (_ABOVE_INGEST, 0.0)),
        _row(5, (0.5, float("-inf"), -1.0)),
        _row(6, (0.0, 0.0)),
        _row(7, (0.7, 0.7)),
    ],
    "string-bool-and-null-entries-rejected": [
        _row(0, ("0.5", "0.5")),
        _row(1, (True, False)),
        _row(2, (None, 1.0)),
        _row(3, ("abc", 0.5)),
        _row(4, ("nan", 0.5)),
        _row(5, ("1_0", 0.0)),
        _row(6, ([0.5], 0.5)),
        _row(7, ({"p": 0.5}, 0.5)),
    ],
    "string-and-bool-entries-accepted": [
        _row(0, ("0.5", "0.5")),
        _row(1, (True, False)),
        _row(2, (" 0.25 ", 0.75)),
        _row(3, (1, 0)),
        _row(4, (0, 1.0)),
    ],
    "labels": [
        _row(0, label=True),
        _row(1, label=1.0),
        _row(2, label=2**64),
        _row(3, label=-(2**70)),
        _row(4, label=10**30),
        _row(5, label=None),
        _row(6, label="1"),
        _row(7, label=-1),
        _row(8, label=2),
    ],
    "splits": [
        _row(0, split="dev"),
        _row(1, split=3),
        _row(2, split=["train"]),
        _row(3, split=""),
        _row(4, split=False),
        _row(5, split="test"),
        _row(6, split=None),
    ],
    "valid-splits-accepted": [_row(0, split="train"), _row(1, split="val"), _row(2)],
    "entry-above-one-within-simplex-tolerance": [
        _row(0, (0.5, 0.6)),
        _row(1, (1.0 + 2e-10, 0.0)),
    ],
    "first-entry-above-one-is-raised-across-lengths": [
        _row(0, (1.0 + 2e-10, 0.0, 0.0)),
        _row(1, (1.0 + 3e-10, 0.0)),
    ],
    "renormalized": [
        _row(0, (0.4000003, 0.3, 0.2, 0.1)),
        _row(1, (0.5 * (1 - 5e-7), 0.5 * (1 - 5e-7), 0.0, 0.0)),
        _row(2, (1.0 + 5e-7, 0.0, 0.0, 0.0)),
        _row(3, (-0.0, 0.25, 0.25, 0.5 + 2e-9)),
    ],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(_INGEST_CASES))
def test_validate_dataset_matches_per_row_reference(name):
    _assert_ingests_like_reference(_INGEST_CASES[name])


@pytest.mark.parametrize("k", [2, 3, 6])
def test_validate_dataset_sum_edges_match_per_row_reference(k):
    """Sums within a few ulp of 1 +- SIMPLEX_ATOL and 1 +- INGEST_SIMPLEX_ATOL:
    each row alone, and all of them together, ingest as the reference does."""
    rng = np.random.default_rng(k)
    rows, outcomes = [], set()
    for _ in range(6):
        base = rng.dirichlet(np.ones(k))
        for edge in (SIMPLEX_ATOL, -SIMPLEX_ATOL, INGEST_SIMPLEX_ATOL, -INGEST_SIMPLEX_ATOL):
            base[-1] += 1.0 + edge - math.fsum(base.tolist())
            for ulps in range(-4, 5):
                probe = base.copy()
                probe[-1] += ulps * 2.0**-53
                row = _row(len(rows), probe.tolist())
                rows.append(row)
                outcomes.add(_assert_ingests_like_reference([row])[0])
    assert outcomes == {"dataset", "violations"}
    _assert_ingests_like_reference(rows)
    accepted = [r for r in rows if _ingest(validate_dataset, [r])[0] == "dataset"]
    assert _assert_ingests_like_reference(accepted)[0] == "dataset"


def test_validate_dataset_reports_huge_integer_entries_as_out_of_range():
    """An integer too large for a float is a finite number outside [0, 1];
    a non-numeric or non-finite entry in the same row is reported first."""
    rows = [
        _row(0, (10**400, 0)),
        _row(1, (-(10**400), 1)),
        _row(2, (10**400, "abc")),
        _row(3, (float("nan"), 10**400)),
        _row(4),
    ]
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(rows)
    assert [(v.index, v.kind, v.message) for v in err.value.violations] == [
        (0, "SimplexViolation", "confidence entry outside [0, 1]"),
        (1, "SimplexViolation", "confidence entry outside [0, 1]"),
        (2, "SchemaError", "non-numeric confidence entry"),
        (3, "SimplexViolation", "non-finite confidence"),
    ]


def test_binning_config():
    assert BinningConfig(M=10).effective_bins(12345) == 10
    heur = BinningConfig(strategy="cube-root-heuristic")
    assert heur.effective_bins(3000) == 14
    assert heur.effective_bins(1000) == 10
    assert heur.effective_bins(1) == 1
    with pytest.raises(OutOfRange):
        BinningConfig(M=0)
    with pytest.raises(SchemaError):
        BinningConfig(strategy="quantile")


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Exact equality that tells -0.0 from 0.0. NaNs must sit in the same
    places; their signs are not compared, since numpy's own row max gives
    different NaN signs for C- and Fortran-ordered copies of one matrix."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    assert np.where(nan, np.nan, got).tobytes() == np.where(nan, np.nan, want).tobytes()


def _kernel_cases(k: int) -> dict:
    rng = np.random.default_rng(k)
    nan_rows = rng.dirichlet(np.ones(k), 12)
    nan_rows[rng.random((12, k)) < 0.3] = np.nan
    nan_rows[:4, 0] = -np.nan
    nan_rows[4] = np.nan
    with np.errstate(divide="ignore"):
        log_one_hot = np.log(np.eye(k))
    return {
        "dirichlet": rng.dirichlet(np.ones(k) * 0.5, 200),
        "mixed-magnitudes": rng.standard_normal((200, k)) * 10.0 ** rng.integers(-8, 9, (200, k)),
        "one-hot": np.eye(k)[rng.integers(0, k, 30)],
        "all-zero": np.zeros((5, k)),
        "signed-zeros": rng.choice([0.0, -0.0], (60, k)),
        "ties": rng.integers(0, 3, (60, k)) / 2.0,
        "log-probs-with-inf": np.vstack([log_one_hot, np.full((1, k), -np.inf)]),
        "nan-rows": nan_rows,
        "grid-stack": rng.standard_normal((3, 40, k)),
        "fortran-order": np.asfortranarray(rng.standard_normal((50, k))),
        "no-rows": np.zeros((0, k)),
    }


@pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 9, 17])
def test_row_kernels_equal_numpy_reductions(k):
    for name, a in _kernel_cases(k).items():
        with np.errstate(invalid="ignore"):
            _assert_same_bits(_row_max(a), a.max(axis=-1))
            _assert_same_bits(_row_sum(a), a.sum(axis=-1))


def test_row_kernels_keep_the_input():
    a = np.array([[-0.0, 0.5, 0.25], [0.3, -0.0, 0.7]])
    before = a.copy()
    _row_max(a), _row_sum(a)
    assert a.tobytes() == before.tobytes()
