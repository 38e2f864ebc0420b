"""Property tests over small random inputs; they need the ``test`` extra."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from calibkit import cli
from calibkit.core import (
    CalibrationError,
    Dataset,
    _bad_simplex_rows,
    _row_argmax,
    _row_max,
    _row_sum,
    validate_dataset,
)
from calibkit.genmodel import (
    FiniteGenerativeModel,
    NoDisagreement,
    Predictor,
    UnreachableAccuracy,
    classify_regime,
    construct_bound_predictor,
    lower_bound_constant,
    population_cw_ece,
    tce,
    verify_ece_le_tce,
)
from calibkit.metrics import (
    _binned_gaps,
    _classwise_gaps,
    accuracy_arrays,
    binned_ece,
    conf_ece_arrays,
    cw_ece_arrays,
    metric_row,
)
from calibkit.emcal import Q_CLAMP
from calibkit.targetmap import build_target_matrix
from calibkit.toylab import _tempered_top, apply_temperature, softmax, temperature_transform
from test_cli import _EDGE_LINES, _assert_eval_like_reference, _per_record_jsonl
from test_core import _assert_same_bits, _ingest, _reference_validate_dataset
from test_genmodel import _row_verdicts, labeled_accuracy


def _rows(draw, s, k):
    """s rows of k small integer counts (at least one positive) over their sum."""
    count_row = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    counts = np.asarray(draw(st.lists(count_row, min_size=s, max_size=s)), dtype=float)
    return counts / counts.sum(axis=1, keepdims=True)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_population_cw_ece_bounded_by_tce(data):
    k = data.draw(st.integers(2, 4), label="k")
    s = data.draw(st.integers(1, 6), label="s")
    w = np.asarray(
        data.draw(st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(any)),
        dtype=float,
    )
    model = FiniteGenerativeModel(k, w / w.sum(), _rows(data.draw, s, k))
    predictor = Predictor(_rows(data.draw, s, k))
    assert population_cw_ece(model, predictor) <= tce(model, predictor) + 1e-12


# Entries that stand in for one confidence: strings and bools that float()
# accepts, non-numeric and non-finite values, and values just past 0 and 1.
_EDGE_ENTRIES = [
    "0.5", "1", True, False, None, "abc", [0.5], float("nan"), float("inf"),
    -0.0, -1e-9, 1.0 + 2e-10, 1.0 + 5e-7, 1.0 + 2e-6, 0, 1, 2,
]
# Factors that move a row's sum inside or past SIMPLEX_ATOL and INGEST_SIMPLEX_ATOL.
_SUM_SCALES = [1.0, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 5e-7, 1.0 - 5e-7, 1.0 + 2e-6]


def _raw_row(draw, i, k):
    """One raw ingestion row of k classes. Three rows in four are well formed
    (their sums may still need renormalizing); the rest break one or more
    fields, take another length, or reuse an earlier id."""
    counts = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    if draw(st.integers(0, 3)):
        scale = draw(st.sampled_from(_SUM_SCALES[:5]))
        conf = [c / sum(counts) * scale for c in counts]
        return {"id": f"r{i}", "confidences": conf, "label": draw(st.integers(0, k - 1)),
                "split": draw(st.sampled_from([None, "train", "val", "test"]))}
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, 3, "row", []]))
    k = draw(st.sampled_from([k, k, 1, 2, 3]))
    counts = (counts * k)[:k]
    scale = draw(st.sampled_from(_SUM_SCALES))
    conf = [c / (sum(counts) or 1) * scale for c in counts]
    if draw(st.booleans()):
        conf[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_EDGE_ENTRIES))
    row = {
        "id": draw(st.sampled_from([f"r{i}", f"r{i}", "r0", "r1", "", None])),
        "confidences": draw(st.sampled_from([conf] * 6 + [None, 0.5])),
        "label": draw(st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.0, None, 2**64]))),
        "split": draw(st.sampled_from([None, "train", "dev"])),
    }
    row.pop(draw(st.sampled_from([None] * 8 + ["id", "confidences", "label", "split"])), None)
    return row


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_validate_dataset_matches_per_row_reference(data):
    n = data.draw(st.integers(0, 8), label="n")
    k = data.draw(st.integers(2, 4), label="k")
    rows = [_raw_row(data.draw, i, k) for i in range(n)]
    assert _ingest(validate_dataset, rows) == _ingest(_reference_validate_dataset, rows)


# (item, key) separator pairs: json.dumps's default first, then others
# that json.loads reads.
_SEPARATORS = [(", ", ": "), (", ", ": "), (",", ":"), (", ", ":"), (",\t", ":\t"), (" , ", " :  ")]
# Ways to write one float: its repr (json.dumps's), and other texts of the
# same or a nearby value.
_FLOAT_TEXTS = [
    repr, repr, repr, "{:.17g}".format, "{:e}".format, "{:.3E}".format, "{:.20f}".format,
    lambda x: str(int(x)) if x.is_integer() else repr(x),
    lambda x: repr(-x) if x == 0.0 else repr(x),
]
_ENTRIES = [0.0, 1.0, 0.5, 0.25, 1e-05, 5e-07, 1e-300, 0.1, 1.0 + 5e-7, 0.3333333333333333]


def _pred_line(draw, i, k):
    """One prediction line with its keys in a drawn order, drawn separators
    and a drawn text for each float; mostly the canonical form."""
    entries = draw(st.lists(
        st.one_of(st.sampled_from(_ENTRIES), st.floats(0.0, 1.0)), min_size=k, max_size=k
    ))
    if draw(st.integers(0, 4)):
        total = math.fsum(entries) or 1.0
        entries = [e / total for e in entries]
    canonical = draw(st.integers(0, 2)) > 0
    item, key = _SEPARATORS[0] if canonical else draw(st.sampled_from(_SEPARATORS))
    to_text = repr if canonical else draw(st.sampled_from(_FLOAT_TEXTS))
    fields = {
        # The last id is "q{i}" written with an escape.
        "id": '"%s"' % draw(st.sampled_from([f"q{i}"] * 6 + ["q0", f"a-b_C{i}", "\\u0071%d" % i])),
        "confidences": "[" + item.join(to_text(e) for e in entries) + "]",
        "label": str(draw(st.sampled_from([0, 1, k - 1] * 5 + [k]))),
    }
    split = draw(st.sampled_from([None, None, "train", "val", "test", "null"]))
    if split is not None:
        fields["split"] = split if split == "null" else f'"{split}"'
    order = list(fields)
    if draw(st.integers(0, 3)) == 0:
        order = draw(st.permutations(order))
    return "{" + item.join(f'"{name}"{key}{fields[name]}' for name in order) + "}"


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_eval_reads_any_formatting_like_json_loads(data):
    k = data.draw(st.integers(2, 4), label="k")
    n = data.draw(st.integers(1, 10), label="n")
    lines = [
        _pred_line(data.draw, i, data.draw(st.sampled_from([k] * 9 + [3]))) for i in range(n)
    ]
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preds.jsonl"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        _assert_eval_like_reference(path)


def _mixed_line(draw, i, k):
    """One line of a file that mixes the reader's routes: a strict line in
    the README or the sorted key order (mostly of k entries, some of k + 1),
    an ``_EDGE_LINES`` line, or a blank one."""
    kind = draw(st.sampled_from(["readme"] * 4 + ["sorted"] * 4 + ["edge", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "edge":
        return _EDGE_LINES[draw(st.sampled_from(sorted(_EDGE_LINES)))][0]
    width = draw(st.sampled_from([k] * 5 + [k + 1]))
    row = {
        "id": draw(st.sampled_from([f"q{i}"] * 8 + ["q0"])),
        "confidences": _rows(draw, 1, width)[0].tolist(),
        "label": draw(st.sampled_from([0, width - 1] * 4 + [width])),
    }
    split = draw(st.sampled_from([None, None, "train", "test"]))
    if split is not None:
        row["split"] = split
    return json.dumps(row, sort_keys=kind == "sorted")


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_eval_reads_mixed_chunks_like_json_loads(data):
    """Chunks of 1 to 4 lines that are all strict in one form, or mix the
    forms, entry counts, json.loads lines, blank lines and line endings,
    read like json.loads on every line."""
    k = data.draw(st.integers(2, 3), label="k")
    n = data.draw(st.integers(1, 12), label="n")
    lines = [_mixed_line(data.draw, i, k) for i in range(n)]
    ends = data.draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK_ROWS", data.draw(st.integers(1, 4), label="chunk rows"))
        path = Path(tmp) / "preds.jsonl"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
        _assert_eval_like_reference(path)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_stacked_binned_gaps_equal_the_per_row_call(data):
    M = data.draw(st.sampled_from([1, 7, 10, 13]), label="M")
    G = data.draw(st.integers(1, 5), label="G")
    n = data.draw(st.integers(1, 24), label="n")
    edges = [m / M for m in range(M + 1)]
    value = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    values = np.asarray(
        data.draw(st.lists(value, min_size=G * n, max_size=G * n)), dtype=float
    ).reshape(G, n)
    events = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=G * n, max_size=G * n))
    ).reshape(G, n)
    gaps, counts, mean_conf, freq = _binned_gaps(values, events, M)
    assert gaps.shape == (G,) and counts.shape == mean_conf.shape == freq.shape == (G, M)
    for g in range(G):
        gap, c, v, f = _binned_gaps(values[g], events[g], M)
        assert type(gap) is float and gap == gaps[g]
        assert c.tolist() == counts[g].tolist()
        assert v.tobytes() == mean_conf[g].tobytes() and f.tobytes() == freq[g].tobytes()


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_row_kernels_equal_numpy_reductions(data):
    k = data.draw(st.integers(1, 17), label="k")
    lead = data.draw(st.sampled_from([(), (3,), (2, 3)]), label="lead")
    size = int(np.prod(lead, dtype=int)) * k
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan, -np.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    a = np.asarray(data.draw(st.lists(entry, min_size=size, max_size=size)),
                   dtype=float).reshape(lead + (k,))
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_same_bits(_row_max(a), a.max(axis=-1))
        _assert_same_bits(_row_sum(a), a.sum(axis=-1))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_row_argmax_equals_numpy_argmax(data):
    """Ties (the first index wins), -0.0/0.0 ties, one-hot rows and NaN rows,
    at k = 2..10, on (0, k), (1, k) and taller matrices."""
    k = data.draw(st.integers(2, 10), label="k")
    n = data.draw(st.sampled_from([0, 1, 2, 5, 12]), label="n")
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan]),
        st.floats(0.0, 1.0),
    )
    a = np.asarray(data.draw(st.lists(entry, min_size=n * k, max_size=n * k)),
                   dtype=float).reshape(n, k)
    hot = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    for i in range(n):
        if data.draw(st.integers(0, 3)) == 0:
            a[i] = 0.0
            a[i, hot[i]] = 1.0
    expected = np.argmax(a, axis=-1)
    got = _row_argmax(a)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tolist() == expected.tolist()


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_classwise_ece_equals_the_per_class_loop(data):
    """metric_row's cw-ECE, binned on the row-major matrix, equals the sum in
    class order of binned_ece on each class column against labels == j, and
    each class's table equals that column's own call; labels may be floats
    and may lie outside [0, k)."""
    k = data.draw(st.integers(2, 9), label="k")
    n = data.draw(st.integers(1, 30), label="n")
    M = data.draw(st.sampled_from([1, 5, 10, 13]), label="M")
    edges = [m / 10 for m in range(11)]
    value = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    probs = np.asarray(data.draw(st.lists(value, min_size=n * k, max_size=n * k)),
                       dtype=float).reshape(n, k)
    labels = np.asarray(data.draw(st.lists(st.integers(-1, k), min_size=n, max_size=n)))
    if data.draw(st.booleans(), label="float labels"):
        labels = labels.astype(float)
        labels[: data.draw(st.integers(0, n))] += data.draw(st.sampled_from([0.0, 0.5]))
    expected = sum(binned_ece(probs[:, j], labels == j, M) for j in range(k)) / k
    assert metric_row(probs, labels, M)["cw_ece"] == expected
    cw, counts, mean_conf, freq = _classwise_gaps(probs, labels, M)
    assert cw == expected
    for j in range(k):
        _, c, v, f = _binned_gaps(probs[:, j], labels == j, M)
        assert c.tolist() == counts[j].tolist()
        assert v.tobytes() == mean_conf[j].tobytes() and f.tobytes() == freq[j].tobytes()


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_tempered_top_equals_the_full_softmax_entry(data):
    """The tempered top taken as 1 / row sum equals the tempered softmax's
    entry at the source argmax, on near-ties, one-hot rows (whose log holds
    -inf), k = 2 and k >= 8 (the tensor path), at the grid's ends T = 0.05
    and T = 20, one temperature at a time and stacked. The tempered matrix
    itself is softmax(logp / T) bit for bit."""
    k = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), label="k")
    n = data.draw(st.integers(1, 6), label="n")
    probs = np.stack([_tie_row(data.draw, k) for _ in range(n)])
    for i in range(n):
        if data.draw(st.integers(0, 3)) == 0:
            probs[i] = np.eye(k)[data.draw(st.integers(0, k - 1))]
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    logp_max = _row_max(logp)[:, None]
    rows, top = np.arange(n), _row_argmax(probs)
    for T in (0.05, 20.0):
        tempered = softmax(logp / T)
        assert temperature_transform(probs, T).tobytes() == tempered.tobytes()
        assert _tempered_top(logp, logp_max, T).tobytes() == tempered[rows, top].tobytes()
    grid = np.array([0.05, 1.0, 20.0])[:, None, None]
    full = softmax(logp / grid)[:, rows, top]
    assert _tempered_top(logp, logp_max, grid).tobytes() == full.tobytes()


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_rows_at_the_tolerance_edge_get_one_verdict(data):
    # A row in (0, 1) whose exact sum sits 1e-9 from 1, then moved by up to
    # 8 ulp of its largest entry: the vectorized and exact sums straddle
    # SIMPLEX_ATOL in both directions.
    k = data.draw(st.integers(2, 9), label="k")
    row = np.asarray(
        data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)), dtype=float
    )
    row /= row.sum()
    top = int(np.argmax(row))
    row[top] += 1.0 + data.draw(st.sampled_from([-1e-9, 1e-9])) - math.fsum(row)
    toward = np.inf if data.draw(st.booleans()) else -np.inf
    for _ in range(data.draw(st.integers(0, 8), label="ulps")):
        row[top] = np.nextafter(row[top], toward)
    verdicts = _row_verdicts(row)
    assert len(set(verdicts)) == 1, verdicts
    # Below the ingestion tolerance, validate_dataset renormalizes exactly
    # the rows that the row rule rejects and keeps the others as given.
    ds = validate_dataset([{"id": "a", "confidences": row.tolist(), "label": 0}])
    assert (ds.probs_matrix[0].tobytes() != row.tobytes()) == (not verdicts[0])


def _tie_row(draw, k):
    """A probability row of k classes; about half have two top entries a
    few ulp apart or equal."""
    counts = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    row = np.asarray(counts, dtype=float)
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        row[i] = row[j] = row.max()
    row /= row.sum()
    if draw(st.booleans()):
        i = int(np.argmax(row))
        for _ in range(draw(st.integers(1, 3))):
            row[i] = np.nextafter(row[i], draw(st.sampled_from([0.0, 1.0])))
    return row


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_tempering_keeps_every_unique_argmax(data):
    k = data.draw(st.integers(2, 5), label="k")
    n = data.draw(st.integers(1, 6), label="n")
    probs = np.stack([_tie_row(data.draw, k) for _ in range(n)])
    T = data.draw(st.sampled_from([0.05, 0.5, 1.0, 2.0, 13.0, 20.0, 1e3]), label="T")
    try:
        ds = Dataset.from_arrays(probs, np.zeros(n, dtype=np.int64))
    except CalibrationError:
        hypothesis.reject()
    tempered = apply_temperature(ds, T).probs_matrix
    unique = (tempered == _row_max(tempered)[:, None]).sum(axis=1) == 1
    source_top = np.argmax(probs, axis=1)
    assert (np.argmax(tempered, axis=1) == source_top)[unique].all()


def _range_row(draw, k):
    """A probability row of k classes: one-hot, with zero entries, or with
    a near-tie at the top."""
    kind = draw(st.sampled_from(["one-hot", "zeros", "near-tie"]))
    if kind == "one-hot":
        return np.eye(k)[draw(st.integers(0, k - 1))]
    if kind == "near-tie":
        return _tie_row(draw, k)
    counts = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    return np.asarray(counts, dtype=float) / sum(counts)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_every_metric_lies_in_the_unit_interval(data):
    k = data.draw(st.integers(2, 9), label="k")
    n = data.draw(st.integers(1, 60), label="n")
    M = data.draw(st.integers(1, 20), label="M")
    probs = np.stack([_range_row(data.draw, k) for _ in range(n)])
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    ds = Dataset.from_arrays(probs, np.asarray(labels))
    probs, labels = ds.probs_matrix, ds.labels_array
    values = [
        accuracy_arrays(probs, labels),
        conf_ece_arrays(probs, labels, M)[0],
        cw_ece_arrays(probs, labels, M)[0],
        *metric_row(probs, labels, M).values(),
    ]
    assert all(0.0 <= v <= 1.0 for v in values), values


def _order_kept(conf: list[float], out: list[float], top: int) -> bool:
    """No pair of entries with conf[a] > conf[b] comes out with
    out[a] < out[b], and a strict top input stays a strict top output."""
    k = len(conf)
    if any(conf[a] > conf[b] and out[a] < out[b] for a in range(k) for b in range(k)):
        return False
    tail = [j for j in range(k) if j != top]
    strict_in = conf[top] > max(conf[j] for j in tail)
    return not strict_in or out[top] > max(out[j] for j in tail)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_target_rows_are_simplex_rows_with_an_exact_rank_flag(data):
    """build_target_matrix on near-ties, one-hot rows and rows with zeros,
    at k = 2..9 and q anywhere in [Q_CLAMP, 1 - Q_CLAMP] (its ends, 1/k and
    their neighbours included): every target passes the row rule, pins the
    top class at q, and its rank flag equals a pairwise order check."""
    k = data.draw(st.integers(2, 9), label="k")
    n = data.draw(st.integers(1, 6), label="n")
    conf = np.stack([_range_row(data.draw, k) for _ in range(n)])
    edges = [Q_CLAMP, 1.0 - Q_CLAMP, 1.0 / k]
    edges += [np.nextafter(e, 0.5) for e in edges] + [np.nextafter(1.0 / k, 0.0)]
    q_value = st.one_of(st.sampled_from(edges), st.floats(Q_CLAMP, 1.0 - Q_CLAMP))
    q = np.asarray(data.draw(st.lists(q_value, min_size=n, max_size=n), label="q"))
    out, top, rank = build_target_matrix(conf, q)
    assert not _bad_simplex_rows(out).any()
    assert top.tolist() == np.argmax(conf, axis=1).tolist()
    assert out[np.arange(n), top].tobytes() == q.tobytes()
    for i in range(n):
        assert bool(rank[i]) == _order_kept(conf[i].tolist(), out[i].tolist(), int(top[i]))


# Rows of k = 3 that the simulate writer must keep apart or format exactly:
# two rows equal as floats but not as bytes, one-hot rows, the smallest
# subnormal, and entries whose reprs carry an exponent.
_WRITER_ROWS = [
    [0.5, 0.5, -0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
    [5e-324, 0.5, 0.5], [2.5e-05, 0.499975, 0.5], [1e-20, 0.25, 0.75],
    [1 / 3, 1 / 3, 1 / 3], [0.1, 0.2, 0.7],
]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_prediction_lines_equal_a_per_record_json_writer(data):
    picks = data.draw(st.lists(st.integers(0, len(_WRITER_ROWS) - 1), min_size=1, max_size=12))
    probs = np.asarray([_WRITER_ROWS[i] for i in picks])
    labels = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=len(picks),
                                           max_size=len(picks))))
    ds = Dataset.from_arrays(probs, labels)
    expected = _per_record_jsonl(ds)
    with pytest.MonkeyPatch.context() as mp:
        # Small chunks, so repeated rows straddle chunk boundaries.
        mp.setattr(cli, "_CHUNK_ROWS", data.draw(st.integers(1, 4), label="chunk rows"))
        assert "".join(cli._prediction_lines(ds)) == expected


def _sweep_model(draw):
    """A finite model with s <= 40 points and k from 2 to 6: integer weights
    with some zero, and label rows drawn from a small pool, so rows repeat
    and many have tied top entries."""
    k = draw(st.integers(2, 6), label="k")
    s = draw(st.integers(1, 40), label="s")
    w = np.asarray(
        draw(st.lists(st.integers(0, 7), min_size=s, max_size=s).filter(any)), dtype=float
    )
    pool = _rows(draw, draw(st.integers(1, 4)), k)
    rows = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=s, max_size=s))]
    return FiniteGenerativeModel(k, w / w.sum(), rows)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_bound_theorems_hold_on_random_finite_models(data):
    """The bound construction (targets include 0 and 1), cw-ECE <= TCE and
    the lower-bound constant, on the constructed predictor and a random one."""
    model = _sweep_model(data.draw)
    s, k = model.n_support, model.k
    labels = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=s, max_size=s)))
    target = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    reference = Predictor.from_model(model)
    predictors = [Predictor(_rows(data.draw, s, k))]
    try:
        built = construct_bound_predictor(model, labels, target)
    except UnreachableAccuracy:
        pass
    else:
        achieved, a_star = built.achieved_acc, built.reference_acc
        assert tce(model, built.predictor) <= 2 * abs(achieved - a_star) + 1e-12
        assert abs(labeled_accuracy(model, built.predictor, labels) - achieved) <= 1e-12
        regime = classify_regime(achieved, a_star)
        assert regime == ("calibratable" if achieved <= a_star else "non-calibratable")
        predictors.append(built.predictor)
    for pi in predictors:
        assert verify_ece_le_tce(model, pi)[2]
        try:
            assert lower_bound_constant(model, reference, pi)[1]
        except NoDisagreement:
            pass


_FLOAT_EDGES = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, -math.inf, math.nan]


def _flag(data, label, typical, edges):
    """A flag value: one time in six an edge, which the flag's checks must
    reject or the run must survive, else a typical value."""
    if data.draw(st.integers(0, 5), label=f"{label} is an edge") == 0:
        return data.draw(st.sampled_from(edges), label=label)
    return data.draw(typical, label=label)


_SEED_EDGES = [-1, 0, 2**64]
_TRAIN_TOY_MODES = ("sft-only", "cft", "rcft", "ece-only", "label-smooth", "ts")
_METRIC_LINE = re.compile(r"(before|after): +acc=(\S+) conf_ece=(\S+)")


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_train_toy_numeric_flags_exit_with_a_documented_code(data):
    """train-toy at tiny sizes over random --lr, --lambda, --tau, --epsilon,
    --bins, --n, --k and --seed, in every mode: the exit code is 0 to 3, a failed
    run prints exactly one ``error:`` line, and a run that succeeds prints
    finite metrics. Warnings are errors under pytest, so a numpy warning
    from the training steps fails the case."""
    mode = data.draw(st.sampled_from(_TRAIN_TOY_MODES), label="mode")
    flags = {
        "--lr": _flag(data, "lr", st.floats(1e-3, 50.0), _FLOAT_EDGES),
        "--lambda": _flag(data, "lam", st.floats(0.0, 20.0), _FLOAT_EDGES),
        "--tau": _flag(data, "tau", st.floats(1e-3, 100.0), _FLOAT_EDGES),
        "--epsilon": _flag(data, "epsilon", st.floats(0.0, 0.99), _FLOAT_EDGES + [0.999, 1.0]),
        "--bins": _flag(data, "bins", st.integers(1, 25), [-1, 0]),
        "--n": _flag(data, "n", st.integers(1, 12), [-1, 0, 2**64]),
        "--k": _flag(data, "k", st.integers(2, 6), [-1, 0, 1, 2**64]),
        "--seed": _flag(data, "seed", st.integers(0, 2**32), _SEED_EDGES),
    }
    argv = ["train-toy", "--mode", mode, "--dim", "3", "--epochs", "3", "--em-epochs", "2",
            *(f"{flag}={value!r}" for flag, value in flags.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    hypothesis.event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 0:
        assert errors == []
        metrics = _METRIC_LINE.findall(out.getvalue())
        assert [m[0] for m in metrics] == ["before", "after"]
        assert all(math.isfinite(float(v)) for m in metrics for v in m[1:])
    else:
        assert len(errors) == 1


@pytest.mark.parametrize("seed", _SEED_EDGES)
def test_simulate_seed_edges_exit_with_a_documented_code(seed):
    """A negative --seed exits 2 with one ``error:`` line before a model is
    built; 0 and 2**64 are seeds like any other and print finite metrics."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--n", "50", "--k", "3", "--support", "5",
                         f"--seed={seed}"])
    if seed < 0:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: --seed must be >= 0\n")
    else:
        assert (code, err.getvalue()) == (0, "")
        values = [line.split("=")[1] for line in out.getvalue().splitlines()]
        assert len(values) == 3 and all(math.isfinite(float(v)) for v in values)


# The edge pool of the CLI sweeps. A size beyond int64 asks for more than
# physical memory, which the CLI rejects before it builds anything.
_EDGE_POOL = [0, -1, 5e-324, 1e-320, 1e-300, 1e300, math.inf, -math.inf, math.nan,
              2**63, 2**64, 10**30]
# An error line of calibkit, or of argparse (a value that is no int).
_ERROR_LINE = re.compile(r"^(calibkit [a-z-]+: )?error: ", re.M)


def _cli_bytes(argv: list[str], outputs: list[Path]) -> tuple:
    """The exit code, stdout, stderr and the bytes of each output file (None
    if not written) of one in-process CLI run; argparse's exit is taken as
    ``run`` takes it."""
    for path in outputs:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    files = tuple(path.read_bytes() if path.exists() else None for path in outputs)
    return code, stdout.getvalue(), stderr.getvalue(), *files


def _run_twice(argv: list[str], outputs: list[Path]) -> tuple:
    """``_cli_bytes`` of a run, checked against a rerun's bytes and against
    the exit-code contract: the code is 0 to 3, and a failed run prints an
    ``error:`` line."""
    first = _cli_bytes(argv, outputs)
    assert _cli_bytes(argv, outputs) == first
    code, _, err = first[:3]
    hypothesis.event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert code == 0 or _ERROR_LINE.search(err)
    return first


def _finite_json(data: bytes):
    """The JSON value of ``data``, which must hold no NaN or infinity."""
    def reject(name):
        raise AssertionError(f"non-finite {name} in JSON output")

    return json.loads(data, parse_constant=reject)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_simulate_flags_exit_with_a_documented_code(data):
    """simulate at small sizes over random --n, --k, --support, --alpha,
    --bins and --seed, one time in six drawn from an edge pool, for each
    model kind: the exit code is 0 to 3, a failed run prints an ``error:``
    line, a run that succeeds prints finite metrics, and a rerun gives the
    same bytes. Warnings are errors under pytest."""
    flags = {
        "--model": data.draw(st.sampled_from(["pure-random", "deterministic", "dirichlet"]),
                             label="model"),
        "--n": _flag(data, "n", st.integers(1, 40), _EDGE_POOL),
        "--k": _flag(data, "k", st.integers(2, 5), _EDGE_POOL),
        "--support": _flag(data, "support", st.integers(1, 6), _EDGE_POOL),
        "--alpha": _flag(data, "alpha", st.floats(0.05, 20.0), _EDGE_POOL),
        "--bins": _flag(data, "bins", st.integers(1, 25), _EDGE_POOL),
        "--seed": _flag(data, "seed", st.integers(0, 2**32), _EDGE_POOL),
    }
    argv = ["simulate", *(f"{flag}={value}" for flag, value in flags.items())]
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "sim"
        code, out, err, jsonl, model = _run_twice(
            [*argv, f"--out={prefix}"], [Path(f"{prefix}.jsonl"), Path(f"{prefix}.model.json")]
        )
    if code == 0:
        assert err == ""
        values = [line.split("=")[1] for line in out.splitlines()]
        assert len(values) == 3 and all(math.isfinite(float(v)) for v in values)
        assert json.loads(model)["k"] == flags["--k"]
        assert len(jsonl.splitlines()) == flags["--n"]
    else:
        assert (jsonl, model) == (None, None)


_BOUNDS_LINE = re.compile(
    r"target=\S+ achieved=(\S+) tce=(\S+) envelope=(\S+) regime=(calibratable|non-calibratable)$"
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_bounds_flags_exit_with_a_documented_code(data):
    """bounds on a small random model over random --acc-star and --acc-grid
    values, one time in six drawn from the edge pool: the exit-code contract
    and rerun bytes of ``_run_twice``, and a run that succeeds prints finite
    values and writes a CSV row of finite values for each target."""
    model = _sweep_model(data.draw)
    acc_star = _flag(data, "acc star", st.floats(0.0, 1.0), _EDGE_POOL)
    grid = data.draw(st.lists(st.floats(0.0, 1.0), max_size=3), label="grid")
    grid = [_flag(data, "target", st.just(t), _EDGE_POOL) for t in grid]
    with tempfile.TemporaryDirectory() as tmp:
        model_path, csv_path = Path(tmp) / "m.model.json", Path(tmp) / "c.csv"
        model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
        argv = ["bounds", f"--model={model_path}", f"--acc-star={acc_star}",
                f"--acc-grid={','.join(map(str, grid))}", f"--out={csv_path}"]
        code, out, err, csv = _run_twice(argv, [csv_path])
    if code == 0:
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == len(grid)
        for line in lines:
            values = _BOUNDS_LINE.match(line).groups()[:3]
            assert all(math.isfinite(float(v)) for v in values)
        rows = csv.decode().splitlines()
        assert len(rows) == len(grid) + 1
        for row in rows[1:]:
            fields = row.split(",")
            assert len(fields) == 7 and fields[6] in ("true", "false")
            assert all(math.isfinite(float(v)) for v in fields[:6] if v)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_eval_bins_exit_with_a_documented_code(data):
    """eval of a small valid file over random --bins values, one time in six
    drawn from the edge pool or a word: the exit-code contract and rerun
    bytes of ``_run_twice``, and a run that succeeds prints finite metrics
    and writes a report of finite values and an SVG."""
    k = data.draw(st.integers(2, 4), label="k")
    n = data.draw(st.integers(1, 8), label="n")
    probs = _rows(data.draw, n, k)
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="labels")
    bins = _flag(data, "bins", st.integers(1, 25), _EDGE_POOL + ["heuristic", "ten", ""])
    with tempfile.TemporaryDirectory() as tmp:
        pred, report, plot = Path(tmp) / "p.jsonl", Path(tmp) / "r.json", Path(tmp) / "s.svg"
        pred.write_text("".join(
            json.dumps({"id": f"r{i}", "confidences": row, "label": label}) + "\n"
            for i, (row, label) in enumerate(zip(probs.tolist(), labels))
        ), encoding="utf-8")
        argv = ["eval", str(pred), f"--bins={bins}", f"--report={report}", f"--plot={plot}"]
        code, out, err, report_bytes, svg = _run_twice(argv, [report, plot])
    if code == 0:
        assert err == ""
        head, *metrics = out.splitlines()
        assert head.startswith(f"n={n} k={k} M=")
        assert [m.split("=")[0] for m in metrics] == ["accuracy", "conf_ece", "cw_ece"]
        assert all(math.isfinite(float(m.split("=")[1])) for m in metrics)
        assert _finite_json(report_bytes)["n"] == n
        assert svg.startswith(b"<svg")
    else:
        assert (report_bytes, svg) == (None, None)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_winrate_pairs_exit_with_a_documented_code(data):
    """winrate over a file of up to four pairs whose log-probabilities are
    random, one time in six drawn from the edge pool, and whose ids are
    sometimes empty, repeated or no string: the exit-code contract and rerun
    bytes of ``_run_twice``, and a run that succeeds prints the pair count
    and a finite win rate in [0, 1]."""
    rows = []
    for i in range(data.draw(st.integers(0, 4), label="pairs")):
        rows.append({
            "id": _flag(data, "id", st.just(f"p{i}"), ["", "p0", 7]),
            "logp_chosen": _flag(data, "chosen", st.floats(-50.0, 0.0), _EDGE_POOL),
            "logp_reject": _flag(data, "reject", st.floats(-50.0, 0.0), _EDGE_POOL),
        })
    with tempfile.TemporaryDirectory() as tmp:
        pairs = Path(tmp) / "pairs.jsonl"
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code, out, err = _run_twice(["winrate", f"--pairs={pairs}"], [])
    if code == 0:
        assert err == ""
        match = re.fullmatch(r"pairs=(\d+) wins=(\d+) win_rate=(\S+)\n", out)
        assert int(match[1]) == len(rows) and int(match[2]) <= len(rows)
        assert 0.0 <= float(match[3]) <= 1.0
