"""Property tests over small random inputs; they need the ``test`` extra."""

import json
import math
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
    labeled_accuracy,
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
from calibkit.toylab import _tempered, _tempered_top, apply_temperature
from test_cli import _EDGE_LINES, _assert_eval_like_reference, _per_record_jsonl
from test_core import _assert_same_bits, _ingest, _reference_validate_dataset
from test_genmodel import _row_verdicts


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
    ids = [f"x{i}" for i in range(s)]
    model = FiniteGenerativeModel(k, ids, w / w.sum(), _rows(data.draw, s, k))
    predictor = Predictor(ids, _rows(data.draw, s, k))
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
    and T = 20, one temperature at a time and stacked."""
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
        full = _tempered(logp, logp_max, T)[rows, top]
        assert _tempered_top(logp, logp_max, T).tobytes() == full.tobytes()
    grid = np.array([0.05, 1.0, 20.0])[:, None, None]
    full = _tempered(logp, logp_max, grid)[:, rows, top]
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
    return FiniteGenerativeModel(k, [f"x{i}" for i in range(s)], w / w.sum(), rows)


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
    predictors = [Predictor(model.support, _rows(data.draw, s, k))]
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
