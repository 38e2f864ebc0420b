import argparse
import contextlib
import io
import json
import tracemalloc
from operator import methodcaller
from unittest import mock

import numpy as np
import pytest

from calibkit import cli, emcal, genmodel, toylab
from calibkit.cli import main
from calibkit.core import validate_dataset
from calibkit.emcal import NonFiniteGradient
from calibkit.genmodel import (
    Predictor,
    construct_bound_predictor,
    labels_matching_accuracy,
    make_model,
    sample_dataset,
)
from test_core import _ingest
from test_genmodel import _reference_population_cw_ece


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


@pytest.fixture
def pred_file(tmp_path):
    rows = [
        {"id": f"r{i}", "confidences": [0.8, 0.1, 0.05, 0.05], "label": 0 if i < 2 else 1}
        for i in range(4)
    ]
    path = tmp_path / "preds.jsonl"
    _write_jsonl(path, rows)
    return path


def test_eval_prints_metrics_and_writes_report(pred_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    plot_path = tmp_path / "plot.svg"
    code = main([
        "eval", str(pred_file), "--report", str(report_path), "--plot", str(plot_path)
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy=0.5" in out
    assert "conf_ece=0.30000000000000004" in out

    report = json.loads(report_path.read_text())
    assert report["n"] == 4 and report["k"] == 4 and report["M"] == 10
    assert abs(report["conf_ece"] - 0.3) < 1e-12

    svg = plot_path.read_text()
    assert svg.startswith("<svg") and "line" in svg


def test_eval_malformed_line_names_line_number(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "confidences": [0.5, 0.5], "label": 0}\nnot-json\n', encoding="utf-8"
    )
    code = main(["eval", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_eval_reports_every_bad_json_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "confidences": [0.5, 0.5], "label": 0}'
    path.write_text(f"{good}\nnot-json\n\n{{broken\n", encoding="utf-8")
    code = main(["eval", str(path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert [ln.split(": invalid JSON: ")[0] for ln in err] == [
        "error: line 2", "error: line 4"
    ]


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["train-toy", "--k", "1"], "BadParams"),
        (["train-toy", "--lr", "0", "--n", "40", "--dim", "4", "--epochs", "2"],
         "BadParams"),
        (["eval", "PRED", "--bins", "0"], "OutOfRange"),
        (["train-toy", "--mode", "cft", "--lr", "nan", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["train-toy", "--mode", "cft", "--lambda", "nan", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["train-toy", "--mode", "sft-only", "--lr", "-1", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["train-toy", "--mode", "ts", "--lr", "0", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["train-toy", "--mode", "label-smooth", "--epochs", "-3", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["train-toy", "--mode", "ece-only", "--lr", "0", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["train-toy", "--mode", "rcft", "--lr", "0", "--n", "40", "--dim", "4"],
         "BadParams"),
        (["eval", "/nonexistent", "--bins", "abc"], "BadParams"),
    ],
    ids=["train-toy-k-1", "train-toy-lr-0", "eval-bins-0", "train-toy-cft-lr-nan",
         "train-toy-cft-lambda-nan", "train-toy-sft-lr-negative", "train-toy-ts-lr-0",
         "train-toy-smooth-epochs-negative", "train-toy-ece-only-lr-0",
         "train-toy-rcft-lr-0", "eval-bins-abc-before-missing-file"],
)
def test_calibration_errors_exit_2_with_one_error_line(argv, kind, pred_file, capsys):
    code = main([str(pred_file) if a == "PRED" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def diverge(**kwargs):
        raise NonFiniteGradient("linear policy gradient is not finite")

    monkeypatch.setattr(toylab, "gen_toy_task", diverge)
    assert main(["train-toy"]) == 3
    assert capsys.readouterr().err.startswith("error: NonFiniteGradient: ")


def test_eval_integer_too_long_for_json_is_a_bad_line(tmp_path, capsys):
    """An integer literal over the int parser's 4300-digit limit is reported
    like any other bad JSON line."""
    path = tmp_path / "long.jsonl"
    good = '{"id": "a", "confidences": [0.5, 0.5], "label": 0}'
    long_label = '{"id": "b", "confidences": [0.5, 0.5], "label": 1' + "0" * 4300 + "}"
    path.write_text(f"{good}\n{long_label}\nnot-json\n", encoding="utf-8")
    code = main(["eval", str(path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert [ln.split(": invalid JSON: ")[0] for ln in err] == ["error: line 2", "error: line 3"]
    assert "4300" in err[0]


def test_eval_integer_entry_too_large_for_a_float_is_out_of_range(tmp_path, capsys):
    path = tmp_path / "huge.jsonl"
    good = '{"id": "a", "confidences": [0.5, 0.5], "label": 0}'
    huge = '{"id": "b", "confidences": [1' + "0" * 400 + ', 0], "label": 0}'
    path.write_text(f"{good}\n{huge}\n", encoding="utf-8")
    code = main(["eval", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 2: SimplexViolation: confidence entry outside [0, 1]\n"
    )


def test_eval_entry_just_above_one_is_a_per_line_violation(tmp_path, capsys):
    """A row kept without renormalizing may hold an entry in (1, 1 + 1e-9];
    it is reported on its own line, and other lines' violations still are."""
    path = tmp_path / "above.jsonl"
    path.write_text(
        '{"id": "a", "confidences": [0.5, 0.6], "label": 0}\n'
        '{"id": "b", "confidences": [1.0000000002, 0.0], "label": 0}\n',
        encoding="utf-8",
    )
    code = main(["eval", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 1: SimplexViolation: confidences sum to 1.1, beyond tolerance\n"
        "error: line 2: SimplexViolation: confidence entry outside [0, 1]\n"
    )


def _model_json(k=2, weight=0.5, second_dist=(0.5, 0.5)) -> bytes:
    return json.dumps({"k": k, "support": [
        {"id": "a", "weight": weight, "label_dist": [0.5, 0.5]},
        {"id": "b", "weight": 0.5, "label_dist": list(second_dist)},
    ]}).encode()


_NOT_UTF8 = b'{"id": "a", "confidences": [0.5, 0.5], "label": 0}\n\xff\xfe\n'
# One JSON line nested deeper than the decoder's recursion limit.
_TOO_DEEP = b"[" * 200_000 + b"\n"


@pytest.mark.parametrize(
    "command, content",
    [
        (["eval"], _NOT_UTF8),
        (["bounds", "--model"], _NOT_UTF8),
        (["winrate", "--pairs"], _NOT_UTF8),
        (["bounds", "--model"], _model_json(k="x")),
        (["bounds", "--model"], _model_json(k=2.7)),
        (["bounds", "--model"], _model_json(weight="abc")),
        (["bounds", "--model"], _model_json(second_dist=(1.0,))),
        (["bounds", "--model"], _model_json(second_dist=(0.6, 0.5))),
        (["bounds", "--model"], b'{"k": 2' + b"0" * 4300 + b', "support": []}'),
        (["winrate", "--pairs"],
         b'{"id": "p", "logp_chosen": 1' + b"0" * 400 + b', "logp_reject": 0.0}\n'),
        (["eval"], _TOO_DEEP),
        (["bounds", "--model"], _TOO_DEEP),
        (["winrate", "--pairs"], _TOO_DEEP),
    ],
    ids=["eval-not-utf8", "bounds-not-utf8", "winrate-not-utf8", "model-k-string",
         "model-k-float", "model-weight-string", "model-ragged-label-dist",
         "model-label-dist-sums-to-1.1",
         "model-int-over-4300-digits", "winrate-int-too-large-for-float",
         "eval-nested-too-deep", "bounds-nested-too-deep", "winrate-nested-too-deep"],
)
def test_malformed_input_files_exit_2_without_traceback(command, content, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(content)
    code = main(command + [str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_empty_support_names_the_problem(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"k": 2, "support": []}', encoding="utf-8")
    code = main(["bounds", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: bad model file: support must be nonempty\n"


def test_eval_validation_error_reports_kind(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"id": "a", "confidences": [0.25, 0.25, 0.25, 0.25], "label": 9}])
    code = main(["eval", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "LabelOutOfRange" in err


def test_eval_diagnostics_survive_blank_lines(tmp_path, capsys):
    path = tmp_path / "gaps.jsonl"
    good = '{"id": "a", "confidences": [0.5, 0.5], "label": 0}'
    bad = '{"id": "b", "confidences": [0.5, 0.5], "label": 7}'
    path.write_text(f"{good}\n\n\n{bad}\n", encoding="utf-8")
    code = main(["eval", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 4" in err


class _ReferenceColumns:
    """The reference reader: ``json.loads`` on every nonblank line, then
    ``validate_dataset`` on the parsed rows."""

    def __init__(self, fh):
        self.rows, self.lines, self.bad_json = [], [], []
        for ln, value, error in cli._jsonl_values(fh):
            if error is None:
                self.rows.append(value)
                self.lines.append(ln)
            else:
                self.bad_json.append(error)

    def validate(self):
        return validate_dataset(self.rows)


def _eval_run(path, *flags):
    """Exit code, stdout, stderr, report bytes and plot bytes of one eval."""
    report, plot = path.with_suffix(".report.json"), path.with_suffix(".svg")
    for p in (report, plot):
        p.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", str(path), *flags, "--report", str(report), "--plot", str(plot)])
    files = [p.read_bytes() if p.exists() else None for p in (report, plot)]
    return code, out.getvalue(), err.getvalue(), *files


def _assert_eval_like_reference(path, *flags):
    """The reader's dataset or violations, and eval's outputs, on ``path``
    equal those of the reference reader."""
    with open(path, encoding="utf-8") as fh:
        cols = cli._PredictionColumns(fh)
    with open(path, encoding="utf-8") as fh:
        ref = _ReferenceColumns(fh)
    assert (list(cols.lines), cols.bad_json) == (ref.lines, ref.bad_json)
    if not ref.bad_json:
        assert _ingest(methodcaller("validate"), cols) == _ingest(methodcaller("validate"), ref)
    got = _eval_run(path, *flags)
    with mock.patch.object(cli, "_PredictionColumns", _ReferenceColumns):
        want = _eval_run(path, *flags)
    assert got == want
    return got


def _strict_rows(text: str) -> bool:
    """Whether the reader took every row of ``text`` without json.loads."""
    with mock.patch.object(cli, "_json_value", wraps=cli._json_value) as fallback:
        cli._PredictionColumns(io.StringIO(text))
    return fallback.call_count == 0


def _canonical_lines(n, k=4, seed=0, start=0):
    """n rows as json.dumps writes them, about half with a split tag."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k), n)
    labels = rng.integers(0, k, n)
    splits = rng.choice(["train", "val", "test", ""], n)
    lines = []
    for i, (row, label, split) in enumerate(zip(probs.tolist(), labels.tolist(), splits)):
        obj = {"id": f"q{start + i}", "confidences": row, "label": label}
        if split:
            obj["split"] = str(split)
        lines.append(json.dumps(obj))
    return lines


# One line each, placed between k = 2 canonical rows, and whether the
# strict path reads it after such a row (the rest go through json.loads).
_EDGE_LINES = {
    "exponent-lower": ('{"id": "e1", "confidences": [1e-05, 0.99999], "label": 1}', True),
    "exponent-upper-signed": ('{"id": "e2", "confidences": [5E-7, 0.9999995], "label": 0}', True),
    "exponent-plus": ('{"id": "e3", "confidences": [2.5e+0, 0.5], "label": 0}', True),
    "exponent-overflow": ('{"id": "e4", "confidences": [1e400, 0.5], "label": 0}', True),
    "integer-entries": ('{"id": "i1", "confidences": [1, 0], "label": 0}', True),
    "integer-17-digits": (
        '{"id": "i2", "confidences": [12345678901234567, 0], "label": 0}', True),
    "integer-beyond-2-53": (
        '{"id": "i3", "confidences": [9007199254740993, 0], "label": 0}', True),
    "integer-18-digits": (
        '{"id": "i4", "confidences": [123456789012345678, 0], "label": 0}', False),
    "integer-400-digits": (
        '{"id": "i5", "confidences": [1' + "0" * 400 + ', 0], "label": 0}', False),
    "negative-zero-int": ('{"id": "z1", "confidences": [-0, 1], "label": 1}', False),
    "negative-zero-float": ('{"id": "z2", "confidences": [-0.0, 1.0], "label": 1}', False),
    "leading-zero-entry": ('{"id": "l1", "confidences": [00.5, 0.5], "label": 0}', False),
    "leading-zero-label": ('{"id": "l2", "confidences": [0.5, 0.5], "label": 01}', False),
    "label-10-digits": ('{"id": "l3", "confidences": [0.5, 0.5], "label": 1000000000}', False),
    "unicode-escape-id": ('{"id": "\\u0071x", "confidences": [0.5, 0.5], "label": 0}', False),
    "escape-duplicates-id": ('{"id": "\\u0071s0", "confidences": [0.5, 0.5], "label": 0}',
                             False),
    "duplicate-keys": (
        '{"id": "d1", "id": "d2", "confidences": [0.5, 0.5], "label": 0}', False),
    "reordered-keys": ('{"label": 0, "id": "o1", "confidences": [0.5, 0.5]}', False),
    "sorted-keys": ('{"confidences": [0.5, 0.5], "id": "o2", "label": 0, "split": "val"}',
                    True),
    "extra-key": ('{"id": "x1", "confidences": [0.5, 0.5], "label": 0, "note": 1}', False),
    "split-null": ('{"id": "s1", "confidences": [0.5, 0.5], "label": 0, "split": null}', False),
    "split-unknown": ('{"id": "s2", "confidences": [0.5, 0.5], "label": 0, "split": "dev"}',
                      False),
    "compact-separators": ('{"id":"c1","confidences":[0.5,0.5],"label":0}', False),
    "tab-separators": ('{"id":\t"c2",\t"confidences":\t[0.5,\t0.5],\t"label":\t0}', False),
    "nan-entry": ('{"id": "n1", "confidences": [NaN, 0.5], "label": 0}', False),
    "trailing-comma": ('{"id": "t1", "confidences": [0.5, 0.5,], "label": 0}', False),
    "other-k": ('{"id": "k3", "confidences": [0.25, 0.25, 0.5], "label": 2}', False),
    "one-entry": ('{"id": "k1", "confidences": [1.0], "label": 0}', False),
    "not-an-object": ("[0.5, 0.5]", False),
    "renormalized": ('{"id": "r1", "confidences": [0.5000003, 0.5], "label": 0}', True),
    "label-out-of-range": ('{"id": "r2", "confidences": [0.5, 0.5], "label": 7}', True),
    "sum-beyond-tolerance": ('{"id": "r3", "confidences": [0.5, 0.6], "label": 0}', True),
}


@pytest.mark.parametrize("name", sorted(_EDGE_LINES))
def test_eval_edge_lines_read_like_json_loads(name, tmp_path):
    line, strict = _EDGE_LINES[name]
    head, tail = _canonical_lines(3, k=2, seed=1), _canonical_lines(2, k=2, seed=2, start=3)
    assert _strict_rows(f"{head[0]}\n{line}\n") == strict
    for layout in ([line] + head + tail, head + [line] + tail, head + tail + [line]):
        path = tmp_path / "edge.jsonl"
        path.write_text("\n".join(layout) + "\n", encoding="utf-8")
        _assert_eval_like_reference(path)


@pytest.mark.parametrize(
    "newline, blank", [("\r\n", ""), ("\n", "\n  \n"), ("\r\n", "\r\n\t\r\n")],
    ids=["crlf", "blank-lines", "crlf-blank-lines"],
)
def test_eval_line_endings_and_blank_lines_read_like_json_loads(newline, blank, tmp_path):
    lines = _canonical_lines(6, seed=3)
    text = newline.join(lines[:3]) + newline + blank + newline.join(lines[3:]) + newline
    path = tmp_path / "ends.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _strict_rows(text)
    assert _assert_eval_like_reference(path)[0] == 0
    # Out-of-range labels: the violations must name the same lines.
    path.write_bytes(text.replace('"label": ', '"label": 4').encode("utf-8"))
    assert _assert_eval_like_reference(path)[0] == 2


def _chunk_case(name):
    """Files that put a rule's evidence in one chunk and its verdict in a
    later one, or make every row of a chunk bad."""
    chunk = cli._CHUNK_ROWS
    lines = _canonical_lines(chunk + 300, seed=4)

    def row(i, conf, rid=None):
        return json.dumps({"id": rid or f"q{i}", "confidences": conf, "label": 0})

    off_sum = [0.5, 0.6, 0.1, 0.1]
    if name == "duplicate-of-an-earlier-chunk":
        lines[chunk + 100] = row(chunk + 100, [0.25] * 4, rid="q10")
    elif name == "duplicate-of-a-row-rejected-in-an-earlier-chunk":
        lines[10] = row(10, off_sum)
        lines[chunk + 100] = row(chunk + 100, [0.25] * 4, rid="q10")
        lines[chunk + 200] = row(chunk + 200, [0.25] * 4, rid="q10")
    elif name == "k-fixed-by-an-earlier-chunk":
        lines[chunk + 5] = row(chunk + 5, [0.25, 0.25, 0.5])
    elif name == "k-fixed-in-a-later-chunk":
        lines[: chunk + 20] = [row(i, off_sum) for i in range(chunk + 20)]
        lines[chunk + 30] = row(chunk + 30, [0.25, 0.25, 0.5])
    elif name == "every-row-of-a-chunk-bad":
        lines = _canonical_lines(2 * chunk + 300, seed=4)
        lines[chunk : 2 * chunk] = [
            line.replace('"label": ', '"label": 4') for line in lines[chunk : 2 * chunk]
        ]
    elif name == "one-loose-line-among-20000":
        lines = _canonical_lines(20_000, seed=6)
        lines[12_345] = lines[12_345].replace(", ", ",")
    return lines


@pytest.mark.parametrize(
    "name",
    ["duplicate-of-an-earlier-chunk", "duplicate-of-a-row-rejected-in-an-earlier-chunk",
     "k-fixed-by-an-earlier-chunk", "k-fixed-in-a-later-chunk", "every-row-of-a-chunk-bad",
     "one-loose-line-among-20000"],
)
def test_eval_chunk_boundaries_read_like_json_loads(name, tmp_path):
    path = tmp_path / "chunks.jsonl"
    path.write_text("\n".join(_chunk_case(name)) + "\n", encoding="utf-8")
    _assert_eval_like_reference(path)


class _CountedForm:
    """A strict-form pattern whose per-line ``fullmatch`` calls are counted."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def fullmatch(self, line):
        self.calls += 1
        return self.pattern.fullmatch(line)


@pytest.mark.parametrize("sort_keys", [False, True], ids=["readme-form", "sorted-form"])
def test_eval_matches_an_all_strict_chunk_at_once(sort_keys, tmp_path, monkeypatch):
    """On a file of three all-strict chunks the per-line matchers run at
    most once per chunk."""
    chunk = 5
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    lines = [
        json.dumps(json.loads(line), sort_keys=sort_keys)
        for line in _canonical_lines(3 * chunk, seed=9)
    ]
    path = tmp_path / "strict.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    forms = [_CountedForm(cli._README_FORM), _CountedForm(cli._SORTED_FORM)]
    monkeypatch.setattr(cli, "_README_FORM", forms[0])
    monkeypatch.setattr(cli, "_SORTED_FORM", forms[1])
    assert _strict_rows(path.read_text(encoding="utf-8"))
    assert sum(form.calls for form in forms) <= 3
    assert _assert_eval_like_reference(path)[0] == 0


def test_eval_reads_only_the_loose_lines_of_a_chunk_line_by_line(tmp_path, monkeypatch):
    """In a chunk with a few loose lines (a blank, a compact and a
    sorted-form line among README-form ones) the per-line matchers run on
    the nonblank loose lines only: two calls each, plus one for the first
    line of the file. The second chunk starts with its blank line."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 6)
    lines = _canonical_lines(18, seed=13)
    for c in range(3):
        lines[6 * c + 2] = json.dumps(json.loads(lines[6 * c + 2]), separators=(",", ":"))
        lines[6 * c + 4] = json.dumps(json.loads(lines[6 * c + 4]), sort_keys=True)
    lines[6] = ""
    path = tmp_path / "loose.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    forms = [_CountedForm(cli._README_FORM), _CountedForm(cli._SORTED_FORM)]
    with mock.patch.object(cli, "_README_FORM", forms[0]), \
            mock.patch.object(cli, "_SORTED_FORM", forms[1]), \
            open(path, encoding="utf-8") as fh:
        cli._PredictionColumns(fh)
    assert sum(form.calls for form in forms) == 1 + 3 * 4
    assert _assert_eval_like_reference(path)[0] == 0


def test_eval_many_classes_read_like_json_loads(tmp_path, monkeypatch):
    """Past ``_UNROLLED_ENTRIES`` entries the chunk pattern counts the rest:
    all-strict chunks are still taken at once, and a line of one entry more
    or fewer is not."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    k = cli._UNROLLED_ENTRIES + 8
    lines = _canonical_lines(12, k=k, seed=10)
    path = tmp_path / "wide.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _strict_rows(path.read_text(encoding="utf-8"))
    assert _assert_eval_like_reference(path)[0] == 0
    lines[5] = _canonical_lines(1, k=k + 1, seed=11, start=5)[0]
    lines[9] = _canonical_lines(1, k=k - 1, seed=12, start=9)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _assert_eval_like_reference(path)[0] == 2


def test_eval_canonical_file_reads_like_json_loads(tmp_path):
    lines = _canonical_lines(2 * cli._CHUNK_ROWS + 17, seed=7)
    path = tmp_path / "canonical.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _strict_rows(path.read_text(encoding="utf-8"))
    for bins in ("10", "heuristic"):
        assert _assert_eval_like_reference(path, "--bins", bins)[0] == 0


# When eval parsed every line into a dict (json.loads on each line, then
# validate_dataset over the dicts), its traced peak grew by 796 bytes per
# row between the files of this test (Python 3.11, numpy 2.4); the columnar
# reader measured 202.
_DICT_READER_BYTES_PER_ROW = 796


def _traced_eval_peak(path) -> int:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", str(path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_ingestion_memory_grows_linearly_with_a_small_per_row_constant(tmp_path):
    line = '{"id": "q%d", "confidences": [%r, %r, %r, %r], "label": %d}\n'
    small, large = 50_000, 200_000
    rng = np.random.default_rng(8)
    probs, labels = rng.dirichlet(np.ones(4), large).tolist(), rng.integers(0, 4, large).tolist()
    peaks = {}
    for n in (small, large):
        path = tmp_path / f"{n}.jsonl"
        path.write_text(
            "".join(line % (i, *probs[i], labels[i]) for i in range(n)), encoding="utf-8"
        )
        peaks[n] = _traced_eval_peak(path)
    per_row = (peaks[large] - peaks[small]) / (large - small)
    # Linear growth, within 10% for container overallocation.
    assert peaks[large] <= 1.1 * peaks[small] * large / small, peaks
    assert per_row < _DICT_READER_BYTES_PER_ROW / 3, per_row


def test_eval_missing_file_is_io_error(tmp_path, capsys):
    code = main(["eval", str(tmp_path / "nope.jsonl")])
    assert code == 1


def test_eval_heuristic_bins(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(3000):
        p = rng.dirichlet(np.ones(4))
        rows.append({"id": f"r{i}", "confidences": p.tolist(), "label": int(rng.integers(0, 4))})
    path = tmp_path / "big.jsonl"
    _write_jsonl(path, rows)
    report_path = tmp_path / "report.json"
    code = main(["eval", str(path), "--bins", "heuristic", "--report", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["M"] == 14


def test_simulate_deterministic_outputs(tmp_path, capsys):
    args = [
        "simulate", "--model", "dirichlet", "--k", "4", "--n", "5000",
        "--support", "30", "--alpha", "1.0", "--seed", "7",
    ]
    code = main(args + ["--out", str(tmp_path / "a")])
    assert code == 0
    code = main(args + ["--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (
        tmp_path / "a.model.json"
    ).read_bytes() == (tmp_path / "b.model.json").read_bytes()

    out = capsys.readouterr().out
    assert "conf_ece=" in out


def test_simulate_output_is_evaluable(tmp_path, capsys):
    code = main([
        "simulate", "--model", "pure-random", "--n", "2000", "--support", "10",
        "--seed", "3", "--out", str(tmp_path / "sim"),
    ])
    assert code == 0
    code = main(["eval", str(tmp_path / "sim.jsonl")])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out


def _per_record_jsonl(ds):
    """The simulate data file written one record at a time."""
    lines = [
        json.dumps({"id": rid, "confidences": row, "label": label}, sort_keys=True)
        for rid, row, label in zip(ds.ids, ds.probs_matrix.tolist(), ds.labels_array.tolist())
    ]
    return "\n".join(lines) + "\n"


def _check_simulate_out(model, k, alpha, tmp_path):
    prefix = tmp_path / "sim"
    code = main([
        "simulate", "--model", model, "--k", str(k), "--n", "300", "--support", "12",
        "--alpha", str(alpha), "--seed", "9", "--out", str(prefix),
    ])
    assert code == 0
    fm = make_model(model, k, 12, alpha=alpha, seed=9)
    ds = sample_dataset(fm, Predictor.from_model(fm), 300, seed=9)
    written = (tmp_path / "sim.jsonl").read_bytes()
    assert written == _per_record_jsonl(ds).encode("utf-8")
    return written


@pytest.mark.parametrize("model", ["pure-random", "deterministic", "dirichlet"])
def test_simulate_out_matches_a_per_record_writer(model, tmp_path, capsys):
    written = _check_simulate_out(model, 3, 0.5, tmp_path)
    if model == "deterministic":
        assert b"[1.0, 0.0, 0.0]" in written and b"[0.0, 0.0, 1.0]" in written


def test_simulate_out_matches_a_per_record_writer_with_exponent_reprs(tmp_path, capsys):
    # k = 9 at alpha 0.05 gives entries down to 1e-40 and below: reprs with an exponent.
    written = _check_simulate_out("dirichlet", 9, 0.05, tmp_path)
    assert all(token in written for token in (b"e-05", b"e-1", b"e-2"))


def test_streamed_write_that_fails_midway_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"old contents\n")

    def chunks():
        yield "first chunk\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        cli._atomic_write(str(target), chunks())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


@pytest.mark.parametrize("model", ["pure-random", "deterministic", "dirichlet"])
def test_sample_dataset_records_round_trip_the_arrays(model):
    """A sampled dataset, written one record per line, reads back through
    ``validate_dataset`` to the same columns bit for bit."""
    fm = make_model(model, 4, 20, alpha=0.7, seed=2)
    ds = sample_dataset(fm, Predictor.from_model(fm), 500, seed=4)
    assert ds.ids == [f"r{i}" for i in range(500)]
    records = [json.loads(line) for line in _per_record_jsonl(ds).splitlines()]
    assert _ingest(validate_dataset, records) == _ingest(lambda rows: ds, records)


def test_simulate_bad_params(capsys):
    assert main(["simulate", "--support", "0"]) == 2


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_simulate_rejects_a_non_finite_dirichlet_concentration(alpha, capsys):
    assert main(["simulate", "--model", "dirichlet", "--alpha", alpha, "--n", "10"]) == 2
    assert capsys.readouterr().err == (
        f"error: BadParams: dirichlet concentration alpha must be finite and > 0, got {alpha}\n"
    )


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--bins", "0"], "error: OutOfRange: bin count 0 must be >= 1"),
        (["--n", "0"], "error: --n must be >= 1"),
    ],
    ids=["bins-0", "n-0"],
)
def test_simulate_checks_its_flags_before_sampling(flags, error, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("make_model ran before the flags were checked")

    monkeypatch.setattr(genmodel, "make_model", unreachable)
    assert main(["simulate", "--n", "2000000", *flags]) == 2
    assert capsys.readouterr().err == error + "\n"


def test_simulate_formats_each_distinct_row_once_per_chunk(tmp_path, monkeypatch, capsys):
    """20000 rows of a 5-point model span 3 chunks of at most 5 distinct
    rows of 3 entries each: at most 45 floats are formatted, not 60000."""
    formatted = []

    def counted(value):
        formatted.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counted, raising=False)
    assert main([
        "simulate", "--support", "5", "--k", "3", "--n", "20000",
        "--out", str(tmp_path / "sim"),
    ]) == 0
    assert 0 < len(formatted) <= 3 * 5 * 3


def test_bounds_csv_envelope(tmp_path, capsys):
    model = make_model("dirichlet", 4, 40, alpha=1.0, seed=5)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
    csv_path = tmp_path / "bounds.csv"
    code = main([
        "bounds", "--model", str(model_path), "--acc-star", "0.6",
        "--acc-grid", "0.3,0.6,0.85", "--out", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "target_acc,achieved_acc,tce,envelope_2gap,C,cwece_pop,holds"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        tce_v, envelope = float(row[2]), float(row[3])
        assert tce_v <= envelope + 1e-12
        assert float(row[5]) <= tce_v + 1e-12
        assert row[6] == "true"
    # The a = a* row trades nothing away.
    mid = rows[1]
    assert float(mid[2]) == 0.0


def test_bounds_reaches_accuracy_0_and_1(tmp_path, capsys):
    """On this model the masses moved to reach 0 and 1 sum an ulp past the
    reference accuracy; the achieved accuracy stays in [0, 1]."""
    model = make_model("dirichlet", 4, 50, alpha=1.0, seed=1)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
    assert main(["bounds", "--model", str(model_path), "--acc-grid", "0.0,1.0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" tce=")[0] for line in out] == [
        "target=0.0 achieved=0.0", "target=1.0 achieved=1.0"
    ]
    assert out[0].endswith("regime=calibratable")
    assert out[1].endswith("regime=non-calibratable")


def test_bounds_unreachable_targets_exit_2_with_one_error_line(tmp_path, capsys):
    """Each unreachable target keeps its warning and its CSV row; the run
    then ends with one error line that counts them, and exits 2."""
    model = make_model("dirichlet", 4, 20, alpha=1.0, seed=2)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
    csv_path = tmp_path / "bounds.csv"
    code = main([
        "bounds", "--model", str(model_path), "--acc-grid", "1.5,0.5,-0.2",
        "--out", str(csv_path),
    ])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: 2 of 3 targets unreachable"
    ]
    assert err[-1] == "error: 2 of 3 targets unreachable"
    assert err[:-1] == [
        f"warning: target {t}: target accuracy must lie in [0, 1]" for t in ("1.5", "-0.2")
    ]
    assert [line.split(" ")[0] for line in captured.out.splitlines()] == ["target=0.5"]
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [
        ("1.5", "unreachable"), ("0.5", "true"), ("-0.2", "unreachable")
    ]


def test_bounds_deterministic(tmp_path):
    model = make_model("dirichlet", 4, 20, alpha=0.5, seed=9)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
    outs = []
    for name in ("x.csv", "y.csv"):
        main(["bounds", "--model", str(model_path), "--out", str(tmp_path / name)])
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_bounds_cwece_matches_reference_loop(tmp_path):
    model = make_model("dirichlet", 3, 300, alpha=0.7, seed=11)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
    csv_path = tmp_path / "bounds.csv"
    assert main(["bounds", "--model", str(model_path), "--out", str(csv_path)]) == 0
    rows = [ln.split(",") for ln in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 9
    labels = labels_matching_accuracy(model, 0.6)
    for row in rows:
        built = construct_bound_predictor(model, labels, float(row[0]))
        reference = _reference_population_cw_ece(model, built.predictor)
        assert abs(float(row[5]) - reference) <= 1e-12
        assert row[6] == "true"


def test_winrate(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "p1", "logp_chosen": -1.0, "logp_reject": -2.0},
            {"id": "p2", "logp_chosen": -3.0, "logp_reject": -2.0},
        ],
    )
    code = main(["winrate", "--pairs", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "win_rate=0.5" in out


def test_winrate_reports_invalid_json_as_eval_does(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"id": "p1", "logp_chosen": -1.0, "logp_reject": -2.0}\n\n{broken\nnot-json\n',
        encoding="utf-8",
    )
    assert main(["winrate", "--pairs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: invalid JSON: Expecting property name enclosed in double quotes\n"


def test_winrate_non_finite_pair_names_its_line(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"id": "p1", "logp_chosen": -1.0, "logp_reject": -2.0}\n'
        '{"id": "p2", "logp_chosen": NaN, "logp_reject": -2.0}\n',
        encoding="utf-8",
    )
    assert main(["winrate", "--pairs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: pair 'p2' has non-finite log-probabilities\n"


def test_winrate_empty_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text("", encoding="utf-8")
    assert main(["winrate", "--pairs", str(path)]) == 2


def test_train_toy_ts_invariants(tmp_path, capsys):
    code = main([
        "train-toy", "--mode", "ts", "--n", "400", "--dim", "8", "--epochs", "60",
        "--seed", "5", "--out", str(tmp_path / "ts"),
    ])
    assert code == 0
    before = json.loads((tmp_path / "ts.report.json").read_text())
    history = json.loads((tmp_path / "ts.history.json").read_text())
    assert history[0]["ece_after"] <= history[0]["ece_before"] + 1e-15
    out = capsys.readouterr().out
    before_acc = [ln for ln in out.splitlines() if ln.startswith("before")][0]
    after_acc = [ln for ln in out.splitlines() if ln.startswith("after")][0]
    assert before_acc.split("acc=")[1].split()[0] == after_acc.split("acc=")[1].split()[0]


def test_train_toy_ts_warns_when_the_fit_reaches_the_grid_edge(tmp_path, capsys):
    """A policy trained for one small step is underconfident, and its fit
    runs to the bottom of the temperature grid: one warning line on stderr
    names the edge, and the run still exits 0. An interior fit warns
    nothing."""
    edge = ["train-toy", "--mode", "ts", "--n", "100", "--dim", "8", "--epochs", "1",
            "--lr", "0.01", "--seed", "0", "--out", str(tmp_path / "edge")]
    assert main(edge) == 0
    captured = capsys.readouterr()
    history = json.loads((tmp_path / "edge.history.json").read_text())
    assert history[0]["temperature"] == 0.05
    assert captured.err == (
        "warning: fitted temperature 0.05 lies in the first cell of the grid "
        "[0.05, 20.0]; a better one may lie beyond it\n"
    )
    assert captured.out.splitlines()[0] == "mode=ts"
    assert len(captured.out.splitlines()) == 3

    interior = ["train-toy", "--mode", "ts", "--n", "400", "--dim", "8", "--epochs", "60",
                "--seed", "5"]
    assert main(interior) == 0
    assert capsys.readouterr().err == ""


def test_train_toy_writes_artifacts_and_is_deterministic(tmp_path):
    args = [
        "train-toy", "--mode", "cft", "--n", "400", "--dim", "8",
        "--epochs", "60", "--em-epochs", "3", "--seed", "6",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for suffix in (".history.json", ".report.json", ".before.svg", ".after.svg"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_train_toy_plain_descent_history_uses_bins(tmp_path):
    """sft-only history rows are binned like the report: the last row's
    conf-ECE is the report's at 7 bins, and differs from the 10-bin value."""
    args = ["train-toy", "--mode", "sft-only", "--epochs", "20", "--dim", "8",
            "--k", "4", "--n", "300", "--seed", "1"]
    final = {}
    for bins in ("7", "10"):
        prefix = tmp_path / f"b{bins}"
        assert main(args + ["--bins", bins, "--out", str(prefix)]) == 0
        history = json.loads((tmp_path / f"b{bins}.history.json").read_text())
        report = json.loads((tmp_path / f"b{bins}.report.json").read_text())
        assert report["M"] == int(bins)
        assert history[-1]["conf_ece"] == report["conf_ece"]
        final[bins] = history[-1]["conf_ece"]
    assert final["7"] != final["10"]


def test_train_toy_rejects_a_tau_that_overflows_the_teacher(tmp_path, capsys):
    """A subnormal --tau overflows the teacher logits: exit 2 naming the
    temperature, with no numpy warning (an error under pytest's filter)."""
    flags = ["train-toy", "--mode", "sft-only", "--n", "40", "--dim", "4", "--epochs", "2"]
    assert main([*flags, "--tau", "1e-320"]) == 2
    assert capsys.readouterr().err == (
        "error: BadParams: teacher temperature 1e-320 overflows the teacher logits\n"
    )
    assert main([*flags, "--tau", "1e-300", "--out", str(tmp_path / "cold")]) == 0


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(["--n", "40", "--dim", "4"], id="dim-4"),
        pytest.param(["--n", "40"], id="dim-32"),
        pytest.param(["--n", "10", "--dim", "4", "--k", "2"], id="k-2"),
    ],
)
@pytest.mark.parametrize("mode", ["sft-only", "label-smooth", "ece-only", "cft", "rcft", "ts"])
def test_train_toy_at_a_huge_learning_rate_warns_nothing(mode, shape, tmp_path, capsys):
    """At --lr 1e308 the logits overflow: at --dim 4 in the softmax's max
    shift, at the default --dim 32 in the features-weights product, and in
    ece-only's tabular step at k = 2 as inf times a zero gradient entry. The
    run prints no numpy warning (an error under pytest's filter): it either
    exits 0 with finite metrics or exits 3 with one error line."""
    code = main([
        "train-toy", "--mode", mode, "--lr", "1e308", *shape,
        "--epochs", "40", "--out", str(tmp_path / mode),
    ])
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        metrics = [
            float(field.split("=")[1])
            for line in captured.out.splitlines()
            if line.startswith(("before:", "after:"))
            for field in line.split()[1:]
        ]
        assert len(metrics) == 4 and np.isfinite(metrics).all()
        report = json.loads((tmp_path / f"{mode}.report.json").read_text())
        assert np.isfinite([report["accuracy"], report["conf_ece"], report["cw_ece"]]).all()
    else:
        assert code == 3
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error: NonFiniteLoss: ")


@pytest.mark.parametrize("mode", ["cft", "rcft", "ts"])
def test_train_toy_builds_only_the_history_rows_it_writes(mode, tmp_path, monkeypatch):
    """The SFT baseline under cft, rcft and ts is fitted without history
    rows. cft and rcft build exactly the rows they write: rcft's EM stage
    builds no row for its epoch 0, which repeats the overfit stage's last
    state. ts, whose history is the temperature fit, builds none."""
    built = []
    history_row = emcal._history_row

    def counted(*args, **kwargs):
        built.append(args[0])
        return history_row(*args, **kwargs)

    monkeypatch.setattr(emcal, "_history_row", counted)
    assert main([
        "train-toy", "--mode", mode, "--n", "200", "--dim", "6", "--epochs", "30",
        "--em-epochs", "2", "--seed", "3", "--out", str(tmp_path / mode),
    ]) == 0
    history = json.loads((tmp_path / f"{mode}.history.json").read_text())
    expected = {"cft": len(history), "rcft": len(history), "ts": 0}[mode]
    assert len(built) == expected


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("seed", [1, 7])
def test_sft_baseline_matches_train_sft_only_bitwise(k, seed):
    """The row-free baseline of cft, rcft and ts takes the same steps as
    ``toylab.train``'s sft-only mode. Both run here, on one machine: the
    policy's matrix products go through BLAS."""
    task = toylab.gen_toy_task(d=8, k=k, n=300, seed=seed)
    args = argparse.Namespace(epochs=40, lr=0.5)
    drained = cli._sft_baseline(args, task)
    trained, history = toylab.train(
        toylab.LinearPolicy(task.d, task.k), task, mode="sft-only", epochs=40, lr=0.5
    )
    assert len(history) == 41
    assert drained.W.tobytes() == trained.W.tobytes()
