import json

import numpy as np
import pytest

from calibkit import toylab
from calibkit.cli import main
from calibkit.emcal import NonFiniteGradient
from calibkit.genmodel import (
    Predictor,
    construct_bound_predictor,
    labels_matching_accuracy,
    make_model,
    sample_dataset,
)
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
    ],
    ids=["train-toy-k-1", "train-toy-lr-0", "eval-bins-0", "train-toy-cft-lr-nan",
         "train-toy-cft-lambda-nan", "train-toy-sft-lr-negative", "train-toy-ts-lr-0",
         "train-toy-smooth-epochs-negative", "train-toy-ece-only-lr-0",
         "train-toy-rcft-lr-0"],
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
        json.dumps(
            {"id": r.id, "confidences": list(r.confidences.probs), "label": r.label},
            sort_keys=True,
        )
        for r in ds.records
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("model", ["pure-random", "deterministic", "dirichlet"])
def test_simulate_out_matches_a_per_record_writer(model, tmp_path, capsys):
    prefix = tmp_path / "sim"
    code = main([
        "simulate", "--model", model, "--k", "3", "--n", "300", "--support", "12",
        "--alpha", "0.5", "--seed", "9", "--out", str(prefix),
    ])
    assert code == 0
    fm = make_model(model, 3, 12, alpha=0.5, seed=9)
    ds = sample_dataset(fm, Predictor.from_model(fm), 300, seed=9)
    assert (tmp_path / "sim.jsonl").read_bytes() == _per_record_jsonl(ds).encode("utf-8")


@pytest.mark.parametrize("model", ["pure-random", "deterministic", "dirichlet"])
def test_sample_dataset_records_round_trip_the_arrays(model):
    fm = make_model(model, 4, 20, alpha=0.7, seed=2)
    ds = sample_dataset(fm, Predictor.from_model(fm), 500, seed=4)
    assert "records" not in vars(ds)
    records = ds.records
    assert [r.id for r in records] == [f"r{i}" for i in range(500)] == ds.ids
    assert np.array([r.confidences.probs for r in records]).tobytes() == ds.probs_matrix.tobytes()
    assert np.array([r.label for r in records]).tobytes() == ds.labels_array.tobytes()


def test_simulate_bad_params(capsys):
    assert main(["simulate", "--support", "0"]) == 2


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
