"""Command-line surface: dataset evaluation, simulator runs, bound sweeps,
toy training, and win-rate scoring.

Exit codes: 0 success, 1 I/O failure, 2 input validation failure,
3 numerical failure. A ``CalibrationError`` reaching ``main`` is reported as
one ``error:`` line naming its class, never as a traceback; so is an input
file that is not UTF-8. File writes are atomic (temp file + rename), and
every subcommand is deterministic given its inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .core import (
    BadParams,
    BinningConfig,
    CalibrationError,
    DatasetValidationError,
    validate_dataset,
)
from .diagram import reliability_svg
from .emcal import EmConfig, NonFiniteGradient, NonFiniteLoss, run_em
from .genmodel import (
    FiniteGenerativeModel,
    NoDisagreement,
    Predictor,
    UnreachableAccuracy,
    classify_regime,
    construct_bound_predictor,
    labeled_accuracy,
    labels_matching_accuracy,
    lower_bound_constant,
    make_model,
    sample_dataset,
    tce,
    verify_ece_le_tce,
)
from .metrics import PairwisePreferenceRecord, build_report, win_rate
from . import toylab

EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 42


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-calibkit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_bins(text: str) -> BinningConfig:
    if text == "heuristic":
        return BinningConfig(strategy="cube-root-heuristic")
    try:
        return BinningConfig(M=int(text))
    except ValueError as exc:
        raise BadParams(f"--bins must be an integer or 'heuristic', got {text!r}") from exc


def _jsonl_values(fh):
    """Yield ``(line number, value, error)`` for each nonblank line of an
    open JSONL file: the parsed value and None, or None and the line's
    ``line N: invalid JSON: ...`` message."""
    for ln, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield ln, json.loads(line), None
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, the int parser's digit limit, or nesting
            # deeper than the recursion limit.
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
            yield ln, None, f"line {ln}: invalid JSON: {msg}"


def cmd_eval(args) -> int:
    rows, line_of_row, bad_json = [], [], []
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            for ln, value, error in _jsonl_values(fh):
                if error is None:
                    rows.append(value)
                    line_of_row.append(ln)
                else:
                    bad_json.append(error)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO

    # Printed only once the whole file has decoded, so a file that is not
    # UTF-8 reports that alone.
    for error in bad_json:
        print(f"error: {error}", file=sys.stderr)
    if bad_json:
        return EXIT_INPUT
    try:
        ds = validate_dataset(rows)
    except DatasetValidationError as exc:
        for v in exc.violations:
            ln = line_of_row[v.index] if v.index < len(line_of_row) else v.index + 1
            print(f"error: line {ln}: {v.kind}: {v.message}", file=sys.stderr)
        return EXIT_INPUT

    bins = _parse_bins(args.bins)
    report = build_report(ds, bins)
    print(f"n={report.n} k={report.k} M={report.M}")
    print(f"accuracy={report.accuracy!r}")
    print(f"conf_ece={report.conf_ece!r}")
    print(f"cw_ece={report.cw_ece!r}")
    if args.report:
        _atomic_write(args.report, _dump_json(report.to_json_dict()))
    if args.plot:
        svg = reliability_svg(report.conf_bins, report.n, report.k, mode="confidence")
        _atomic_write(args.plot, svg)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = make_model(args.model, args.k, args.support, alpha=args.alpha, seed=args.seed)
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    predictor = Predictor.from_model(model)
    ds = sample_dataset(model, predictor, args.n, seed=args.seed)
    report = build_report(ds, BinningConfig(M=args.bins))
    print(f"accuracy={report.accuracy!r}")
    print(f"conf_ece={report.conf_ece!r}")
    print(f"cw_ece={report.cw_ece!r}")
    if args.out:
        lines = [
            json.dumps({"id": rid, "confidences": conf, "label": label}, sort_keys=True)
            for rid, conf, label in zip(
                ds.ids, ds.probs_matrix.tolist(), ds.labels_array.tolist()
            )
        ]
        _atomic_write(args.out + ".jsonl", "\n".join(lines) + "\n")
        _atomic_write(args.out + ".model.json", _dump_json(model.to_json_dict()))
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            model = FiniteGenerativeModel.from_json_dict(json.load(fh))
    except OSError as exc:
        print(f"error: cannot read {args.model}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RecursionError, BadParams) as exc:
        # ValueError: invalid JSON, the int parser's digit limit, or bytes
        # that are not UTF-8. RecursionError: nesting too deep to decode.
        print(f"error: bad model file: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        grid = [float(v) for v in args.acc_grid.split(",") if v.strip()]
    except ValueError:
        print(f"error: bad --acc-grid {args.acc_grid!r}", file=sys.stderr)
        return EXIT_INPUT

    labels = labels_matching_accuracy(model, args.acc_star)
    reference = Predictor.from_model(model)
    a_star = labeled_accuracy(model, reference, labels)
    had_error = False
    rows = ["target_acc,achieved_acc,tce,envelope_2gap,C,cwece_pop,holds"]
    for target in grid:
        try:
            built = construct_bound_predictor(model, labels, target)
        except (UnreachableAccuracy, BadParams) as exc:
            had_error = True
            rows.append(f"{target!r},,,,,,unreachable")
            print(f"warning: target {target}: {exc}", file=sys.stderr)
            continue
        t = tce(model, built.predictor)
        envelope = 2.0 * abs(a_star - built.achieved_acc)
        cw, _, cw_holds = verify_ece_le_tce(model, built.predictor)
        try:
            c, c_holds = lower_bound_constant(model, reference, built.predictor)
            c_text = repr(c)
        except NoDisagreement:
            c_holds, c_text = True, ""
        holds = (t <= envelope + 1e-12) and cw_holds and c_holds
        regime = classify_regime(built.achieved_acc, a_star)
        rows.append(
            f"{target!r},{built.achieved_acc!r},{t!r},{envelope!r},"
            f"{c_text},{cw!r},{str(holds).lower()}"
        )
        print(
            f"target={target} achieved={built.achieved_acc!r} tce={t!r} "
            f"envelope={envelope!r} regime={regime}"
        )
    if args.out:
        _atomic_write(args.out, "\n".join(rows) + "\n")
    return EXIT_INPUT if had_error else EXIT_OK


def _toy_report(task, policy, bins):
    ds = toylab.task_dataset(task, policy)
    return ds, build_report(ds, bins)


def cmd_train_toy(args) -> int:
    bins = BinningConfig(M=args.bins)
    task = toylab.gen_toy_task(
        d=args.dim, k=args.k, n=args.n, teacher_temperature=args.tau, seed=args.seed
    )
    before_report, policy, history, after_report = _run_toy_mode(args, task, bins)

    print(f"mode={args.mode}")
    print(f"before: acc={before_report.accuracy!r} conf_ece={before_report.conf_ece!r}")
    print(f"after:  acc={after_report.accuracy!r} conf_ece={after_report.conf_ece!r}")
    if args.out:
        _atomic_write(args.out + ".history.json", _dump_json(history))
        _atomic_write(args.out + ".report.json", _dump_json(after_report.to_json_dict()))
        _atomic_write(
            args.out + ".before.svg",
            reliability_svg(before_report.conf_bins, before_report.n, task.k),
        )
        _atomic_write(
            args.out + ".after.svg",
            reliability_svg(after_report.conf_bins, after_report.n, task.k),
        )
    return EXIT_OK


def _sft_baseline(args, task):
    policy = toylab.LinearPolicy(task.d, task.k)
    return toylab.train(policy, task, mode="sft-only", epochs=args.epochs, lr=args.lr)


def _run_toy_mode(args, task, bins):
    """Run one training mode; cft/rcft/ts continue from a fresh sft baseline."""
    if args.mode in ("sft-only", "label-smooth"):
        policy = toylab.LinearPolicy(task.d, task.k)
        before_ds, before_report = _toy_report(task, policy, bins)
        policy, history = toylab.train(
            policy, task, mode=args.mode, epochs=args.epochs, lr=args.lr,
            epsilon=args.epsilon, bins=args.bins,
        )
    elif args.mode == "ece-only":
        policy = toylab.TabularPolicy.zeros(task.n, task.k)
        before_ds, before_report = _toy_report(task, policy, bins)
        cfg = EmConfig(
            epochs=args.em_epochs, bins=args.bins, lam=1.0, sft_weight=0.0,
            divergence=args.divergence, learning_rate=args.lr,
        )
        policy, history = run_em(policy, task.labels, cfg, features=None)
    elif args.mode == "ts":
        base, _ = _sft_baseline(args, task)
        before_ds, before_report = _toy_report(task, base, bins)
        t_star, ece_b, ece_a = toylab.fit_temperature(before_ds, bins)
        transformed = toylab.apply_temperature(before_ds, t_star)
        after_report = build_report(transformed, bins)
        history = [{"temperature": t_star, "ece_before": ece_b, "ece_after": ece_a}]
        return before_report, base, history, after_report
    elif args.mode in ("cft", "rcft"):
        # Checked before the baseline runs, so a bad EM setting fails fast.
        cfg = EmConfig(
            epochs=args.em_epochs, bins=args.bins,
            lam=args.lam if args.mode == "cft" else 1.0,
            divergence=args.divergence, learning_rate=args.lr,
        )
        base, _ = _sft_baseline(args, task)
        before_ds, before_report = _toy_report(task, base, bins)
        mode = "cft" if args.mode == "cft" else "rcft-analog"
        policy, history = toylab.train(base, task, mode=mode, em=cfg)
    else:
        raise BadParams(f"unknown mode {args.mode!r}")

    _, after_report = _toy_report(task, policy, bins)
    return before_report, policy, history, after_report


def cmd_winrate(args) -> int:
    rows = []
    try:
        with open(args.pairs, "r", encoding="utf-8") as fh:
            for ln, obj, error in _jsonl_values(fh):
                if error is not None:
                    print(f"error: {error}", file=sys.stderr)
                    return EXIT_INPUT
                try:
                    rows.append(
                        PairwisePreferenceRecord(
                            id=str(obj["id"]),
                            logp_chosen=float(obj["logp_chosen"]),
                            logp_reject=float(obj["logp_reject"]),
                        )
                    )
                except (KeyError, TypeError, ValueError, OverflowError,
                        RecursionError) as exc:
                    print(f"error: line {ln}: {exc}", file=sys.stderr)
                    return EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot read {args.pairs}: {exc}", file=sys.stderr)
        return EXIT_IO
    if not rows:
        print("error: EmptyInput: no preference pairs found", file=sys.stderr)
        return EXIT_INPUT
    rate = win_rate(rows)
    wins = sum(1 for p in rows if p.logp_chosen > p.logp_reject)
    print(f"pairs={len(rows)} wins={wins} win_rate={rate!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibkit",
        description="Calibration measurement, finite-support theory checks, and "
        "EM-based calibration-aware toy training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score a prediction JSONL file")
    p.add_argument("input", help="JSONL with {id, confidences, label[, split]}")
    p.add_argument("--bins", default="10", help="bin count or 'heuristic'")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--plot", default=None, help="write a reliability SVG here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", help="sample a dataset from a generative model")
    p.add_argument("--model", default="pure-random",
                   choices=["pure-random", "deterministic", "dirichlet"])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--support", type=int, default=50)
    p.add_argument("--alpha", type=float, default=1.0, help="dirichlet concentration")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output prefix for .jsonl and .model.json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bounds", help="sweep the accuracy/distance envelope")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--acc-star", type=float, default=0.6, dest="acc_star")
    p.add_argument("--acc-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                   dest="acc_grid")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("train-toy", help="run a toy training study")
    p.add_argument("--mode", default="cft",
                   choices=["sft-only", "cft", "rcft", "ece-only", "label-smooth", "ts"])
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--epochs", type=int, default=150, help="plain descent steps")
    p.add_argument("--em-epochs", type=int, default=8, dest="em_epochs")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.1, help="label smoothing")
    p.add_argument("--divergence", default="mse", choices=["mse", "cross-entropy"])
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--tau", type=float, default=1.0, help="teacher temperature")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output prefix")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("winrate", help="score a preference-pair JSONL file")
    p.add_argument("--pairs", required=True,
                   help="JSONL with {id, logp_chosen, logp_reject}")
    p.set_defaults(fn=cmd_winrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CalibrationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        numeric = isinstance(exc, (NonFiniteLoss, NonFiniteGradient))
        return EXIT_NUMERIC if numeric else EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
