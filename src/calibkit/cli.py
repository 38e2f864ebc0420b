"""Command-line surface: dataset evaluation, simulator runs, bound sweeps,
toy training, and win-rate scoring.

Exit codes: 0 success, 1 I/O failure, 2 input validation failure,
3 numerical failure. A ``CalibrationError`` reaching ``main`` is reported as
one ``error:`` line naming its class, never as a traceback; so is an input
file that is not UTF-8, and, through ``run``, a stdout that cannot be
written. File writes are atomic (temp file + rename), and every subcommand
is deterministic given its inputs, flags, and seed.

A process loads only the layer modules its subcommand runs (``_LAYERS``);
``--help`` loads none beyond this module and ``core``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import re
import sys
import tempfile
from array import array
from itertools import islice

import numpy as np

from .core import (
    VALID_SPLITS,
    BadParams,
    BinningConfig,
    CalibrationError,
    DatasetValidationError,
    NonFiniteGradient,
    NonFiniteLoss,
    _validate_columns,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 42


def _atomic_write(path: str, data) -> None:
    """Write ``data``, a string or an iterable of string chunks, to a temp
    file beside ``path`` and rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-calibkit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                fh.writelines(data)
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


def _jsonl_lines(lines, start: int = 1):
    """Yield ``(line number, line)`` for each nonblank line of ``lines``
    (an open file, or a list of raw lines whose first is line ``start``),
    stripped of surrounding whitespace."""
    for ln, line in enumerate(lines, start):
        line = line.strip()
        if line:
            yield ln, line


def _json_value(ln: int, line: str):
    """``(value, None)`` for a line that ``json.loads`` reads, else ``(None,
    message)``. The message names the line and the decoder's reason: a
    JSONDecodeError, the int parser's digit limit, or nesting deeper than the
    recursion limit."""
    try:
        return json.loads(line), None
    except (ValueError, RecursionError) as exc:
        msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        return None, f"line {ln}: invalid JSON: {msg}"


def _jsonl_values(fh):
    """Yield ``(line number, value, error)`` for each nonblank line of an
    open JSONL file, as ``_json_value`` reads it."""
    for ln, line in _jsonl_lines(fh):
        yield (ln, *_json_value(ln, line))


# The prediction lines that ``json.dumps`` writes with its default
# separators, in the README's key order and in sorted key order. Numbers
# take JSON's unsigned grammar. An integer entry has at most 17 digits:
# far below float overflow and the int parser's digit limit, where
# ``float()`` of the text and the integer ``json.loads`` reads part ways.
# Each form's groups are id, confidences, label and split, in line order.
_ID = r'"([A-Za-z0-9_-]+)"'
_NUM = r"(?:0|[1-9][0-9]{0,16})(?:\.[0-9]{1,40})?(?:[eE][-+]?[0-9]{1,3})?"
_TAIL = r'"label": (0|[1-9][0-9]{0,8})(?:, "split": "(train|val|test)")?\}'


def _line_form(readme: bool, entries: str) -> str:
    """The pattern of one strict line whose confidence list is ``entries``."""
    confs = rf"\[({entries})\]"
    if readme:
        head = f'"id": {_ID}, "confidences": {confs}'
    else:
        head = f'"confidences": {confs}, "id": {_ID}'
    return rf"\{{{head}, {_TAIL}"


_README_FORM = re.compile(_line_form(True, rf"{_NUM}(?:, {_NUM})+"))
_SORTED_FORM = re.compile(_line_form(False, rf"{_NUM}(?:, {_NUM})+"))
# Entries a chunk pattern spells out one by one; any more are one counted
# repeat, which keeps a pattern for a file of many classes small to compile.
_UNROLLED_ENTRIES = 32
_SPLIT_TAGS = {s: s for s in VALID_SPLITS}
_CHUNK_ROWS = 8192


@functools.lru_cache(maxsize=16)
def _chunk_form(readme: bool, k: int) -> re.Pattern:
    """The multi-line pattern of a strict line with exactly k entries; each
    match is one whole line, so a chunk is strict when every line matches."""
    unrolled = min(k, _UNROLLED_ENTRIES)
    entries = ", ".join([_NUM] * unrolled)
    if k > unrolled:
        entries += f"(?:, {_NUM}){{{k - unrolled}}}"
    return re.compile(f"^{_line_form(readme, entries)}$", re.M)


class _PredictionColumns:
    """The rows of a prediction JSONL file as ``_validate_columns`` takes
    them, each row's line number, and the file's invalid-JSON messages.

    The file is read ``_CHUNK_ROWS`` raw lines at a time. The first line in
    ``_README_FORM`` or ``_SORTED_FORM`` fixes k. One regex ``split`` of a
    chunk matches each line in the form of most of its lines, with k
    entries and nothing around it, and these go straight into columns. The
    lines left over are read one by one: a stripped line in either strict
    form with k entries goes into columns, and every other nonblank line
    through ``_json_value``. All routes give the same values. When every
    row took a strict route, ``confs`` is one float matrix and ``labels``
    one int64 array; otherwise both are lists of per-row values in file
    order.
    """

    def __init__(self, fh):
        self.ids: list = []
        self.splits: list = []
        self.lines = array("q")
        self.bad_json: list[str] = []
        self._k = None
        parsed: dict[int, object] = {}  # row index -> value of a json.loads row
        blocks, label_blocks = [], []
        start = 1
        for chunk in iter(lambda: list(islice(fh, _CHUNK_ROWS)), []):
            confs, labels = self._chunk_rows(chunk, start, parsed)
            if confs:
                blocks.append(_float_block(confs, self._k))
                label_blocks.append(np.array(labels, dtype=np.int64))
            start += len(chunk)

        n = len(self.lines)
        self.is_obj = np.ones(n, dtype=bool)
        if n and not parsed:
            self.confs = np.concatenate(blocks)
            self.labels = np.concatenate(label_blocks)
            return
        strict_confs = iter(np.concatenate(blocks).tolist() if blocks else ())
        strict_labels = iter(np.concatenate(label_blocks).tolist() if blocks else ())
        self.confs, self.labels = [], []
        for i in range(n):
            if i in parsed:
                self.is_obj[i] = isinstance(parsed[i], dict)
                row = parsed[i] if self.is_obj[i] else {}
                self.confs.append(row.get("confidences"))
                self.labels.append(row.get("label"))
            else:
                self.confs.append(next(strict_confs))
                self.labels.append(next(strict_labels))

    def _chunk_rows(self, chunk: list[str], start: int, parsed: dict):
        """Put every row of ``chunk``, raw lines from line ``start`` on, into
        columns, and each ``json.loads`` row's value into ``parsed`` under its
        row index; return the confidence and label texts of its strict rows.
        """
        if self._k is None:
            first = chunk[0].strip()
            readme = first.startswith('{"id"')
            m = (_README_FORM if readme else _SORTED_FORM).fullmatch(first)
            if m is None:
                return self._line_rows(chunk, start, parsed, [], [])
            self._k = m.group(2 if readme else 1).count(",") + 1
        text = "".join(chunk)
        # The form of most lines: of the two, only a sorted-form line holds
        # this text.
        readme = 2 * text.count('{"confidences"') < len(chunk)
        # A flat list: the text before the first match, then each match's
        # four groups and the text after it. Unlike findall, no per-row tuple.
        parts = _chunk_form(readme, self._k).split(text)
        if len(parts) == 5 * len(chunk) + 1:
            return self._matched_rows(parts, 0, len(chunk), start, readme)
        # Some lines did not match. Each run of matched lines is still taken
        # from the list; the loose lines between runs are read line by line.
        # Past the first, each gap starts with the newline of the line
        # before it, and its loose lines end with their own.
        confs: list[str] = []
        labels: list[str] = []
        gaps = parts[::5]
        run, ln = 0, start  # the first match of the current run, and its line
        for j, gap in enumerate(gaps):
            loose = gap[1:] if j else gap
            if not loose:
                continue
            strict = self._matched_rows(parts, run, j, ln, readme)
            confs += strict[0]
            labels += strict[1]
            ln += j - run
            lines = loose.split("\n")
            if not lines[-1]:
                lines.pop()
            self._line_rows(lines, ln, parsed, confs, labels)
            run, ln = j, ln + len(lines)
        strict = self._matched_rows(parts, run, len(gaps) - 1, ln, readme)
        return confs + strict[0], labels + strict[1]

    def _matched_rows(self, parts: list[str], a: int, b: int, ln: int, readme: bool):
        """Put matches ``a`` to ``b - 1`` of a chunk ``split``, on lines
        ``ln`` on, into columns; return their confidence and label texts."""
        lo, hi = 5 * a, 5 * b
        self.ids.extend(parts[lo + (1 if readme else 2) : hi : 5])
        self.splits.extend(map(_SPLIT_TAGS.__getitem__, parts[lo + 4 : hi : 5]))
        self.lines.extend(range(ln, ln + b - a))
        return parts[lo + (2 if readme else 1) : hi : 5], parts[lo + 3 : hi : 5]

    def _line_rows(self, lines: list[str], start: int, parsed: dict, confs: list, labels: list):
        """Read ``lines``, raw lines from line ``start`` on, one by one into
        columns; each strict row's confidence and label texts go onto
        ``confs`` and ``labels``, and each ``json.loads`` row's value into
        ``parsed`` under its row index. Return ``confs, labels``."""
        for ln, line in _jsonl_lines(lines, start):
            m = _README_FORM.fullmatch(line)
            if m is not None:
                rid, conf, label, split = m.groups()
            else:
                m = _SORTED_FORM.fullmatch(line)
                if m is not None:
                    conf, rid, label, split = m.groups()
            if m is not None:
                if self._k is None:
                    self._k = conf.count(",") + 1
                if conf.count(",") + 1 == self._k:
                    self.ids.append(rid)
                    self.splits.append(_SPLIT_TAGS[split])
                    self.lines.append(ln)
                    confs.append(conf)
                    labels.append(label)
                    continue
            value, error = _json_value(ln, line)
            if error is not None:
                self.bad_json.append(error)
                continue
            parsed[len(self.lines)] = value
            row = value if isinstance(value, dict) else {}
            self.ids.append(row.get("id"))
            self.splits.append(row.get("split"))
            self.lines.append(ln)
        return confs, labels

    def validate(self):
        return _validate_columns(self.ids, self.confs, self.labels, self.splits, self.is_obj)


def _float_block(confs: list[str], k: int) -> np.ndarray:
    """The (m, k) matrix of m strict-form confidence lists of k entries."""
    tokens = ", ".join(confs).split(", ")
    return np.fromiter(map(float, tokens), dtype=float, count=len(tokens)).reshape(-1, k)


def _prediction_lines(ds):
    """Yield a sampled dataset's JSONL lines, ``_CHUNK_ROWS`` rows per
    string, as ``json.dumps(row, sort_keys=True)`` writes them: ``repr`` of
    a float is ``float.__repr__``, which json uses too, and the ids
    ``sample_dataset`` gives (``r0``, ``r1``, ...) need no escaping.

    Each distinct confidence row is formatted once per chunk: a model of s
    support points gives at most s distinct rows. Rows are grouped by their
    bytes, so -0.0 and 0.0 stay apart as ``repr`` keeps them apart."""
    k = ds.k
    # One head per distinct row; float reprs hold no newline to split on.
    head = '{"confidences": [' + ", ".join(["%s"] * k) + '], "id": "\n'
    line = '%s%s", "label": %d}\n'
    for start in range(0, ds.n, _CHUNK_ROWS):
        probs = np.ascontiguousarray(ds.probs_matrix[start:start + _CHUNK_ROWS])
        keys = probs.view(np.dtype((np.void, 8 * k))).ravel()
        uniq, inverse = np.unique(keys, return_inverse=True)
        reprs = tuple(map(repr, uniq.view(float).tolist()))
        heads = np.array((head * len(uniq) % reprs).split("\n")[:-1], dtype=object)
        # Each line's format arguments: its row's head, the id and the label.
        args = np.empty((len(probs), 3), dtype=object)
        args[:, 0] = heads[inverse]
        args[:, 1] = ds.ids[start:start + _CHUNK_ROWS]
        args[:, 2] = ds.labels_array[start:start + _CHUNK_ROWS].tolist()
        yield line * len(probs) % tuple(args.ravel().tolist())


def cmd_eval(args) -> int:
    from .diagram import reliability_svg
    from .metrics import build_report
    # Checked before the input is read, so a bad --bins fails fast.
    bins = _parse_bins(args.bins)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            cols = _PredictionColumns(fh)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO

    # Printed only once the whole file has decoded, so a file that is not
    # UTF-8 reports that alone.
    for error in cols.bad_json:
        print(f"error: {error}", file=sys.stderr)
    if cols.bad_json:
        return EXIT_INPUT
    try:
        ds = cols.validate()
    except DatasetValidationError as exc:
        for v in exc.violations:
            ln = cols.lines[v.index] if v.index < len(cols.lines) else v.index + 1
            print(f"error: line {ln}: {v.kind}: {v.message}", file=sys.stderr)
        return EXIT_INPUT

    report = build_report(ds, bins)
    print(f"n={report.n} k={report.k} M={report.M}")
    print(f"accuracy={report.accuracy!r}")
    print(f"conf_ece={report.conf_ece!r}")
    print(f"cw_ece={report.cw_ece!r}")
    if args.report:
        _atomic_write(args.report, _dump_json(report.to_json_dict()))
    if args.plot:
        svg = reliability_svg(report.conf_bins, report.n, report.k)
        _atomic_write(args.plot, svg)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .genmodel import Predictor, make_model, sample_dataset
    from .metrics import build_report
    # Checked before the model is built and sampled, so bad flags fail fast.
    bins = BinningConfig(M=args.bins)
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    model = make_model(args.model, args.k, args.support, alpha=args.alpha, seed=args.seed)
    predictor = Predictor.from_model(model)
    ds = sample_dataset(model, predictor, args.n, seed=args.seed)
    report = build_report(ds, bins)
    print(f"accuracy={report.accuracy!r}")
    print(f"conf_ece={report.conf_ece!r}")
    print(f"cw_ece={report.cw_ece!r}")
    if args.out:
        _atomic_write(args.out + ".jsonl", _prediction_lines(ds))
        _atomic_write(args.out + ".model.json", _dump_json(model.to_json_dict()))
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .genmodel import (
        FiniteGenerativeModel, NoDisagreement, Predictor, UnreachableAccuracy,
        classify_regime, construct_bound_predictor, labeled_accuracy,
        labels_matching_accuracy, lower_bound_constant, tce, verify_ece_le_tce,
    )
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
    unreachable = 0
    rows = ["target_acc,achieved_acc,tce,envelope_2gap,C,cwece_pop,holds"]
    for target in grid:
        try:
            built = construct_bound_predictor(model, labels, target)
        except (UnreachableAccuracy, BadParams) as exc:
            unreachable += 1
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
    if unreachable:
        print(f"error: {unreachable} of {len(grid)} targets unreachable", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _toy_report(task, policy, bins):
    from . import toylab
    from .metrics import build_report
    ds = toylab.task_dataset(task, policy)
    return ds, build_report(ds, bins)


def cmd_train_toy(args) -> int:
    from . import toylab
    from .diagram import reliability_svg
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
    """The policy of ``toylab.train(..., mode="sft-only")``, fitted by
    draining the EM loop: no history row is built."""
    from . import toylab
    from .emcal import _epochs
    policy = toylab.LinearPolicy(task.d, task.k)
    cfg = toylab._plain_descent(args.epochs, args.lr)
    for _ in _epochs(policy, task.labels, cfg, features=task.features):
        pass
    return policy


def _run_toy_mode(args, task, bins):
    """Run one training mode; cft/rcft/ts continue from a fresh sft baseline."""
    from . import toylab
    from .emcal import EmConfig, run_em
    from .metrics import build_report
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
        base = _sft_baseline(args, task)
        before_ds, before_report = _toy_report(task, base, bins)
        t_star, ece_b, ece_a = toylab.fit_temperature(before_ds, bins)
        warning = toylab._grid_edge_warning(t_star)
        if warning is not None:
            print(f"warning: {warning}", file=sys.stderr)
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
        base = _sft_baseline(args, task)
        before_ds, before_report = _toy_report(task, base, bins)
        mode = "cft" if args.mode == "cft" else "rcft-analog"
        policy, history = toylab.train(base, task, mode=mode, em=cfg)
    else:
        raise BadParams(f"unknown mode {args.mode!r}")

    _, after_report = _toy_report(task, policy, bins)
    return before_report, policy, history, after_report


def cmd_winrate(args) -> int:
    from .metrics import NonFiniteInput, PairwisePreferenceRecord, win_rate
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
                        RecursionError, NonFiniteInput) as exc:
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


# Each cmd_* function's layer modules. main imports them before it builds the
# parser; compiled after it, they left ~0.1 MB more heap resident at peak.
_LAYERS = {"eval": ("metrics", "diagram"), "simulate": ("genmodel", "metrics"),
           "bounds": ("genmodel",), "train-toy": ("toylab", "diagram"), "winrate": ("metrics",)}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for layer in _LAYERS.get(argv[0] if argv else "", ()):
        importlib.import_module(f"{__package__}.{layer}")
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


def run() -> int:
    """The process entry point, for ``python -m calibkit.cli`` and the
    ``calibkit`` script: ``main``'s exit code, or argparse's, once stdout is
    flushed. A failed flush is an I/O failure, and fd 1 then points at
    os.devnull so that the flush at exit cannot fail again. However ``main``
    ends, the GC heap is frozen, so the collections of interpreter teardown
    skip it; ``main`` has closed every file it wrote."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, or a usage error
        code = exc.code
    finally:
        gc.freeze()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    raise SystemExit(run())
