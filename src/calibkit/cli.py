"""Command-line surface: dataset evaluation, simulator runs, bound sweeps,
toy training, and win-rate scoring.

Exit codes: 0 success, 1 I/O failure, 2 input validation failure,
3 numerical failure. A ``CalibrationError`` reaching ``main`` is reported as
one ``error:`` line naming its class, never as a traceback; so is an input
file that is not UTF-8, and, through ``run``, a stdout that cannot be
written. File writes are atomic (temp file + rename), and every subcommand
is deterministic given its inputs, flags, and seed.

Each ``cmd_*`` function imports the layer modules it runs, so a process
loads only those; ``--help`` loads none beyond this module and ``core``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import sys
import tempfile
from array import array
from itertools import islice

# OpenBLAS starts a pool of nproc threads when numpy loads, and no calibkit
# product needs it. The BLAS calls the CLI makes are LinearPolicy's blocked
# products (at most 2**18 multiply-adds each, which OpenBLAS keeps on one
# thread), genmodel's blocked dot products (at most 10000 entries each, the
# same) and train-toy's one ``X @ W`` of the teacher. So when this module is
# what loads numpy, OpenBLAS defaults to one thread; a value the caller sets
# wins. Once numpy is loaded the variable changes nothing, so a host
# program's environment, which its children inherit, is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .core import (
    BadParams,
    CalibrationError,
    DatasetValidationError,
    NonFiniteGradient,
    NonFiniteLoss,
    _accept,
    _check_bins,
    _row_entries,
    _violations,
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


_JSON_BATCH = 16384


def _dump_json(obj):
    """Yield the text of ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    newline, ``_JSON_BATCH`` encoder chunks per string: a write per chunk is
    slower, and one string holds the whole file in memory."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while batch := list(islice(chunks, _JSON_BATCH)):
        yield "".join(batch)
    yield "\n"


def _parse_bins(text: str) -> int | None:
    """``eval --bins``: a checked bin count, or None for 'heuristic'."""
    if text == "heuristic":
        return None
    try:
        M = int(text)
    except ValueError as exc:
        raise BadParams(f"--bins must be an integer or 'heuristic', got {text!r}") from exc
    _check_bins(M)
    return M


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
# Each form's groups are id, confidences and label, in line order.
_ID = r'"([A-Za-z0-9_-]+)"'
_NUM = r"(?:0|[1-9][0-9]{0,16})(?:\.[0-9]{1,40})?(?:[eE][-+]?[0-9]{1,3})?"
_TAIL = r'"label": (0|[1-9][0-9]{0,8})(?:, "split": "(?:train|val|test)")?\}'
# Entries a chunk pattern spells out one by one; any more are one counted
# repeat, which keeps a pattern for a file of many classes small to compile.
_UNROLLED_ENTRIES = 32
_CHUNK_ROWS = 8192


@functools.lru_cache(maxsize=16)
def _chunk_form(readme: bool, k: int) -> re.Pattern:
    """The multi-line pattern of a strict line with exactly k entries, in
    the README's key order or in sorted order; each match is one whole line
    (its ``\\r`` included), so a chunk is strict when every line matches."""
    unrolled = min(k, _UNROLLED_ENTRIES)
    entries = ", ".join([_NUM] * unrolled)
    if k > unrolled:
        entries += f"(?:, {_NUM}){{{k - unrolled}}}"
    confs = rf"\[({entries})\]"
    if readme:
        head = f'"id": {_ID}, "confidences": {confs}'
    else:
        head = f'"confidences": {confs}, "id": {_ID}'
    return re.compile(rf"^\{{{head}, {_TAIL}\r?$", re.M)


class _PredictionColumns:
    """The rows of a prediction JSONL file, each row's line number, and the
    file's invalid-JSON messages.

    The file is read by two routes. ``json.loads`` reads the first lines,
    up to the first row that passes the row test (``core._row_entries``),
    which fixes k. After that the file is read ``_CHUNK_ROWS`` raw lines at
    a time: one regex ``split`` of a chunk matches each line in the strict
    form of most of its lines, with k entries and nothing around it, and
    these go straight into columns. Every other nonblank line is read by
    ``json.loads``, and a row that passes the row test goes into the same
    columns: ``ids``, the float matrix ``confs`` and the int64 ``labels``.
    The value of a row that fails it is kept in ``failed`` under its row
    index.
    """

    def __init__(self, fh):
        self.ids: list[str] = []
        self.lines = array("q")
        self.bad_json: list[str] = []
        self.failed: dict[int, object] = {}
        self._k = None
        blocks, label_blocks = [], []
        start = 1
        # Until a row fixes k, a chunk is one line.
        for chunk in iter(lambda: list(islice(fh, _CHUNK_ROWS if self._k else 1)), []):
            confs, labels = self._chunk_rows(chunk, start)
            if confs:
                blocks.append(_float_block(confs, self._k))
                label_blocks.append(np.array(labels, dtype=np.int64))
            start += len(chunk)
        self.confs = np.concatenate(blocks) if blocks else np.empty((0, 0))
        self.labels = np.concatenate(label_blocks) if blocks else np.empty(0, dtype=np.int64)

    def _chunk_rows(self, chunk: list[str], start: int):
        """Put every row of ``chunk``, raw lines from line ``start`` on, into
        columns, and the value of each row that fails the row test into
        ``failed`` under its row index; return the confidence and label
        texts of the other rows."""
        if self._k is None:
            return self._loose_rows(chunk, start, [], [])
        text = "".join(chunk)
        # The form of most lines: of the two, only a sorted-form line holds
        # this text.
        readme = 2 * text.count('{"confidences"') < len(chunk)
        # A flat list: the text before the first match, then each match's
        # three groups and the text after it. Unlike findall, no per-row tuple.
        parts = _chunk_form(readme, self._k).split(text)
        if len(parts) == 4 * len(chunk) + 1:
            return self._matched_rows(parts, 0, len(chunk), start, readme)
        # Some lines did not match. Each run of matched lines is still taken
        # from the list; the loose lines between runs are read line by line.
        # Past the first, each gap starts with the newline of the line
        # before it, and its loose lines end with their own.
        confs: list[str] = []
        labels: list[str] = []
        gaps = parts[::4]
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
            self._loose_rows(lines, ln, confs, labels)
            run, ln = j, ln + len(lines)
        strict = self._matched_rows(parts, run, len(gaps) - 1, ln, readme)
        return confs + strict[0], labels + strict[1]

    def _matched_rows(self, parts: list[str], a: int, b: int, ln: int, readme: bool):
        """Put matches ``a`` to ``b - 1`` of a chunk ``split``, on lines
        ``ln`` on, into columns; return their confidence and label texts."""
        lo, hi = 4 * a, 4 * b
        self.ids.extend(parts[lo + (1 if readme else 2) : hi : 4])
        self.lines.extend(range(ln, ln + b - a))
        return parts[lo + (2 if readme else 1) : hi : 4], parts[lo + 3 : hi : 4]

    def _loose_rows(self, lines: list[str], start: int, confs: list, labels: list):
        """Read ``lines``, raw lines from line ``start`` on, through
        ``_json_value`` into columns. A row that passes the row test puts
        its id onto ``ids`` and its confidences, as ``repr`` text, and its
        label onto ``confs`` and ``labels``; any other row's value goes into
        ``failed``. Return ``confs, labels``."""
        for ln, line in _jsonl_lines(lines, start):
            value, error = _json_value(ln, line)
            if error is not None:
                self.bad_json.append(error)
                continue
            entries = _row_entries(value, self._k)
            if entries is None:
                self.failed[len(self.lines)] = value
            else:
                self._k = len(entries)
                self.ids.append(value["id"])
                confs.append(", ".join(map(repr, entries)))
                labels.append(str(value["label"]))
            self.lines.append(ln)
        return confs, labels

    def _rows(self):
        """Each row in file order: the value of a row that failed the row
        test, or a dict rebuilt from the row's entry in the columns."""
        passed = zip(self.ids, self.confs.tolist(), self.labels.tolist())
        for i in range(len(self.lines)):
            if i in self.failed:
                yield self.failed[i]
            else:
                rid, conf, label = next(passed)
                yield {"id": rid, "confidences": conf, "label": label}

    def validate(self):
        """The dataset, or ``DatasetValidationError`` naming every violation.
        A row that fails the row test breaks a rule of the walk."""
        if self.lines and not self.failed:
            ds = _accept(self.ids, self.confs, self.labels)
            if ds is not None:
                return ds
        raise DatasetValidationError(_violations(self._rows()))


def _float_block(confs: list[str], k: int) -> np.ndarray:
    """The (m, k) matrix of m confidence texts, each k numbers joined by
    ``", "``."""
    tokens = ", ".join(confs).split(", ")
    return np.fromiter(map(float, tokens), dtype=float, count=len(tokens)).reshape(-1, k)


def _prediction_lines(ds):
    """Yield a sampled dataset's JSONL lines, ``_CHUNK_ROWS`` rows per
    string, as ``json.dumps(row, sort_keys=True)`` writes them: ``repr`` of
    a float is ``float.__repr__``, which json uses too. Row i's id is
    ``r{i}``, which needs no escaping.

    Each distinct confidence row is formatted once per chunk: a model of s
    support points gives at most s distinct rows. Rows are grouped by their
    bytes, so -0.0 and 0.0 stay apart as ``repr`` keeps them apart."""
    k = ds.k
    # One head per distinct row; float reprs hold no newline to split on.
    head = '{"confidences": [' + ", ".join(["%s"] * k) + '], "id": "r\n'
    line = '%s%d", "label": %d}\n'
    for start in range(0, ds.n, _CHUNK_ROWS):
        probs = np.ascontiguousarray(ds.probs_matrix[start:start + _CHUNK_ROWS])
        keys = probs.view(np.dtype((np.void, 8 * k))).ravel()
        uniq, inverse = np.unique(keys, return_inverse=True)
        reprs = tuple(map(repr, uniq.view(float).tolist()))
        heads = np.array((head * len(uniq) % reprs).split("\n")[:-1], dtype=object)
        # Each line's format arguments: its row's head, its index and the label.
        args = np.empty((len(probs), 3), dtype=object)
        args[:, 0] = heads[inverse]
        args[:, 1] = range(start, start + len(probs))
        args[:, 2] = ds.labels_array[start:start + _CHUNK_ROWS].tolist()
        yield line * len(probs) % tuple(args.ravel().tolist())


def _print_errors(messages) -> None:
    """Write one ``error:`` line per message to stderr in one write: stderr
    is line-buffered, so a ``print`` per line would be a write per line."""
    sys.stderr.write("".join(f"error: {m}\n" for m in messages))


def cmd_eval(args) -> int:
    from .diagram import reliability_svg
    from .metrics import build_report
    # Checked before the input is read, so a bad --bins fails fast.
    M = _parse_bins(args.bins)
    try:
        with open(args.input, "r", encoding="utf-8", newline="\n") as fh:
            cols = _PredictionColumns(fh)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO

    # Reported only once the whole file has decoded, so a file that is not
    # UTF-8 reports that alone.
    if cols.bad_json:
        _print_errors(cols.bad_json)
        return EXIT_INPUT
    try:
        ds = cols.validate()
    except DatasetValidationError as exc:
        # An input with no records has no line to name.
        _print_errors(
            (f"line {cols.lines[v.index]}: " if cols.lines else "") + f"{v.kind}: {v.message}"
            for v in exc.violations
        )
        return EXIT_INPUT

    if M is None:  # 'heuristic': the cube-root rule
        M = max(1, round(ds.n ** (1 / 3)))
    _check_bin_memory(ds.k, M, bool(args.report))
    report = build_report(ds, M)
    print(f"n={report.n} k={report.k} M={report.M}")
    print(f"accuracy={report.accuracy!r}")
    print(f"conf_ece={report.conf_ece!r}")
    print(f"cw_ece={report.cw_ece!r}")
    if args.report:
        _atomic_write(args.report, _dump_json(report.to_json_dict()))
    if args.plot:
        svg = reliability_svg(report.conf_bins, report.k)
        _atomic_write(args.plot, svg)
    return EXIT_OK


def _check_memory(flags: str, nbytes: int) -> None:
    """Raise ``MemoryError``, which ``main`` reports, when ``nbytes``, a lower
    bound on what the sizes ``flags`` ask for, exceed physical memory. numpy
    cannot even size some such arrays, so nothing of that size is attempted."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no such query on this platform
        return
    if nbytes > have:
        raise MemoryError(
            f"{flags} need at least {nbytes} bytes, more than the {have} bytes "
            "of physical memory"
        )


def _check_bin_memory(k: int, M: int, report: bool) -> None:
    """``_check_memory`` for the (k + 1) * M bins of one report: the five
    8-byte bin arrays that ``_gap_tables`` holds at once and, when the report
    JSON is written, each bin's list slot and row dict."""
    from .metrics import _bin_rows
    per_bin = 40
    if report:
        per_bin += 8 + sys.getsizeof(_bin_rows(*np.zeros((3, 1)))[0])
    _check_memory("--bins", per_bin * (k + 1) * M)


def cmd_simulate(args) -> int:
    from .genmodel import Predictor, make_model, sample_dataset
    from .metrics import build_report
    # Checked before the model is built and sampled, so bad flags fail fast.
    _check_bins(args.bins)
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    k, support = max(args.k, 0), max(args.support, 0)
    _check_memory("--k, --support and --n", 8 * k * (support + args.n))  # label rows, confidences
    _check_bin_memory(k, args.bins, False)
    model = make_model(args.model, args.k, args.support, alpha=args.alpha, seed=args.seed)
    predictor = Predictor.from_model(model)
    ds = sample_dataset(model, predictor, args.n, seed=args.seed)
    report = build_report(ds, args.bins)
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
        classify_regime, construct_bound_predictor, labels_matching_accuracy,
        lower_bound_constant, verify_ece_le_tce,
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
        cw, t, cw_holds = verify_ece_le_tce(model, built.predictor)
        envelope = 2.0 * abs(built.reference_acc - built.achieved_acc)
        try:
            c, c_holds = lower_bound_constant(model, reference, built.predictor)
            c_text = repr(c)
        except NoDisagreement:
            c_holds, c_text = True, ""
        holds = (t <= envelope + 1e-12) and cw_holds and c_holds
        regime = classify_regime(built.achieved_acc, built.reference_acc)
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


def cmd_train_toy(args) -> int:
    from . import toylab
    from .diagram import reliability_svg
    from .emcal import EmConfig
    from .metrics import build_report
    _check_bins(args.bins)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    d, k, n = (max(v, 0) for v in (args.dim, args.k, args.n))
    _check_memory("--n, --dim and --k", 8 * (n * d + d * k + n * k))  # X, W and the logits
    _check_bin_memory(k, args.bins, bool(args.out))
    task = toylab.gen_toy_task(
        d=args.dim, k=args.k, n=args.n, teacher_temperature=args.tau, seed=args.seed
    )
    em = None
    if args.mode in ("cft", "rcft", "ece-only"):
        # Checked before the baseline runs, so a bad EM setting fails fast.
        em = EmConfig(
            epochs=args.em_epochs, bins=args.bins,
            lam=args.lam if args.mode == "cft" else 1.0,
            sft_weight=0.0 if args.mode == "ece-only" else 1.0,
            divergence=args.divergence, learning_rate=args.lr,
        )
    before_ds, after_ds, history = toylab._run_mode(
        task, args.mode, args.epochs, args.lr, args.epsilon, em, args.bins
    )
    if args.mode == "ts":
        warning = toylab._grid_edge_warning(history[0]["temperature"])
        if warning is not None:
            print(f"warning: {warning}", file=sys.stderr)
    before_report = build_report(before_ds, args.bins)
    after_report = build_report(after_ds, args.bins)

    print(f"mode={args.mode}")
    print(f"before: acc={before_report.accuracy!r} conf_ece={before_report.conf_ece!r}")
    print(f"after:  acc={after_report.accuracy!r} conf_ece={after_report.conf_ece!r}")
    if args.out:
        _atomic_write(args.out + ".history.json", _dump_json(history))
        _atomic_write(args.out + ".report.json", _dump_json(after_report.to_json_dict()))
        _atomic_write(args.out + ".before.svg", reliability_svg(before_report.conf_bins, task.k))
        _atomic_write(args.out + ".after.svg", reliability_svg(after_report.conf_bins, task.k))
    return EXIT_OK


def _pair_error(ln: int, obj, ids: set, chosen: array, reject: array) -> str | None:
    """Add pair line ``ln``'s id and log-probabilities to the columns, or
    return why the line is rejected: not an object, a missing or non-numeric
    log-probability, ``eval``'s id rule (a nonempty str, used once), or a
    non-finite log-probability."""
    if not isinstance(obj, dict):
        return f"line {ln}: record is not an object"
    logps = []
    for key in ("logp_chosen", "logp_reject"):
        if key not in obj:
            return f"line {ln}: missing {key!r}"
        try:
            logps.append(float(obj[key]))
        except TypeError:
            return f"line {ln}: {key!r} is not a number"
        except (ValueError, OverflowError) as exc:
            return f"line {ln}: {exc}"
    c, r = logps
    rid = obj.get("id")
    if not (isinstance(rid, str) and rid):
        return f"line {ln}: missing or empty 'id'"
    if not (math.isfinite(c) and math.isfinite(r)):
        return f"line {ln}: pair {rid!r} has non-finite log-probabilities"
    if rid in ids:
        return f"line {ln}: id {rid!r} already used"
    ids.add(rid)
    chosen.append(c)
    reject.append(r)
    return None


def cmd_winrate(args) -> int:
    from .metrics import win_rate
    ids, chosen, reject = set(), array("d"), array("d")
    try:
        with open(args.pairs, "r", encoding="utf-8", newline="\n") as fh:
            for ln, obj, error in _jsonl_values(fh):
                if error is None:
                    error = _pair_error(ln, obj, ids, chosen, reject)
                if error is not None:
                    print(f"error: {error}", file=sys.stderr)
                    return EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot read {args.pairs}: {exc}", file=sys.stderr)
        return EXIT_IO
    rate = win_rate(chosen, reject)
    # rate is wins / n rounded once, so rate * n rounds back to the count
    # (exactly, for any n below 2**51).
    print(f"pairs={len(chosen)} wins={round(rate * len(chosen))} win_rate={rate!r}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help text to stdout
    raises its ``OSError``, which argparse swallows, so that ``run`` reports
    it. Subparsers take this class from their parent."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    except MemoryError as exc:  # an absurd --n, --k or --support
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> int:
    """The process entry point, for ``python -m calibkit.cli`` and the
    ``calibkit`` script: ``main``'s exit code, or argparse's, once stdout is
    flushed. A failed flush, or help text that cannot be written, is an I/O
    failure (``_stdout_failed``). However ``main`` ends, the GC heap is
    frozen, so the collections of interpreter teardown skip it; ``main`` has
    closed every file it wrote."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, or a usage error
        code = exc.code
    except OSError as exc:  # argparse could not write help text to stdout
        code = _stdout_failed(exc)
    finally:
        gc.freeze()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _stdout_failed(exc)
    return code


def _stdout_failed(exc: OSError) -> int:
    """Report a stdout that cannot be written and point fd 1 at os.devnull,
    so that the flush at exit cannot fail again."""
    print(f"error: cannot write stdout: {exc}", file=sys.stderr)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(run())
