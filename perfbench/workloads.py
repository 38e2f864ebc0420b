"""Seeded inputs, CLI invocations and correctness oracles for the four
calibkit benchmark workloads.

Each workload is a list of ``calibkit`` CLI invocations that a single client
runs one after another (a closed loop). The benchmark writes every input file
itself from the workload seed; the program only receives those files and
flags. The oracles recompute the expected answers with this module's own
numpy code, never with calibkit's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# eval: a 1e5-row, k=4 prediction file, the read path at a realistic size.
EVAL_ROWS = 100_000
EVAL_K = 4
EVAL_BINS = 10
EVAL_ONE_HOT_SHARE = 0.02
EVAL_OFF_SIMPLEX_SHARE = 0.01
# Off-simplex rows sit 1e-8..5e-7 off unit sum: well inside calibkit's 1e-6
# ingestion tolerance and well outside its 1e-9 constructor tolerance, so
# every one of them is renormalized and none is rejected.
EVAL_OFF_SIMPLEX_RANGE = (1e-8, 5e-7)
EVAL_SPLITS = ("train", "val", "test")

# simulate: the write path through the same core/metrics layers.
SIM_ROWS = 100_000
SIM_SUPPORT = 50
SIM_K = 4
SIM_BINS = 10  # the CLI default

# bounds: a large support with all-distinct per-class values, so the
# population checks in genmodel dominate.
BOUNDS_SUPPORT = 5000
BOUNDS_K = 4
BOUNDS_ACC_STAR = 0.6
BOUNDS_GRID_POINTS = 9  # the CLI's default 0.1..0.9 grid

# train: one toy task at n=1e4 through the three modes that start from an
# SFT baseline; only here do emcal, targetmap and toylab run.
TRAIN_N = 10_000
TRAIN_MODES = ("cft", "rcft", "ts")

# calibkit's documented ingestion rule: rows whose sum is further than this
# from 1 are divided by their sum.
SIMPLEX_ATOL = 1e-9
# Printed metrics must match the oracle to this absolute tolerance.
METRIC_ATOL = 1e-12


@dataclass
class Invocation:
    """One ``calibkit`` CLI run: its arguments and the files it reads and writes."""

    name: str
    argv: list[str]
    inputs: list[Path]
    outputs: list[Path]


@dataclass
class Workload:
    """Invocations of one pass, plus the oracle that judges each of them.

    ``check(inv, stdout)`` judges an invocation that exited with code 0 and
    returns a list of problems; empty means its outputs are correct.
    """

    name: str
    invocations: list[Invocation]
    check: Callable[[Invocation, str], list[str]]
    properties: dict = field(default_factory=dict)
    negative_control: Invocation | None = None


# ---------------------------------------------------------------- oracles


def _reference_ece(values: np.ndarray, events: np.ndarray, M: int) -> float:
    """Binned gap with bin m covering ((m-1)/M, m/M] and 0 folded into bin 1."""
    edges = np.arange(1, M + 1) / M
    bins = np.searchsorted(edges, values, side="left")
    total = 0.0
    for m in range(M):
        members = bins == m
        count = int(members.sum())
        if count:
            total += count * abs(events[members].mean() - values[members].mean())
    return float(total / values.shape[0])


def reference_metrics(probs: np.ndarray, labels: np.ndarray, M: int) -> dict:
    """Accuracy, conf-ECE and cw-ECE computed independently of calibkit."""
    top = probs.argmax(axis=1)
    correct = (top == labels).astype(float)
    cw = [
        _reference_ece(probs[:, j], (labels == j).astype(float), M)
        for j in range(probs.shape[1])
    ]
    return {
        "accuracy": float(correct.mean()),
        "conf_ece": _reference_ece(probs.max(axis=1), correct, M),
        "cw_ece": float(sum(cw) / len(cw)),
    }


def _printed_values(stdout: str) -> dict:
    """``key=value`` pairs from the CLI's stdout, split on whitespace."""
    out = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def _compare_metrics(stdout: str, expected: dict) -> list[str]:
    printed = _printed_values(stdout)
    problems = []
    for key, want in expected.items():
        if key not in printed:
            problems.append(f"{key} not printed")
            continue
        try:
            got = float(printed[key])
        except ValueError:
            problems.append(f"{key}={printed[key]!r} is not a number")
            continue
        if not abs(got - want) <= METRIC_ATOL:
            problems.append(f"{key}={got!r}, oracle {want!r}")
    return problems


def _ingest_rule(rows: list[list[float]]) -> tuple[np.ndarray, int]:
    """Apply calibkit's documented renormalization to the decoded rows."""
    out, renormalized = [], 0
    for vals in rows:
        total = math.fsum(vals)
        if abs(total - 1.0) > SIMPLEX_ATOL:
            vals = [min(v / total, 1.0) for v in vals]
            renormalized += 1
        out.append(vals)
    return np.asarray(out, dtype=float), renormalized


# ---------------------------------------------------------------- eval


def _eval_rows(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    n, k = EVAL_ROWS, EVAL_K
    probs = rng.dirichlet(np.ones(k), size=n)
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.minimum((np.cumsum(probs, axis=1) < rng.random(n)[:, None]).sum(axis=1), k - 1)

    one_hot = rng.random(n) < EVAL_ONE_HOT_SHARE
    hot_class = rng.integers(0, k, size=n)
    probs[one_hot] = 0.0
    probs[one_hot, hot_class[one_hot]] = 1.0

    off = ~one_hot & (rng.random(n) < EVAL_OFF_SIMPLEX_SHARE / (1 - EVAL_ONE_HOT_SHARE))
    lo, hi = EVAL_OFF_SIMPLEX_RANGE
    size = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    probs[off] *= (1.0 + sign[off] * size[off])[:, None]

    tagged = rng.random(n) < 0.5
    split = rng.integers(0, len(EVAL_SPLITS), size=n)
    rows = []
    for i, (conf, label) in enumerate(zip(probs.tolist(), labels.tolist())):
        row = {"id": f"q{i}", "confidences": conf, "label": label}
        if tagged[i]:
            row["split"] = EVAL_SPLITS[split[i]]
        rows.append(row)
    return rows


def _prepare_eval(seed: int, work: Path) -> Workload:
    rows = _eval_rows(seed)
    probs, renormalized = _ingest_rule([r["confidences"] for r in rows])
    labels = np.asarray([r["label"] for r in rows], dtype=np.int64)
    expected = reference_metrics(probs, labels, EVAL_BINS)

    src = work / "preds.jsonl"
    lines = [json.dumps(r) + "\n" for r in rows]
    src.write_text("".join(lines), encoding="utf-8")

    # Negative control: one label flipped away from a correct top class, judged
    # against the oracle of the unmodified file; the check must reject it.
    top = probs.argmax(axis=1)
    flip = int(np.flatnonzero((top == labels) & (probs.max(axis=1) < 1.0))[0])
    lines[flip] = json.dumps({**rows[flip], "label": (rows[flip]["label"] + 1) % EVAL_K}) + "\n"
    control_src = work / "preds.flipped.jsonl"
    control_src.write_text("".join(lines), encoding="utf-8")

    def invocation(name: str, path: Path) -> Invocation:
        report, plot = work / f"{name}.report.json", work / f"{name}.svg"
        argv = ["eval", str(path), "--bins", str(EVAL_BINS),
                "--report", str(report), "--plot", str(plot)]
        return Invocation(name, argv, [path], [report, plot])

    def check(inv: Invocation, stdout: str) -> list[str]:
        problems = _compare_metrics(stdout, expected)
        if _printed_values(stdout).get("n") != str(EVAL_ROWS):
            problems.append(f"row count not printed as n={EVAL_ROWS}")
        report = json.loads(inv.outputs[0].read_text(encoding="utf-8"))
        problems += [
            f"report {key}={report.get(key)!r}, oracle {want!r}"
            for key, want in expected.items()
            if not abs(report.get(key, math.inf) - want) <= METRIC_ATOL
        ]
        return problems

    return Workload(
        name="eval",
        invocations=[invocation("eval", src)],
        check=check,
        properties={
            "rows": EVAL_ROWS,
            "k": EVAL_K,
            "bytes": src.stat().st_size,
            "renormalized_rows": renormalized,
            "renormalized_share": renormalized / EVAL_ROWS,
            "one_hot_rows": int((probs.max(axis=1) == 1.0).sum()),
            "split_tagged_rows": sum(1 for r in rows if "split" in r),
        },
        negative_control=invocation("eval-flipped", control_src),
    )


# ---------------------------------------------------------------- simulate


def _prepare_simulate(seed: int, work: Path) -> Workload:
    prefix = work / "sim"
    argv = ["simulate", "--model", "dirichlet", "--k", str(SIM_K), "--n", str(SIM_ROWS),
            "--support", str(SIM_SUPPORT), "--seed", str(seed), "--out", str(prefix)]
    data = Path(str(prefix) + ".jsonl")
    inv = Invocation("simulate", argv, [], [data, Path(str(prefix) + ".model.json")])
    expected: dict = {}

    def check(inv: Invocation, stdout: str) -> list[str]:
        if not expected:
            # Later passes are byte-compared with the first, so the oracle
            # reads the written data once.
            with data.open(encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
            if len(rows) != SIM_ROWS or len({r["id"] for r in rows}) != SIM_ROWS:
                return [f"wrote {len(rows)} rows, expected {SIM_ROWS} distinct ids"]
            probs = np.asarray([r["confidences"] for r in rows], dtype=float)
            labels = np.asarray([r["label"] for r in rows], dtype=np.int64)
            if probs.shape != (SIM_ROWS, SIM_K) or labels.min() < 0 or labels.max() >= SIM_K:
                return ["written rows have the wrong shape or label range"]
            expected.update(reference_metrics(probs, labels, SIM_BINS))
        return _compare_metrics(stdout, expected)

    return Workload(
        name="simulate",
        invocations=[inv],
        check=check,
        properties={"rows": SIM_ROWS, "k": SIM_K, "support": SIM_SUPPORT},
    )


# ---------------------------------------------------------------- bounds


def _prepare_bounds(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(BOUNDS_K), size=BOUNDS_SUPPORT)
    rows /= rows.sum(axis=1, keepdims=True)
    weight = 1.0 / BOUNDS_SUPPORT
    model = {
        "k": BOUNDS_K,
        "support": [
            {"id": f"x{i}", "weight": weight, "label_dist": row}
            for i, row in enumerate(rows.tolist())
        ],
    }
    path = work / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    out = work / "bounds.csv"
    argv = ["bounds", "--model", str(path), "--acc-star", str(BOUNDS_ACC_STAR), "--out", str(out)]

    def check(inv: Invocation, stdout: str) -> list[str]:
        lines = out.read_text(encoding="utf-8").splitlines()
        body = [line.split(",") for line in lines[1:]]
        problems = []
        if len(body) != BOUNDS_GRID_POINTS:
            problems.append(f"{len(body)} CSV rows, expected {BOUNDS_GRID_POINTS}")
        problems += [f"row {','.join(r)} does not hold" for r in body if r[-1] != "true"]
        return problems

    return Workload(
        name="bounds",
        invocations=[Invocation("bounds", argv, [path], [out])],
        check=check,
        properties={
            "support": BOUNDS_SUPPORT,
            "k": BOUNDS_K,
            "bytes": path.stat().st_size,
            "unique_values_per_class": [len(np.unique(rows[:, j])) for j in range(BOUNDS_K)],
        },
    )


# ---------------------------------------------------------------- train


def _finite_history(history) -> list[str]:
    """Every history value is a finite number. The plain-descent rows of
    rcft carry ``mean_ece: null`` (no targets exist there), which is allowed."""
    problems = []
    for i, row in enumerate(history):
        for key, value in row.items():
            if value is None and key == "mean_ece":
                continue
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"history row {i} {key}={value!r}")
    return problems


def _prepare_train(seed: int, work: Path) -> Workload:
    invocations = []
    for mode in TRAIN_MODES:
        prefix = str(work / f"train-{mode}")
        argv = ["train-toy", "--mode", mode, "--n", str(TRAIN_N), "--seed", str(seed),
                "--out", prefix]
        outputs = [Path(prefix + s) for s in
                   (".history.json", ".report.json", ".before.svg", ".after.svg")]
        invocations.append(Invocation(f"train-{mode}", argv, [], outputs))

    def check(inv: Invocation, stdout: str) -> list[str]:
        history = json.loads(inv.outputs[0].read_text(encoding="utf-8"))
        problems = _finite_history(history)
        if inv.name == "train-ts":
            accs = [line.split()[1] for line in stdout.splitlines()
                    if line.startswith(("before:", "after:"))]
            if len(accs) != 2 or accs[0] != accs[1]:
                problems.append(f"temperature scaling changed accuracy: {accs}")
        return problems

    return Workload(
        name="train",
        invocations=invocations,
        check=check,
        properties={"rows": TRAIN_N, "modes": list(TRAIN_MODES)},
    )


PREPARE = {
    "eval": _prepare_eval,
    "simulate": _prepare_simulate,
    "bounds": _prepare_bounds,
    "train": _prepare_train,
}


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and return its invocations."""
    return PREPARE[name](seed, work)
