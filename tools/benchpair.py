"""Judge a change against its parent commit with the perfbench benchmark.

Usage (from anywhere in the checkout)::

    python3 tools/benchpair.py --parent REV [--pairs N] [--seconds S] \
        [--seed N] [--workload NAME ...] [--scratch DIR] [--write FILE]

The change is this checkout's working tree; the parent is the git revision
REV (default ``HEAD``), exported with ``git archive`` into a directory under
``--scratch`` whose path is as long as the checkout's, since the benchmark's
peak RSS moves with that length. For each workload the script runs
``perfbench/run.py --trace 0`` on both trees, one after the other, ``--pairs``
times; the parent goes first in even pairs and the change in odd ones.

For every end-to-end metric in ``BENCHMARK.json`` it prints both medians,
the pairs the change won (ties count for neither side), the parent's
quartiles, and the change's median as a share of the parent's, beside the
metric's ``bound``: the share of the parent's median by which the metric may
worsen (``perfbench/README.md``), so 0.1 means 10%. ``--write FILE`` saves
the same figures, every sample, and each workload's ``environment`` line as
JSON. The exit code is 1 when a run is not correct or a metric is worse than
its bound, else 0. Only the standard library is used, and nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import secrets
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float]:
    """Q1 and Q3 of ``values``, by the inclusive method; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's samples, where ``parent[i]`` and ``change[i]``
    were taken in pair i.

    ``share`` is the change's median over the parent's, minus 1. ``worse`` is
    that share signed so that a positive value is a regression. The verdict
    is ``gain`` when the change won at least nine tenths of the pairs and
    its median is better by more than the parent's quartile distance;
    otherwise ``unresolved`` when that distance, over the parent's median,
    exceeds ``bound`` and not every change sample beats every parent sample;
    otherwise ``worse`` when ``worse`` exceeds ``bound``, else ``within``.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse = sign * (c_med - p_med) / p_med
    if won >= 0.9 * len(parent) and sign * (p_med - c_med) > q3 - q1:
        verdict = "gain"
    elif (q3 - q1) / p_med > bound and max(sign * c for c in change) >= min(
            sign * p for p in parent):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse"
    else:
        verdict = "within"
    return {
        "parent_median": p_med, "change_median": c_med, "parent_q1": q1, "parent_q3": q3,
        "won": won, "pairs": len(parent), "share": c_med / p_med - 1.0, "worse": worse,
        "bound": bound, "verdict": verdict,
    }


def format_row(workload: str, metric: str, s: dict) -> str:
    return (
        f"{workload:<9} {metric:<12} {s['parent_median']:>10.4g} {s['change_median']:>10.4g} "
        f"{s['won']:>3}/{s['pairs']:<3} {s['parent_q1']:>10.4g} {s['parent_q3']:>10.4g} "
        f"{s['share']:>+8.1%} {s['bound']:>6.0%}  {s['verdict']}"
    )


HEADER = (
    f"{'workload':<9} {'metric':<12} {'parent':>10} {'change':>10} {'won':>7} "
    f"{'parent Q1':>10} {'parent Q3':>10} {'change':>8} {'bound':>6}  verdict"
)


def export_parent(rev: str, scratch: Path) -> Path:
    """``git archive`` of ``rev`` into a new directory under ``scratch``
    whose path has as many characters as the checkout's."""
    scratch = scratch.resolve()
    room = len(str(ROOT)) - len(str(scratch)) - 1
    if room < 1:
        raise SystemExit(f"benchpair: --scratch {scratch} is too long for a parent path "
                         f"of {len(str(ROOT))} characters")
    while True:
        dest = scratch / secrets.token_hex(room)[:room]
        try:
            dest.mkdir()
            break
        except FileExistsError:
            continue
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py --trace 0`` run: its result line and its
    ``environment`` line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"benchpair: perfbench failed in {tree}: {proc.stderr.strip()[-500:]}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--scratch", default=tempfile.gettempdir(),
                        help="directory for the parent's export")
    parser.add_argument("--write", default=None, metavar="FILE", help="save the figures here")
    args = parser.parse_args(argv)

    def rev_parse(rev: str) -> str:
        return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    commit = rev_parse(args.parent)
    parent_tree = export_parent(commit, Path(args.scratch))
    trees = {"parent": parent_tree, "change": ROOT}
    record = {"parent": commit, "change": "working tree at " + rev_parse("HEAD"),
              "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "workloads": {}}
    failed = False
    print(HEADER)
    try:
        for workload in args.workload or names:
            samples = {side: {m["name"]: [] for m in bench["end_to_end"]} for side in trees}
            correct, environment = True, None
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result, env = run_bench(trees[side], workload, args.seed, args.seconds)
                    correct = correct and result["correct"]
                    environment = env if side == "change" else environment
                    for name, values in samples[side].items():
                        values.append(result["metrics"][name]["value"])
                    print(f"benchpair: {workload} pair {i + 1}/{args.pairs} {side} done",
                          file=sys.stderr)
            metrics = {}
            for m in bench["end_to_end"]:
                name = m["name"]
                s = summarize(samples["parent"][name], samples["change"][name],
                              m["better"], m["bound"])
                print(format_row(workload, name, s))
                failed = failed or s["verdict"] == "worse"
                metrics[name] = {**s, "unit": m["unit"], "parent_samples": samples["parent"][name],
                                 "change_samples": samples["change"][name]}
            if not correct:
                print(f"{workload}: a run was not correct")
                failed = True
            record["workloads"][workload] = {
                "correct": correct, "metrics": metrics, "environment": environment,
            }
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
