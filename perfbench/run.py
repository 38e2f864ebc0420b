"""calibkit benchmark: whole CLI runs, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {eval,simulate,bounds,train} \
        --seed N --seconds S --trace {0,1}

One client runs the workload's ``python -m calibkit.cli`` invocations one
after another, each started only when the previous one has exited (a closed
loop), and repeats that pass for ``--seconds``: at least twice untraced, so
the outputs of two passes can be byte-compared, and at least once when
tracing, where the traced pass is the second. Every invocation's outputs are
checked against the oracles in ``workloads.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over passes: ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``setup_s``. With ``--trace 1`` one pass also runs in process under
``tracer.py`` and the last line reports the per-layer metrics. Everything
the run writes goes to ``.perfbench_work/<workload>/`` under the root.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from tracer import COUNTER_SPAN, LAYERS, MEM_PROBES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SPAWNS = 7
# Parents under which metric tables are built for the per-epoch history rows.
HISTORY_PARENTS = ("emcal.run_em", "toylab.train")

# Per-layer metrics taken straight from the span aggregates:
# (metric name, unit, span name, aggregate field).
SPAN_METRICS = [
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("core.validate_dataset.s", "s", "core.validate_dataset", "s"),
    ("core.validate_dataset.rows", "count", "core.validate_dataset", "rows"),
    ("core.validate_dataset.renormalized_rows", "count", "core.validate_dataset",
     "renormalized_rows"),
    ("core.Dataset.from_arrays.s", "s", "core.Dataset.from_arrays", "s"),
    ("core.Dataset.from_arrays.rows", "count", "core.Dataset.from_arrays", "rows"),
    ("metrics.build_report.self_s", "s", "metrics.build_report", "self_s"),
    ("metrics.conf_ece_arrays.s", "s", "metrics.conf_ece_arrays", "s"),
    ("metrics.cw_ece_arrays.s", "s", "metrics.cw_ece_arrays", "s"),
    ("diagram.reliability_svg.s", "s", "diagram.reliability_svg", "s"),
    ("genmodel.make_model.s", "s", "genmodel.make_model", "s"),
    ("genmodel.sample_dataset.s", "s", "genmodel.sample_dataset", "s"),
    ("genmodel.sample_dataset.rows", "count", "genmodel.sample_dataset", "rows"),
    ("genmodel.population_cw_ece.s", "s", "genmodel.population_cw_ece", "s"),
    ("genmodel.population_cw_ece.calls", "count", "genmodel.population_cw_ece", "calls"),
    ("genmodel.population_cw_ece.unique_values", "count", "genmodel.population_cw_ece",
     "unique_values"),
    ("genmodel.verify_ece_le_tce.self_s", "s", "genmodel.verify_ece_le_tce", "self_s"),
    ("genmodel.construct_bound_predictor.s", "s", "genmodel.construct_bound_predictor", "s"),
    ("genmodel.construct_bound_predictor.calls", "count",
     "genmodel.construct_bound_predictor", "calls"),
    ("genmodel.tce.s", "s", "genmodel.tce", "s"),
    ("genmodel.lower_bound_constant.s", "s", "genmodel.lower_bound_constant", "s"),
    ("genmodel.Predictor.matrix_for.s", "s", "genmodel.Predictor.matrix_for", "s"),
    ("genmodel.Predictor.matrix_for.calls", "count", "genmodel.Predictor.matrix_for", "calls"),
    ("genmodel.FiniteGenerativeModel.from_json_dict.s", "s",
     "genmodel.FiniteGenerativeModel.from_json_dict", "s"),
    ("emcal.run_em.self_s", "s", "emcal.run_em", "self_s"),
    ("emcal.e_step.s", "s", "emcal.e_step", "s"),
    ("emcal.m_step.s", "s", "emcal.m_step", "s"),
    ("targetmap.build_target_matrix.s", "s", "targetmap.build_target_matrix", "s"),
    ("targetmap.build_target_matrix.rows", "count", "targetmap.build_target_matrix", "rows"),
    ("toylab.LinearPolicy.combined_grad.s", "s", "toylab.LinearPolicy.combined_grad", "s"),
    ("toylab.LinearPolicy.combined_grad.calls", "count",
     "toylab.LinearPolicy.combined_grad", "calls"),
    ("toylab.TabularPolicy.combined_grad.s", "s", "toylab.TabularPolicy.combined_grad", "s"),
    ("toylab.TabularPolicy.combined_grad.calls", "count",
     "toylab.TabularPolicy.combined_grad", "calls"),
    ("toylab.LinearPolicy.probs.s", "s", "toylab.LinearPolicy.probs", "s"),
    ("toylab.fit_temperature.s", "s", "toylab.fit_temperature", "s"),
    ("toylab.apply_temperature.s", "s", "toylab.apply_temperature", "s"),
]


@dataclass
class Run:
    """One finished child process and the verdict on its outputs."""

    invocation: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
    """Start one child, wait for it, and return its exit code, wall time,
    user+system CPU and max RSS. RSS comes from this child's own rusage:
    ``RUSAGE_CHILDREN`` would be a running max over all children."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Client:
    """The single closed-loop client: runs invocations and judges them."""

    def __init__(self, workload: workloads.Workload, work: Path, env: dict):
        self.workload = workload
        self.work = work
        self.env = env
        self.reference: dict[str, tuple] = {}

    def run(self, inv: workloads.Invocation, argv: list[str], tag: str) -> Run:
        for path in inv.outputs:
            path.unlink(missing_ok=True)
        out = self.work / "logs" / f"{tag}.{inv.name}.out"
        err = out.with_suffix(".err")
        code, wall, cpu, rss = spawn(argv, self.env, out, err)
        stdout = out.read_text(encoding="utf-8")
        if code != 0:
            problems = [f"exit code {code}: {err.read_text(encoding='utf-8').strip()[-300:]}"]
        else:
            try:
                problems = self.workload.check(inv, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        # Byte-identical reruns: every pass must reproduce the first pass.
        fingerprint = (stdout, [_digest(p) for p in inv.outputs])
        first = self.reference.setdefault(inv.name, fingerprint)
        if fingerprint != first:
            problems = problems + ["outputs differ from the first pass of this seed"]
        return Run(inv.name, code, wall, cpu, rss, problems)

    def cli_pass(self, tag: str) -> list[Run]:
        return [self.run(inv, [sys.executable, "-m", "calibkit.cli", *inv.argv], tag)
                for inv in self.workload.invocations]

    def traced_pass(self, tag: str, mem: bool, only=None) -> tuple[list[Run], list[dict]]:
        runs, spans = [], []
        for inv in self.workload.invocations:
            if only is not None and inv.name not in only:
                continue
            path = self.work / "trace" / f"{tag}.{inv.name}.jsonl"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(path),
                    "1" if mem else "0", "--", *inv.argv]
            runs.append(self.run(inv, argv, tag))
            if path.exists():
                with path.open(encoding="utf-8") as fh:
                    spans += [json.loads(line) for line in fh]
        return runs, spans


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def pass_totals(runs: list[Run]) -> dict:
    return {
        "wall_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


def aggregate_spans(spans: list[dict]) -> tuple[dict, dict]:
    """Per span name: calls, total time, total self time, summed counters and
    the largest tracemalloc peak; and per span name, its parents' names."""
    by_key = {(s["invocation"], s["id"]): s for s in spans}
    covered: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["invocation"], s["parent"])] += s["end"] - s["start"]
    stats: dict = defaultdict(lambda: defaultdict(float))
    parents: dict = defaultdict(Counter)
    for s in spans:
        key = (s["invocation"], s["id"])
        dur = s["end"] - s["start"]
        entry = stats[s["name"]]
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - covered[key]
        parent = by_key.get((s["invocation"], s["parent"]))
        parent_name = parent["name"] if parent else None
        parents[s["name"]][parent_name] += 1
        if parent_name in HISTORY_PARENTS:
            entry["history_s"] += dur
        for field in ("rows", "renormalized_rows", "unique_values", "rank_preserved"):
            if s.get(field) is not None:
                entry[field] += s[field]
        if "peak_alloc_bytes" in s:
            entry["peak_alloc_mb"] = max(entry["peak_alloc_mb"], s["peak_alloc_bytes"] / 2**20)
    return stats, parents


def layer_metrics(traced: list[dict], mem_spans: list[dict], workload, traced_wall: float,
                  untraced_wall: float) -> tuple[dict, dict]:
    """Every per-layer metric (zero where this workload never reaches the
    layer), and the most common parent span of each metric's span."""
    stats, parents = aggregate_spans(traced)
    mem_stats, _ = aggregate_spans(mem_spans)
    metrics, parent_of = {}, {}

    def put(name, value, unit, span=None):
        metrics[name] = {"value": float(value), "unit": unit}
        if span is not None and parents.get(span):
            parent_of[name] = parents[span].most_common(1)[0][0]

    for name, unit, span, field in SPAN_METRICS:
        put(name, stats[span][field], unit, span)
    for span in ("metrics.conf_ece_arrays", "metrics.cw_ece_arrays"):
        put(f"{span}.history_s", stats[span]["history_s"], "s")
        parent_of[f"{span}.history_s"] = "|".join(HISTORY_PARENTS)
    targets = stats["targetmap.build_target_matrix"]
    put("targetmap.build_target_matrix.rank_preserved_ratio",
        targets["rank_preserved"] / targets["rows"] if targets["rows"] else 0.0,
        "ratio", "targetmap.build_target_matrix")
    for span in MEM_PROBES:
        put(f"{span}.peak_alloc_mb", mem_stats[span]["peak_alloc_mb"], "MB", span)
    for layer in LAYERS:
        put(f"layer.{layer}.self_s",
            sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + ".")), "s")
    put("cli.bytes_read", sum(p.stat().st_size for inv in workload.invocations
                              for p in inv.inputs), "bytes")
    put("cli.bytes_written", sum(p.stat().st_size for inv in workload.invocations
                                 for p in inv.outputs if p.exists()), "bytes")
    put("trace.spans", sum(1 for s in traced if s["name"] != COUNTER_SPAN), "count")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    return metrics, parent_of


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int, workload: workloads.Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "workload": workload.name,
        "seed": seed,
        "inputs": workload.properties,
    }


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def describe(name: str, values: list[float], unit: str, over: str = "passes") -> str:
    return (f"{name:<12} {statistics.median(values):.6g} {unit}  "
            f"(median of {len(values)} {over}, min {min(values):.6g}, max {max(values):.6g})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "calibkit" / "cli.py").is_file():
        return fail(f"no calibkit sources under {src}")
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("files", "logs", "trace"):
        (work / sub).mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    # The children must import this checkout's calibkit, not an installed one.
    probe = [sys.executable, "-c", "import calibkit; print(calibkit.__file__)"]
    out, err = work / "logs" / "probe.out", work / "logs" / "probe.err"
    code = spawn(probe, env, out, err)[0]
    if code != 0 or not Path(out.read_text().strip()).resolve().is_relative_to(src):
        return fail(f"cannot import calibkit from {src}: {err.read_text().strip()[-300:]}")

    workload = workloads.prepare(args.workload, args.seed, work / "files")
    client = Client(workload, work, env)

    setup = []
    for i in range(SETUP_SPAWNS):
        help_out = work / "logs" / f"setup{i}.out"
        code, wall, _, _ = spawn([sys.executable, "-m", "calibkit.cli", "--help"], env,
                                 help_out, help_out.with_suffix(".err"))
        if code != 0 or "usage" not in help_out.read_text():
            return fail("`python -m calibkit.cli --help` failed")
        setup.append(wall)

    # The checks must be able to fail: a one-label change must be rejected.
    control_detected = None
    if workload.negative_control is not None:
        inv = workload.negative_control
        argv = [sys.executable, "-m", "calibkit.cli", *inv.argv]
        control_detected = bool(client.run(inv, argv, "control").problems)

    passes: list[list[Run]] = []
    reserve = 2 if args.trace else 0
    start = time.perf_counter()
    while True:
        passes.append(client.cli_pass(f"pass{len(passes)}"))
        elapsed = time.perf_counter() - start
        typical = statistics.median(pass_totals(p)["wall_s"] for p in passes)
        if len(passes) >= (1 if args.trace else 2) and \
                elapsed + typical * (1 + reserve) > args.seconds:
            break
    totals = [pass_totals(p) for p in passes]
    untraced_wall = statistics.median(t["wall_s"] for t in totals)

    parent_of: dict = {}
    traced_runs: list[Run] = []
    if args.trace:
        traced_runs, spans = client.traced_pass("traced", mem=False)
        probed = {s["invocation"].split(".", 1)[1] for s in spans if s["name"] in MEM_PROBES}
        mem_runs, mem_spans = client.traced_pass("mem", mem=True, only=probed)
        traced_wall = pass_totals(traced_runs)["wall_s"]
        metrics, parent_of = layer_metrics(spans, mem_spans, workload, traced_wall, untraced_wall)
        traced_runs += mem_runs
        with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans + mem_spans)
    else:
        metrics = {
            "wall_s": {"value": untraced_wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(t["cpu_s"] for t in totals), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(t["peak_rss_mb"] for t in totals),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    all_runs = [r for p in passes for r in p] + traced_runs
    failed = [r for r in all_runs if r.problems]
    env_record = environment(args.seed, workload)
    env_record["negative_control_detected"] = control_detected
    record = {
        "environment": env_record,
        "passes": [[r.__dict__ for r in p] for p in passes],
        "traced_runs": [r.__dict__ for r in traced_runs],
        "setup_s": setup,
        "metrics": metrics,
        "parents": parent_of,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"closed loop, 1 client, {len(workload.invocations)} invocation(s) per pass")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        print(describe(name, [t[name] for t in totals], unit))
    print(describe("setup_s", setup, "s", over="spawns"))
    print(f"failed_ops   {len(failed)}/{len(all_runs)} = {len(failed) / len(all_runs):.6g} ratio")
    for r in failed:
        print(f"  FAILED {r.invocation}: {'; '.join(r.problems)[:500]}")
    if control_detected is not None:
        print(f"negative control (one label flipped): {int(control_detected)}/1 failed op, "
              f"{'as required' if control_detected else 'NOT DETECTED: the checks cannot fail'}")
    if args.trace:
        for name, m in metrics.items():
            parent = parent_of.get(name, "-")
            print(f"  {name:<52} {m['value']:.6g} {m['unit']:<6} parent={parent}")

    correct = not failed and control_detected is not False
    print(json.dumps({"correct": correct, "attempted": len(all_runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
