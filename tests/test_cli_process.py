"""The CLI as a process: ``python -m calibkit.cli`` spawned with this
checkout's ``src`` on ``PYTHONPATH``, as the installed ``calibkit`` script
runs it. These check what only a fresh interpreter shows: which modules a
subcommand loads, the exit code of the whole process, and its stdout."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from calibkit.cli import main, run
from calibkit.genmodel import make_model

SRC = str(Path(__file__).resolve().parent.parent / "src")
EVERY_LAYER = {"core", "metrics", "genmodel", "targetmap", "emcal", "toylab", "diagram"}


# Imported by site at start-up from the front of PYTHONPATH: at exit it
# writes the names of the calibkit modules the process loaded to the file
# that MODULES_OUT names.
_SITECUSTOMIZE = """import atexit, os, sys
atexit.register(lambda: open(os.environ["MODULES_OUT"], "w").write(
    " ".join(m for m in sys.modules if m.startswith("calibkit."))))
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-process")
    model = make_model("dirichlet", 3, 6, alpha=1.0, seed=5)
    (root / "model.json").write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
    preds = [{"id": f"r{i}", "confidences": [0.7, 0.2, 0.1], "label": i % 2} for i in range(6)]
    (root / "preds.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in preds), encoding="utf-8")
    pairs = [{"id": f"p{i}", "logp_chosen": -1.0 * i, "logp_reject": -2.0} for i in range(4)]
    (root / "pairs.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in pairs), encoding="utf-8")
    # More points than the longest dot product OpenBLAS keeps on one thread.
    big = make_model("dirichlet", 4, 10001, alpha=1.0, seed=3)
    (root / "big.json").write_text(json.dumps(big.to_json_dict()), encoding="utf-8")
    (root / "probe").mkdir()
    (root / "probe" / "sitecustomize.py").write_text(_SITECUSTOMIZE, encoding="utf-8")
    return {"MODEL": root / "model.json", "PRED": root / "preds.jsonl",
            "PAIRS": root / "pairs.jsonl", "MISSING": root / "missing.jsonl",
            "BIG_MODEL": root / "big.json",
            "PROBE": root / "probe", "MODULES": root / "modules.txt"}


def _argv(args, files):
    return [str(files[a]) if a in files else a for a in args]


def _spawn(args, files, stdout=subprocess.PIPE, **env):
    """Run ``python -m calibkit.cli *args``; return the exit code, the stdout
    bytes, the calibkit modules loaded (``cli`` itself runs as ``__main__``,
    so it is not among them) and the stderr lines."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(files["PROBE"]), SRC]),
           "MODULES_OUT": str(files["MODULES"]), "COLUMNS": "80", **env}
    env = {k: v for k, v in env.items() if v is not None}
    files["MODULES"].unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "calibkit.cli", *_argv(args, files)],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )
    loaded = {m.removeprefix("calibkit.") for m in files["MODULES"].read_text().split()}
    return proc.returncode, proc.stdout, loaded, proc.stderr.decode().splitlines()


@pytest.mark.parametrize(
    "args, layers",
    [
        (["--help"], set()),
        (["bounds", "--model", "MODEL"], {"genmodel"}),
        (["eval", "PRED"], {"metrics", "diagram"}),
        (["simulate", "--n", "300", "--support", "5"], {"genmodel", "metrics"}),
        (["winrate", "--pairs", "PAIRS"], {"metrics"}),
        (["train-toy", "--mode", "sft-only", "--n", "40", "--dim", "4", "--epochs", "3"],
         EVERY_LAYER),
    ],
    ids=["help", "bounds", "eval", "simulate", "winrate", "train-toy"],
)
def test_a_subcommand_loads_only_its_layers_and_prints_what_main_prints(
        args, layers, files, monkeypatch, capsys):
    code, out, loaded, err = _spawn(args, files)
    assert (code, err) == (0, [])
    assert loaded == {"core"} | layers
    monkeypatch.setenv("COLUMNS", "80")
    if args == ["--help"]:
        with pytest.raises(SystemExit):
            main(_argv(args, files))
    else:
        assert main(_argv(args, files)) == 0
    assert out == capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "args, code",
    [
        (["eval", "MISSING"], 1),
        (["bounds", "--model", "MODEL", "--acc-grid", "x"], 2),
        # A tabular logit step of lr * n overflows to a non-finite gradient.
        (["train-toy", "--mode", "ece-only", "--lr", "1e308", "--n", "40", "--em-epochs", "1"],
         3),
    ],
    ids=["io", "input", "numerical"],
)
def test_a_failed_run_exits_with_its_code_and_one_error_line(args, code, files):
    got, _, _, err = _spawn(args, files)
    assert got == code
    assert sum(line.startswith("error:") for line in err) == 1
    assert not any(line.startswith("Traceback") for line in err)


def _runs_by_blas_thread_count(args, files, tmp_path):
    """Stdout and the output files ``run*`` of ``args``, whose ``{out}`` is
    the prefix ``run`` in ``tmp_path``, under ``OPENBLAS_NUM_THREADS`` unset,
    1 and 2, set in the child's environment only."""
    args = [a.format(out=tmp_path / "run") for a in args]
    runs = []
    for threads in (None, "1", "2"):
        code, out, _, err = _spawn(args, files, OPENBLAS_NUM_THREADS=threads)
        assert (code, err) == (0, [])
        outputs = sorted(tmp_path.glob("run*"))
        runs.append((out, [(p.name, p.read_bytes()) for p in outputs]))
        for p in outputs:
            p.unlink()
    return runs


@pytest.mark.parametrize("mode", ["cft", "sft-only", "ts"])
def test_train_toy_bytes_do_not_depend_on_the_blas_thread_count(mode, files, tmp_path):
    """At n = 10000, past one 2048-row block of the linear policy's
    products, stdout and every output file are the same bytes."""
    args = ["train-toy", "--mode", mode, "--n", "10000", "--seed", "1", "--out", "{out}"]
    runs = _runs_by_blas_thread_count(args, files, tmp_path)
    assert len(runs[0][1]) == 4
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize(
    "args, outputs",
    [
        (["eval", "PRED", "--report", "{out}.json", "--plot", "{out}.svg"], 2),
        (["simulate", "--n", "300", "--support", "5", "--out", "{out}"], 2),
        (["winrate", "--pairs", "PAIRS"], 0),
        (["bounds", "--model", "BIG_MODEL", "--out", "{out}.csv"], 1),
    ],
    ids=["eval", "simulate", "winrate", "bounds-10001-points"],
)
def test_subcommand_bytes_do_not_depend_on_the_blas_thread_count(
        args, outputs, files, tmp_path):
    """``bounds`` runs on 10001 support points, so each of its weighted sums
    is longer than one dot product that OpenBLAS keeps on one thread."""
    runs = _runs_by_blas_thread_count(args, files, tmp_path)
    assert len(runs[0][1]) == outputs
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), (["bounds"], 2), (["eval", "MISSING"], 1)],
    ids=["argparse-help", "argparse-usage-error", "main-returns"],
)
def test_run_freezes_the_heap_however_main_ends(args, code, files, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["calibkit", *_argv(args, files)])
    try:
        assert run() == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args, unbuffered",
    [(args, unbuffered) for args in (["bounds", "--model", "MODEL"], ["--help"],
                                     ["bounds", "--help"]) for unbuffered in (None, "1")],
    ids=[f"{name}{buffering}" for name in ("", "help-", "bounds-help-")
         for buffering in ("block-buffered", "unbuffered")],
)
def test_a_stdout_that_cannot_be_written_is_an_io_failure(args, unbuffered, files):
    """Help text is written by argparse, which swallows the write's OSError
    unless the parser lets it through."""
    with open("/dev/full", "wb") as full:
        code, _, _, err = _spawn(args, files, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "[Errno 28]" in err[0]


_BLAS_PROBE = ("import os, calibkit.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
               "len(os.listdir('/proc/self/task')))")


def _blas_probe(prelude: str, threads: str | None) -> list[str]:
    """The ``OPENBLAS_NUM_THREADS`` and the OS thread count that a fresh
    interpreter sees after ``prelude`` and ``import calibkit.cli``, with the
    variable set to ``threads`` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", prelude + _BLAS_PROBE], capture_output=True,
                          text=True, env=env, timeout=60, check=True).stdout.split()


needs_proc_task = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="no /proc/self/task")


@needs_proc_task
def test_the_cli_starts_one_blas_thread_by_default():
    assert _blas_probe("", None) == ["1", "1"]


@needs_proc_task
def test_a_blas_thread_count_the_caller_sets_wins():
    # OpenBLAS starts no more threads than the process may run on.
    threads = min(2, len(os.sched_getaffinity(0)))
    assert _blas_probe("", "2") == ["2", str(threads)]


@needs_proc_task
def test_the_cli_leaves_the_environment_alone_once_numpy_is_loaded():
    assert _blas_probe("import numpy; ", None)[0] == "None"


def test_import_calibkit_loads_no_submodule_and_no_numpy():
    probe = "import sys, calibkit; print(sorted(m for m in sys.modules " \
            "if m.split('.')[0] in ('calibkit', 'numpy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True).stdout
    assert out == "['calibkit']\n"
