"""Run one calibkit CLI invocation in process with every layer traced.

Usage::

    python3 perfbench/tracer.py SPANS.jsonl MEM -- <calibkit cli arguments>

Before calling ``calibkit.cli.main(argv)`` this rebinds the public functions
and methods of the layer modules (``cli``, ``core``, ``metrics``,
``genmodel``, ``targetmap``, ``emcal``, ``toylab``, ``diagram``) to timing
wrappers: module globals in every module that imported them, and class
attributes. The code path is the same as an untraced CLI run; no file of the
package changes. Each span records its name, start, end and parent, plus any
counters taken at that boundary. With MEM=1 the functions in ``MEM_PROBES``
also record their tracemalloc peak, which slows them, so their times from
such a run are not used. Spans are kept in memory and written when ``main``
returns. The exit code is ``main``'s.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from workloads import SIMPLEX_ATOL

LAYERS = ("cli", "core", "metrics", "genmodel", "targetmap", "emcal", "toylab", "diagram")
MEM_PROBES = ("core.validate_dataset", "toylab.fit_temperature")
# Spans that only measure the tracer itself; their time is subtracted from
# their parent's self time.
COUNTER_SPAN = "trace.counters"


class Tracer:
    """Collects spans as ``[name, start, end, parent_index, extra]`` lists."""

    def __init__(self, mem_probes=()):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.mem_probes = set(mem_probes)
        self.originals: dict[str, object] = {}

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, counter=None):
        self.originals[name] = fn
        mem = name in self.mem_probes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            if mem:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if mem:
                    span[4]["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stack.pop()
            if counter is not None:
                probe = self._open(COUNTER_SPAN)
                probe[1] = time.perf_counter()
                try:
                    span[4].update(counter(self, args, kwargs, result))
                finally:
                    probe[2] = time.perf_counter()
                    self.stack.pop()
            return result

        return traced

    def dump(self, path: Path, invocation: str) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, extra) in enumerate(self.spans):
                fh.write(json.dumps({
                    "invocation": invocation, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent, **extra,
                }) + "\n")


# Counters taken at a layer boundary, from the call's inputs and result.


def _count_validate(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["raw_records"]
    renormalized = sum(
        1 for r in rows if abs(math.fsum(r["confidences"]) - 1.0) > SIMPLEX_ATOL
    ) if isinstance(rows, list) else None
    return {"rows": result.n, "renormalized_rows": renormalized}


def _count_rows(tracer, args, kwargs, result):
    return {"rows": result.n}


def _count_unique(tracer, args, kwargs, result):
    model, predictor = args[0], args[1]
    matrix_for = tracer.originals["genmodel.Predictor.matrix_for"]
    pred = matrix_for(predictor, model.support)
    return {"unique_values": int(sum(len(np.unique(pred[:, j])) for j in range(pred.shape[1])))}


def _count_targets(tracer, args, kwargs, result):
    return {"rows": int(result[0].shape[0]), "rank_preserved": int(result[2].sum())}


COUNTERS = {
    "core.validate_dataset": _count_validate,
    "core.Dataset.from_arrays": _count_rows,
    "genmodel.sample_dataset": _count_rows,
    "genmodel.population_cw_ece": _count_unique,
    "targetmap.build_target_matrix": _count_targets,
}


def _rebind(old, new, modules) -> None:
    """Point every module global that holds ``old`` at ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods defined in each layer module.

    In ``cli`` only ``main`` is wrapped, so the layer's self time covers the
    argument parsing, line parsing and file writes of its subcommands.
    """
    package = importlib.import_module("calibkit")
    modules = [package] + [importlib.import_module(f"calibkit.{m}") for m in LAYERS]
    for layer, mod in zip(LAYERS, modules[1:]):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if layer == "cli" and attr != "main":
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                _rebind(obj, tracer.wrap(name, obj, COUNTERS.get(name)), modules)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(tracer, f"{layer}.{attr}", obj)


def _wrap_methods(tracer: Tracer, prefix: str, cls) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = tracer.wrap(name, member.__func__, COUNTERS.get(name))
            setattr(cls, attr, type(member)(wrapped))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member, COUNTERS.get(name)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.jsonl MEM -- <calibkit cli arguments>", file=sys.stderr)
        return 2
    spans_path, mem, cli_argv = Path(argv[0]), argv[1] == "1", argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer(MEM_PROBES if mem else ())
    install(tracer)
    import calibkit.cli

    try:
        code = calibkit.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, spans_path.stem)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
