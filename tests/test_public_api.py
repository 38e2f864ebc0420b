"""The package's public surface, pinned: adding or removing a name from
``calibkit.__all__``, or a parameter or field of a public name, has to
update the lists here on purpose."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import calibkit

PUBLIC = [
    "CalibrationError",
    "CalibrationReport",
    "Dataset",
    "EmConfig",
    "FiniteGenerativeModel",
    "LinearPolicy",
    "Predictor",
    "TabularPolicy",
    "ToyTask",
    "accuracy",
    "apply_temperature",
    "build_all_targets",
    "build_report",
    "classify_regime",
    "conf_ece",
    "construct_bound_predictor",
    "cw_ece",
    "e_step",
    "ece_loss",
    "fit_temperature",
    "gen_toy_task",
    "label_smooth_targets",
    "lower_bound_constant",
    "m_step",
    "make_model",
    "run_em",
    "sample_dataset",
    "sft_loss",
    "tce",
    "tradeoff_study",
    "train",
    "validate_dataset",
    "verify_ece_le_tce",
    "win_rate",
]


# The parameter names of each public callable and the fields of each public
# dataclass, in order; a dotted key is a method. The error class has none.
KNOBS = {
    "CalibrationReport": (
        "n", "k", "M", "accuracy", "conf_ece", "cw_ece", "conf_bins", "classwise_bins"
    ),
    "Dataset.from_arrays": ("probs", "labels"),
    "EmConfig": (
        "epochs", "bins", "lam", "divergence", "learning_rate", "inner_steps", "sft_weight"
    ),
    "FiniteGenerativeModel": ("k", "weights", "label_probs"),
    "LinearPolicy": ("d", "k", "W"),
    "Predictor": ("probs",),
    "TabularPolicy": ("logits",),
    "ToyTask": ("features", "labels", "k", "teacher_weights", "teacher_temperature"),
    "accuracy": ("ds",),
    "apply_temperature": ("ds", "T"),
    "build_all_targets": ("probs", "q", "z"),
    "build_report": ("ds", "M"),
    "classify_regime": ("acc", "acc_star"),
    "conf_ece": ("ds", "M"),
    "construct_bound_predictor": ("model", "labels", "target_acc"),
    "cw_ece": ("ds", "M"),
    "e_step": ("probs", "M"),
    "ece_loss": ("target", "conf", "divergence"),
    "fit_temperature": ("ds_val", "M"),
    "gen_toy_task": ("d", "k", "n", "teacher_temperature", "seed"),
    "label_smooth_targets": ("labels", "k", "epsilon"),
    "lower_bound_constant": ("model", "pi_star", "pi"),
    "m_step": ("probs", "labels", "z", "M"),
    "make_model": ("kind", "k", "n_support", "alpha", "seed"),
    "run_em": ("policy", "labels", "cfg", "features", "fit_targets"),
    "sample_dataset": ("model", "predictor", "n", "seed"),
    "sft_loss": ("conf", "label"),
    "tce": ("model", "predictor"),
    "tradeoff_study": ("seed",),
    "train": ("policy", "task", "mode", "epochs", "lr", "epsilon", "em", "bins"),
    "validate_dataset": ("raw_records",),
    "verify_ece_le_tce": ("model", "predictor"),
    "win_rate": ("logp_chosen", "logp_reject"),
}


def test_public_names_are_pinned():
    assert sorted(calibkit.__all__) == PUBLIC
    assert len(set(calibkit.__all__)) == len(calibkit.__all__)


def test_every_public_name_imports():
    fresh = importlib.import_module("calibkit")
    for name in PUBLIC:
        namespace: dict = {}
        exec(f"from calibkit import {name}", namespace)
        assert namespace[name] is getattr(fresh, name)


def test_dir_lists_every_public_name():
    # A fresh execution of the package, before any name is loaded and cached.
    spec = importlib.util.find_spec("calibkit")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert set(fresh.__all__) <= set(dir(fresh))


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from calibkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(calibkit.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        calibkit.no_such_name


def _knobs(obj) -> tuple:
    if dataclasses.is_dataclass(obj):
        return tuple(field.name for field in dataclasses.fields(obj))
    return tuple(inspect.signature(obj).parameters)


def test_public_parameters_and_fields_are_pinned():
    assert {key.split(".")[0] for key in KNOBS} == set(PUBLIC) - {"CalibrationError"}
    for key, knobs in KNOBS.items():
        obj = calibkit
        for part in key.split("."):
            obj = getattr(obj, part)
        assert _knobs(obj) == knobs, key


def test_a_dataset_is_its_confidence_matrix_and_labels():
    """Every way to build a ``Dataset`` gives the same four instance
    attributes; ids and splits are checked on the way in and not kept."""
    import numpy as np

    probs, labels = np.full((2, 2), 0.5), np.array([0, 1])
    records = [
        {"id": "a", "confidences": [0.5, 0.5], "label": 0, "split": "train"},
        {"id": "b", "confidences": [0.5, 0.5], "label": 1},
    ]
    model = calibkit.make_model("dirichlet", 3, 5, seed=1)
    task = calibkit.gen_toy_task(d=3, k=2, n=4, seed=1)
    built = [
        calibkit.Dataset.from_arrays(probs, labels),
        calibkit.validate_dataset(records),
        calibkit.apply_temperature(calibkit.Dataset.from_arrays(probs, labels), 2.0),
        calibkit.sample_dataset(model, calibkit.Predictor.from_model(model), 6),
        importlib.import_module("calibkit.toylab").task_dataset(task, calibkit.LinearPolicy(3, 2)),
    ]
    for ds in built:
        assert set(vars(ds)) == {"probs_matrix", "labels_array", "n", "k"}
        assert ds.labels_array.dtype == np.int64 and ds.probs_matrix.shape == (ds.n, ds.k)
    for gone in ("with_probs", "ids", "splits"):
        assert not hasattr(calibkit.Dataset, gone)


def _unused_imports(source: str) -> list[str]:
    """The names that a module's import statements bind and that no other
    name in the module reads; an import line marked ``# noqa`` is a
    deliberate re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(Path(calibkit.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_name``s (not dunders) that a module of
    ``sources``, module name to source, defines by ``def``, ``class`` or
    assignment and that no module of ``sources`` reads, as a name or as an
    attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_every_private_module_name_is_read_by_some_module():
    package = Path(calibkit.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert _unread_private_names(sources) == []
    assert _unread_private_names({"m": "def _helper():\n    pass\n_X = 1\nprint(_X)\n"}) == [
        "m._helper"
    ]


def _module_value(tree: ast.Module, name: str) -> ast.expr:
    """The expression a module-level ``name = ...`` assigns."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no module-level assignment to {name}")


def _traced_names() -> set[str]:
    """Every ``layer.attr[.attr]`` name the benchmark harness reads, parsed
    from its sources without importing them: the span names in ``run.py``'s
    ``SPAN_METRICS``, the ``COUNTERS`` and ``MEM_PROBES`` keys of
    ``tracer.py``, and its ``originals["..."]`` lookups."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    run = ast.parse((bench / "run.py").read_text(encoding="utf-8"))
    tracer = ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))
    names = {ast.literal_eval(row.elts[2]) for row in _module_value(run, "SPAN_METRICS").elts}
    names |= {ast.literal_eval(key) for key in _module_value(tracer, "COUNTERS").keys}
    names |= set(ast.literal_eval(_module_value(tracer, "MEM_PROBES")))
    names |= {
        node.slice.value for node in ast.walk(tracer)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "originals" and isinstance(node.slice, ast.Constant)
    }
    return names


def test_every_name_the_benchmark_traces_resolves():
    names = _traced_names()
    assert "genmodel.Predictor.matrix_for" in names and len(names) >= 25
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"calibkit.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name
