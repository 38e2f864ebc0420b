"""The package's public surface, pinned: adding or removing a name from
``calibkit.__all__`` has to update this list on purpose."""

import importlib
import importlib.util

import pytest

import calibkit

PUBLIC = [
    "BinStats",
    "BinningConfig",
    "CalibrationError",
    "CalibrationReport",
    "Dataset",
    "EmConfig",
    "FiniteGenerativeModel",
    "LinearPolicy",
    "PairwisePreferenceRecord",
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
