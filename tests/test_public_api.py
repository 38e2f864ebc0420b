"""The package's public surface, pinned: adding or removing a name from
``calibkit.__all__`` has to update this list on purpose."""

import importlib

import calibkit

PUBLIC = [
    "BinStats",
    "BinningConfig",
    "CalibrationError",
    "CalibrationReport",
    "ConfidenceVector",
    "Dataset",
    "EmConfig",
    "FiniteGenerativeModel",
    "LinearPolicy",
    "PairwisePreferenceRecord",
    "PredictionRecord",
    "Predictor",
    "RegimeClassification",
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
    "mc_ece_population",
    "normalize_options",
    "reliability_diagram",
    "run_em",
    "sample_dataset",
    "sequence_logprob",
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
