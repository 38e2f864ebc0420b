"""Calibration toolkit: ECE measurement, finite-support calibration theory
checks, and EM-based calibration-aware training on toy policies.

The public names load lazily (PEP 562): ``import calibkit`` imports no
submodule and no numpy, and the first access to a name imports the module
that defines it."""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "BinningConfig": "core",
    "CalibrationError": "core",
    "Dataset": "core",
    "validate_dataset": "core",
    "BinStats": "metrics",
    "CalibrationReport": "metrics",
    "PairwisePreferenceRecord": "metrics",
    "accuracy": "metrics",
    "build_report": "metrics",
    "conf_ece": "metrics",
    "cw_ece": "metrics",
    "win_rate": "metrics",
    "FiniteGenerativeModel": "genmodel",
    "Predictor": "genmodel",
    "classify_regime": "genmodel",
    "construct_bound_predictor": "genmodel",
    "lower_bound_constant": "genmodel",
    "make_model": "genmodel",
    "sample_dataset": "genmodel",
    "tce": "genmodel",
    "verify_ece_le_tce": "genmodel",
    "EmConfig": "emcal",
    "build_all_targets": "emcal",
    "e_step": "emcal",
    "ece_loss": "emcal",
    "m_step": "emcal",
    "run_em": "emcal",
    "sft_loss": "emcal",
    "LinearPolicy": "toylab",
    "TabularPolicy": "toylab",
    "ToyTask": "toylab",
    "apply_temperature": "toylab",
    "fit_temperature": "toylab",
    "gen_toy_task": "toylab",
    "label_smooth_targets": "toylab",
    "tradeoff_study": "toylab",
    "train": "toylab",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
