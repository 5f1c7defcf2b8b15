"""Uncertainty propagation for detect -> fix -> re-detect security pipelines.

Quantifies how uncertainty in a vulnerability detector's recall propagates
through a classifier/fixer/classifier pipeline: closed-form metrics, p-box
interval bounds, and a seeded Monte Carlo simulator, with a CLI on top.

Every name in ``__all__`` loads its submodule, and numpy, on first use (a
module ``__getattr__``, PEP 562), so ``import pipeuq`` itself loads neither.
``from pipeuq import X``, ``from pipeuq import *`` and ``pipeuq.<submodule>``
work as if everything had been imported up front.
"""

import importlib

__version__ = "0.3.0"

# submodule -> the names it exports here
_SUBMODULES = {
    "errors": (
        "ConfigError",
        "DegenerateDomainError",
        "EmptyEvidenceError",
        "EvidenceFormatError",
        "InvalidParameterError",
        "PipeUQError",
    ),
    "core": (
        "ClassifierProfile",
        "ConfusionCounts",
        "DomainSpec",
        "FixerSpec",
        "PipelineOutcome",
        "derive_confusion",
        "fixer_load",
        "pipeline_false_negatives",
        "pipeline_false_positives",
        "pipeline_far",
        "pipeline_fix_rate",
        "pipeline_outcome",
        "pipeline_prevalence",
        "pipeline_true_positives",
        "pipeline_tpr",
        "round_half_away",
    ),
    "pbox": (
        "Interval",
        "IntervalBundle",
        "PBoxParams",
        "RecallStreams",
        "inverse_lower",
        "inverse_upper",
        "propagate_interval",
        "sample_recall_streams",
        "stream_mean_optimistic",
        "stream_mean_pessimistic",
    ),
    "evidence": (
        "DEFAULT_PRECISION_STATS",
        "DEFAULT_RECALL_PBOX",
        "DEFAULT_RECALL_STATS",
        "EvidenceSample",
        "SummaryStats",
        "dump_samples",
        "group_by_metric",
        "load_samples",
        "loads_samples",
        "remove_outliers",
        "summarize",
        "to_pbox",
    ),
    "simulator": (
        "SimulationReport",
        "TrialOutcome",
        "run_experiment",
        "run_trial",
        "trial_seed",
    ),
    "casestudies": (
        "DEFAULT_TOOL_RECORDS",
        "CaseStudyRow",
        "ComposedPipelineReport",
        "ProportionCI",
        "ToolRecord",
        "agresti_coull_interval",
        "composed_pipeline_case",
        "load_tool_records",
        "rule_based_case_study",
        "wilson_interval",
    ),
}
_ORIGIN = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """Import the submodule behind ``name`` and cache the value here."""
    if name in _SUBMODULES:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__all__})
