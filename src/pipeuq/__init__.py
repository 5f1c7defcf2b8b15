"""Uncertainty propagation for detect -> fix -> re-detect security pipelines.

Quantifies how uncertainty in a vulnerability detector's recall propagates
through a classifier/fixer/classifier pipeline: closed-form metrics, p-box
interval bounds, and a seeded Monte Carlo simulator, with a CLI on top.
"""

__version__ = "0.3.0"

from .errors import (
    ConfigError,
    DegenerateDomainError,
    EmptyEvidenceError,
    EvidenceFormatError,
    InvalidParameterError,
    PipeUQError,
)
from .core import (
    ClassifierProfile,
    ConfusionCounts,
    DomainSpec,
    FixerSpec,
    PipelineOutcome,
    derive_confusion,
    fixer_load,
    pipeline_false_negatives,
    pipeline_false_positives,
    pipeline_far,
    pipeline_fix_rate,
    pipeline_outcome,
    pipeline_prevalence,
    pipeline_true_positives,
    pipeline_tpr,
    round_half_away,
)
from .pbox import (
    Interval,
    IntervalBundle,
    PBoxParams,
    RecallStreams,
    inverse_lower,
    inverse_upper,
    propagate_interval,
    sample_recall_streams,
    stream_mean_optimistic,
    stream_mean_pessimistic,
)
from .evidence import (
    DEFAULT_PRECISION_STATS,
    DEFAULT_RECALL_PBOX,
    DEFAULT_RECALL_STATS,
    EvidenceSample,
    SummaryStats,
    dump_samples,
    group_by_metric,
    load_samples,
    loads_samples,
    remove_outliers,
    summarize,
    to_pbox,
)
from .simulator import (
    SimulationReport,
    TrialOutcome,
    run_experiment,
    run_trial,
    trial_seed,
)
from .casestudies import (
    DEFAULT_TOOL_RECORDS,
    CaseStudyRow,
    ComposedPipelineReport,
    ProportionCI,
    ToolRecord,
    agresti_coull_interval,
    composed_pipeline_case,
    load_tool_records,
    rule_based_case_study,
    wilson_interval,
)
