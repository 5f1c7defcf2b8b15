"""Closed-form metrics for a detect -> fix -> re-detect pipeline.

The model composes a classifier (recall ``rec``, precision ``prec``,
specificity), a fixer that repairs each received item with probability
``fix_rate``, and a second classifier identical to the first. Everything here
is an exact expectation under three assumptions: the fixer never makes a clean
item vulnerable, repaired items are indistinguishable from clean ones, and only
items the first classifier flagged positive reach the fixer.

Key identities (all derivable from the confusion-matrix algebra):

    end-to-end fix rate      f  = fix_rate * rec
    residual prevalence      P' = (1 - fix_rate * rec) * P
    end-to-end recall        TPR' = rec^2 * (1 - fix_rate) / (1 - fix_rate * rec)
    false-negative growth    FN' = [1 + (1 - fix_rate) * rec] * FN_first

Prevalence, fix rate and recall may each be a float or an ndarray, and every
metric broadcasts over them, so a whole prevalence x fix-rate x recall grid is
one call. Scalar inputs give Python floats. An array false-alert rate is NaN
at the cells where it is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomainError, InvalidParameterError

__all__ = [
    "ClassifierProfile",
    "DomainSpec",
    "FixerSpec",
    "ConfusionCounts",
    "PipelineOutcome",
    "round_half_away",
    "derive_confusion",
    "pipeline_fix_rate",
    "pipeline_prevalence",
    "pipeline_tpr",
    "pipeline_far",
    "pipeline_false_negatives",
    "pipeline_true_positives",
    "pipeline_false_positives",
    "fixer_load",
    "pipeline_outcome",
]


def _check_unit(value, name: str) -> None:
    """Raise unless every element of ``value`` lies in [0, 1]."""
    arr = np.asarray(value, dtype=float)
    if arr.size == 0 or not bool(np.all((arr >= 0.0) & (arr <= 1.0))):
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")


def _unwrap(arr: np.ndarray):
    """A 0-d result as a Python float, anything else unchanged."""
    return float(arr) if arr.ndim == 0 else arr


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero (755.94 -> 756)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class ClassifierProfile:
    """Operating point of one detector.

    ``precision`` defaults to 1.0: the headline pipeline metrics (residual
    prevalence, realized fix rate, false-negative growth) depend only on
    recall, so callers that track recall alone get a valid profile.
    ``specificity`` defaults to 0.0, the worst case in which every clean item
    is flagged and piped through the fixer.
    """

    recall: float
    precision: float = 1.0
    specificity: float = 0.0

    def __post_init__(self):
        _check_unit(self.recall, "recall")
        _check_unit(self.specificity, "specificity")
        _check_unit(self.precision, "precision")
        if self.precision == 0.0:
            raise InvalidParameterError("precision must be strictly positive")


@dataclass(frozen=True)
class DomainSpec:
    """Population under analysis: ``n_items`` items, a fraction ``prevalence``
    of which is truly vulnerable."""

    n_items: int
    prevalence: float

    def __post_init__(self):
        if int(self.n_items) != self.n_items or self.n_items < 0:
            raise InvalidParameterError(
                f"n_items must be a nonnegative integer, got {self.n_items!r}"
            )
        _check_unit(self.prevalence, "prevalence")

    @property
    def positives(self) -> float:
        return self.prevalence * self.n_items

    @property
    def negatives(self) -> float:
        return self.n_items - self.positives


@dataclass(frozen=True)
class FixerSpec:
    """Repair stage: fixes each received item with probability ``fix_rate``.

    ``break_rate`` is the probability of re-introducing a vulnerability while
    touching an item; the analytic model assumes 0 and only the simulator
    exercises nonzero values.
    """

    fix_rate: float
    break_rate: float = 0.0

    def __post_init__(self):
        _check_unit(self.fix_rate, "fix_rate")
        _check_unit(self.break_rate, "break_rate")


@dataclass(frozen=True)
class ConfusionCounts:
    """One stage's confusion tallies.

    Values are continuous expectations in the analytic path and integers in
    the simulated path. This is a plain record: analytic inputs that imply an
    infeasible classifier (more false positives than negatives exist) yield a
    negative ``tn`` rather than an error, and the conservation identities
    still hold.
    """

    tp: float
    fn: float
    tn: float
    fp: float

    @property
    def total(self) -> float:
        return self.tp + self.fn + self.tn + self.fp

    @property
    def positives(self) -> float:
        return self.tp + self.fn

    def rounded(self) -> "ConfusionCounts":
        """Integer presentation, each field rounded half away from zero."""
        return ConfusionCounts(
            round_half_away(self.tp),
            round_half_away(self.fn),
            round_half_away(self.tn),
            round_half_away(self.fp),
        )


@dataclass(frozen=True)
class PipelineOutcome:
    """End-to-end metrics of the composed pipeline at a fixed recall."""

    fix_rate_actual: float
    prevalence_final: float
    tpr_final: float
    far_final: float
    fn_final: float
    fn_ratio: float
    tp_final: float
    fixer_load: float
    fp_final: float


def derive_confusion(profile: ClassifierProfile, domain: DomainSpec) -> ConfusionCounts:
    """Expected confusion counts of one classifier pass over the domain.

        TP = rec * P * N
        FN = (1 - rec) * P * N
        FP = rec * (1 - prec) / prec * P * N
        TN = N - TP - FN - FP

    Values are continuous; use :meth:`ConfusionCounts.rounded` for integer
    presentation.
    """
    rec, prec = profile.recall, profile.precision
    pos = domain.positives
    tp = rec * pos
    fn = (1.0 - rec) * pos
    fp = rec * (1.0 - prec) / prec * pos
    tn = domain.n_items - tp - fn - fp
    return ConfusionCounts(tp, fn, tn, fp)


def pipeline_fix_rate(fixer: FixerSpec, recall):
    """Realized end-to-end fix rate, ``fix_rate * recall``.

    Only detected items reach the fixer, so the theoretical rate is scaled
    down by the detector's recall.
    """
    _check_unit(recall, "recall")
    return fixer.fix_rate * recall


def pipeline_prevalence(domain: DomainSpec, fixer: FixerSpec, recall):
    """Residual prevalence after one pass, ``(1 - fix_rate * recall) * P``."""
    _check_unit(recall, "recall")
    return (1.0 - fixer.fix_rate * recall) * domain.prevalence


def pipeline_tpr(recall, fixer: FixerSpec):
    """True positive rate of the whole pipeline.

        rec^2 * (1 - fix_rate) / (1 - fix_rate * rec)

    A perfect fixer drives this to 0: every detected positive is repaired, so
    the only survivors are first-stage misses, which by definition were never
    flagged. The ``fix_rate = recall = 1`` limit is therefore defined as 0.
    """
    _check_unit(recall, "recall")
    rec = np.asarray(recall, dtype=float)
    f = fixer.fix_rate
    with np.errstate(divide="ignore", invalid="ignore"):
        tpr = rec * rec * (1.0 - f) / (1.0 - f * rec)
    return _unwrap(np.where(f == 1.0, 0.0, tpr))


def pipeline_far(profile: ClassifierProfile, domain: DomainSpec, fixer: FixerSpec, recall=None):
    """False alert rate of the whole pipeline.

        rec^2 * (1 - prec)/prec * (1 - fix_rate) * P / (1 - (1 - fix_rate*rec) * P)

    Undefined when the pipeline ends with no negatives, which happens only for
    ``P = 1`` with ``fix_rate * rec = 0``. A scalar cell raises
    :class:`DegenerateDomainError` there, so callers cannot misread a 0; an
    array result is NaN at such cells.

    ``recall`` overrides ``profile.recall`` when given. Prevalence, fix rate
    and recall broadcast.
    """
    rec = profile.recall if recall is None else recall
    _check_unit(rec, "recall")
    prec = profile.precision
    p_r = domain.prevalence
    f = fixer.fix_rate
    denom = np.asarray(1.0 - (1.0 - f * rec) * p_r)
    if denom.ndim == 0 and denom == 0.0:
        raise DegenerateDomainError(
            "false alert rate undefined: prevalence 1 with no realized fixing "
            "leaves no negatives"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        far = rec * rec * ((1.0 - prec) / prec) * (1.0 - f) * p_r / denom
    return _unwrap(np.where(denom == 0.0, np.nan, far))


def pipeline_false_negatives(domain: DomainSpec, fixer: FixerSpec, recall):
    """Final false negatives and their growth ratio over the first stage.

    Returns ``(fn_final, fn_ratio)`` with

        fn_final = [1 + (1 - fix_rate) * rec] * (1 - rec) * P * N
        fn_ratio = 1 + (1 - fix_rate) * rec

    The ratio is reported as the analytic limit even when the first stage
    produced no false negatives (``rec = 1``).
    """
    _check_unit(recall, "recall")
    ratio = 1.0 + (1.0 - fixer.fix_rate) * recall
    fn_final = ratio * (1.0 - recall) * domain.positives
    return fn_final, ratio


def pipeline_true_positives(domain: DomainSpec, fixer: FixerSpec, recall):
    """True positives surviving both stages, ``(1 - fix_rate) * rec^2 * P * N``."""
    _check_unit(recall, "recall")
    return (1.0 - fixer.fix_rate) * recall * recall * domain.positives


def pipeline_false_positives(
    profile: ClassifierProfile, domain: DomainSpec, fixer: FixerSpec, recall=None
):
    """False positives emitted by the second stage.

        rec * (1 - prec)/prec * (1 - fix_rate) * rec * P * N
    """
    rec = profile.recall if recall is None else recall
    _check_unit(rec, "recall")
    prec = profile.precision
    return rec * ((1.0 - prec) / prec) * (1.0 - fixer.fix_rate) * rec * domain.positives


def fixer_load(profile: ClassifierProfile, domain: DomainSpec, recall=None):
    """Number of items handed to the fixer and second classifier: ``rec / prec * P * N``
    (first-stage true plus false positives)."""
    rec = profile.recall if recall is None else recall
    _check_unit(rec, "recall")
    return rec / profile.precision * domain.positives


def pipeline_outcome(
    profile: ClassifierProfile,
    domain: DomainSpec,
    fixer: FixerSpec,
    recall=None,
) -> PipelineOutcome:
    """Bundle every end-to-end metric into one record.

    ``recall`` overrides ``profile.recall`` when given, which lets callers
    sweep recall values against a fixed profile. Prevalence, fix rate and
    recall broadcast, so a grid gives one array per field; ``far_final`` is
    NaN at its degenerate cells. A scalar degenerate cell raises
    :class:`DegenerateDomainError`.
    """
    rec = profile.recall if recall is None else recall
    _check_unit(rec, "recall")
    fn_final, fn_ratio = pipeline_false_negatives(domain, fixer, rec)
    return PipelineOutcome(
        fix_rate_actual=pipeline_fix_rate(fixer, rec),
        prevalence_final=pipeline_prevalence(domain, fixer, rec),
        tpr_final=pipeline_tpr(rec, fixer),
        far_final=pipeline_far(profile, domain, fixer, rec),
        fn_final=fn_final,
        fn_ratio=fn_ratio,
        tp_final=pipeline_true_positives(domain, fixer, rec),
        fixer_load=fixer_load(profile, domain, rec),
        fp_final=pipeline_false_positives(profile, domain, fixer, rec),
    )
