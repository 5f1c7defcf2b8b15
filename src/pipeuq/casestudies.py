"""Binomial confidence intervals for repair tools, and a composed-pipeline
worked example with an uncertainty wrap.

``agresti_coull_interval`` is the primary interval (adjusted center
``(x + z^2/2) / (n + z^2)``); the Wilson score interval is available as a
selectable variant. Both clamp to [0, 1].

``composed_pipeline_case`` chains a detector and a repair model over a fully
vulnerable code corpus with sequential rounding at each stage (each count
rounds half away from zero before it feeds the next stage), then wraps the
end-to-end fix rate in the interval implied by a recall p-box.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import MAX_ITEMS, EvidenceFormatError, InvalidParameterError, check_count, check_unit, integer
from .pbox import DEFAULT_RECALL_PBOX, Interval, PBoxParams, stream_mean_optimistic, stream_mean_pessimistic

__all__ = [
    "ToolRecord",
    "ProportionCI",
    "ComposedPipelineReport",
    "DEFAULT_TOOL_RECORDS",
    "INTERVAL_METHODS",
    "agresti_coull_interval",
    "wilson_interval",
    "rule_based_case_study",
    "composed_pipeline_case",
    "load_tool_records",
    "round_half_away",
]


def _validate_counts(successes, trials, names=("successes", "trials")) -> tuple[int, int]:
    """``(successes, trials)`` as ints: ``trials`` in [1, MAX_ITEMS] and ``successes`` in [0, trials]."""
    trials = check_count(trials, names[1], 1, MAX_ITEMS)
    return check_count(successes, names[0], 0, trials), trials


class ToolRecord(namedtuple("ToolRecord", "name correct generated")):
    """Patch counts for one repair tool: ``correct`` out of ``generated``."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, name: str, correct: int, generated: int):
        correct, generated = _validate_counts(correct, generated, (f"{name}: correct", f"{name}: generated"))
        return super().__new__(cls, name, correct, generated)


class ProportionCI(NamedTuple):
    """Point estimate with a clamped two-sided confidence interval."""

    point: float
    lo: float
    hi: float
    confidence: float


# Bundled example: correct/generated patch counts reported for six automated
# repair tools evaluated on a common Java defect benchmark.
DEFAULT_TOOL_RECORDS = (
    ToolRecord("ACS", 16, 22),
    ToolRecord("SimFix", 25, 68),
    ToolRecord("FixMiner", 12, 33),
    ToolRecord("Kali-A", 3, 65),
    ToolRecord("DynaMoth", 1, 22),
    ToolRecord("Nopol", 1, 31),
)


def _z_two_sided(confidence: float) -> float:
    # at 1 - 2**-53, the largest float below 1, 0.5 + confidence/2 rounds to 1
    if not isinstance(confidence, (int, float)) or not 0.0 < confidence < 1.0 - 2.0**-53:
        raise InvalidParameterError(f"confidence must lie in (0, 1 - 2**-53), got {confidence!r}")
    from statistics import NormalDist  # statistics loads fractions and decimal

    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def agresti_coull_interval(successes: int, trials: int, confidence: float = 0.95) -> ProportionCI:
    """Adjusted-Wald binomial proportion interval.

    Center ``(x + z^2/2) / (n + z^2)``, half-width
    ``z * sqrt(center * (1 - center) / (n + z^2))``, bounds clamped to [0, 1].
    Behaves well for small samples and extreme proportions.
    """
    successes, trials = _validate_counts(successes, trials)
    z = _z_two_sided(confidence)
    n_adj = trials + z * z
    center = (successes + z * z / 2.0) / n_adj
    half = z * (center * (1.0 - center) / n_adj) ** 0.5
    return ProportionCI(
        point=successes / trials,
        lo=max(0.0, center - half),
        hi=min(1.0, center + half),
        confidence=confidence,
    )


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> ProportionCI:
    """Wilson score interval, offered as an alternative to Agresti-Coull."""
    successes, trials = _validate_counts(successes, trials)
    z = _z_two_sided(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * (p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)) ** 0.5
    return ProportionCI(
        point=p_hat,
        lo=max(0.0, center - half),
        hi=min(1.0, center + half),
        confidence=confidence,
    )


INTERVAL_METHODS = {
    "agresti-coull": agresti_coull_interval,
    "wilson": wilson_interval,
}


def rule_based_case_study(
    tools=DEFAULT_TOOL_RECORDS,
    confidence: float = 0.95,
    method: str = "agresti-coull",
) -> tuple[ProportionCI, ...]:
    """One confidence interval per tool record, in the records' order."""
    try:
        interval = INTERVAL_METHODS[method]
    except (KeyError, TypeError):  # a TypeError for an unhashable method
        raise InvalidParameterError(
            f"method must be one of {sorted(INTERVAL_METHODS)}, got {method!r}"
        ) from None
    return tuple(interval(t.correct, t.generated, confidence) for t in tools)


def round_half_away(x: float) -> int:
    """Round a finite int or float to the nearest integer, ties away from zero (755.94 -> 756)."""
    if isinstance(x, int):
        return int(x)  # exact beyond 2**53, where x + 0.5 would round or overflow
    if not isinstance(x, float) or not math.isfinite(x):
        raise InvalidParameterError(f"x must be a finite int or float, got {x!r}")
    # x + 0.5 would round up at 0.49999999999999994 and at every odd float in [2**52, 2**53);
    # x - trunc(x) is exact
    whole = math.trunc(x)
    if abs(x - whole) >= 0.5:
        whole += 1 if x > 0 else -1
    return whole


class ComposedPipelineReport(NamedTuple):
    """Detect/fix chain, rounding at each stage, plus the fix-rate uncertainty wrap."""

    n_items: int
    detector_recall: float
    repair_accuracy: float
    detected: int
    fixed: int
    residual: int
    fix_rate_extremes: Interval
    fix_rate_means: Interval
    notes: tuple[str, ...]


def composed_pipeline_case(
    n_items: int,
    detector_recall: float,
    repair_accuracy: float,
    pbox: PBoxParams = DEFAULT_RECALL_PBOX,
) -> ComposedPipelineReport:
    """Point-estimate pipeline arithmetic with an uncertainty wrap.

    The chain rounds at each stage: ``detected = round(n * recall)``,
    ``fixed = round(detected * accuracy)``, ``residual = detected - fixed``,
    each stage at most the count it draws from.
    The wrap is ``core.pipeline_fix_rate`` with fix rate ``accuracy`` over the
    recall p-box, in both aggregation modes: extremes uses the box's min/max
    recall, means uses the analytic mean of each sampling stream. ``n_items``
    is an integer in [1, MAX_ITEMS]; recall and accuracy are ints or floats in [0, 1].
    """
    from .core import FixerSpec, pipeline_fix_rate  # numpy-free on floats

    n_items = check_count(n_items, "n_items", 1, MAX_ITEMS)
    check_unit(detector_recall, "detector_recall", numpy=False)  # the chain is scalar
    check_unit(repair_accuracy, "repair_accuracy", numpy=False)
    # each stage is clamped at the count it draws from: beyond 2**53 the float product can round past it
    detected = min(round_half_away(n_items * detector_recall), n_items)
    fixed = min(round_half_away(detected * repair_accuracy), detected)
    residual = detected - fixed
    fixer = FixerSpec(repair_accuracy)
    extremes = Interval(pipeline_fix_rate(fixer, pbox.minimum), pipeline_fix_rate(fixer, pbox.maximum))
    mean_vals = sorted(
        pipeline_fix_rate(fixer, recall) for recall in (stream_mean_pessimistic(pbox), stream_mean_optimistic(pbox))
    )
    notes = (
        "the upper bound equals repair_accuracy x max recall; end-to-end fix "
        "rates above it are not derivable from this model",
    )
    return ComposedPipelineReport(
        n_items=n_items,
        detector_recall=float(detector_recall),
        repair_accuracy=float(repair_accuracy),
        detected=detected,
        fixed=fixed,
        residual=residual,
        fix_rate_extremes=extremes,
        fix_rate_means=Interval(mean_vals[0], mean_vals[1]),
        notes=notes,
    )


_TOOL_HEADER = ["name", "correct", "generated"]


def load_tool_records(source) -> tuple[ToolRecord, ...]:
    """Parse tool records from a CSV path or text stream (``name,correct,generated`` header, ``#`` comments
    allowed); a count ``errors.integer`` refuses, or a record ``ToolRecord`` refuses, names its line."""
    from .evidence import _read_headed_csv  # loads csv: only a tools CSV needs it

    records = []
    for lineno, (name, correct_text, generated_text) in _read_headed_csv(source, _TOOL_HEADER):
        try:
            correct, generated = integer(correct_text), integer(generated_text)
        except ValueError as exc:
            raise EvidenceFormatError(
                f"counts must be integers, got {correct_text!r} and {generated_text!r}", lineno
            ) from exc
        try:
            records.append(ToolRecord(name, correct, generated))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"line {lineno}: {exc}") from None
    return tuple(records)
