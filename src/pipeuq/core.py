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

The second stage's false positives ``fp_final``, and the false-alert rate
``far`` built on them, assume that it keeps the first stage's precision:
``fp_final = tp_final * (1 - prec) / prec``. The simulator's model instead
keeps the specificity, and sends the repaired, now clean, items through the
second classifier, where each is a false positive with probability
``1 - spec``. At N = 10 000, P = 0.5, rec = 0.8, spec = 0.6 (prec = 2/3) and
fix_rate = 0.5, ``fp_final`` is 800 here, while that model expects 1600: 4000
clean items reach the second classifier, each flagged with probability 0.4.
Its expected ``tp_final``, ``fn_final`` and ``fixer_load`` agree.

Prevalence, fix rate, recall and precision may each be a real number or a
numpy array of a real dtype (a list is refused), and every metric broadcasts
over them, so a whole prevalence x fix-rate x recall grid is one call; shapes
that do not broadcast are refused. Int and float inputs give Python floats and
load no numpy: each formula is written once, and the same operations in the
same order round a float and an array element alike, bit for bit. An array
false-alert rate is NaN at the cells where it is undefined.

Each formula is a private, unchecked function of one cell, ``(np, rec, prec,
p, positives, f)``, and ``_grid`` is the one code that checks inputs and calls
the formulas: it checks a whole prevalence x fix-rate grid once and computes it
one row at a time, which is how ``analytic`` streams its cells. Every public
metric, and ``pipeline_outcome``, is a grid of one cell; a metric that reads no
domain or fixer gets an empty one.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import namedtuple
from typing import NamedTuple

from .errors import MAX_ITEMS, DegenerateDomainError, InvalidParameterError, check_count, check_unit

__all__ = [
    "ClassifierProfile",
    "DomainSpec",
    "FixerSpec",
    "PipelineOutcome",
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


def _check(recall, *values):
    """Check ``recall``; None when it and every value are ints or floats, else numpy once their shapes broadcast."""
    check_unit(recall, "recall")
    shapes = [v.shape for v in (recall, *values) if not isinstance(v, (int, float))]
    if not shapes:
        return None
    np = sys.modules["numpy"]  # by check_unit, each is a numpy value: numpy is loaded
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        raise InvalidParameterError(f"inputs of shapes {shapes} do not broadcast") from None
    return np


def _where(np, defined, formula, undefined):
    """``formula()`` where ``defined`` holds, else ``undefined``.

    With ``np`` None (scalar inputs) this is a conditional, and ``formula`` is
    not evaluated at an undefined cell; otherwise ``np.where`` over the whole
    grid, whose undefined cells ``_grid`` keeps from warning.
    """
    if np is None:
        return formula() if defined else undefined
    return np.where(defined, formula(), undefined)


class ClassifierProfile(namedtuple("ClassifierProfile", "recall precision specificity")):
    """Operating point of one detector.

    ``precision`` defaults to 1.0: the headline pipeline metrics (residual
    prevalence, realized fix rate, false-negative growth) depend only on
    recall, so callers that track recall alone get a valid profile.
    ``specificity`` defaults to 0.0, the worst case in which every clean item
    is flagged and piped through the fixer.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, recall: float, precision: float = 1.0, specificity: float = 0.0):
        for name, v in zip(cls._fields, (recall, precision, specificity)):
            check_unit(v, name)
        if precision == 0.0 if isinstance(precision, (int, float)) else not precision.all():
            raise InvalidParameterError("precision must be strictly positive")
        return super().__new__(cls, recall, precision, specificity)


class DomainSpec(namedtuple("DomainSpec", "n_items prevalence")):
    """Population under analysis: ``n_items`` items, an integer in [0, MAX_ITEMS] kept as
    an int, a fraction ``prevalence`` of which is truly vulnerable."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, n_items: int, prevalence: float):
        n_items = check_count(n_items, "n_items", 0, MAX_ITEMS)
        check_unit(prevalence, "prevalence")
        return super().__new__(cls, n_items, prevalence)

    @property
    def positives(self) -> float:
        # a float count: a numpy integer prevalence would refuse a count beyond its dtype's range
        return self.prevalence * float(self.n_items)


class FixerSpec(namedtuple("FixerSpec", "fix_rate break_rate")):
    """Repair stage: fixes each received item with probability ``fix_rate``.

    ``break_rate`` is the probability of re-introducing a vulnerability while
    touching an item; the analytic model assumes 0 and only the simulator
    exercises nonzero values.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, fix_rate: float, break_rate: float = 0.0):
        check_unit(fix_rate, "fix_rate")
        check_unit(break_rate, "break_rate")
        return super().__new__(cls, fix_rate, break_rate)


class PipelineOutcome(NamedTuple):
    """End-to-end metrics of the composed pipeline at a fixed recall."""

    real_fix_rate: float
    final_prevalence: float
    tpr: float
    far: float
    fn_ratio: float
    fn_final: float
    tp_final: float
    fp_final: float
    fixer_load: float


# ---------------------------------------------------------------------------
# the formulas, each written once and unchecked, of the cell (np, rec, prec, p, positives, f):
# Python floats, or numpy values with ``np`` the numpy module. ``_grid`` checks and calls them

def _fix_rate(np, rec, prec, p, positives, f):
    return f * rec


def _prevalence(np, rec, prec, p, positives, f):
    return (1.0 - f * rec) * p


def _tpr(np, rec, prec, p, positives, f):
    if np is not None:
        rec = np.asarray(rec, dtype=float)
    return _where(np, f != 1.0, lambda: rec * rec * (1.0 - f) / (1.0 - f * rec), 0.0)


def _far(np, rec, prec, p, positives, f):
    """None at a scalar cell where the false alert rate is undefined, NaN at such an array cell."""
    denom = 1.0 - (1.0 - f * rec) * p
    return _where(np, denom != 0.0, lambda: rec * rec * ((1.0 - prec) / prec) * (1.0 - f) * p / denom,
                  None if np is None else np.nan)


def _fn_ratio(np, rec, prec, p, positives, f):
    return 1.0 + (1.0 - f) * rec


def _fn_final(np, rec, prec, p, positives, f):
    return (1.0 + (1.0 - f) * rec) * (1.0 - rec) * positives


def _tp(np, rec, prec, p, positives, f):
    return (1.0 - f) * rec * rec * positives


def _fp(np, rec, prec, p, positives, f):
    return rec * ((1.0 - prec) / prec) * (1.0 - f) * rec * positives


def _load(np, rec, prec, p, positives, f):
    return rec / prec * positives


# each PipelineOutcome field as its formula
_FORMULAS = PipelineOutcome(_fix_rate, _prevalence, _tpr, _far, _fn_ratio, _fn_final, _tp, _fp, _load)


def _grid(rec, prec, domains, fixers, formulas=_FORMULAS):
    """Yield the grid ``domains`` x ``fixers`` at recall ``rec`` and precision ``prec`` one domain's row
    at a time: for each of the ``formulas`` (fields of ``_FORMULAS``), the list of its values at the
    fixers' cells, ``far`` None where a scalar one is undefined. The inputs are checked once, together,
    so a cell costs its formulas alone. A row is computed with numpy's floating-point warnings off, so a
    numpy value overflows to inf, and meets NaN, silently, as a float does; it is yielded with them as
    the caller had them."""
    fix_rates = [fixer.fix_rate for fixer in fixers]
    np = _check(rec, prec, *fix_rates, *(domain.prevalence for domain in domains))
    numpy = sys.modules.get("numpy")  # looked up, never imported: a numpy float64 warns too, np None for it
    for domain in domains:
        with numpy.errstate(all="ignore") if numpy else contextlib.nullcontext():
            cell = (np, rec, prec, domain.prevalence, domain.positives)
            row = [list(map(functools.partial(formula, *cell), fix_rates)) for formula in formulas]
        yield row


_NO_DOMAIN, _NO_FIXER = DomainSpec(0, 0.0), FixerSpec(0.0)  # the empty ones, for a metric that reads none


def _cell(rec, prec, domain, fixer, formulas):
    """The ``formulas``' values at the grid of one cell, ``domain`` x ``fixer``."""
    [row] = _grid(rec, prec, [domain], [fixer], formulas)
    return tuple(value for [value] in row)


def pipeline_fix_rate(fixer: FixerSpec, recall):
    """Realized end-to-end fix rate, ``fix_rate * recall``.

    Only detected items reach the fixer, so the theoretical rate is scaled
    down by the detector's recall.
    """
    return _cell(recall, 1.0, _NO_DOMAIN, fixer, [_fix_rate])[0]


def pipeline_prevalence(domain: DomainSpec, fixer: FixerSpec, recall):
    """Residual prevalence after one pass, ``(1 - fix_rate * recall) * P``."""
    return _cell(recall, 1.0, domain, fixer, [_prevalence])[0]


def pipeline_tpr(recall, fixer: FixerSpec):
    """True positive rate of the whole pipeline.

        rec^2 * (1 - fix_rate) / (1 - fix_rate * rec)

    A perfect fixer drives this to 0: every detected positive is repaired, so
    the only survivors are first-stage misses, which by definition were never
    flagged. The ``fix_rate = recall = 1`` limit is therefore defined as 0.
    """
    return _cell(recall, 1.0, _NO_DOMAIN, fixer, [_tpr])[0]


def _defined(far):
    """``far``, or :class:`DegenerateDomainError` where it is undefined."""
    if far is None:
        raise DegenerateDomainError(
            "false alert rate undefined: prevalence 1 with no realized fixing "
            "leaves no negatives"
        )
    return far


def pipeline_far(profile: ClassifierProfile, domain: DomainSpec, fixer: FixerSpec, recall=None):
    """False alert rate of the whole pipeline.

        rec^2 * (1 - prec)/prec * (1 - fix_rate) * P / (1 - (1 - fix_rate*rec) * P)

    Undefined when the pipeline ends with no negatives, which happens only for
    ``P = 1`` with ``fix_rate * rec = 0`` (in floats, at most ``2**-54``, which
    ``1 - fix_rate * rec`` rounds away). A scalar cell raises
    :class:`DegenerateDomainError` there, so callers cannot misread a 0; an
    array result is NaN at such cells.

    ``recall`` overrides ``profile.recall`` when given. Prevalence, fix rate
    and recall broadcast.
    """
    rec = profile.recall if recall is None else recall
    return _defined(_cell(rec, profile.precision, domain, fixer, [_far])[0])


def pipeline_false_negatives(domain: DomainSpec, fixer: FixerSpec, recall):
    """Final false negatives and their growth ratio over the first stage.

    Returns ``(fn_final, fn_ratio)`` with

        fn_final = [1 + (1 - fix_rate) * rec] * (1 - rec) * P * N
        fn_ratio = 1 + (1 - fix_rate) * rec

    The ratio is reported as the analytic limit even when the first stage
    produced no false negatives (``rec = 1``).
    """
    return _cell(recall, 1.0, domain, fixer, [_fn_final, _fn_ratio])


def pipeline_true_positives(domain: DomainSpec, fixer: FixerSpec, recall):
    """True positives surviving both stages, ``(1 - fix_rate) * rec^2 * P * N``."""
    return _cell(recall, 1.0, domain, fixer, [_tp])[0]


def pipeline_false_positives(profile: ClassifierProfile, domain: DomainSpec, fixer: FixerSpec, recall=None):
    """False positives emitted by the second stage.

        rec * (1 - prec)/prec * (1 - fix_rate) * rec * P * N
    """
    rec = profile.recall if recall is None else recall
    return _cell(rec, profile.precision, domain, fixer, [_fp])[0]


def fixer_load(profile: ClassifierProfile, domain: DomainSpec, recall=None):
    """Number of items handed to the fixer and second classifier: ``rec / prec * P * N``
    (first-stage true plus false positives)."""
    rec = profile.recall if recall is None else recall
    return _cell(rec, profile.precision, domain, _NO_FIXER, [_load])[0]


def pipeline_outcome(profile: ClassifierProfile, domain: DomainSpec, fixer: FixerSpec, recall=None) -> PipelineOutcome:
    """Bundle every end-to-end metric into one record.

    ``recall`` overrides ``profile.recall`` when given, which lets callers
    sweep recall values against a fixed profile. Prevalence, fix rate and
    recall broadcast, so a grid gives one array per field; ``far`` is
    NaN at its degenerate cells. A scalar degenerate cell raises
    :class:`DegenerateDomainError`.
    """
    rec = profile.recall if recall is None else recall
    out = PipelineOutcome._make(_cell(rec, profile.precision, domain, fixer, _FORMULAS))
    _defined(out.far)
    return out
