"""Seeded Monte Carlo simulation of the detect -> fix -> re-detect pipeline.

The simulator is count-level. Every item of a trial goes through the same
independent Bernoulli steps, so every stage's confusion counts are exactly
binomial, and one trial is seven binomial draws in this order:

1. ground truth: ``V ~ Bin(n_items, prevalence)`` vulnerable items;
2. first classifier: ``TP1 ~ Bin(V, recall)`` and
   ``TN1 ~ Bin(n_items - V, specificity)``; the rest are FN1 and FP1;
3. fixer: every positive-labeled item (TP1 + FP1) is repaired with
   probability ``fix_rate`` and independently broken with ``break_rate``.
   A detected vulnerability stays vulnerable unless it is repaired and not
   broken, a false alarm becomes vulnerable only when broken, so
   ``V2 = Bin(TP1, 1 - (1 - break_rate) * fix_rate) + Bin(FP1, break_rate)``;
4. second classifier: the same recall and specificity applied to the items
   that went through the fixer, ``TP2 ~ Bin(V2, recall)`` and
   ``TN2 ~ Bin(TP1 + FP1 - V2, specificity)``; items never sent keep their
   first-stage labels;
5. counter: tp_out = tp2, fn_out = fn1 + fn2, tn_out = tn1 + tn2,
   fp_out = fp2; final prevalence = (tp_out + fn_out) / n_items; realized fix
   rate = 1 - final_prevalence / prevalence; fn growth = fn_out / fn1.

A trial's time and memory do not depend on ``n_items``.

Reproducibility contract: a trial makes its seven draws in the order above
from one ``numpy.random.default_rng(seed)``, and every trial's integer seed is
derived from ``(master_seed, stream_code, trial_index)`` via ``numpy.random
.SeedSequence``. A trial therefore depends only on its coordinates, and
reports are identical for a given master seed regardless of execution order
or trial scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassifierProfile, ConfusionCounts, DomainSpec, FixerSpec, _check_unit
from .errors import InvalidParameterError
from .pbox import Interval, PBoxParams, sample_recall_streams

__all__ = [
    "TrialOutcome",
    "SimulationReport",
    "METRICS",
    "STREAM_OPTIMISTIC",
    "STREAM_PESSIMISTIC",
    "run_trial",
    "run_experiment",
    "trial_seed",
]

METRICS = ("final_prevalence", "real_fix_rate", "fn_ratio")
STREAM_OPTIMISTIC = "optimistic"
STREAM_PESSIMISTIC = "pessimistic"
_STREAM_CODES = {STREAM_OPTIMISTIC: 1, STREAM_PESSIMISTIC: 2}


@dataclass(frozen=True)
class TrialOutcome:
    """Counts and headline metrics of one simulated pipeline pass.

    ``real_fix_rate`` is None when prevalence is zero (nothing to fix);
    ``fn_ratio`` is None when the first stage produced no false negatives but
    the second stage did, leaving the growth ratio without a finite value.
    """

    counts_first: ConfusionCounts
    counts_second: ConfusionCounts
    final_prevalence: float
    real_fix_rate: float | None
    fn_ratio: float | None
    recall_used: float


@dataclass(frozen=True)
class SimulationReport:
    """Per-trial outcomes of one experiment and the intervals they give."""

    outcomes_optimistic: tuple[TrialOutcome, ...]
    outcomes_pessimistic: tuple[TrialOutcome, ...]
    intervals: dict
    undefined_real_fix_rate: int
    undefined_fn_ratio: int

    def outcomes(self) -> tuple[TrialOutcome, ...]:
        return self.outcomes_optimistic + self.outcomes_pessimistic


def _detect(rng, vulnerable: int, clean: int, recall: float, specificity: float) -> ConfusionCounts:
    """One classifier pass over ``vulnerable`` and ``clean`` items: two draws."""
    tp = int(rng.binomial(vulnerable, recall))
    tn = int(rng.binomial(clean, specificity))
    return ConfusionCounts(tp, vulnerable - tp, tn, clean - tn)


def run_trial(
    domain: DomainSpec,
    profile: ClassifierProfile,
    fixer: FixerSpec,
    recall: float,
    seed: int,
) -> TrialOutcome:
    """One full pipeline pass at a fixed recall.

    ``recall`` overrides ``profile.recall`` (the profile still supplies the
    specificity). The seven draws share one generator seeded with ``seed``.
    """
    _check_unit(recall, "recall")
    n = domain.n_items
    if n < 1:
        raise InvalidParameterError("a trial needs at least one item")
    recall, spec = float(recall), profile.specificity
    rng = np.random.default_rng(int(seed))
    vulnerable = int(rng.binomial(n, domain.prevalence))
    counts_first = _detect(rng, vulnerable, n - vulnerable, recall, spec)
    sent = counts_first.tp + counts_first.fp
    # a detected vulnerability survives unless repaired and not broken; a
    # false alarm becomes vulnerable only when broken
    survives = 1.0 - (1.0 - fixer.break_rate) * fixer.fix_rate
    vulnerable_after = int(rng.binomial(counts_first.tp, survives)) + int(
        rng.binomial(counts_first.fp, fixer.break_rate)
    )
    counts_second = _detect(rng, vulnerable_after, sent - vulnerable_after, recall, spec)

    tp_out = counts_second.tp
    fn_out = counts_first.fn + counts_second.fn
    final_prevalence = (tp_out + fn_out) / n
    if domain.prevalence > 0.0:
        real_fix_rate = 1.0 - final_prevalence / domain.prevalence
    else:
        real_fix_rate = None
    fn1, fn2 = counts_first.fn, counts_second.fn
    if fn1 > 0:
        fn_ratio = fn_out / fn1
    elif fn2 == 0:
        fn_ratio = 1.0  # vacuously no growth
    else:
        fn_ratio = None
    return TrialOutcome(
        counts_first=counts_first,
        counts_second=counts_second,
        final_prevalence=final_prevalence,
        real_fix_rate=real_fix_rate,
        fn_ratio=fn_ratio,
        recall_used=recall,
    )


def trial_seed(master_seed: int, stream: str, index: int) -> int:
    """Stable per-trial integer seed.

    Hash of ``(master_seed, stream_code, trial_index)`` via
    ``numpy.random.SeedSequence`` (a documented, platform-stable mix), so a
    trial's randomness depends only on its coordinates, never on execution
    order or on how many other trials run.
    """
    code = _STREAM_CODES[stream]
    ss = np.random.SeedSequence(entropy=(int(master_seed), code, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _aggregate(report_outcomes: dict) -> tuple[dict, int, int]:
    intervals: dict = {}
    all_outcomes = report_outcomes[STREAM_OPTIMISTIC] + report_outcomes[STREAM_PESSIMISTIC]
    for metric in METRICS:
        defined = [v for o in all_outcomes if (v := getattr(o, metric)) is not None]
        extremes = Interval(min(defined), max(defined)) if defined else None
        means = []
        for stream in (STREAM_OPTIMISTIC, STREAM_PESSIMISTIC):
            vals = [v for o in report_outcomes[stream] if (v := getattr(o, metric)) is not None]
            means.append(float(np.mean(vals)) if vals else None)
        if None in means:
            mean_interval = None
        else:
            mean_interval = Interval(min(means), max(means))
        intervals[metric] = {"extremes": extremes, "means": mean_interval}
    undefined_fix = sum(1 for o in all_outcomes if o.real_fix_rate is None)
    undefined_ratio = sum(1 for o in all_outcomes if o.fn_ratio is None)
    return intervals, undefined_fix, undefined_ratio


def run_experiment(
    domain: DomainSpec,
    profile: ClassifierProfile,
    fixer: FixerSpec,
    pbox: PBoxParams,
    trials: int,
    master_seed: int,
) -> SimulationReport:
    """Run ``trials`` pipeline passes per recall stream and aggregate intervals.

    Recall streams of length ``trials`` are sampled from the p-box with
    ``master_seed``; each trial then runs under its own derived seed. The
    report carries per-trial outcomes plus, for each metric, the per-trial
    extremes interval and the stream-means interval (mean of each stream's
    per-trial values, oriented lo <= hi). Trials whose metric is undefined are
    excluded from aggregation and counted.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials!r}")
    streams = sample_recall_streams(pbox, trials, master_seed)
    outcomes: dict[str, tuple[TrialOutcome, ...]] = {}
    for stream, values in (
        (STREAM_OPTIMISTIC, streams.optimistic),
        (STREAM_PESSIMISTIC, streams.pessimistic),
    ):
        outcomes[stream] = tuple(
            run_trial(domain, profile, fixer, float(rec), trial_seed(master_seed, stream, i))
            for i, rec in enumerate(values)
        )
    intervals, undefined_fix, undefined_ratio = _aggregate(outcomes)
    return SimulationReport(
        outcomes_optimistic=outcomes[STREAM_OPTIMISTIC],
        outcomes_pessimistic=outcomes[STREAM_PESSIMISTIC],
        intervals=intervals,
        undefined_real_fix_rate=undefined_fix,
        undefined_fn_ratio=undefined_ratio,
    )
