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

Reproducibility contract: trials run in chunks of ``CHUNK = 2**16``, each of
the seven draws one ``rng.binomial`` call over a chunk's arrays. Chunk ``k``
of stream code 1 (optimistic) or 2 (pessimistic) draws, in the order above,
from ``default_rng(SeedSequence((master_seed, stream_code, k)))`` at the
recalls of chunk ``k`` of ``pbox.recall_chunks(pbox, trials, master_seed)``,
whose p = 0 and p = 1 ties come from a child generator per chunk. Every grid
cell reuses these seeds (common random numbers), so a report depends only on
its config: never on the other cells, the execution order or the memory.
Running sums aggregate the chunks, so memory does not grow with ``trials``.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .core import ClassifierProfile, ConfusionCounts, DomainSpec, FixerSpec, _check_unit
from .errors import InvalidParameterError
from .pbox import Interval, PBoxParams, recall_chunks

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


class TrialOutcome(NamedTuple):
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


def _detect(rng, vulnerable, total, recall, specificity):
    """One classifier pass: two draws, then (tp, fn, tn, fp) of ``total`` items."""
    tp = rng.binomial(vulnerable, recall)
    tn = rng.binomial(total - vulnerable, specificity)
    return tp, vulnerable - tp, tn, total - vulnerable - tn


def _draw(rng, domain: DomainSpec, profile: ClassifierProfile, fixer: FixerSpec, recall: np.ndarray):
    """The seven draws of a chunk of trials, one array entry per trial.

    Returns the eight counts (tp1, fn1, tn1, fp1, tp2, fn2, tn2, fp2) and the
    metrics keyed as ``METRICS``, NaN where undefined. Intermediate arrays
    live inside ``_detect``, so a chunk's peak memory stays near its results.
    """
    _check_unit(recall, "recall")
    n, prevalence, spec = domain.n_items, domain.prevalence, profile.specificity
    if n < 1:
        raise InvalidParameterError("a trial needs at least one item")
    tp1, fn1, tn1, fp1 = _detect(rng, rng.binomial(n, prevalence, recall.size), n, recall, spec)
    # a detected vulnerability survives unless repaired and not broken; a
    # false alarm becomes vulnerable only when broken
    survives = 1.0 - (1.0 - fixer.break_rate) * fixer.fix_rate
    vulnerable_after = rng.binomial(tp1, survives) + rng.binomial(fp1, fixer.break_rate)
    tp2, fn2, tn2, fp2 = _detect(rng, vulnerable_after, tp1 + fp1, recall, spec)

    fn_out = fn1 + fn2
    final_prevalence = (tp2 + fn_out) / n
    with np.errstate(over="ignore"):  # a subnormal prevalence gives -inf, as float division does
        real_fix_rate = 1.0 - final_prevalence / prevalence if prevalence > 0.0 else np.full(recall.size, np.nan)
    # without first-stage misses the growth is undefined, or vacuously 1 if
    # the second stage missed nothing either
    fn_ratio = np.divide(fn_out, fn1, out=np.full(recall.size, np.nan), where=fn1 > 0)
    fn_ratio[fn_out == 0] = 1.0
    counts = (tp1, fn1, tn1, fp1, tp2, fn2, tn2, fp2)
    return counts, dict(zip(METRICS, (final_prevalence, real_fix_rate, fn_ratio)))


def _outcomes(recall: np.ndarray, counts, metrics: dict):
    """The trials of one chunk as ``TrialOutcome`` records, in order."""
    values = [[None if v != v else v for v in metrics[m].tolist()] for m in METRICS]
    for rec, row, final, fix, ratio in zip(recall.tolist(), zip(*(c.tolist() for c in counts)), *values):
        yield TrialOutcome(ConfusionCounts(*row[:4]), ConfusionCounts(*row[4:]), final, fix, ratio, rec)


def run_trial(
    domain: DomainSpec,
    profile: ClassifierProfile,
    fixer: FixerSpec,
    recall: float,
    seed: int,
) -> TrialOutcome:
    """One full pipeline pass at a fixed recall: a chunk of one trial.

    ``recall`` overrides ``profile.recall`` (the profile still supplies the
    specificity). The seven draws share one generator seeded with ``seed``.
    """
    recall = np.array([recall], dtype=float)
    return next(_outcomes(recall, *_draw(np.random.default_rng(int(seed)), domain, profile, fixer, recall)))


def trial_seed(master_seed: int, stream: str, index: int) -> int:
    """Stable integer seed for ``run_trial``: a hash of ``(master_seed,
    stream_code, index)`` by ``numpy.random.SeedSequence`` (documented, platform-stable)."""
    code = _STREAM_CODES[stream]
    ss = np.random.SeedSequence(entropy=(int(master_seed), code, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


class SimulationReport(NamedTuple):
    """Intervals of one experiment, and the inputs that re-draw its trials;
    ``undefined`` maps real_fix_rate and fn_ratio to their undefined trials."""

    intervals: dict
    undefined: dict
    domain: DomainSpec
    profile: ClassifierProfile
    fixer: FixerSpec
    pbox: PBoxParams
    trials: int
    master_seed: int

    def chunks(self):
        """Re-draw every chunk as ``(stream, recall, counts, metrics)``, the
        optimistic stream first; counts and metrics as ``_draw`` gives them."""
        for stream, code in _STREAM_CODES.items():
            recalls = map(attrgetter(stream), recall_chunks(self.pbox, self.trials, self.master_seed))
            for k, recall in enumerate(recalls):
                rng = np.random.default_rng(np.random.SeedSequence((self.master_seed, code, k)))
                yield (stream, recall, *_draw(rng, self.domain, self.profile, self.fixer, recall))

    def outcomes(self):
        """Re-draw every trial as a ``TrialOutcome``, the optimistic stream first."""
        for _, recall, counts, metrics in self.chunks():
            yield from _outcomes(recall, counts, metrics)


def run_experiment(
    domain: DomainSpec,
    profile: ClassifierProfile,
    fixer: FixerSpec,
    pbox: PBoxParams,
    trials: int,
    master_seed: int,
) -> SimulationReport:
    """Run ``trials`` pipeline passes per recall stream and aggregate intervals.

    For each metric, the per-trial extremes interval and the stream-means
    interval (each stream's mean, oriented lo <= hi), from running sums.
    Trials whose metric is undefined are excluded and counted.
    """
    if not 1 <= trials <= 2**53:  # a stream mean divides by its count, exact in a float64 up to 2**53
        raise InvalidParameterError(f"trials must lie in [1, 2**53], got {trials!r}")
    report = SimulationReport({}, {}, domain, profile, fixer, pbox, trials, master_seed)
    # per (stream, metric): min, max, count and sum of the defined values
    sums = {(s, m): (math.inf, -math.inf, 0, 0.0) for s in _STREAM_CODES for m in METRICS}
    for stream, recall, counts, metrics in report.chunks():
        for metric, values in metrics.items():  # fmin, fmax and nansum skip NaN
            lo, hi, count, total = sums[stream, metric]
            with np.errstate(over="ignore"):  # a tiny prevalence sums to -inf, as in _draw
                chunk_total = float(np.nansum(values))
            sums[stream, metric] = (
                float(np.fmin.reduce(values, initial=lo)),
                float(np.fmax.reduce(values, initial=hi)),
                count + int(np.count_nonzero(values == values)),
                total + chunk_total,
            )
        del recall, counts, metrics, values  # free the chunk before the next one is drawn
    for metric in METRICS:
        (lo1, hi1, n1, sum1), (lo2, hi2, n2, sum2) = (sums[s, metric] for s in _STREAM_CODES)
        means = (sum1 / n1, sum2 / n2) if n1 and n2 else None
        report.intervals[metric] = {
            "extremes": Interval(min(lo1, lo2), max(hi1, hi2)) if n1 or n2 else None,
            "means": Interval(min(means), max(means)) if means else None,
        }
        if metric != "final_prevalence":  # never undefined
            report.undefined[metric] = 2 * trials - n1 - n2
    return report
