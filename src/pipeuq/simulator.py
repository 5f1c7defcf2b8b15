"""Seeded Monte Carlo simulation of the detect -> fix -> re-detect pipeline.

The simulator is count-level. Each item is independently vulnerable with
probability P; the first classifier (recall r, specificity spec) sends the
items it flags to the fixer, which repairs each with probability f and
independently breaks it with probability b; the same classifier then checks
them again. So a trial's terminal counts are multinomial. With
``s = 1 - (1 - b) * f``, an item is missed at the first stage with
probability ``a = P * (1 - r)``, and is vulnerable after the fixer with
probability ``w = P * r * s + (1 - P) * (1 - spec) * b``: a detected
vulnerability stays unless repaired and not broken, and a false alarm turns
vulnerable only when broken. One trial is three binomial draws, in order:

1. first-stage misses ``FN1 ~ Bin(n_items, a)``;
2. vulnerable after the fixer ``W ~ Bin(n_items - FN1, min(w / (1 - a), 1))``,
   the ratio 0 where a = 1;
3. second-stage misses ``FN2 ~ Bin(W, 1 - r)``.

Then final prevalence = (FN1 + W) / n_items; realized fix rate =
1 - final_prevalence / prevalence; fn growth = (FN1 + FN2) / FN1.

Reproducibility contract: trials run in chunks of ``CHUNK = 2**16``, each of
the three draws one ``rng.binomial`` call over a chunk's arrays. Chunk ``k``
of stream code 1 (optimistic) or 2 (pessimistic) draws, in the order above,
from ``default_rng(SeedSequence((master_seed, stream_code, k)))`` at the
recalls of chunk ``k`` of ``pbox.stream_chunks(pbox, trials, master_seed,
stream)``, whose p = 0 ties come from a child generator per chunk. Every
grid cell reuses these seeds (common random numbers) in one loop nest, stream
-> chunk -> prevalence -> fix rate: one ``pbox.stream_chunks`` pass per stream;
per prevalence, a fresh generator and FN1; per fix rate, W and FN2 from the
generator's state just after FN1. So each cell draws the numbers of its solo
run, and a report depends only on its config and the numpy version (NEP 19 lets
a ``Generator``'s draws change between numpy releases): never on the other
cells, the execution order or the memory. ``pbox.fold_chunk``'s running sums
aggregate the chunks, so memory does not grow with ``trials``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import ClassifierProfile, DomainSpec, FixerSpec
from .errors import InvalidParameterError, check_count, check_unit
from .pbox import Interval, PBoxParams, fold_chunk, stream_chunks

__all__ = [
    "TrialOutcome",
    "SimulationReport",
    "METRICS",
    "STREAM_OPTIMISTIC",
    "STREAM_PESSIMISTIC",
    "run_trial",
    "run_experiment",
    "run_grid",
    "trial_seed",
]

METRICS = ("final_prevalence", "real_fix_rate", "fn_ratio")
STREAM_OPTIMISTIC = "optimistic"
STREAM_PESSIMISTIC = "pessimistic"
_STREAM_CODES = {STREAM_OPTIMISTIC: 1, STREAM_PESSIMISTIC: 2}


class TrialOutcome(NamedTuple):
    """Counts and headline metrics of one simulated pipeline pass.

    ``fn1`` counts the first-stage misses, ``vulnerable_out`` the items
    vulnerable after the fixer and ``fn2`` the second-stage misses among them.
    ``real_fix_rate`` is None when prevalence is zero (nothing to fix);
    ``fn_ratio`` is None when the first stage produced no false negatives but
    the second stage did, leaving the growth ratio without a finite value.
    """

    fn1: int
    vulnerable_out: int
    fn2: int
    final_prevalence: float
    real_fix_rate: float | None
    fn_ratio: float | None
    recall_used: float


def _check_cells(domains, profile: ClassifierProfile, fixers) -> None:
    """Refuse a cell that cannot be drawn: one of no items, or one whose prevalence, specificity,
    fix rate or break rate is an array, not the one number a cell has. DomainSpec keeps
    ``n_items`` at most ``MAX_ITEMS``, as ``binomial`` needs."""
    for domain in domains:
        check_count(domain.n_items, "a trial's n_items", 1)
    cells = [("specificity", profile.specificity), *(("prevalence", d.prevalence) for d in domains),
             *(field for f in fixers for field in zip(f._fields, f))]
    for name, value in cells:
        check_unit(value, f"a trial's {name}", numpy=False)


def _first_stage(rng, domain: DomainSpec, recall: np.ndarray):
    """``a``, the chance of a first-stage miss, and FN1 ~ Bin(n_items, a) of a chunk
    of trials, one array entry per trial: what every fix rate of a prevalence shares."""
    missed = domain.prevalence * (1.0 - recall)
    return missed, rng.binomial(domain.n_items, missed)


def _second_stage(rng, domain: DomainSpec, profile: ClassifierProfile, fixer: FixerSpec, recall, missed, fn1):
    """The draws W and FN2 of a chunk of trials whose first stage gave ``missed`` and ``fn1``:
    the counts (fn1, vulnerable_out, fn2) and the metrics keyed as ``METRICS``, NaN where undefined."""
    n, prevalence, spec = domain.n_items, domain.prevalence, profile.specificity
    # per item: w, the chance of being vulnerable after the fixer
    survives = 1.0 - (1.0 - fixer.break_rate) * fixer.fix_rate
    vulnerable = prevalence * recall * survives + (1.0 - prevalence) * (1.0 - spec) * fixer.break_rate
    # w <= 1 - a, but the ratio can round to 1 + 2**-52; at a = 1 nothing is left to draw
    kept = 1.0 - missed
    ratio = np.divide(vulnerable, kept, out=np.zeros_like(kept), where=kept > 0.0)
    vulnerable_out = rng.binomial(n - fn1, np.minimum(ratio, 1.0))
    fn2 = rng.binomial(vulnerable_out, 1.0 - recall)

    fn_out = fn1 + fn2
    final_prevalence = (fn1 + vulnerable_out) / n
    with np.errstate(over="ignore"):  # a subnormal prevalence gives -inf, as float division does
        real_fix_rate = 1.0 - final_prevalence / prevalence if prevalence > 0.0 else np.full(recall.size, np.nan)
    # without first-stage misses the growth is undefined, or vacuously 1 if
    # the second stage missed nothing either
    fn_ratio = np.divide(fn_out, fn1, out=np.full(recall.size, np.nan), where=fn1 > 0)
    fn_ratio[fn_out == 0] = 1.0
    return (fn1, vulnerable_out, fn2), dict(zip(METRICS, (final_prevalence, real_fix_rate, fn_ratio)))


def _chunks(domains, profile: ClassifierProfile, fixers, pbox: PBoxParams, trials: int, master_seed: int):
    """Every chunk of every cell of the grid as ``(cell, stream, recall, counts, metrics)``,
    ``cell`` counting domain-major: the one loop nest that draws."""
    for stream, code in _STREAM_CODES.items():
        for k, recall in enumerate(stream_chunks(pbox, trials, master_seed, stream)):
            for i, domain in enumerate(domains):
                rng = np.random.default_rng(np.random.SeedSequence((master_seed, code, k)))
                first = _first_stage(rng, domain, recall)
                after_fn1 = rng.bit_generator.state
                for cell, fixer in enumerate(fixers, start=i * len(fixers)):
                    rng.bit_generator.state = after_fn1  # each fix rate draws as if it were alone
                    yield cell, stream, recall, *_second_stage(rng, domain, profile, fixer, recall, *first)


def _outcomes(recall: np.ndarray, counts, metrics: dict):
    """The trials of one chunk as ``TrialOutcome`` records, in order."""
    values = [[None if v != v else v for v in metrics[m].tolist()] for m in METRICS]
    for rec, row, final, fix, ratio in zip(recall.tolist(), zip(*(c.tolist() for c in counts)), *values):
        yield TrialOutcome(*row, final, fix, ratio, rec)


def run_trial(
    domain: DomainSpec,
    profile: ClassifierProfile,
    fixer: FixerSpec,
    recall: float,
    seed: int,
) -> TrialOutcome:
    """One full pipeline pass at a fixed recall: a chunk of one trial.

    ``recall`` overrides ``profile.recall`` (the profile still supplies the
    specificity). The three draws share one generator seeded with ``seed``.
    """
    check_unit(recall, "recall", numpy=False)  # one trial, one recall; a chunk's recalls lie in the box
    _check_cells([domain], profile, [fixer])
    rng = np.random.default_rng(check_count(seed, "seed"))
    recall = np.array([recall], dtype=float)
    first = _first_stage(rng, domain, recall)
    return next(_outcomes(recall, *_second_stage(rng, domain, profile, fixer, recall, *first)))


def trial_seed(master_seed: int, stream: str, index: int) -> int:
    """Stable integer seed for ``run_trial``: a hash of ``(master_seed,
    stream_code, index)`` by ``numpy.random.SeedSequence`` (documented, platform-stable)."""
    if not isinstance(stream, str) or stream not in _STREAM_CODES:
        raise InvalidParameterError(f"a recall stream is 'optimistic' or 'pessimistic', got {stream!r}")
    entropy = (check_count(master_seed, "master_seed"), _STREAM_CODES[stream], check_count(index, "index"))
    ss = np.random.SeedSequence(entropy=entropy)
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
        optimistic stream first; counts and metrics as ``_second_stage`` gives them."""
        args = ([self.domain], self.profile, [self.fixer], self.pbox, self.trials, self.master_seed)
        return (chunk[1:] for chunk in _chunks(*args))

    def outcomes(self):
        """Re-draw every trial as a ``TrialOutcome``, the optimistic stream first."""
        for _, recall, counts, metrics in self.chunks():
            yield from _outcomes(recall, counts, metrics)


def run_grid(domains, profile: ClassifierProfile, fixers, pbox: PBoxParams, trials: int,
             master_seed: int) -> list[SimulationReport]:
    """``run_experiment`` for every cell of the ``domains`` x ``fixers`` grid, drawn in one
    pass: one report per cell, domain-major. For each metric, the per-trial extremes and the
    stream-means interval (each stream's mean, oriented lo <= hi), from running sums; trials
    whose metric is undefined are excluded and counted."""
    _check_cells(domains, profile, fixers)
    trials, master_seed = check_count(trials, "trials", 1), check_count(master_seed, "master_seed")  # kept as ints
    reports = [SimulationReport({}, {}, d, profile, f, pbox, trials, master_seed) for d in domains for f in fixers]
    sums = {}  # per (cell, stream, metric): min, max, count and sum of the defined values
    for cell, stream, recall, counts, metrics in _chunks(domains, profile, fixers, pbox, trials, master_seed):
        for metric, values in metrics.items():
            sums[cell, stream, metric] = fold_chunk(values, *sums.get((cell, stream, metric), ()))
        del recall, counts, metrics, values  # free the cell's arrays before the next cell's are drawn
    for cell, report in enumerate(reports):
        for metric in METRICS:
            (lo1, hi1, n1, sum1), (lo2, hi2, n2, sum2) = (sums[cell, s, metric] for s in _STREAM_CODES)
            means = (sum1 / n1, sum2 / n2) if n1 and n2 else None
            report.intervals[metric] = {
                "extremes": Interval(min(lo1, lo2), max(hi1, hi2)) if n1 or n2 else None,
                "means": Interval(min(means), max(means)) if means else None,
            }
            if metric != "final_prevalence":  # never undefined
                report.undefined[metric] = 2 * trials - n1 - n2
    return reports


def run_experiment(
    domain: DomainSpec,
    profile: ClassifierProfile,
    fixer: FixerSpec,
    pbox: PBoxParams,
    trials: int,
    master_seed: int,
) -> SimulationReport:
    """Run ``trials`` pipeline passes per recall stream and aggregate intervals:
    the report of the one-cell grid ``run_grid([domain], profile, [fixer], ...)``."""
    (report,) = run_grid([domain], profile, [fixer], pbox, trials, master_seed)
    return report
