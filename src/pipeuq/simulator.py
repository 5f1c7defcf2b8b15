"""Seeded Monte Carlo simulation of the detect -> fix -> re-detect pipeline.

The simulator is count-level. Each item is independently vulnerable with
probability P; the first classifier (recall r, specificity spec) sends the
items it flags to the fixer, which repairs each with probability f and
independently breaks it with probability b; the same classifier then checks
them again. So a trial's terminal counts are multinomial, with the per-item
probabilities of ``core``: ``core._missed`` gives a, the chance of a
first-stage miss, and ``core._after_fixer`` q, the chance that an item not
missed is vulnerable after the fixer. One trial is three binomial draws, in
order, which ``_draws`` alone makes:

1. first-stage misses ``FN1 ~ Bin(n_items, a)``;
2. vulnerable after the fixer ``W ~ Bin(n_items - FN1, q)``;
3. second-stage misses ``FN2 ~ Bin(W, 1 - r)``.

Then final prevalence = (FN1 + W) / n_items; realized fix rate =
1 - final_prevalence / prevalence; fn growth = (FN1 + FN2) / FN1.

Reproducibility contract: trials run in chunks of ``CHUNK = 2**16``, each of
the three draws one ``rng.binomial`` call over a chunk's arrays. Chunk ``k``
of stream code 1 (optimistic) or 2 (pessimistic) draws, in the order above,
from ``default_rng(SeedSequence((master_seed, stream_code, k)))`` at the
recalls of chunk ``k``, the ``(p, recall)`` of ``pbox.stream_chunks(pbox,
trials, master_seed, stream)``, whose p is drawn by ``default_rng(master_seed)``.
Every grid cell reuses these seeds (common random numbers) in one
loop nest, stream -> chunk -> prevalence -> fix rate: one ``pbox.stream_chunks``
pass per stream; per prevalence, a fresh generator and FN1; per fix rate, W and
FN2 from the generator's state just after FN1. So each cell draws the numbers
of its solo run, and a report depends only on its config and the numpy version
(NEP 19 lets a ``Generator``'s draws change between numpy releases): never on
the other cells, the execution order or the memory. Each chunk is folded as it
is drawn, so memory does not grow with ``trials``. The counts c = FN1 + W fold
as integers, their min, max and exact sum, and the two count metrics follow
from them once: so their means depend on neither the chunk size nor an order of
summation. ``pbox.fold_chunk`` folds the fn growth of the defined trials.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import ClassifierProfile, DomainSpec, FixerSpec, _after_fixer, _missed
from .errors import MAX_ITEMS, check_count, check_unit
from .pbox import STREAMS, Interval, PBoxParams, check_stream, fold_chunk, stream_chunks

__all__ = ["TrialOutcome", "SimulationReport", "METRICS", "STREAM_OPTIMISTIC", "STREAM_PESSIMISTIC", "run_trial",
           "run_experiment", "run_grid", "trial_seed"]

METRICS = ("final_prevalence", "real_fix_rate", "fn_ratio")
STREAM_OPTIMISTIC, STREAM_PESSIMISTIC = STREAMS
_STREAM_CODES = {name: code for code, name in enumerate(STREAMS, start=1)}  # 1 and 2 in every seed


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


def _draws(rng, domain: DomainSpec, profile: ClassifierProfile, fixers, recall: np.ndarray):
    """The counts (fn1, vulnerable_out, fn2) of a chunk of trials at each of ``fixers`` in turn: FN1 drawn once,
    then each fixer's W and FN2 from the generator's state just after FN1, as if that fixer were alone."""
    n, p = domain.n_items, domain.prevalence
    fn1 = rng.binomial(n, missed := _missed(np, recall, p))
    after_fn1 = rng.bit_generator.state
    for f, b in fixers:
        vulnerable_out = rng.binomial(n - fn1, _after_fixer(np, recall, p, profile.specificity, f, b, missed))
        yield fn1, vulnerable_out, rng.binomial(vulnerable_out, 1.0 - recall)
        rng.bit_generator.state = after_fn1  # for the next fixer, if the caller asks for one (run_trial does not)


def _growth(fn1, fn2):
    """The mask of a chunk's trials whose fn growth (FN1 + FN2) / FN1 is defined, and their growth:
    undefined without first-stage misses, unless the second stage missed nothing either (then 1)."""
    fn_out = fn1 + fn2
    defined = (fn1 > 0) | (fn_out == 0)
    return defined, np.maximum(fn_out[defined], 1) / np.maximum(fn1[defined], 1)  # 0 / 0 read as 1 / 1


def _metrics(domain: DomainSpec, counts, names=METRICS) -> dict:
    """The per-trial metrics ``names`` of a chunk's counts (fn1, vulnerable_out, fn2), each built only if named
    and keyed in the order given: arrays whose ``tolist()`` holds floats, None where undefined, as ``outcomes()``
    and a trace write them."""
    fn1, vulnerable_out, fn2 = counts
    final_prevalence = (fn1 + vulnerable_out) / domain.n_items
    metrics = {"final_prevalence": final_prevalence}
    if "real_fix_rate" in names:
        with np.errstate(over="ignore"):  # a subnormal prevalence gives -inf, as float division does
            metrics["real_fix_rate"] = (1.0 - final_prevalence / domain.prevalence if domain.prevalence > 0.0
                                        else np.full(fn1.size, None))  # an object array: undefined at P = 0
    if "fn_ratio" in names:
        defined, growth = _growth(fn1, fn2)
        metrics["fn_ratio"] = np.full(fn1.size, None)  # an object array
        metrics["fn_ratio"][defined] = growth  # each a Python float
    return {name: metrics[name] for name in names}


def _chunks(domains, profile: ClassifierProfile, fixers, pbox: PBoxParams, trials: int, master_seed: int):
    """Every chunk of every cell of the grid as ``(cell, stream, recall, counts)``,
    ``cell`` counting domain-major: the one loop nest that draws."""
    for stream, code in _STREAM_CODES.items():
        for k, (_, recall) in enumerate(stream_chunks(pbox, trials, master_seed, stream)):
            for i, domain in enumerate(domains):
                rng = np.random.default_rng(np.random.SeedSequence((master_seed, code, k)))
                draws = _draws(rng, domain, profile, fixers, recall)
                # by next(): a loop variable would hold a cell's counts while the next cell draws
                for cell in range(i * len(fixers), (i + 1) * len(fixers)):
                    yield cell, stream, recall, next(draws)


def _outcomes(domain: DomainSpec, recall: np.ndarray, counts):
    """The trials of one chunk as ``TrialOutcome`` records, in order."""
    metrics = (column.tolist() for column in _metrics(domain, counts).values())
    for rec, row, *values in zip(recall.tolist(), zip(*(c.tolist() for c in counts)), *metrics):
        yield TrialOutcome(*row, *values, rec)


def run_trial(domain: DomainSpec, profile: ClassifierProfile, fixer: FixerSpec, recall: float,
              seed: int) -> TrialOutcome:
    """One full pipeline pass at a fixed recall: a chunk of one trial.

    ``recall`` overrides ``profile.recall`` (the profile still supplies the
    specificity). The three draws share one generator seeded with ``seed``.
    """
    check_unit(recall, "recall", numpy=False)  # one trial, one recall; a chunk's recalls lie in the box
    _check_cells([domain], profile, [fixer])
    rng = np.random.default_rng(check_count(seed, "seed"))
    recall = np.array([recall], dtype=float)
    return next(_outcomes(domain, recall, next(_draws(rng, domain, profile, [fixer], recall))))


def trial_seed(master_seed: int, stream: str, index: int) -> int:
    """Stable integer seed for ``run_trial``: a hash of ``(master_seed,
    stream_code, index)`` by ``numpy.random.SeedSequence`` (documented, platform-stable)."""
    check_stream(stream)
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
        """Re-draw every chunk as ``(stream, recall, counts)``, the optimistic
        stream first; counts as ``_draws`` gives them."""
        args = ([self.domain], self.profile, [self.fixer], self.pbox, self.trials, self.master_seed)
        return (chunk[1:] for chunk in _chunks(*args))

    def outcomes(self):
        """Re-draw every trial as a ``TrialOutcome``, the optimistic stream first."""
        for _, recall, counts in self.chunks():
            yield from _outcomes(self.domain, recall, counts)


def _quotient(numerator: int, denominator: int) -> float:
    """``numerator / denominator`` rounded once; -inf below the least float, as a realized fix rate
    is at a subnormal prevalence."""
    try:
        return numerator / denominator
    except OverflowError:
        return -math.inf


def run_grid(domains, profile: ClassifierProfile, fixers, pbox: PBoxParams, trials: int,
             master_seed: int) -> list[SimulationReport]:
    """``run_experiment`` for every cell of the ``domains`` x ``fixers`` grid, drawn in one
    pass: one report per cell, domain-major. For each metric, the per-trial extremes and the
    stream-means interval (each stream's mean, oriented lo <= hi), from running folds of the
    counts; trials whose metric is undefined are excluded and counted."""
    _check_cells(domains, profile, fixers)
    trials, master_seed = check_count(trials, "trials", 1), check_count(master_seed, "master_seed")  # kept as ints
    reports = [SimulationReport({}, {}, d, profile, f, pbox, trials, master_seed) for d in domains for f in fixers]
    counts, growths = {}, {}  # per (cell, stream): min, max and sum of c = FN1 + W; fold_chunk of the growths
    for cell, stream, _, (fn1, vulnerable_out, fn2) in _chunks(domains, profile, fixers, pbox, trials, master_seed):
        c = fn1 + vulnerable_out
        lo, hi, total = counts.get((cell, stream), (MAX_ITEMS, 0, 0))
        # an int64 sum of c < 2**63 can wrap; the high and low 32 bits of a chunk's each sum below 2**48
        total += (int(np.sum(c >> 32)) << 32) + int(np.sum(c & 0xFFFFFFFF))
        counts[cell, stream] = min(lo, int(c.min())), max(hi, int(c.max())), total
        growths[cell, stream] = fold_chunk(_growth(fn1, fn2)[1], *growths.get((cell, stream), ()))
        del fn1, vulnerable_out, fn2, c  # free the cell's arrays before the next cell's are drawn
    for cell, report in enumerate(reports):
        n, prevalence, size = report.domain.n_items, float(report.domain.prevalence), report.domain.n_items * trials
        (lo1, hi1, sum1), (lo2, hi2, sum2) = (counts[cell, s] for s in _STREAM_CODES)
        # the metrics at the extreme counts as _metrics computes a trial's, so with its bits (each
        # map is monotone), and each stream's mean from its exact count sum, rounded once
        ends = float(min(lo1, lo2)) / float(n), float(max(hi1, hi2)) / float(n)
        final, fix = (ends, (sum1 / size, sum2 / size)), (None, None)
        if prevalence > 0.0:
            num, den = prevalence.as_integer_ratio()  # 1 - sum / (size * P) as one ratio of ints
            fix = [1.0 - x / prevalence for x in ends], [_quotient(size * num - total * den, size * num)
                                                         for total in (sum1, sum2)]
        (lo1, hi1, n1, sum1), (lo2, hi2, n2, sum2) = (growths[cell, s] for s in _STREAM_CODES)
        growth = (min(lo1, lo2), max(hi1, hi2)) if n1 or n2 else None, (sum1 / n1, sum2 / n2) if n1 and n2 else None
        for metric, pairs in zip(METRICS, (final, fix, growth)):
            report.intervals[metric] = {mode: Interval(min(pair), max(pair)) if pair else None
                                        for mode, pair in zip(("extremes", "means"), pairs)}
        report.undefined.update(real_fix_rate=0 if prevalence > 0.0 else 2 * trials, fn_ratio=2 * trials - n1 - n2)
    return reports


def run_experiment(domain: DomainSpec, profile: ClassifierProfile, fixer: FixerSpec, pbox: PBoxParams, trials: int,
                   master_seed: int) -> SimulationReport:
    """Run ``trials`` pipeline passes per recall stream and aggregate intervals:
    the report of the one-cell grid ``run_grid([domain], profile, [fixer], ...)``."""
    (report,) = run_grid([domain], profile, [fixer], pbox, trials, master_seed)
    return report
