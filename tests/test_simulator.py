import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from pipeuq import (
    ClassifierProfile,
    DomainSpec,
    FixerSpec,
    InvalidParameterError,
    Interval,
    PBoxParams,
    run_experiment,
    run_trial,
    trial_seed,
)
from pipeuq.errors import MAX_ITEMS
from pipeuq.pbox import CHUNK, stream_chunks
from pipeuq.simulator import METRICS, STREAM_OPTIMISTIC, STREAM_PESSIMISTIC, _chunks, _metrics, run_grid

BOX = PBoxParams(0.07, 1.00, 0.74)


def trial(n, prevalence, recall, specificity=0.0, fix_rate=0.5, break_rate=0.0, seed=1):
    return run_trial(
        DomainSpec(n, prevalence),
        ClassifierProfile(1.0, specificity=specificity),
        FixerSpec(fix_rate, break_rate),
        recall,
        seed,
    )


def item_walk(n, P, rec, spec, f, b, rng):
    """Reference item-level walk of one trial; returns its 8 confusion counts.

    One uniform per item and step, each compared with a strict ``<``: ground
    truth, first classifier, then fix, break and second classifier over the
    positive-labeled items. A fixed item is cleared unless it is also broken;
    a broken item is vulnerable.
    """
    vulnerable = rng.random(n) < P
    u = rng.random(n)
    tp1, tn1 = vulnerable & (u < rec), ~vulnerable & (u < spec)
    fn1, fp1 = vulnerable & ~tp1, ~vulnerable & ~tn1
    was_vulnerable = vulnerable[tp1 | fp1]
    m = was_vulnerable.size
    fixed = rng.random(m) < f
    broken = rng.random(m) < b
    post = broken | (was_vulnerable & ~fixed)
    u2 = rng.random(m)
    tp2, tn2 = post & (u2 < rec), ~post & (u2 < spec)
    fn2, fp2 = post & ~tp2, ~post & ~tn2
    return tuple(int(x.sum()) for x in (tp1, fn1, tn1, fp1, tp2, fn2, tn2, fp2))


class TestItemWalkEquivalence:
    """The count-level trial has the same distribution as the item walk: its
    three counts and three metrics."""

    TRIALS = 4000
    N = 60
    COLUMNS = ("fn1", "vulnerable_out", "fn2", *METRICS)

    GRID = [
        (0.5, 0.74, 0.3, 0.7, 0.2),  # filtering classifier, breaking fixer
        (0.4, 0.6, 0.5, 0.0, 0.1),  # fixer repairs nothing
        (0.6, 0.9, 0.2, 1.0, 0.0),  # fixer repairs everything
        (0.3, 0.5, 0.4, 0.5, 1.0),  # fixer breaks everything
        (0.5, 0.74, 0.0, 0.7, 0.0),  # the default sweep's classifier and fixer
    ]

    @pytest.mark.parametrize("P, rec, spec, f, b", GRID)
    def test_counts_match_item_walk(self, P, rec, spec, f, b):
        outs = [
            trial(self.N, P, rec, spec, f, b, seed=trial_seed(3, STREAM_OPTIMISTIC, i))
            for i in range(self.TRIALS)
        ]
        self.check(outs, P, rec, spec, f, b)

    @pytest.mark.parametrize("P, rec, spec, f, b", GRID)
    def test_chunk_counts_match_item_walk(self, P, rec, spec, f, b):
        # the same kernel over whole chunks: a point p-box fixes every recall
        report = run_experiment(
            DomainSpec(self.N, P), ClassifierProfile(1.0, specificity=spec), FixerSpec(f, b),
            PBoxParams(rec, rec, rec), self.TRIALS // 2, master_seed=3,
        )
        self.check(list(report.outcomes()), P, rec, spec, f, b)

    def check(self, outs, P, rec, spec, f, b):
        # None (an undefined metric) becomes NaN, and KS compares the defined values
        got = np.array([[getattr(o, c) for c in self.COLUMNS] for o in outs], dtype=float)
        rng = np.random.default_rng(4)
        walked = np.array([item_walk(self.N, P, rec, spec, f, b, rng) for _ in range(self.TRIALS)])
        _, fn1, _, _, tp2, fn2, _, _ = walked.T
        final = (fn1 + tp2 + fn2) / self.N
        with np.errstate(divide="ignore", invalid="ignore"):
            fn_ratio = np.where(fn1 > 0, (fn1 + fn2) / fn1, np.nan)
        fn_ratio[fn1 + fn2 == 0] = 1.0
        expected = (fn1, tp2 + fn2, fn2, final, 1 - final / P, fn_ratio)
        for column, name in enumerate(self.COLUMNS):
            x, y = got[:, column], expected[column]
            assert ks_2samp(x[x == x], y[y == y]).pvalue >= 1e-4, name


class TestGroundTruth:
    def test_zero_prevalence(self):
        out = trial(100, 0.0, 0.7)
        assert out.fn1 == out.vulnerable_out == 0

    def test_full_prevalence(self):
        # without a fix every vulnerable item stays vulnerable
        out = trial(100, 1.0, 0.7, fix_rate=0.0)
        assert out.fn1 + out.vulnerable_out == 100

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidParameterError):
            trial(0, 0.5, 0.7)

    def test_binomial_moments(self):
        # at recall 0 the first stage misses every vulnerable item
        n = 1_000_000
        count = trial(n, 0.5, 0.0, seed=3).fn1
        assert abs(count - n / 2) < 3 * math.sqrt(n * 0.25)

    def test_deterministic(self):
        assert trial(500, 0.3, 0.7, seed=9) == trial(500, 0.3, 0.7, seed=9)

    @pytest.mark.parametrize("seed, message", [
        (1.5, r"^seed must be an integer >= 0, got 1\.5$"),  # int() would truncate it to 1
        (1.0, r"^seed must be an integer >= 0, got 1\.0$"),  # SeedSequence takes no float
        (-1, r"^seed must be an integer >= 0, got -1$"),  # numpy would raise its own ValueError
    ])
    def test_seed_must_be_an_int(self, seed, message):
        with pytest.raises(InvalidParameterError, match=message):
            trial(500, 0.3, 0.7, seed=seed)


class TestClassify:
    def test_perfect_recall_labels_all_tp(self):
        out = trial(200, 1.0, 1.0)
        assert out.fn1 == out.fn2 == 0

    def test_zero_recall_labels_all_fn(self):
        out = trial(200, 1.0, 0.0)
        assert out.fn1 == 200 and out.vulnerable_out == 0

    def test_zero_specificity_flags_every_clean_item(self):
        # every false alarm reaches the fixer, which breaks it
        out = trial(200, 0.0, 0.5, specificity=0.0, break_rate=1.0)
        assert out.vulnerable_out == 200

    def test_full_specificity_clears_every_clean_item(self):
        # no clean item reaches the fixer, so none is broken
        out = trial(200, 0.0, 0.5, specificity=1.0, break_rate=1.0)
        assert out.vulnerable_out == 0


class TestApplyFixer:
    def test_perfect_fixer_clears_vulnerable_items(self):
        out = trial(300, 1.0, 1.0, fix_rate=1.0, break_rate=0.0, seed=7)
        assert out.vulnerable_out == 0
        assert out.final_prevalence == 0.0

    def test_zero_fix_rate_changes_nothing(self):
        for seed in range(5):
            out = trial(300, 1.0, 0.7, specificity=0.3, fix_rate=0.0, break_rate=0.0, seed=seed)
            assert out.fn1 + out.vulnerable_out == 300

    def test_false_positives_stay_clean_without_breakage(self):
        out = trial(300, 0.0, 1.0, fix_rate=1.0, break_rate=0.0, seed=7)  # all FP
        assert out.vulnerable_out == 0
        assert out.final_prevalence == 0.0

    def test_breakage_sets_vulnerability(self):
        for seed in range(5):
            out = trial(300, 0.0, 0.7, specificity=0.0, fix_rate=0.5, break_rate=1.0, seed=seed)
            assert out.vulnerable_out == 300

    def test_fix_count_binomial(self):
        n = 1_000_000
        out = trial(n, 1.0, 1.0, fix_rate=0.5, break_rate=0.0, seed=11)
        fixed = n - out.vulnerable_out
        assert abs(fixed - n / 2) < 3 * math.sqrt(n * 0.25)


class TestChainInvariants:
    def test_no_breaking(self):
        # a clean domain stays clean whatever the classifier flags and the fixer touches
        for seed in range(3):
            out = trial(5000, 0.0, 0.7, specificity=0.3, fix_rate=0.6, break_rate=0.0, seed=seed)
            assert out.fn1 == out.vulnerable_out == 0

    def test_no_degradation_fixed_items_never_positive(self):
        for seed in range(3):
            out = trial(5000, 0.5, 0.7, specificity=0.3, fix_rate=1.0, break_rate=0.0, seed=seed)
            assert out.vulnerable_out == out.fn2 == 0

    def test_items_conserved(self):
        # first-stage misses and items vulnerable after the fixer are disjoint,
        # and the second stage misses only vulnerable items
        for seed in range(3):
            out = trial(3000, 0.4, 0.6, specificity=0.2, fix_rate=0.5, break_rate=0.3, seed=seed)
            assert out.fn1 + out.vulnerable_out <= 3000
            assert 0 < out.fn2 <= out.vulnerable_out


class TestRunTrial:
    def test_perfect_pipeline(self):
        out = run_trial(DomainSpec(1000, 0.5), ClassifierProfile(1.0), FixerSpec(1.0), 1.0, seed=1)
        assert out.final_prevalence == 0.0
        assert out.real_fix_rate == pytest.approx(1.0)
        assert out.fn_ratio == 1.0

    def test_conservation_across_seeds(self):
        domain = DomainSpec(777, 0.3)
        for seed in range(10):
            out = run_trial(domain, ClassifierProfile(0.5, specificity=0.2), FixerSpec(0.5, 0.1), 0.6, seed)
            assert out.fn1 + out.vulnerable_out <= 777 and out.fn2 <= out.vulnerable_out
            assert out.final_prevalence == (out.fn1 + out.vulnerable_out) / 777
            assert out.real_fix_rate == 1 - out.final_prevalence / 0.3
            assert out.fn_ratio == (out.fn1 + out.fn2) / out.fn1

    def test_zero_prevalence_flags_fix_rate_undefined(self):
        out = run_trial(DomainSpec(100, 0.0), ClassifierProfile(1.0), FixerSpec(0.5), 0.5, seed=1)
        assert out.real_fix_rate is None
        assert out.final_prevalence == 0.0

    def test_fn_ratio_undefined_when_growth_has_no_baseline(self):
        # one vulnerable item: detected first pass, unfixed, missed second pass
        domain = DomainSpec(1, 1.0)
        for seed in range(200):
            out = run_trial(domain, ClassifierProfile(0.5), FixerSpec(0.0), 0.5, seed)
            if out.fn1 == 0 and out.fn2 > 0:
                assert out.fn_ratio is None
                break
        else:
            pytest.fail("no seed produced the fn1=0, fn2>0 configuration")

    def test_fn_ratio_at_least_one_when_defined(self):
        domain = DomainSpec(2000, 0.5)
        for seed in range(10):
            out = run_trial(domain, ClassifierProfile(0.8), FixerSpec(0.7, 0.0), 0.74, seed)
            if out.fn_ratio is not None:
                assert out.fn_ratio >= 1.0

    def test_deterministic(self):
        args = (DomainSpec(500, 0.5), ClassifierProfile(0.9), FixerSpec(0.5), 0.7)
        assert run_trial(*args, seed=42) == run_trial(*args, seed=42)

    def test_analytic_agreement(self):
        domain, fixer, rec = DomainSpec(20_000, 0.5), FixerSpec(0.5), 0.74
        profile = ClassifierProfile(1.0, specificity=0.0)
        trials = 120
        outs = [
            run_trial(domain, profile, fixer, rec, trial_seed(5, STREAM_OPTIMISTIC, i))
            for i in range(trials)
        ]
        for metric, expected in (
            ("final_prevalence", (1 - 0.5 * rec) * 0.5),
            ("real_fix_rate", 0.5 * rec),
            ("fn_ratio", 1 + (1 - 0.5) * rec),
        ):
            values = np.array([getattr(o, metric) for o in outs])
            se = values.std(ddof=1) / math.sqrt(trials)
            assert abs(values.mean() - expected) < 3 * se


class TestTrialSeed:
    def test_frozen_anchor_values(self):
        # documented-stable hash: numpy SeedSequence over (master, stream, index)
        assert trial_seed(42, STREAM_OPTIMISTIC, 0) == 15658369528003122356
        assert trial_seed(42, STREAM_PESSIMISTIC, 0) == 11821647455969306524
        assert trial_seed(42, STREAM_OPTIMISTIC, 1) == 16289122836146368227

    def test_coordinates_are_distinct(self):
        seeds = {
            trial_seed(master, stream, i)
            for master in (1, 2)
            for stream in (STREAM_OPTIMISTIC, STREAM_PESSIMISTIC)
            for i in range(50)
        }
        assert len(seeds) == 200

    def test_unknown_stream_or_non_int_coordinate_refused(self):
        with pytest.raises(InvalidParameterError, match="'optimistic' or 'pessimistic', got 'x'"):
            trial_seed(1, "x", 0)
        for master, index in ((1.5, 0), (-1, 0), (1, 2.0), (1, -1)):
            with pytest.raises(InvalidParameterError):
                trial_seed(master, STREAM_OPTIMISTIC, index)


class TestRunExperiment:
    DOMAIN = DomainSpec(5_000, 0.5)
    PROFILE = ClassifierProfile(1.0, specificity=0.0)

    def test_deterministic_report(self):
        a = run_experiment(self.DOMAIN, self.PROFILE, FixerSpec(0.5), BOX, 40, master_seed=7)
        b = run_experiment(self.DOMAIN, self.PROFILE, FixerSpec(0.5), BOX, 40, master_seed=7)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_experiment(self.DOMAIN, self.PROFILE, FixerSpec(0.5), BOX, 0, master_seed=7)

    def test_non_int_trials_or_seed_refused(self):
        # range and numpy's SeedSequence would raise their own TypeError
        for trials, seed in ((10.0, 7), (10, 1.5), (10, 7.0)):
            with pytest.raises(InvalidParameterError):
                run_experiment(self.DOMAIN, self.PROFILE, FixerSpec(0.5), BOX, trials, master_seed=seed)

    def test_intervals_contain_every_trial(self):
        report = run_experiment(self.DOMAIN, self.PROFILE, FixerSpec(0.7), BOX, 60, master_seed=3)
        for metric in METRICS:
            interval = report.intervals[metric]["extremes"]
            for out in report.outcomes():
                value = getattr(out, metric)
                if value is not None:
                    assert interval.contains(value, tol=1e-12)

    def test_degenerate_box_collapses_to_analytic_point(self):
        box = PBoxParams(0.74, 0.74, 0.74)
        report = run_experiment(
            DomainSpec(20_000, 0.5), self.PROFILE, FixerSpec(0.5), box, 50, master_seed=9
        )
        for metric, expected in (
            ("final_prevalence", 0.315),
            ("real_fix_rate", 0.37),
            ("fn_ratio", 1.37),
        ):
            values = np.array([getattr(o, metric) for o in report.outcomes()])
            se = values.std(ddof=1) / math.sqrt(len(values))
            means = report.intervals[metric]["means"]
            assert abs(means.lo - expected) < 4 * se + 1e-9
            assert abs(means.hi - expected) < 4 * se + 1e-9
            extremes = report.intervals[metric]["extremes"]
            assert extremes.hi - extremes.lo < 8 * values.std(ddof=1) + 1e-9

    def test_undefined_metrics_counted_not_raised(self):
        report = run_experiment(
            DomainSpec(50, 0.0), self.PROFILE, FixerSpec(0.5), BOX, 10, master_seed=1
        )
        assert report.undefined == {"real_fix_rate": 20, "fn_ratio": 0}
        assert report.intervals["real_fix_rate"]["extremes"] is None
        assert report.intervals["real_fix_rate"]["means"] is None
        assert report.intervals["final_prevalence"]["extremes"] == report.intervals[
            "final_prevalence"
        ]["means"]

    @pytest.mark.parametrize("prevalence", [0.0, 0.5])
    def test_a_named_metric_is_the_one_all_metrics_hold(self, prevalence):
        # a trace builds only the metric it writes: each alone, and any pair, as the full set has it
        report = run_experiment(DomainSpec(50, prevalence), self.PROFILE, FixerSpec(0.5), BOX, 40, master_seed=5)
        for _, _, counts in report.chunks():
            every = _metrics(report.domain, counts)
            assert list(every) == list(METRICS)
            for names in itertools.chain(itertools.combinations(METRICS, 1), itertools.permutations(METRICS, 2)):
                some = _metrics(report.domain, counts, names)
                assert list(some) == list(names)
                assert all(some[name].tolist() == every[name].tolist() for name in names)

    def test_recall_streams_drive_trials(self):
        report = run_experiment(self.DOMAIN, self.PROFILE, FixerSpec(1.0), BOX, 30, master_seed=11)
        recalls = [o.recall_used for o in report.outcomes()]  # optimistic stream first
        opt, pess = recalls[:30], recalls[30:]
        assert all(p <= o for p, o in zip(pess, opt))
        assert all(0.07 <= r <= 1.0 for r in opt + pess)


unit = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10**6), P=unit, rec=unit, spec=unit, f=unit, b=unit)
# a subnormal P: every realized fix rate is about -1/P, and their sum overflows
@example(n=1, P=1.1125369292536007e-308, rec=0.0, spec=0.0, f=0.0, b=1.0)
# w / (1 - a) rounds to 1 + 2**-52, above a binomial's largest probability
@example(n=5, P=0.9127555772777217, rec=0.8500282042549004, spec=0.0, f=0.0, b=1.0)
def test_chunk_mean_final_prevalence_matches_exact_expectation(n, P, rec, spec, f, b):
    # every item ends vulnerable independently with probability q, so the
    # final count is Bin(n, q) and a chunk's mean has standard error
    # sqrt(q (1 - q) / (n CHUNK))
    q = P * (1 - rec) + P * rec * (b + (1 - b) * (1 - f)) + (1 - P) * (1 - spec) * b
    report = run_experiment(
        DomainSpec(n, P), ClassifierProfile(1.0, specificity=spec), FixerSpec(f, b),
        PBoxParams(rec, rec, rec), CHUNK, master_seed=17,
    )
    means = report.intervals["final_prevalence"]["means"]
    tol = 5 * math.sqrt(q * (1 - q) / (n * CHUNK)) + 1e-12
    assert abs(means.lo - q) <= tol and abs(means.hi - q) <= tol, (means, q, tol)


def test_tiny_prevalence_means_are_the_trials_value():
    # at specificity 0 and break rate 1 the one item always ends vulnerable, so every realized
    # fix rate is 1 - 1/P = -1e305: the mean of 65536 of them is that value, as no sum of them is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(
            DomainSpec(1, 1e-305), ClassifierProfile(1.0, specificity=0.0), FixerSpec(0.5, 1.0),
            PBoxParams(0.5, 0.5, 0.5), CHUNK, 17,
        )
    fix_rate = report.intervals["real_fix_rate"]
    assert fix_rate["means"] == fix_rate["extremes"] == Interval(1.0 - 1e305, 1.0 - 1e305)


@pytest.mark.parametrize("specificity", [0.0, 0.5])
def test_subnormal_prevalence_folds_as_its_trials_divide(specificity):
    # 1 - (c / n) / P overflows to -inf for every c > 0 at a subnormal P, in a trial's metric and in
    # the folded one alike, without a warning; at specificity 0.5 some trials end clean, at 1.0
    args = (DomainSpec(1, 1e-310), ClassifierProfile(1.0, specificity=specificity), FixerSpec(0.5, 1.0),
            PBoxParams(0.5, 0.5, 0.5), 50, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(*args)
        everything = [o.real_fix_rate for o in report.outcomes()]
    fix_rates = everything[:50], everything[50:]  # optimistic first
    assert -math.inf in everything
    got = report.intervals["real_fix_rate"]
    assert got["extremes"] == Interval(min(everything), max(everything))
    means = sorted(math.fsum(v) / len(v) for v in fix_rates)
    assert got["means"] == Interval(*means) == Interval(-math.inf, -math.inf)


@pytest.mark.parametrize("P", [0.3, 0.5])
def test_count_metric_means_are_the_exact_means_rounded_once(P):
    # each stream's mean follows from its exact count sum: 1 - (sum / (n T)) / P in floats would
    # round twice, and near a realized fix rate of 0 the subtraction magnifies the first rounding
    n, trials = 10_000, 300
    report = run_experiment(DomainSpec(n, P), ClassifierProfile(1.0, specificity=0.5), FixerSpec(0.5, 0.3), BOX,
                            trials, 3)
    outcomes = list(report.outcomes())
    sums = [sum(o.fn1 + o.vulnerable_out for o in s) for s in (outcomes[:trials], outcomes[trials:])]
    final = [Fraction(s, n * trials) for s in sums]
    assert report.intervals["final_prevalence"]["means"] == Interval(*sorted(map(float, final)))
    assert report.intervals["real_fix_rate"]["means"] == Interval(*sorted(float(1 - x / Fraction(P)) for x in final))


def test_count_sums_do_not_wrap_at_the_largest_population():
    # c = FN1 + W is about 0.75 * 2**63 here, so numpy's int64 sum of a stream's counts would wrap
    trials = 8
    report = run_experiment(
        DomainSpec(MAX_ITEMS, 1.0), ClassifierProfile(1.0, specificity=0.0), FixerSpec(0.5, 0.0),
        PBoxParams(0.5, 0.5, 0.5), trials, 3,
    )
    everything = [o.final_prevalence for o in report.outcomes()]
    means = sorted(math.fsum(v) / len(v) for v in (everything[:trials], everything[trials:]))
    got = report.intervals["final_prevalence"]["means"]
    assert 0.0 <= got.lo <= got.hi <= 1.0
    assert (got.lo, got.hi) == pytest.approx(means, rel=1e-12)
    assert report.intervals["final_prevalence"]["extremes"] == Interval(min(everything), max(everything))


def test_running_sums_match_outcomes_across_a_chunk_boundary():
    trials, seed = CHUNK + 7, 5
    args = (DomainSpec(3, 0.5), ClassifierProfile(1.0, specificity=0.5), FixerSpec(0.3, 0.2), BOX)
    report = run_experiment(*args, trials, master_seed=seed)
    assert report == run_experiment(*args, trials, master_seed=seed)
    outcomes = list(report.outcomes())
    assert len(outcomes) == 2 * trials
    streams = (outcomes[:trials], outcomes[trials:])  # optimistic first
    for outcomes_of_stream, name in zip(streams, (STREAM_OPTIMISTIC, STREAM_PESSIMISTIC)):
        recalls = np.concatenate([recall for _, recall in stream_chunks(BOX, trials, seed, name)]).tolist()
        assert [o.recall_used for o in outcomes_of_stream] == recalls
    for metric in METRICS:
        defined = [[v for o in s if (v := getattr(o, metric)) is not None] for s in streams]
        everything = defined[0] + defined[1]
        assert report.intervals[metric]["extremes"] == Interval(min(everything), max(everything))
        means = sorted(math.fsum(v) / len(v) for v in defined)
        got = report.intervals[metric]["means"]
        assert (got.lo, got.hi) == pytest.approx(means, rel=1e-12, abs=1e-15)
    assert report.undefined == {
        "real_fix_rate": 0,
        "fn_ratio": sum(o.fn_ratio is None for o in outcomes),
    }
    assert report.undefined["fn_ratio"] > 0


def test_each_grid_cell_draws_the_numbers_of_its_solo_run():
    # a repeated prevalence that is not adjacent, P = 0, P = 1, and two chunks per stream
    domains = [DomainSpec(7, p) for p in (0.3, 0.0, 0.3, 1.0)]
    fixers = [FixerSpec(f, 0.2) for f in (0.0, 0.7, 1.0)]
    profile, trials, seed = ClassifierProfile(1.0, specificity=0.4), CHUNK + 5, 3
    solos = [run_experiment(d, profile, f, BOX, trials, seed) for d, f in itertools.product(domains, fixers)]
    assert run_grid(domains, profile, fixers, BOX, trials, seed) == solos  # intervals and undefined counts
    # the grid's own draws, cell by cell, against each cell's solo re-draw
    redraws = [solo.chunks() for solo in solos]
    drawn = 0
    for cell, stream, recall, counts in _chunks(domains, profile, fixers, BOX, trials, seed):
        solo_stream, solo_recall, solo_counts = next(redraws[cell])
        assert stream == solo_stream and np.array_equal(recall, solo_recall)
        assert all(np.array_equal(a, b) for a, b in zip(counts, solo_counts, strict=True))
        drawn += 1
    assert drawn == len(solos) * 2 * 2  # cells x streams x chunks
    assert all(next(r, None) is None for r in redraws)
