import csv
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from pipeuq import (
    DEFAULT_RECALL_PBOX,
    DEFAULT_RECALL_STATS,
    EmptyEvidenceError,
    EvidenceSample,
    InvalidParameterError,
    PBoxParams,
    SummaryStats,
    group_by_metric,
    load_samples,
    remove_outliers,
    summarize,
    to_pbox,
)
from pipeuq import evidence
from pipeuq.errors import EvidenceFormatError

HEADER = "source_id,metric,value\n"


class TestLoad:
    def test_header_only_is_empty(self):
        assert load_samples(io.StringIO(HEADER)) == []

    def test_single_row(self):
        samples = load_samples(io.StringIO(HEADER + "p1,recall,0.74\n"))
        assert samples == [EvidenceSample("p1", "recall", 0.74)]

    def test_comments_and_blanks_skipped(self):
        text = "# harvested 2024\n" + HEADER + "\np1,recall,0.5\n# trailing note\n"
        assert len(load_samples(io.StringIO(text))) == 1

    def test_out_of_range_value(self):
        with pytest.raises(InvalidParameterError, match=r"^line 2: value must lie in \[0, 1\], got 1\.5$"):
            load_samples(io.StringIO(HEADER + "p1,recall,1.5\n"))

    @pytest.mark.parametrize("text", ["-0.1"])
    def test_a_value_outside_unit_range_names_its_line(self, text):
        with pytest.raises(InvalidParameterError, match=rf"^line 3: value must lie in \[0, 1\], got {text}$"):
            load_samples(io.StringIO(HEADER + f"p1,recall,0.5\np2,recall,{text}\n"))

    # no NaN or infinity, no digit group, no non-ASCII digit and no nonzero literal that rounds to 0.0
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "0.0_5", "1e-400", "\u0660.\u0665"])
    def test_a_refused_number_literal_names_its_line(self, text):
        with pytest.raises(EvidenceFormatError, match=rf"^line 3: value {text!r} is not a number$"):
            load_samples(io.StringIO(HEADER + f"p1,recall,0.5\np2,recall,{text}\n"))

    @pytest.mark.parametrize("text, value", [(".5", 0.5), ("1.", 1.0), ("+0.5", 0.5), ("1E-1", 0.1), ("007e-3", 0.007),
                                             ("5e-324", 5e-324), ("0e9", 0.0)])
    def test_an_accepted_number_literal_is_read_as_written(self, text, value):
        [sample] = load_samples(io.StringIO(HEADER + f"p1,recall,{text}\n"))
        assert sample.value == value

    def test_malformed_row_reports_line(self):
        with pytest.raises(EvidenceFormatError, match="line 3"):
            load_samples(io.StringIO(HEADER + "p1,recall,0.5\np2,recall\n"))

    def test_bad_metric_reports_line(self):
        with pytest.raises(EvidenceFormatError, match="line 2"):
            load_samples(io.StringIO(HEADER + "p1,accuracy,0.5\n"))

    def test_non_numeric_value(self):
        with pytest.raises(EvidenceFormatError, match="line 2"):
            load_samples(io.StringIO(HEADER + "p1,recall,high\n"))

    def test_missing_header(self):
        with pytest.raises(EvidenceFormatError):
            load_samples(io.StringIO("p1,recall,0.5\n"))

    def test_path_roundtrip(self, tmp_path):
        path = tmp_path / "evidence.csv"
        samples = [
            EvidenceSample("p1", "recall", 0.07),
            EvidenceSample("p2", "recall", 0.74),
            EvidenceSample("p1", "precision", 0.5),
        ]
        path.write_text(HEADER + "p1,recall,0.07\np2,recall,0.74\np1,precision,0.5\n", encoding="utf-8")
        again = load_samples(path)
        assert again == samples
        by_metric = group_by_metric(again)
        assert summarize(by_metric["recall"]) == summarize(samples[:2])


    @pytest.mark.parametrize("line, sample", [
        ('"p,1",recall,0.5', ("p,1", "recall", 0.5)),
        ('p1,"recall"," 0.5 "', ("p1", "recall", 0.5)),
        ('"p ""x""",recall,0.5', ('p "x"', "recall", 0.5)),
        ('p1,rec"all,0.5', None),  # a quote inside a cell is kept: no such metric
    ], ids=["comma", "quoted cells", "doubled quote", "quote inside"])
    def test_quoted_cells(self, line, sample):
        if sample is None:
            with pytest.raises(EvidenceFormatError, match="^line 2: unknown metric 'rec\"all'$"):
                load_samples(io.StringIO(HEADER + line + "\n"))
        else:
            assert load_samples(io.StringIO(HEADER + line + "\n")) == [EvidenceSample(*sample)]

    def test_an_unclosed_quote_swallows_the_commas(self):
        with pytest.raises(EvidenceFormatError, match="^line 3: expected 3 columns, got 1$"):
            load_samples(io.StringIO(HEADER + 'p1,recall,0.5\n"p2,recall,0.5\n'))

    @settings(max_examples=500)
    @given(line=st.one_of(
        st.text(),
        # cells of the characters a line splits, quotes or strips on
        st.lists(st.sampled_from([",", '"', " ", "\t", "\0", "\ufeff", "\r", "\n", "a", "0.5", "é"]),
                 max_size=20).map("".join),
    ))
    @example(line="")
    @example(line="x" * 200_000 + ",1,2")  # a field beyond csv's limit, refused either way
    @example(line="\ufeffsource_id,metric,value")
    def test_split_reads_a_line_as_csv_does(self, line):
        try:
            expected = next(csv.reader([line]))
        except csv.Error:
            with pytest.raises(csv.Error):
                evidence._split(line)
        else:
            assert evidence._split(line) == expected


class TestOutliers:
    def test_none_policy_keeps_everything(self):
        samples = [EvidenceSample("p", "recall", v) for v in (0.1, 0.9)]
        kept, removed = remove_outliers(samples, policy="none")
        assert kept == samples and removed == []

    def test_iqr_drops_lone_extreme(self):
        samples = [EvidenceSample("p", "recall", 0.5) for _ in range(99)]
        samples.append(EvidenceSample("q", "recall", 0.0))
        kept, removed = remove_outliers(samples, policy="iqr", k=1.5)
        assert [s.value for s in removed] == [0.0]
        assert len(kept) == 99

    def test_symmetric_set_untouched(self):
        samples = [EvidenceSample("p", "recall", v) for v in (0.4, 0.5, 0.6)]
        kept, removed = remove_outliers(samples)
        assert len(kept) == 3 and removed == []

    def test_empty_input_rejected_for_iqr(self):
        with pytest.raises(EmptyEvidenceError):
            remove_outliers([], policy="iqr")

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            remove_outliers([EvidenceSample("p", "recall", 0.5)], policy="zscore")

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60))
    def test_never_removes_interquartile_values(self, values):
        samples = [EvidenceSample("p", "recall", v) for v in values]
        _, removed = remove_outliers(samples)
        q1, q3 = np.percentile(values, [25.0, 75.0])
        assert all(not q1 < s.value < q3 for s in removed)


class TestSummarize:
    def test_small_set(self):
        samples = [EvidenceSample(f"p{i}", "recall", v) for i, v in enumerate((0.2, 0.4, 0.6))]
        stats = summarize(samples)
        assert (stats.minimum, stats.maximum, stats.mean) == (0.2, 0.6, pytest.approx(0.4))
        assert stats.count == 3 and stats.publications == 3

    def test_single_sample(self):
        stats = summarize([EvidenceSample("p", "recall", 0.5)])
        assert stats.minimum == stats.maximum == stats.mean == 0.5

    def test_publications_counts_distinct_sources(self):
        samples = [EvidenceSample("p1", "recall", 0.3), EvidenceSample("p1", "recall", 0.5)]
        assert summarize(samples).publications == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvidenceError):
            summarize([])


# both zeros, values like the paper's (4 decimals), and any float in [0, 1]
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.integers(0, 10_000).map(lambda i: i / 10_000),
    st.floats(0.0, 1.0),
)
# short sets, the paper's 2328 samples, and more than numpy's 8192-element buffer
LENGTHS = st.one_of(st.integers(1, 9), st.sampled_from([2328, 9000]))


class TestOracles:
    """``remove_outliers`` and ``summarize`` compute in plain Python. numpy is the
    independent oracle of the quartiles and the outlier partition, and exact
    rational arithmetic (``fractions.Fraction``) that of the mean."""

    @settings(deadline=None)
    # a quartile halfway between 0.0283 and 0.0939 rounds differently from each end, and
    # numpy's mean of [0.0283, 0.0939, 0.0939] is an ulp above the correctly rounded one
    @example(pool=[0.0283, 0.0939], n=3, fresh=0.0, seed=1)
    @given(
        pool=st.lists(VALUES, min_size=1, max_size=12),
        n=LENGTHS,
        fresh=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_and_exact_mean(self, pool, n, fresh, seed):
        # a share `fresh` of random 4-decimal values, the rest from a small
        # pool, so that values repeat and zeros tie
        rng = random.Random(seed)
        values = [round(rng.random(), 4) if rng.random() < fresh else rng.choice(pool) for _ in range(n)]
        samples = [EvidenceSample("p", "recall", v) for v in values]
        array = np.array(values)
        q1, q3 = np.percentile(array, [25.0, 75.0])
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        kept, removed = remove_outliers(samples)
        assert kept == [s for s in samples if lo <= s.value <= hi]
        assert removed == [s for s in samples if not lo <= s.value <= hi]
        # both quartiles; a zero's sign is not compared: numpy's partition
        # leaves tied 0.0 and -0.0 in no fixed order, and the sign moves no bound
        ordered = sorted(values)
        assert (evidence._quantile(ordered, 0.25), evidence._quantile(ordered, 0.75)) == (q1, q3)
        stats = summarize(samples)
        # the correctly rounded sum over n, kept in [min, max]
        exact = float(sum(map(Fraction, values))) / n
        assert (stats.minimum, stats.maximum) == (min(values), max(values))
        assert stats.mean == min(max(exact, stats.minimum), stats.maximum)
        # a sample stores -0.0 as 0.0, so no statistic is a negative zero
        assert all(math.copysign(1.0, v) > 0 for v in (stats.minimum, stats.maximum, stats.mean))

    def test_negative_zero_is_stored_as_zero(self):
        # as PBoxParams stores it, and also through _replace
        for sample in (EvidenceSample("p", "recall", -0.0), EvidenceSample("p", "recall", 0.5)._replace(value=-0.0)):
            assert math.copysign(1.0, sample.value) == 1.0


class TestToPbox:
    def test_default_stats(self):
        assert to_pbox(DEFAULT_RECALL_STATS) == PBoxParams(0.07, 1.00, 0.74)
        assert DEFAULT_RECALL_PBOX == PBoxParams(0.07, 1.00, 0.74)

    def test_degenerate_stats(self):
        assert to_pbox(SummaryStats(1, 1, 0.5, 0.5, 0.5)).degenerate

    def test_ordering_violation_rejected(self):
        with pytest.raises(InvalidParameterError):
            to_pbox(SummaryStats(3, 3, 0.1, 0.9, 0.95))

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
    def test_summarize_always_yields_valid_pbox(self, values):
        samples = [EvidenceSample("p", "recall", v) for v in values]
        box = to_pbox(summarize(samples))
        assert box.minimum <= box.mean <= box.maximum


class TestDefaults:
    def test_builtin_survey_statistics(self):
        assert DEFAULT_RECALL_STATS == SummaryStats(2328, 115, 0.07, 1.00, 0.74)
