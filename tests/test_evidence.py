import io

import pytest
from hypothesis import given
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
        with pytest.raises(InvalidParameterError, match="line 2"):
            load_samples(io.StringIO(HEADER + "p1,recall,1.5\n"))

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
