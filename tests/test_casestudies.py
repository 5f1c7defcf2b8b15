import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from pipeuq import (
    DEFAULT_RECALL_PBOX,
    DEFAULT_TOOL_RECORDS,
    FixerSpec,
    InvalidParameterError,
    Interval,
    PBoxParams,
    ToolRecord,
    agresti_coull_interval,
    composed_pipeline_case,
    load_samples,
    load_tool_records,
    pipeline_fix_rate,
    rule_based_case_study,
    stream_mean_optimistic,
    stream_mean_pessimistic,
    summarize,
    to_pbox,
    wilson_interval,
)
from pipeuq.casestudies import _z_two_sided
from pipeuq.errors import EvidenceFormatError

# published correct/generated counts with the corresponding 95% bounds
REFERENCE_ROWS = {
    "ACS": (16, 22, 0.5113, 0.8733),
    "SimFix": (25, 68, 0.2609, 0.4891),
    "FixMiner": (12, 33, 0.2189, 0.5378),
    "Kali-A": (3, 65, 0.0100, 0.1349),
    "DynaMoth": (1, 22, 0.0000, 0.2407),
    "Nopol": (1, 31, 0.0000, 0.1804),
}


class TestQuantile:
    def test_reproduces_published_normal_quantile(self):
        # two-sided 95% point of the standard normal, to >= 6 decimals
        assert abs(_z_two_sided(0.95) - 1.959963984540054) < 1e-9

    def test_matches_scipy_normal_quantile(self):
        for confidence in np.linspace(0.5, 0.999999, 101):
            expected = norm.ppf(0.5 + confidence / 2.0)
            assert abs(_z_two_sided(confidence) - expected) < 1e-12

    def test_confidence_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            _z_two_sided(1.0)
        # below 1, but 0.5 + confidence/2 rounds to 1
        with pytest.raises(InvalidParameterError):
            _z_two_sided(0.9999999999999999)


class TestAgrestiCoull:
    def test_best_tool_row(self):
        ci = agresti_coull_interval(16, 22, 0.95)
        assert ci.lo == pytest.approx(0.5113, abs=0.02)
        assert ci.hi == pytest.approx(0.8733, abs=0.02)
        assert ci.point == pytest.approx(16 / 22)

    def test_near_zero_row_clamps(self):
        ci = agresti_coull_interval(1, 22, 0.95)
        assert ci.lo == 0.0
        assert ci.hi == pytest.approx(0.2407, abs=0.02)

    def test_zero_successes_clamp_exactly(self):
        assert agresti_coull_interval(0, 10).lo == 0.0
        assert agresti_coull_interval(0, 50).lo == 0.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(InvalidParameterError):
            agresti_coull_interval(1, 0)
        with pytest.raises(InvalidParameterError):
            agresti_coull_interval(5, 3)

    def test_width_nonincreasing_in_trials(self):
        widths = [
            agresti_coull_interval(n // 2, n).hi - agresti_coull_interval(n // 2, n).lo
            for n in (8, 16, 32, 64, 128, 256)
        ]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    @given(
        trials=st.integers(min_value=1, max_value=10_000),
        frac=st.floats(min_value=0.0, max_value=1.0),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    def test_bounds_bracket_adjusted_center(self, trials, frac, confidence):
        successes = int(round(frac * trials))
        z = _z_two_sided(confidence)
        center = (successes + z * z / 2) / (trials + z * z)
        for method in (agresti_coull_interval, wilson_interval):
            ci = method(successes, trials, confidence)
            assert 0.0 <= ci.lo <= ci.hi <= 1.0
            if method is agresti_coull_interval:
                assert ci.lo <= center <= ci.hi


class TestWilsonVariant:
    def test_close_to_agresti_coull(self):
        w = wilson_interval(16, 22, 0.95)
        assert w.lo == pytest.approx(0.5184827, abs=1e-6)
        assert w.hi == pytest.approx(0.8684924, abs=1e-6)

    def test_textbook_small_sample(self):
        w = wilson_interval(9, 10, 0.95)
        assert w.lo == pytest.approx(0.5958500, abs=1e-6)
        assert w.hi == pytest.approx(0.9821238, abs=1e-6)


class TestRuleBasedCaseStudy:
    def test_reference_table_within_tolerance(self):
        rows = {t.name: ci for t, ci in zip(DEFAULT_TOOL_RECORDS, rule_based_case_study())}
        for name, (correct, generated, lo, hi) in REFERENCE_ROWS.items():
            row = rows[name]
            assert row.point == pytest.approx(correct / generated)
            assert row.lo == pytest.approx(lo, abs=0.02)
            assert row.hi == pytest.approx(hi, abs=0.02)

    def test_point_estimates(self):
        rows = {t.name: ci for t, ci in zip(DEFAULT_TOOL_RECORDS, rule_based_case_study())}
        assert rows["ACS"].point == pytest.approx(0.727, abs=5e-4)
        assert rows["Kali-A"].point == pytest.approx(0.046, abs=5e-4)

    def test_method_selectable(self):
        rows = rule_based_case_study(method="wilson")
        assert rows[0].lo == pytest.approx(0.5184827, abs=1e-6)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            rule_based_case_study(method="clopper")

    def test_record_validation(self):
        with pytest.raises(InvalidParameterError):
            ToolRecord("bad", 5, 4)

    @pytest.mark.parametrize("correct, generated", [(1.5, 3), ("1", "3"), (1, 3.5), (1, float("inf")), (None, 3)])
    def test_record_refuses_a_count_that_is_no_whole_number(self, correct, generated):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ToolRecord("x", correct, generated)

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "tools.csv"
        path.write_text("name,correct,generated\nACS,16,22\n# comment\nNopol,1,31\n")
        records = load_tool_records(path)
        assert records == (ToolRecord("ACS", 16, 22), ToolRecord("Nopol", 1, 31))

    def test_csv_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "tools.csv"
        path.write_text("tool,fixed,total\nACS,16,22\n")
        with pytest.raises(EvidenceFormatError):
            load_tool_records(path)

    def test_csv_loader_reports_unparseable_row(self, tmp_path):
        # a field longer than the csv module's limit is a format error, not a crash
        path = tmp_path / "tools.csv"
        path.write_text("name,correct,generated\n" + "x" * 200_000 + ",1,2\n")
        with pytest.raises(EvidenceFormatError) as err:
            load_tool_records(path)
        assert err.value.line == 2


class TestComposedCase:
    def test_sequentially_rounded_chain(self):
        report = composed_pipeline_case(879, 0.86, 0.44)
        assert (report.detected, report.fixed, report.residual) == (756, 333, 423)

    def test_zero_accuracy(self):
        report = composed_pipeline_case(879, 0.86, 0.0)
        assert report.fixed == 0
        assert report.residual == report.detected

    def test_uncertainty_wrap_extremes(self):
        report = composed_pipeline_case(879, 0.86, 0.44)
        assert report.fix_rate_extremes.lo == pytest.approx(0.0308)
        assert report.fix_rate_extremes.hi == pytest.approx(0.44)

    def test_uncertainty_wrap_means(self):
        report = composed_pipeline_case(879, 0.86, 0.44)
        assert report.fix_rate_means.lo == pytest.approx(0.44 * 0.4086292, abs=1e-6)
        assert report.fix_rate_means.hi == pytest.approx(0.44 * 0.9596976, abs=1e-6)

    def test_degenerate_box_reproduces_point_arithmetic(self):
        box = PBoxParams(0.86, 0.86, 0.86)
        report = composed_pipeline_case(879, 0.86, 0.44, box)
        assert report.fix_rate_extremes == Interval(0.44 * 0.86, 0.44 * 0.86)
        assert report.fix_rate_means.hi - report.fix_rate_means.lo == pytest.approx(0.0, abs=1e-12)
        assert (report.detected, report.fixed, report.residual) == (756, 333, 423)

    @pytest.mark.parametrize(
        "box",
        [
            DEFAULT_RECALL_PBOX,
            PBoxParams(0.86, 0.86, 0.86),
            PBoxParams(0.3, 0.9, 0.3),  # mean = min: the optimistic stream mean is min
            to_pbox(summarize(load_samples(io.StringIO(
                "source_id,metric,value\np1,recall,0.2\np2,recall,0.6\np3,recall,0.55\n"
            )))),
        ],
        ids=["default", "point", "mean-at-min", "evidence"],
    )
    def test_wrap_is_pipeline_fix_rate_bit_for_bit(self, box):
        report = composed_pipeline_case(879, 0.86, 0.44, box)
        fixer = FixerSpec(0.44)
        extremes = [pipeline_fix_rate(fixer, box.minimum), pipeline_fix_rate(fixer, box.maximum)]
        means = sorted(pipeline_fix_rate(fixer, r) for r in (stream_mean_pessimistic(box), stream_mean_optimistic(box)))
        assert [v.hex() for v in report.fix_rate_extremes] == [v.hex() for v in extremes]
        assert [v.hex() for v in report.fix_rate_means] == [v.hex() for v in means]

    @pytest.mark.parametrize("recall, accuracy", [
        (np.array([0.5, 0.6]), 0.44), (0.86, np.array([0.5, 0.6])), (np.float32(0.86), 0.44), ("0.86", 0.44),
    ])
    def test_a_recall_or_accuracy_that_is_no_number_is_refused(self, recall, accuracy):
        with pytest.raises(InvalidParameterError, match=r"must lie in \[0, 1\], got"):
            composed_pipeline_case(879, recall, accuracy)

    # a count is an integer, never a float, even a whole one; beyond 2**63 - 1 the chain's
    # float arithmetic would leave the int64 range that every other count keeps to
    @pytest.mark.parametrize("n_items", [10.5, float("inf"), float("nan"), "10", None, 0, 879.0, 2**63])
    def test_a_count_that_is_no_whole_number_is_refused(self, n_items):
        with pytest.raises(InvalidParameterError, match=r"n_items must be an integer in \[1, 9223372036854775807\]"):
            composed_pipeline_case(n_items, 0.86, 0.44)

    def test_model_maximum_flagged(self):
        report = composed_pipeline_case(879, 0.86, 0.44)
        assert any("not derivable" in note for note in report.notes)
