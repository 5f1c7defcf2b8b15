import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipeuq import (
    ClassifierProfile,
    ConfusionCounts,
    DegenerateDomainError,
    DomainSpec,
    FixerSpec,
    InvalidParameterError,
    derive_confusion,
    fixer_load,
    pipeline_false_negatives,
    pipeline_false_positives,
    pipeline_far,
    pipeline_fix_rate,
    pipeline_outcome,
    pipeline_prevalence,
    pipeline_true_positives,
    pipeline_tpr,
    round_half_away,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
PREC = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


class TestValidation:
    def test_profile_rejects_zero_precision(self):
        with pytest.raises(InvalidParameterError):
            ClassifierProfile(recall=0.5, precision=0.0)

    def test_profile_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            ClassifierProfile(recall=1.5)
        with pytest.raises(InvalidParameterError):
            ClassifierProfile(recall=0.5, specificity=-0.1)

    def test_domain_rejects_negative_population(self):
        with pytest.raises(InvalidParameterError):
            DomainSpec(-1, 0.5)
        with pytest.raises(InvalidParameterError):
            DomainSpec(10, 1.2)

    def test_fixer_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            FixerSpec(1.1)

    def test_recall_argument_checked(self):
        with pytest.raises(InvalidParameterError):
            pipeline_fix_rate(FixerSpec(0.5), 1.2)


class TestRounding:
    @pytest.mark.parametrize(
        "value, expected",
        [(755.94, 756), (0.5, 1), (-0.5, -1), (2.5, 3), (332.64, 333), (0.49, 0)],
    )
    def test_round_half_away(self, value, expected):
        assert round_half_away(value) == expected


class TestDeriveConfusion:
    def test_fully_vulnerable_corpus(self):
        counts = derive_confusion(ClassifierProfile(0.86, 1.0), DomainSpec(879, 1.0))
        assert counts.tp == pytest.approx(755.94)
        assert counts.rounded().tp == 756

    def test_perfect_classifier(self):
        counts = derive_confusion(ClassifierProfile(1.0, 1.0), DomainSpec(100, 0.5))
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (50, 0, 0, 50)

    def test_hand_evaluated_cell(self):
        counts = derive_confusion(ClassifierProfile(0.5, 0.5), DomainSpec(1000, 0.2))
        assert counts.tp == pytest.approx(100)
        assert counts.fn == pytest.approx(100)
        assert counts.fp == pytest.approx(100)
        assert counts.tn == pytest.approx(700)

    @given(rec=UNIT, prec=PREC, p_r=UNIT, n=st.integers(min_value=1, max_value=10**6))
    def test_conservation(self, rec, prec, p_r, n):
        counts = derive_confusion(ClassifierProfile(rec, prec), DomainSpec(n, p_r))
        assert counts.total == pytest.approx(n, rel=1e-12, abs=1e-9)
        assert counts.positives == pytest.approx(p_r * n, rel=1e-12, abs=1e-9)


class TestFixRate:
    def test_perfect_recall(self):
        assert pipeline_fix_rate(FixerSpec(0.50), 1.00) == pytest.approx(0.50)

    def test_low_recall_shrinks_rate(self):
        assert pipeline_fix_rate(FixerSpec(0.44), 0.07) == pytest.approx(0.0308)

    def test_zero_recall(self):
        assert pipeline_fix_rate(FixerSpec(0.9), 0.0) == 0.0

    @given(rec=st.floats(min_value=1e-9, max_value=1.0), f=UNIT, p_r=st.floats(min_value=1e-9, max_value=1.0))
    def test_fix_rate_identity(self, rec, f, p_r):
        # 1 - residual/initial prevalence recovers the realized fix rate
        domain, fixer = DomainSpec(1000, p_r), FixerSpec(f)
        lhs = 1.0 - pipeline_prevalence(domain, fixer, rec) / p_r
        assert lhs == pytest.approx(pipeline_fix_rate(fixer, rec), rel=1e-12, abs=1e-12)


class TestPrevalence:
    @pytest.mark.parametrize(
        "p_r, f, rec, expected",
        [(0.50, 0.50, 1.0, 0.25), (1.0, 1.0, 1.0, 0.0), (0.10, 0.70, 1.0, 0.03)],
    )
    def test_reference_points(self, p_r, f, rec, expected):
        got = pipeline_prevalence(DomainSpec(100, p_r), FixerSpec(f), rec)
        assert got == pytest.approx(expected, abs=1e-12)

    @given(rec=UNIT, f=UNIT, p_r=UNIT)
    def test_composition_identity(self, rec, f, p_r):
        # the two-stage composition reduces to (1 - f*rec) * P
        composed = (1.0 - f) * rec * rec + (1.0 + (1.0 - f) * rec) * (1.0 - rec)
        direct = pipeline_prevalence(DomainSpec(1, p_r), FixerSpec(f), rec)
        assert composed * p_r == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestTpr:
    def test_perfect_fixer_zeroes_tpr(self):
        assert pipeline_tpr(1.0, FixerSpec(1.0)) == 0.0

    def test_no_fixer_perfect_detector(self):
        assert pipeline_tpr(1.0, FixerSpec(0.0)) == pytest.approx(1.0)

    def test_mid_grid_value(self):
        assert pipeline_tpr(0.8, FixerSpec(0.5)) == pytest.approx(0.64 * 0.5 / 0.6)

    @given(rec=UNIT, f=UNIT)
    def test_never_exceeds_recall(self, rec, f):
        assert pipeline_tpr(rec, FixerSpec(f)) <= rec + 1e-12


class TestFar:
    def test_perfect_precision_no_false_alerts(self):
        got = pipeline_far(ClassifierProfile(0.8, 1.0), DomainSpec(100, 0.3), FixerSpec(0.2))
        assert got == 0.0

    def test_perfect_fixer_no_false_alerts(self):
        got = pipeline_far(ClassifierProfile(0.8, 0.5), DomainSpec(100, 0.3), FixerSpec(1.0))
        assert got == 0.0

    def test_mid_grid_value(self):
        got = pipeline_far(ClassifierProfile(0.5, 0.5), DomainSpec(100, 0.5), FixerSpec(0.5))
        assert got == pytest.approx(0.1)

    def test_degenerate_domain_signalled(self):
        with pytest.raises(DegenerateDomainError):
            pipeline_far(ClassifierProfile(0.0, 0.5), DomainSpec(100, 1.0), FixerSpec(0.5))

    def test_full_prevalence_with_fixing_is_fine(self):
        got = pipeline_far(ClassifierProfile(0.5, 0.5), DomainSpec(100, 1.0), FixerSpec(0.5))
        assert got >= 0.0

    @given(rec=UNIT, prec=PREC, f=UNIT, p_r=st.floats(min_value=0.0, max_value=0.99))
    def test_dominated_by_first_stage_far(self, rec, prec, f, p_r):
        pipeline = pipeline_far(ClassifierProfile(rec, prec), DomainSpec(100, p_r), FixerSpec(f))
        first = rec * (1.0 - prec) / prec * p_r / (1.0 - p_r)
        assert pipeline <= first + 1e-12


class TestFalseNegatives:
    def test_perfect_fixer_ratio_is_one(self):
        _, ratio = pipeline_false_negatives(DomainSpec(100, 0.5), FixerSpec(1.0), 0.6)
        assert ratio == pytest.approx(1.0)

    def test_reference_ratio(self):
        _, ratio = pipeline_false_negatives(DomainSpec(100, 0.5), FixerSpec(0.70), 0.74)
        assert ratio == pytest.approx(1.222)

    def test_perfect_recall_no_false_negatives(self):
        fn, ratio = pipeline_false_negatives(DomainSpec(100, 0.5), FixerSpec(0.3), 1.0)
        assert fn == 0.0
        assert ratio == pytest.approx(1.7)  # analytic limit still reported

    @given(f=UNIT, rec1=UNIT, rec2=UNIT)
    def test_ratio_nondecreasing_in_recall(self, f, rec1, rec2):
        lo, hi = sorted([rec1, rec2])
        domain, fixer = DomainSpec(10, 0.5), FixerSpec(f)
        _, r_lo = pipeline_false_negatives(domain, fixer, lo)
        _, r_hi = pipeline_false_negatives(domain, fixer, hi)
        assert r_lo <= r_hi + 1e-12

    @given(f=UNIT, rec=UNIT)
    def test_ratio_one_iff_perfect_fixer_or_zero_recall(self, f, rec):
        _, ratio = pipeline_false_negatives(DomainSpec(10, 0.5), FixerSpec(f), rec)
        if f == 1.0 or rec == 0.0:
            assert ratio == 1.0
        elif (1.0 - f) * rec > 1e-12:  # skip products below float granularity of 1 + x
            assert ratio > 1.0


class TestCounts:
    def test_true_positives_perfect_fixer(self):
        assert pipeline_true_positives(DomainSpec(100, 0.5), FixerSpec(1.0), 0.9) == 0.0

    def test_true_positives_no_fixer(self):
        assert pipeline_true_positives(DomainSpec(100, 0.5), FixerSpec(0.0), 1.0) == pytest.approx(50)

    def test_true_positives_mid_grid(self):
        got = pipeline_true_positives(DomainSpec(1000, 0.5), FixerSpec(0.5), 0.8)
        assert got == pytest.approx(160)

    def test_fixer_load_fully_vulnerable(self):
        got = fixer_load(ClassifierProfile(0.86, 1.0), DomainSpec(879, 1.0))
        assert got == pytest.approx(755.94)
        assert round_half_away(got) == 756

    def test_fixer_load_recall_equals_precision(self):
        got = fixer_load(ClassifierProfile(0.37, 0.37), DomainSpec(500, 0.2))
        assert got == pytest.approx(100)

    def test_fixer_load_mid_grid(self):
        assert fixer_load(ClassifierProfile(0.5, 0.25), DomainSpec(1000, 0.2)) == pytest.approx(400)

    def test_false_positives_perfect_precision(self):
        got = pipeline_false_positives(ClassifierProfile(0.5, 1.0), DomainSpec(100, 0.5), FixerSpec(0.5))
        assert got == 0.0

    def test_false_positives_perfect_fixer(self):
        got = pipeline_false_positives(ClassifierProfile(0.5, 0.5), DomainSpec(100, 0.5), FixerSpec(1.0))
        assert got == 0.0

    def test_false_positives_mid_grid(self):
        got = pipeline_false_positives(ClassifierProfile(0.5, 0.5), DomainSpec(1000, 0.2), FixerSpec(0.5))
        assert got == pytest.approx(25)


class TestPipelineOutcome:
    def test_perfect_pipeline(self):
        out = pipeline_outcome(ClassifierProfile(1.0, 1.0), DomainSpec(100, 0.5), FixerSpec(1.0))
        assert out.prevalence_final == 0.0
        assert out.fn_ratio == pytest.approx(1.0)
        assert out.tpr_final == 0.0

    def test_survey_mean_recall_cell(self):
        out = pipeline_outcome(ClassifierProfile(0.74, 0.71), DomainSpec(10000, 0.5), FixerSpec(0.5))
        assert out.prevalence_final == pytest.approx(0.315)

    def test_composed_tooling_cell(self):
        out = pipeline_outcome(ClassifierProfile(0.86, 1.0), DomainSpec(879, 1.0), FixerSpec(0.44))
        assert out.fix_rate_actual == pytest.approx(0.3784)
        assert round_half_away(out.prevalence_final * 879) == 546

    def test_recall_override(self):
        profile = ClassifierProfile(0.9, 0.8)
        out = pipeline_outcome(profile, DomainSpec(100, 0.5), FixerSpec(0.5), recall=0.2)
        assert out.fix_rate_actual == pytest.approx(0.1)

    @given(rec=UNIT, prec=PREC, f=UNIT, p_r=st.floats(min_value=0.01, max_value=0.99))
    def test_internal_consistency(self, rec, prec, f, p_r):
        n = 1000
        out = pipeline_outcome(ClassifierProfile(rec, prec), DomainSpec(n, p_r), FixerSpec(f))
        # residual positives split into surviving TPs and final FNs
        assert out.tp_final + out.fn_final == pytest.approx(
            out.prevalence_final * n, rel=1e-12, abs=1e-9
        )
        assert out.prevalence_final == pytest.approx(
            (1.0 - out.fix_rate_actual) * p_r, rel=1e-12, abs=1e-12
        )


class TestArrayBroadcast:
    def test_recall_arrays_supported(self):
        rec = np.linspace(0.0, 1.0, 11)
        fixer, domain = FixerSpec(0.5), DomainSpec(100, 0.5)
        assert pipeline_fix_rate(fixer, rec).shape == rec.shape
        assert pipeline_prevalence(domain, fixer, rec).shape == rec.shape
        assert pipeline_tpr(rec, FixerSpec(1.0)).shape == rec.shape
        fn, ratio = pipeline_false_negatives(domain, fixer, rec)
        assert fn.shape == ratio.shape == rec.shape

    def test_grid_call_matches_scalar_calls(self):
        profile = ClassifierProfile(0.8, 0.7)
        p_r, f = (a.ravel() for a in np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], indexing="ij"))
        grid = pipeline_outcome(profile, DomainSpec(100, p_r), FixerSpec(f))
        for i in range(p_r.size):
            domain, fixer = DomainSpec(100, float(p_r[i])), FixerSpec(float(f[i]))
            if p_r[i] == 1.0 and f[i] == 0.0:
                assert np.isnan(grid.far_final[i])
                with pytest.raises(DegenerateDomainError):
                    pipeline_outcome(profile, domain, fixer)
                continue
            cell = pipeline_outcome(profile, domain, fixer)
            assert grid.tpr_final[i] == cell.tpr_final
            assert grid.fn_final[i] == cell.fn_final
            assert grid.far_final[i] == cell.far_final

    def test_array_far_is_nan_at_degenerate_cells(self):
        rec = np.array([0.0, 0.5])
        far = pipeline_far(ClassifierProfile(1.0, 0.5), DomainSpec(100, 1.0), FixerSpec(0.5), rec)
        assert np.isnan(far[0]) and far[1] == pytest.approx(0.25 * 0.5 / 0.25)

    def test_tpr_grid_over_fix_rate(self):
        got = pipeline_tpr(np.array([1.0, 0.8]), FixerSpec(np.array([1.0, 0.5])))
        assert got[0] == 0.0 and got[1] == pytest.approx(0.64 * 0.5 / 0.6)

    def test_scalars_stay_scalar(self):
        assert isinstance(pipeline_fix_rate(FixerSpec(0.5), 0.5), float)

    def test_tpr_and_far_scalars_are_floats(self):
        assert type(pipeline_tpr(1.0, FixerSpec(1.0))) is float
        assert type(pipeline_tpr(0.5, FixerSpec(0.5))) is float
        far = pipeline_far(ClassifierProfile(0.5, 0.5), DomainSpec(100, 0.5), FixerSpec(0.5))
        assert type(far) is float
