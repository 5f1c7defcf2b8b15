import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipeuq import (
    ClassifierProfile,
    DegenerateDomainError,
    DomainSpec,
    EvidenceSample,
    FixerSpec,
    InvalidParameterError,
    PBoxParams,
    PipelineOutcome,
    fixer_load,
    inverse_lower,
    pipeline_false_negatives,
    pipeline_false_positives,
    pipeline_far,
    pipeline_fix_rate,
    pipeline_outcome,
    pipeline_prevalence,
    pipeline_true_positives,
    pipeline_tpr,
    round_half_away,
    run_trial,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
PREC = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


NOT_REAL = {
    "list": [0.2, 0.5],
    "tuple": (0.5,),
    "str": "0.5",
    "None": None,
    "complex array": np.array([0.5 + 0j]),
}
REAL = {
    "int": 1,
    "float": 0.5,
    "float32": np.float32(0.5),
    "0-d array": np.array(0.5),
    "ndarray": np.array([0.2, 0.5]),
}


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

    @pytest.mark.parametrize("n_items", [float("nan"), float("inf"), None, "10"])
    def test_domain_rejects_a_count_that_is_no_integer(self, n_items):
        with pytest.raises(InvalidParameterError):
            DomainSpec(n_items, 0.5)

    @pytest.mark.parametrize("recall", ["x", None, [0.2, 1.5], [], float("nan")])
    def test_profile_rejects_a_recall_that_is_no_unit_number(self, recall):
        with pytest.raises(InvalidParameterError):
            ClassifierProfile(recall)

    @pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL)
    def test_a_value_that_is_no_real_number_or_array_is_refused(self, value):
        box = PBoxParams(0.1, 0.9, 0.5)
        for call in (
            ClassifierProfile,
            lambda v: ClassifierProfile(0.5, v),
            lambda v: ClassifierProfile(0.5, specificity=v),
            lambda v: DomainSpec(10, v),
            FixerSpec,
            lambda v: FixerSpec(0.5, v),
            lambda v: pipeline_fix_rate(FixerSpec(0.5), v),
            lambda v: inverse_lower(box, v),
            lambda v: PBoxParams(v, 0.9, 0.5),
            lambda v: PBoxParams(0.1, v, 0.5),
            lambda v: PBoxParams(0.1, 0.9, v),
            lambda v: EvidenceSample("a", "recall", v),
            lambda v: run_trial(DomainSpec(10, 0.5), ClassifierProfile(0.5), FixerSpec(0.5), v, 1),
        ):
            with pytest.raises(InvalidParameterError, match=r"must lie in \[0, 1\], got"):
                call(value)

    @pytest.mark.parametrize("value", REAL.values(), ids=REAL)
    def test_a_real_number_or_array_is_accepted(self, value):
        profile, domain, fixer = ClassifierProfile(value, value, value), DomainSpec(10, value), FixerSpec(value, value)
        assert profile.recall is domain.prevalence is fixer.fix_rate is value
        pipeline_outcome(profile, domain, fixer)
        assert np.shape(pipeline_fix_rate(fixer, value)) == np.shape(value)
        assert np.shape(inverse_lower(PBoxParams(0.1, 0.9, 0.5), value)) == np.shape(value)


class TestRounding:
    @pytest.mark.parametrize(
        "value, expected",
        [(755.94, 756), (0.5, 1), (-0.5, -1), (2.5, 3), (332.64, 333), (0.49, 0),
         # x + 0.5 rounds up at these, so floor(x + 0.5) gave 1 and 2**52 + 2
         (0.49999999999999994, 0), (-0.49999999999999994, 0), (2.0**52 + 1, 2**52 + 1), (-(2.0**52 + 1), -(2**52 + 1))],
    )
    def test_round_half_away(self, value, expected):
        assert round_half_away(value) == expected


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
        assert out.final_prevalence == 0.0
        assert out.fn_ratio == pytest.approx(1.0)
        assert out.tpr == 0.0

    def test_survey_mean_recall_cell(self):
        out = pipeline_outcome(ClassifierProfile(0.74, 0.71), DomainSpec(10000, 0.5), FixerSpec(0.5))
        assert out.final_prevalence == pytest.approx(0.315)

    def test_composed_tooling_cell(self):
        out = pipeline_outcome(ClassifierProfile(0.86, 1.0), DomainSpec(879, 1.0), FixerSpec(0.44))
        assert out.real_fix_rate == pytest.approx(0.3784)
        assert round_half_away(out.final_prevalence * 879) == 546

    def test_recall_override(self):
        profile = ClassifierProfile(0.9, 0.8)
        out = pipeline_outcome(profile, DomainSpec(100, 0.5), FixerSpec(0.5), recall=0.2)
        assert out.real_fix_rate == pytest.approx(0.1)

    @given(rec=UNIT, prec=PREC, f=UNIT, p_r=st.floats(min_value=0.01, max_value=0.99))
    def test_internal_consistency(self, rec, prec, f, p_r):
        n = 1000
        out = pipeline_outcome(ClassifierProfile(rec, prec), DomainSpec(n, p_r), FixerSpec(f))
        # residual positives split into surviving TPs and final FNs
        assert out.tp_final + out.fn_final == pytest.approx(
            out.final_prevalence * n, rel=1e-12, abs=1e-9
        )
        assert out.final_prevalence == pytest.approx(
            (1.0 - out.real_fix_rate) * p_r, rel=1e-12, abs=1e-12
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
                assert np.isnan(grid.far[i])
                with pytest.raises(DegenerateDomainError):
                    pipeline_outcome(profile, domain, fixer)
                continue
            cell = pipeline_outcome(profile, domain, fixer)
            for field in cell._fields:
                assert getattr(grid, field)[i] == getattr(cell, field), field

    def test_array_far_is_nan_at_degenerate_cells(self):
        rec = np.array([0.0, 0.5])
        far = pipeline_far(ClassifierProfile(1.0, 0.5), DomainSpec(100, 1.0), FixerSpec(0.5), rec)
        assert np.isnan(far[0]) and far[1] == pytest.approx(0.25 * 0.5 / 0.25)

    def test_tpr_grid_over_fix_rate(self):
        got = pipeline_tpr(np.array([1.0, 0.8]), FixerSpec(np.array([1.0, 0.5])))
        assert got[0] == 0.0 and got[1] == pytest.approx(0.64 * 0.5 / 0.6)

    def test_array_precision_refuses_a_zero_anywhere(self):
        with pytest.raises(InvalidParameterError, match="precision must be strictly positive"):
            ClassifierProfile(0.5, np.array([0.0, 0.6]))

    def test_array_precision_broadcasts(self):
        prec = np.array([0.5, 0.6])
        domain, fixer = DomainSpec(10, 0.5), FixerSpec(0.5)
        grid = pipeline_outcome(ClassifierProfile(0.5, prec), domain, fixer)
        for i in range(prec.size):
            cell = pipeline_outcome(ClassifierProfile(0.5, float(prec[i])), domain, fixer)
            for field in cell._fields:
                assert np.broadcast_to(getattr(grid, field), prec.shape)[i] == getattr(cell, field), field

    def test_shapes_that_do_not_broadcast_are_refused(self):
        two, three = np.array([0.5, 0.6]), np.array([0.1, 0.2, 0.3])
        profile, domain, fixer = ClassifierProfile(two), DomainSpec(10, three), FixerSpec(0.5)
        for call in (
            lambda: pipeline_fix_rate(FixerSpec(two), three),
            lambda: pipeline_prevalence(domain, fixer, two),
            lambda: pipeline_tpr(two, FixerSpec(three)),
            lambda: pipeline_far(profile, domain, fixer),
            lambda: pipeline_false_negatives(domain, fixer, two),
            lambda: pipeline_true_positives(domain, fixer, two),
            lambda: pipeline_false_positives(profile, domain, fixer),
            lambda: fixer_load(profile, domain),
            lambda: pipeline_outcome(profile, domain, fixer),
            lambda: pipeline_outcome(ClassifierProfile(0.5), domain, FixerSpec(two)),
            lambda: pipeline_outcome(ClassifierProfile(0.5, two), domain, fixer),
        ):
            with pytest.raises(InvalidParameterError, match="do not broadcast"):
                call()

    @pytest.mark.parametrize("prevalence", [np.int8(1), np.uint8(1), np.array([1, 0], dtype=np.int8)])
    def test_a_numpy_integer_prevalence_takes_a_count_beyond_its_dtype(self, prevalence):
        # the parent raised numpy's OverflowError: P * N cast N = 300 to the prevalence's dtype
        domain, fixer = DomainSpec(300, prevalence), FixerSpec(0.5)
        expected = pipeline_outcome(ClassifierProfile(0.5, 0.5), DomainSpec(300, np.asarray(prevalence, float)), fixer)
        got = pipeline_outcome(ClassifierProfile(0.5, 0.5), domain, fixer)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))
        assert np.array_equal(pipeline_prevalence(domain, fixer, 0.5), expected.final_prevalence)

    def test_scalars_stay_scalar(self):
        assert isinstance(pipeline_fix_rate(FixerSpec(0.5), 0.5), float)

    def test_tpr_and_far_scalars_are_floats(self):
        assert type(pipeline_tpr(1.0, FixerSpec(1.0))) is float
        assert type(pipeline_tpr(0.5, FixerSpec(0.5))) is float
        far = pipeline_far(ClassifierProfile(0.5, 0.5), DomainSpec(100, 0.5), FixerSpec(0.5))
        assert type(far) is float


def same_bits(a, b) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


EDGE_OR_RANDOM = st.one_of(st.just(0.0), st.just(1.0), UNIT)


class TestFloatPathOracle:
    """The closed forms on Python floats against numpy's elementwise results."""

    @given(
        rec=EDGE_OR_RANDOM,
        # at and above the smallest precision the CLI takes, no metric overflows
        prec=st.one_of(st.just(1.0), st.floats(min_value=1e-290, max_value=1.0)),
        n=st.one_of(st.just(2**40 + 3), st.integers(min_value=0, max_value=2**40 + 3)),
        prevalence=st.lists(EDGE_OR_RANDOM, min_size=1, max_size=4),
        fix_rate=st.lists(EDGE_OR_RANDOM, min_size=1, max_size=4),
    )
    def test_float_path_matches_array_path_bit_for_bit(self, rec, prec, n, prevalence, fix_rate):
        profile = ClassifierProfile(rec, prec)
        p_r, f = (a.ravel() for a in np.meshgrid(prevalence, fix_rate, indexing="ij"))
        grid = pipeline_outcome(profile, DomainSpec(n, p_r), FixerSpec(f))
        for i in range(p_r.size):
            domain, fixer = DomainSpec(n, float(p_r[i])), FixerSpec(float(f[i]))
            try:
                cell = pipeline_outcome(profile, domain, fixer)
            except DegenerateDomainError:
                # no negatives left: P = 1 and a realized fix rate that 1 - f*rec rounds away
                assert np.isnan(grid.far[i])
                assert domain.prevalence == 1.0 and fixer.fix_rate * rec <= 2**-54
                continue
            for field in cell._fields:
                value = getattr(cell, field)
                assert type(value) is float, field
                assert same_bits(value, getattr(grid, field)[i]), (field, value, getattr(grid, field)[i])


# each PipelineOutcome field from its own public metric, each a grid of one cell
PUBLIC = {
    "real_fix_rate": lambda profile, domain, fixer: pipeline_fix_rate(fixer, profile.recall),
    "final_prevalence": lambda profile, domain, fixer: pipeline_prevalence(domain, fixer, profile.recall),
    "tpr": lambda profile, domain, fixer: pipeline_tpr(profile.recall, fixer),
    "far": lambda profile, domain, fixer: pipeline_far(profile, domain, fixer),
    "fn_ratio": lambda profile, domain, fixer: pipeline_false_negatives(domain, fixer, profile.recall)[1],
    "fn_final": lambda profile, domain, fixer: pipeline_false_negatives(domain, fixer, profile.recall)[0],
    "tp_final": lambda profile, domain, fixer: pipeline_true_positives(domain, fixer, profile.recall),
    "fp_final": lambda profile, domain, fixer: pipeline_false_positives(profile, domain, fixer),
    "fixer_load": lambda profile, domain, fixer: fixer_load(profile, domain),
}


def public_metric(field, profile, domain, fixer):
    """The public metric's value, None where a scalar false-alert rate is undefined."""
    try:
        return PUBLIC[field](profile, domain, fixer)
    except DegenerateDomainError:
        return None


def same_value(a, b) -> bool:
    """Bit-for-bit equal floats, arrays (NaN at the same cells) or None."""
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and isinstance(b, float):
        return same_bits(a, b)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOneCheckPerCell:
    """``_grid`` checks its inputs once and calls the formulas unchecked: each value of a grid must
    equal the public metric's, a grid of one cell, bit for bit."""

    @given(
        rec=EDGE_OR_RANDOM,
        prec=st.one_of(st.just(1.0), st.floats(min_value=1e-290, max_value=1.0)),
        n=st.one_of(st.just(2**40 + 3), st.integers(min_value=0, max_value=2**40 + 3)),
        prevalence=st.lists(EDGE_OR_RANDOM, min_size=1, max_size=4),
        fix_rate=st.lists(EDGE_OR_RANDOM, min_size=1, max_size=4),
    )
    def test_each_cell_equals_every_public_metric(self, rec, prec, n, prevalence, fix_rate):
        from pipeuq.core import _grid

        profile = ClassifierProfile(rec, prec)
        domains = [DomainSpec(n, p_r) for p_r in prevalence]
        fixers = [FixerSpec(f) for f in fix_rate]
        for domain, row in zip(domains, _grid(rec, prec, domains, fixers), strict=True):
            for j, fixer in enumerate(fixers):
                expected = {field: public_metric(field, profile, domain, fixer) for field in PUBLIC}
                for field, column in zip(PipelineOutcome._fields, row, strict=True):
                    assert same_value(column[j], expected[field]), field
                if expected["far"] is not None:
                    outcome = pipeline_outcome(profile, domain, fixer)
                    assert all(same_value(getattr(outcome, field), expected[field]) for field in PUBLIC)
        # and on arrays: the whole grid in one call, NaN where far is undefined
        p_r, f = (a.ravel() for a in np.meshgrid(prevalence, fix_rate, indexing="ij"))
        domain, fixer = DomainSpec(n, p_r), FixerSpec(f)
        outcome = pipeline_outcome(profile, domain, fixer)
        for field in outcome._fields:
            assert same_value(getattr(outcome, field), PUBLIC[field](profile, domain, fixer)), field

    def test_a_grid_checks_its_inputs_once(self, monkeypatch):
        from pipeuq import core

        domains = [DomainSpec(100, i / 10) for i in range(11)]
        fixers = [FixerSpec(i / 10) for i in range(11)]
        profile = ClassifierProfile(0.8, 0.7)
        checked = []
        monkeypatch.setattr(core, "check_unit", lambda value, name, numpy=True: checked.append(name))
        rows = list(core._grid(0.8, 0.7, domains, fixers))
        assert len(rows) == 11 and all(len(column) == 11 for row in rows for column in row)
        assert checked == ["recall"]
        checked.clear()
        pipeline_outcome(profile, domains[3], fixers[4])
        assert checked == ["recall"]

    @pytest.mark.parametrize("call", [*PUBLIC.values(), pipeline_outcome], ids=[*PUBLIC, "pipeline_outcome"])
    def test_each_public_metric_is_a_grid_of_one_cell(self, call, monkeypatch):
        # the parent's eight public metrics checked their inputs and called their formulas themselves
        from pipeuq import core

        real, cells = core._grid, []

        def grid(rec, prec, domains, fixers, formulas=core._FORMULAS):
            cells.append((len(domains), len(fixers)))
            return real(rec, prec, domains, fixers, formulas)

        monkeypatch.setattr(core, "_grid", grid)
        call(ClassifierProfile(0.8, 0.7), DomainSpec(100, 0.5), FixerSpec(0.5))
        assert cells == [(1, 1)]

    def test_a_grid_computes_each_row_quietly_and_yields_it_under_the_callers_numpy_state(self):
        from pipeuq.core import _grid

        rows = _grid(np.array([0.5, 1.0]), 5e-324, [DomainSpec(2**62, 1.0)] * 2, [FixerSpec(0.0)])
        with np.errstate(all="raise"):
            next(rows)
            assert np.geterr()["over"] == "raise"
            next(rows)
            assert np.geterr()["over"] == "raise"
