import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from pipeuq import (
    DomainSpec,
    FixerSpec,
    Interval,
    InvalidParameterError,
    PBoxParams,
    RecallStreams,
    inverse_lower,
    inverse_upper,
    propagate_interval,
    sample_recall_streams,
    stream_mean_optimistic,
    stream_mean_pessimistic,
)
from pipeuq.pbox import MODE_EXTREMES, MODE_MEANS

BOX = PBoxParams(0.07, 1.00, 0.74)


def reference_inverse_lower(box, p):
    """Branch-by-branch transcription of the lower-CDF-bound inverse."""
    t = (box.maximum - box.mean) / (box.maximum - box.minimum)
    if 0 < p < t:
        return (p * box.minimum - box.mean) / (p - 1.0)
    return box.maximum


def reference_inverse_upper(box, p):
    t = (box.maximum - box.mean) / (box.maximum - box.minimum)
    if p <= t:
        return box.minimum
    if p < 1:
        return box.maximum - (box.maximum - box.mean) / p
    return box.maximum


@st.composite
def well_separated_boxes(draw):
    """Boxes with min < mean < max and gaps bounded away from zero, so the
    branch point and its one-sided limits are numerically well conditioned."""
    a = draw(st.floats(min_value=0.0, max_value=0.8))
    width = draw(st.floats(min_value=0.01, max_value=1.0 - a if a < 0.99 else 0.01))
    b = min(1.0, a + max(width, 0.01))
    q = draw(st.floats(min_value=0.05, max_value=0.95))
    mu = a + q * (b - a)
    return PBoxParams(a, b, mu)


class TestParams:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            PBoxParams(0.5, 0.4, 0.45)
        with pytest.raises(InvalidParameterError):
            PBoxParams(0.1, 0.9, 0.95)

    def test_degenerate_allowed(self):
        box = PBoxParams(0.74, 0.74, 0.74)
        assert box.degenerate
        assert box.threshold == 0.0

    def test_threshold_value(self):
        assert BOX.threshold == pytest.approx(0.26 / 0.93)

    def test_interval_ordering(self):
        with pytest.raises(InvalidParameterError):
            Interval(0.5, 0.4)
        assert Interval(0.1, 0.3).width == pytest.approx(0.2)


class TestInverseLower:
    def test_above_threshold_saturates(self):
        assert inverse_lower(BOX, 0.5) == 1.00  # 0.5 >= t ~= 0.2796

    def test_mid_branch(self):
        expected = (0.1 * 0.07 - 0.74) / (0.1 - 1.0)
        assert inverse_lower(BOX, 0.1) == pytest.approx(expected)
        assert expected == pytest.approx(0.8144, abs=5e-5)

    def test_zero_is_a_draw_on_min_mean(self):
        values = [inverse_lower(BOX, 0.0, rng=np.random.default_rng(s)) for s in range(20)]
        assert all(0.07 <= v <= 0.74 for v in values)
        assert len(set(values)) > 1

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            inverse_lower(BOX, -0.01)
        with pytest.raises(InvalidParameterError):
            inverse_lower(BOX, 1.01)


class TestInverseUpper:
    def test_below_threshold_saturates(self):
        assert inverse_upper(BOX, 0.1) == 0.07  # 0.1 <= t

    def test_mid_branch(self):
        assert inverse_upper(BOX, 0.5) == pytest.approx(1.0 - 0.26 / 0.5)
        assert inverse_upper(BOX, 0.5) == pytest.approx(0.48)

    def test_one_is_a_draw_on_mean_max(self):
        values = [inverse_upper(BOX, 1.0, rng=np.random.default_rng(s)) for s in range(20)]
        assert all(0.74 <= v <= 1.00 for v in values)
        assert len(set(values)) > 1

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            inverse_upper(BOX, 2.0)


class TestInverseProperties:
    @given(box=well_separated_boxes(), p=st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_pointwise_ordering(self, box, p):
        assert inverse_upper(box, p) <= inverse_lower(box, p) + 1e-12

    @given(box=well_separated_boxes())
    def test_monotone_and_contained(self, box):
        p = np.sort(np.random.default_rng(0).random(300))
        for inv in (inverse_lower, inverse_upper):
            values = inv(box, p)
            assert np.all(np.diff(values) >= -1e-12)
            assert np.all((values >= box.minimum - 1e-12) & (values <= box.maximum + 1e-12))

    @given(box=well_separated_boxes())
    def test_branch_continuity(self, box):
        t = box.threshold
        eps = 1e-13
        assert inverse_lower(box, t - eps) == pytest.approx(box.maximum, abs=1e-9)
        assert inverse_upper(box, t + eps) == pytest.approx(box.minimum, abs=1e-9)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    def test_degenerate_collapses(self, p):
        box = PBoxParams(0.6, 0.6, 0.6)
        assert inverse_lower(box, p) == 0.6
        assert inverse_upper(box, p) == 0.6

    @given(box=well_separated_boxes())
    def test_round_trip_through_bounding_cdfs(self, box):
        # the quantile functions invert the mean-constrained CDF bounds
        # F_lower(x) = (x - mean)/(x - min) and F_upper(x) = (max - mean)/(max - x)
        a, b, mu, t = box.minimum, box.maximum, box.mean, box.threshold
        for p in np.linspace(0.01, 0.99, 23):
            if 0 < p < t:
                x = inverse_lower(box, float(p))
                assert (x - mu) / (x - a) == pytest.approx(p, abs=1e-9)
            if t < p < 1:
                x = inverse_upper(box, float(p))
                assert (b - mu) / (b - x) == pytest.approx(p, abs=1e-9)

    def test_agrees_with_reference_transcription(self):
        p = np.linspace(0.001, 0.999, 457)
        got_lower = inverse_lower(BOX, p)
        got_upper = inverse_upper(BOX, p)
        for i, pi in enumerate(p):
            assert got_lower[i] == pytest.approx(reference_inverse_lower(BOX, pi), abs=1e-12)
            assert got_upper[i] == pytest.approx(reference_inverse_upper(BOX, pi), abs=1e-12)


class TestSampling:
    def test_degenerate_box_constant_streams(self):
        streams = sample_recall_streams(PBoxParams(0.74, 0.74, 0.74), 5, seed=1)
        assert np.all(streams.optimistic == 0.74)
        assert np.all(streams.pessimistic == 0.74)

    def test_deterministic_given_seed(self):
        s1 = sample_recall_streams(BOX, 100, seed=99)
        s2 = sample_recall_streams(BOX, 100, seed=99)
        assert np.array_equal(s1.p_values, s2.p_values)
        assert np.array_equal(s1.optimistic, s2.optimistic)
        assert np.array_equal(s1.pessimistic, s2.pessimistic)

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_recall_streams(BOX, 0, seed=1)

    def test_stream_invariants_checked(self):
        with pytest.raises(InvalidParameterError):
            RecallStreams(np.array([0.1]), np.array([0.2]), np.array([0.5]), seed=0)
        with pytest.raises(InvalidParameterError):
            RecallStreams(np.array([0.5, 0.6]), np.array([0.4]), np.array([0.5]), seed=0)

    def test_mean_convergence_against_quadrature(self):
        # oracle: numerical quadrature of the reference transcriptions,
        # split at the branch point
        expect_opt, _ = quad(
            lambda p: reference_inverse_lower(BOX, p), 0, 1, points=[BOX.threshold], limit=200
        )
        expect_pess, _ = quad(
            lambda p: reference_inverse_upper(BOX, p), 0, 1, points=[BOX.threshold], limit=200
        )
        assert expect_opt == pytest.approx(0.9596976, abs=1e-6)
        assert expect_pess == pytest.approx(0.4086292, abs=1e-6)
        n = 100_000
        streams = sample_recall_streams(BOX, n, seed=7)
        for values, expected in ((streams.optimistic, expect_opt), (streams.pessimistic, expect_pess)):
            margin = 3.0 * values.std() / math.sqrt(n)
            assert abs(values.mean() - expected) < margin

    @given(box=well_separated_boxes())
    def test_closed_form_stream_means_match_quadrature(self, box):
        expect_opt, _ = quad(
            lambda p: reference_inverse_lower(box, p), 0, 1, points=[box.threshold], limit=200
        )
        expect_pess, _ = quad(
            lambda p: reference_inverse_upper(box, p), 0, 1, points=[box.threshold], limit=200
        )
        assert stream_mean_optimistic(box) == pytest.approx(expect_opt, abs=1e-7)
        assert stream_mean_pessimistic(box) == pytest.approx(expect_pess, abs=1e-7)


class TestPropagation:
    DOMAIN = DomainSpec(10_000, 0.5)

    def test_perfect_fixer_ratio_interval_is_unit(self):
        streams = sample_recall_streams(BOX, 500, seed=3)
        bundle = propagate_interval(self.DOMAIN, FixerSpec(1.0), streams, MODE_EXTREMES)
        assert bundle.fn_ratio == Interval(1.0, 1.0)

    def test_half_fixer_fix_rate_extremes(self):
        streams = sample_recall_streams(BOX, 2000, seed=3)
        bundle = propagate_interval(self.DOMAIN, FixerSpec(0.5), streams, MODE_EXTREMES)
        assert bundle.fix_rate.lo == pytest.approx(0.035, abs=1e-9)
        assert bundle.fix_rate.hi == pytest.approx(0.50, abs=1e-9)

    def test_degenerate_box_collapses_to_point(self):
        box = PBoxParams(0.74, 0.74, 0.74)
        streams = sample_recall_streams(box, 50, seed=5)
        for mode in (MODE_EXTREMES, MODE_MEANS):
            bundle = propagate_interval(self.DOMAIN, FixerSpec(0.5), streams, mode)
            assert bundle.prevalence.lo == bundle.prevalence.hi == pytest.approx(0.315)

    def test_pointwise_soundness(self):
        streams = sample_recall_streams(BOX, 300, seed=11)
        fixer = FixerSpec(0.7)
        bundle = propagate_interval(self.DOMAIN, fixer, streams, MODE_EXTREMES)
        for rec in np.concatenate([streams.optimistic, streams.pessimistic]):
            assert bundle.prevalence.contains((1 - fixer.fix_rate * rec) * 0.5, tol=1e-12)
            assert bundle.fix_rate.contains(fixer.fix_rate * rec, tol=1e-12)
            assert bundle.fn_ratio.contains(1 + (1 - fixer.fix_rate) * rec, tol=1e-12)

    def test_means_mode_orientation(self):
        streams = sample_recall_streams(BOX, 1000, seed=13)
        bundle = propagate_interval(self.DOMAIN, FixerSpec(0.5), streams, MODE_MEANS)
        # optimistic stream (higher recall) gives the lower prevalence endpoint
        m_opt = float(np.mean(streams.optimistic))
        assert bundle.prevalence.lo == pytest.approx((1 - 0.5 * m_opt) * 0.5)
        assert bundle.fix_rate.hi == pytest.approx(0.5 * m_opt)

    def test_empty_streams_rejected(self):
        empty = RecallStreams(np.array([]), np.array([]), np.array([]), seed=0)
        with pytest.raises(InvalidParameterError):
            propagate_interval(self.DOMAIN, FixerSpec(0.5), empty)

    def test_unknown_mode_rejected(self):
        streams = sample_recall_streams(BOX, 5, seed=1)
        with pytest.raises(InvalidParameterError):
            propagate_interval(self.DOMAIN, FixerSpec(0.5), streams, "median")
