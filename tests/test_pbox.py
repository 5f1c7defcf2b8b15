import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from pipeuq import (
    Interval,
    InvalidParameterError,
    PBoxParams,
    inverse_lower,
    inverse_upper,
    stream_mean_optimistic,
    stream_mean_pessimistic,
)
from pipeuq.pbox import CHUNK, stream_chunks, stream_summary

BOX = PBoxParams(0.07, 1.00, 0.74)
STREAMS = ("optimistic", "pessimistic")


def concatenated(box, n, seed) -> SimpleNamespace:
    """The chunks of ``stream_chunks(box, n, seed, *STREAMS)``, joined: ``p_values``,
    ``optimistic`` and ``pessimistic``."""
    columns = zip(*stream_chunks(box, n, seed, *STREAMS))
    return SimpleNamespace(**dict(zip(("p_values", *STREAMS), map(np.concatenate, columns))))


def test_numpy_draws_are_pinned():
    # NEP 19 lets a Generator's draws change between numpy releases, and every seeded
    # report rests on these: p values as stream_chunks draws them, and first-stage misses
    # as _first_stage draws them (numpy's inversion sampler at n*p < 30, BTPE above)
    p = np.random.default_rng(42).random(3)
    assert [v.hex() for v in p.tolist()] == ["0x1.8c43f79a2db24p-1", "0x1.c16959869e47ep-2", "0x1.b79a2584ddb42p-1"]
    rng = np.random.default_rng(np.random.SeedSequence((42, 1, 0)))
    assert rng.binomial(100, 0.1 * (1.0 - p)).tolist() == [3, 4, 1]
    assert rng.binomial(10_000, 0.5 * (1.0 - p)).tolist() == [1134, 2806, 673]


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

    def test_negative_zero_becomes_zero(self):
        box = PBoxParams(-0.0, 1.0, -0.0)
        assert math.copysign(1.0, box.minimum) == math.copysign(1.0, box.mean) == 1.0
        assert inverse_lower(PBoxParams(0.0, 1.0, -0.0), 0.0) == 0.0
        # the middle branch at min = mean = 0 computes 0 / (p - 1) = -0.0
        streams = concatenated(PBoxParams(-0.0, 1.0, 0.0), 20, seed=1)
        assert all(math.copysign(1.0, v) == 1.0 for v in [*streams.optimistic, *streams.pessimistic])
        # every other value stays as given, ints included
        kept = PBoxParams(0, 1, 0.25)
        assert (kept.minimum, kept.maximum, kept.mean) == (0, 1, 0.25)
        assert type(kept.minimum) is int and type(kept.maximum) is int

    def test_integer_bounds_give_float_samples(self):
        # an int bound once made the output array int, truncating every
        # middle-branch value to 0
        int_box, float_box = PBoxParams(0, 1, 0.74), PBoxParams(0.0, 1.0, 0.74)
        p = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(inverse_lower(int_box, p), inverse_lower(float_box, p))
        assert np.array_equal(inverse_upper(int_box, p), inverse_upper(float_box, p))

    def test_interval_ordering(self):
        with pytest.raises(InvalidParameterError):
            Interval(0.5, 0.4)


class TestInverseLower:
    def test_above_threshold_saturates(self):
        assert inverse_lower(BOX, 0.5) == 1.00  # 0.5 >= t ~= 0.2796

    def test_mid_branch(self):
        expected = (0.1 * 0.07 - 0.74) / (0.1 - 1.0)
        assert inverse_lower(BOX, 0.1) == pytest.approx(expected)
        assert expected == pytest.approx(0.8144, abs=5e-5)

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

    @pytest.mark.parametrize("box", [BOX, PBoxParams(0.6, 0.6, 0.6), PBoxParams(0.2, 0.8, 0.2),
                                     PBoxParams(0.2, 0.8, 0.8)],
                             ids=["box", "degenerate", "mean-at-min", "mean-at-max"])
    def test_each_flat_end_gives_its_one_sided_limit(self, box):
        # each bounding CDF is flat at one end, where its inverse is set-valued: [min, mean] at
        # p = 0 for the lower bound, [mean, max] at p = 1 for the upper. The inverse takes its
        # middle branch's value there, with no draw: exactly the mean at p = 0, and max - (max -
        # mean), the mean up to rounding, at p = 1. At t = 1 (mean at min) the upper middle branch
        # is empty and p = 1 gives min, which is then the mean.
        a, b, mu = box
        lower, upper = inverse_lower(box, 0.0), inverse_upper(box, 1.0)
        assert lower == mu and Interval(a, mu).contains(lower)
        assert upper == (b - (b - mu) if box.threshold < 1.0 else a)
        assert Interval(mu, b).contains(upper, tol=math.ulp(b))

    @pytest.mark.parametrize("box", [BOX, PBoxParams(0.6, 0.6, 0.6), PBoxParams(0.2, 0.8, 0.2),
                                     PBoxParams(0.2, 0.8, 0.8),
                                     PBoxParams(0.29209388767575095, 1.0, 0.41457784051591134)],
                             ids=["box", "degenerate", "mean-at-min", "mean-at-max", "overshoot-below-t"])
    def test_array_inverse_is_the_scalar_one_without_a_warning(self, box):
        # each element of an array is inverted as a scalar is, and no p warns: the branch that
        # np.where discards divides by zero at p = 0 and p = 1 and overflows at a subnormal p.
        # Every value lies in [min, max] exactly: the last box's lower middle branch once gave
        # 1.0000000000000002 at the float just below t, a recall that binomial refuses
        t = box.threshold
        ps = sorted({0.0, 5e-324, t, float(np.nextafter(t, 0.0)), float(np.nextafter(t, 1.0)), 1.0 - 2.0**-53, 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for inverse in (inverse_lower, inverse_upper):
                values = inverse(box, np.array(ps))
                assert values.tolist() == [inverse(box, p) for p in ps], inverse
                assert np.all((values >= box.minimum) & (values <= box.maximum)), (inverse, values.tolist())

    def test_agrees_with_reference_transcription(self):
        p = np.linspace(0.001, 0.999, 457)
        got_lower = inverse_lower(BOX, p)
        got_upper = inverse_upper(BOX, p)
        for i, pi in enumerate(p):
            assert got_lower[i] == pytest.approx(reference_inverse_lower(BOX, pi), abs=1e-12)
            assert got_upper[i] == pytest.approx(reference_inverse_upper(BOX, pi), abs=1e-12)


class TestSampling:
    def test_degenerate_box_constant_streams(self):
        streams = concatenated(PBoxParams(0.74, 0.74, 0.74), 5, seed=1)
        assert np.all(streams.optimistic == 0.74)
        assert np.all(streams.pessimistic == 0.74)

    def test_mean_at_minimum_keeps_streams_ordered(self):
        # the middle branch of inverse_lower can round an ulp below the
        # minimum, where the pessimistic stream sits exactly at it
        grid = np.linspace(0.0, 1.0, 21)
        for a in grid:
            for b in grid[grid > a]:
                for mu in (a, np.nextafter(a, 1.0)):
                    streams = concatenated(PBoxParams(a, b, mu), 1000, seed=42)
                    assert np.all(streams.optimistic >= a)
                    assert np.all(streams.pessimistic <= streams.optimistic)

    def test_closed_form_means_at_branch_ends(self):
        # t = 1 (mean at minimum), t = 0 (mean at maximum) and a point box
        for box, expected in (
            (PBoxParams(0.2, 0.8, 0.2), 0.2),
            (PBoxParams(0.2, 0.8, 0.8), 0.8),
            (PBoxParams(0.5, 0.5, 0.5), 0.5),
        ):
            assert stream_mean_optimistic(box) == expected
            assert stream_mean_pessimistic(box) == expected

    def test_deterministic_given_seed(self):
        s1 = concatenated(BOX, 100, seed=99)
        s2 = concatenated(BOX, 100, seed=99)
        assert np.array_equal(s1.p_values, s2.p_values)
        assert np.array_equal(s1.optimistic, s2.optimistic)
        assert np.array_equal(s1.pessimistic, s2.pessimistic)

    def test_chunked_p_values_match_one_draw(self):
        n = 2 * CHUNK + 5
        chunks = [p for p, in stream_chunks(BOX, n, 99)]
        assert [len(p) for p in chunks] == [CHUNK, CHUNK, 5]
        assert np.array_equal(np.concatenate(chunks), np.random.default_rng(99).random(n))
        for names in [(name,) for name in STREAMS] + [STREAMS]:
            for chunk, p in zip(stream_chunks(BOX, n, 99, *names), chunks, strict=True):
                assert len(chunk) == 1 + len(names)
                assert np.array_equal(chunk[0], p) and all(len(c) == len(p) for c in chunk)

    @pytest.mark.parametrize("ties", [False, True], ids=["drawn", "with-p-zero"])
    def test_each_stream_follows_the_seed_contract(self, ties, monkeypatch):
        # across a chunk boundary: chunk k of p is default_rng(seed).random(n) cut into CHUNK
        # slices, and each stream is its inverse of those p values. p = 0 in both chunks gives the
        # mean in the optimistic stream, and no generator but default_rng(seed) is made. Every
        # choice of names yields the same p and the same streams.
        n, seed = CHUNK + 70, 5
        slices = [np.random.default_rng(seed).random(n)[start:start + CHUNK] for start in range(0, n, CHUNK)]
        real, seeds = np.random.default_rng, []

        class WithZeros:  # the p generator, drawing a zero at every 7th value
            def __init__(self, seed):
                self.rng = real(seed)

            def random(self, size):
                p = self.rng.random(size)
                p[::7] = 0.0
                return p

        def recorded(seed):
            seeds.append(seed)
            return WithZeros(seed) if ties else real(seed)

        monkeypatch.setattr(np.random, "default_rng", recorded)
        if ties:
            for p in slices:
                p[::7] = 0.0
        expected = {
            "optimistic": [inverse_lower(BOX, p) for p in slices],
            "pessimistic": [inverse_upper(BOX, p) for p in slices],
        }
        if ties:
            assert all(np.all(chunk[::7] == BOX.mean) for chunk in expected["optimistic"])
        choices = [(), *((name,) for name in STREAMS), STREAMS, STREAMS[::-1]]
        for names in choices:
            got = list(stream_chunks(BOX, n, seed, *names))
            assert [len(c) for c, *_ in got] == [CHUNK, 70]
            want = [(p, *(expected[name][k] for name in names)) for k, p in enumerate(slices)]
            for g, e in zip(got, want, strict=True):
                assert len(g) == len(e) and all(map(np.array_equal, g, e)), names
        assert seeds == [seed] * len(choices)

    def test_summary_draws_p_once(self, monkeypatch):
        # one generator, of p, for both streams: default_rng of the int seed, and no other
        real, seeds = np.random.default_rng, []

        def counted(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        stream_summary(BOX, 2 * CHUNK + 5, 7)
        assert seeds == [7]

    @pytest.mark.parametrize("box", [BOX, PBoxParams(0.2, 0.8, 0.2), PBoxParams(0.5, 0.5, 0.5)])
    def test_streams_are_ordered_at_every_index(self, box):
        n = CHUNK + 70
        _, optimistic, pessimistic = zip(*stream_chunks(box, n, 3, *STREAMS))
        assert [len(c) for c in optimistic] == [len(c) for c in pessimistic] == [CHUNK, 70]
        assert all(np.all(lo <= hi) for lo, hi in zip(pessimistic, optimistic))

    def test_zero_samples_rejected(self):
        # stream_chunks checks at the call, before anything is drawn, whatever streams it names
        for names in [(), *((name,) for name in STREAMS), STREAMS]:
            with pytest.raises(InvalidParameterError):
                stream_chunks(BOX, 0, 1, *names)
            # a stream mean divides by its count, exact in a float64 only up to 2**53
            with pytest.raises(InvalidParameterError, match=r"sample count must be an integer in \[1, 9007199254740992\]"):
                stream_chunks(BOX, 2**53 + 1, 1, *names)

    def test_a_stream_name_that_is_no_str_is_refused(self):
        # the parent compared the array with "pessimistic" first: numpy's ambiguous-truth ValueError
        with pytest.raises(InvalidParameterError, match="^a recall stream is 'optimistic' or 'pessimistic'"):
            stream_chunks(PBoxParams(0.1, 0.9, 0.5), 10, 1, np.array(["a", "b"]))

    @pytest.mark.parametrize("n, seed, message", [
        (10.0, 1, r"sample count must be an integer in \[1, 9007199254740992\], got 10\.0"),
        (None, 1, r"sample count must be an integer in \[1, 9007199254740992\], got None"),
        (10, 1.5, r"^seed must be an integer >= 0, got 1\.5$"),
        (10, 1.0, r"^seed must be an integer >= 0, got 1\.0$"),
        (10, -1, r"^seed must be an integer >= 0, got -1$"),
        (10, "1", r"^seed must be an integer >= 0, got '1'$"),
    ])
    def test_count_and_seed_must_be_ints(self, n, seed, message):
        # range and numpy's SeedSequence would refuse these untyped, or not at all
        for names in [(), *((name,) for name in STREAMS), STREAMS]:
            with pytest.raises(InvalidParameterError, match=message):
                stream_chunks(BOX, n, seed, *names)
        with pytest.raises(InvalidParameterError, match=message):
            stream_summary(BOX, n, seed)

    def test_unknown_stream_refused(self):
        for names in [("optimstic",), ("optimistic", "optimstic")]:
            with pytest.raises(InvalidParameterError, match="'optimistic' or 'pessimistic', got 'optimstic'"):
                stream_chunks(BOX, 3, 1, *names)

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
        streams = concatenated(BOX, n, seed=7)
        for values, expected in ((streams.optimistic, expect_opt), (streams.pessimistic, expect_pess)):
            margin = 3.0 * values.std() / math.sqrt(n)
            assert abs(values.mean() - expected) < margin

    @pytest.mark.parametrize("box", [BOX, PBoxParams(0.2, 0.8, 0.2), PBoxParams(0.5, 0.5, 0.5)])
    @pytest.mark.parametrize("n", [1, 7, 128, 129, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 3 * CHUNK + 129])
    def test_summary_is_numpy_values_bit_for_bit(self, box, n):
        # one fold per chunk, against numpy on every sample at once: min and max of the
        # whole array, and the mean as the in-order float sum of numpy's sums of the
        # CHUNK-sized slices over n, which for one chunk is numpy's whole-array mean
        streams, summary = concatenated(box, n, seed=n), stream_summary(box, n, seed=n)
        for name in ("optimistic", "pessimistic"):
            values = getattr(streams, name)
            total = 0.0
            for start in range(0, n, CHUNK):
                total += float(np.sum(values[start:start + CHUNK]))
            expected = {"min": float(values.min()).hex(), "max": float(values.max()).hex(), "mean": (total / n).hex()}
            assert {stat: v.hex() for stat, v in summary[name].items()} == expected, name
            if n <= CHUNK:
                assert summary[name]["mean"].hex() == float(values.mean()).hex(), name

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

