"""Inverse p-box sampling and interval propagation of uncertain recall.

A (min, max, mean) triple bounds the unknown CDF of a detector's recall with a
p-box. Inverting the two bounding CDFs gives two quantile functions:

* ``inverse_lower`` inverts the lower CDF bound. It yields the *larger*
  quantiles, so its samples form the optimistic recall stream.
* ``inverse_upper`` inverts the upper CDF bound and yields the smaller
  quantiles: the pessimistic stream.

Both inverses share one threshold ``t = (max - mean) / (max - min)``:

    inverse_lower(p) = uniform draw on [min, mean]      p = 0
                       (p*min - mean) / (p - 1)         0 < p < t
                       max                              t <= p <= 1

    inverse_upper(p) = min                              0 <= p <= t
                       max - (max - mean) / p           t < p < 1
                       uniform draw on [mean, max]      p = 1

Sampling both streams from one shared list of uniform p values and pushing
each recall through the closed-form pipeline metrics bounds the residual
prevalence, realized fix rate, and false-negative growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainSpec, FixerSpec, pipeline_false_negatives, pipeline_fix_rate, pipeline_prevalence
from .errors import InvalidParameterError

__all__ = [
    "PBoxParams",
    "Interval",
    "RecallStreams",
    "IntervalBundle",
    "MODE_EXTREMES",
    "MODE_MEANS",
    "inverse_lower",
    "inverse_upper",
    "sample_recall_streams",
    "stream_mean_optimistic",
    "stream_mean_pessimistic",
    "propagate_interval",
]

MODE_EXTREMES = "extremes"
MODE_MEANS = "means"


@dataclass(frozen=True)
class PBoxParams:
    """(min, max, mean) triple bounding an unknown CDF on [0, 1].

    The degenerate case ``minimum == maximum == mean`` is permitted and makes
    every sample equal to that point.
    """

    minimum: float
    maximum: float
    mean: float

    def __post_init__(self):
        for name in ("minimum", "maximum", "mean"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0 and math.isfinite(v)):
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {v!r}")
        if not self.minimum <= self.mean <= self.maximum:
            raise InvalidParameterError(
                f"p-box needs minimum <= mean <= maximum, got "
                f"({self.minimum}, {self.mean}, {self.maximum})"
            )

    @property
    def degenerate(self) -> bool:
        return self.minimum == self.maximum

    @property
    def threshold(self) -> float:
        """Branch point ``t = (max - mean) / (max - min)``; 0 for a degenerate box."""
        if self.degenerate:
            return 0.0
        return (self.maximum - self.mean) / (self.maximum - self.minimum)


@dataclass(frozen=True)
class Interval:
    """Closed interval with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidParameterError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol


@dataclass(frozen=True, eq=False)
class RecallStreams:
    """Paired recall samples from the two p-box inverses.

    ``optimistic`` comes from the lower-CDF-bound inverse (numerically the
    larger recalls), ``pessimistic`` from the upper-CDF-bound inverse. Both
    are driven by the one shared ``p_values`` list, so
    ``pessimistic[i] <= optimistic[i]`` holds pointwise.
    """

    optimistic: np.ndarray
    pessimistic: np.ndarray
    p_values: np.ndarray
    seed: int

    def __post_init__(self):
        if not (len(self.optimistic) == len(self.pessimistic) == len(self.p_values)):
            raise InvalidParameterError("recall streams must share one length")
        if np.any(self.pessimistic > self.optimistic):
            raise InvalidParameterError("pessimistic stream must not exceed optimistic stream")

    def __len__(self) -> int:
        return len(self.p_values)


@dataclass(frozen=True)
class IntervalBundle:
    """Propagated intervals for the three headline pipeline metrics."""

    prevalence: Interval
    fix_rate: Interval
    fn_ratio: Interval
    mode: str


def _as_p_array(p, name="p"):
    arr = np.asarray(p, dtype=float)
    if arr.size == 0 or not bool(np.all((arr >= 0.0) & (arr <= 1.0))):
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {p!r}")
    return arr


def _scalar_in(p) -> bool:
    return np.ndim(p) == 0


def inverse_lower(params: PBoxParams, p, rng=None):
    """Invert the lower CDF bound at probability ``p`` (scalar or array).

    ``p = 0`` is set-valued and resolved by a uniform draw on [min, mean];
    ``rng`` (seed or ``numpy.random.Generator``) is consulted only then.
    """
    arr = np.atleast_1d(_as_p_array(p))
    a, b, mu = params.minimum, params.maximum, params.mean
    if params.degenerate:
        out = np.full(arr.shape, a)
    else:
        t = params.threshold
        out = np.full(arr.shape, b)
        mid = (arr > 0.0) & (arr < t)
        out[mid] = (arr[mid] * a - mu) / (arr[mid] - 1.0)
        zero = arr == 0.0
        if zero.any():
            out[zero] = np.random.default_rng(rng).uniform(a, mu, int(zero.sum()))
    return out if not _scalar_in(p) else float(out[0])


def inverse_upper(params: PBoxParams, p, rng=None):
    """Invert the upper CDF bound at probability ``p`` (scalar or array).

    ``p = 1`` is set-valued and resolved by a uniform draw on [mean, max].
    """
    arr = np.atleast_1d(_as_p_array(p))
    a, b, mu = params.minimum, params.maximum, params.mean
    if params.degenerate:
        out = np.full(arr.shape, a)
    else:
        t = params.threshold
        out = np.full(arr.shape, a)
        mid = (arr > t) & (arr < 1.0)
        out[mid] = b - (b - mu) / arr[mid]
        one = (arr == 1.0) & (arr > t)
        if one.any():
            out[one] = np.random.default_rng(rng).uniform(mu, b, int(one.sum()))
    return out if not _scalar_in(p) else float(out[0])


def sample_recall_streams(params: PBoxParams, n: int, seed: int) -> RecallStreams:
    """Draw ``n`` paired recall samples from both inverses.

    One list of p values is drawn i.i.d. uniform(0, 1) from a generator seeded
    with ``seed`` and fed to both inverses, so results are deterministic given
    (params, n, seed).
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    p = rng.random(int(n))
    optimistic = inverse_lower(params, p, rng)
    pessimistic = inverse_upper(params, p, rng)
    return RecallStreams(optimistic, pessimistic, p, int(seed))


def stream_mean_optimistic(params: PBoxParams) -> float:
    """Expected optimistic-stream recall under p ~ uniform(0, 1).

    Closed form of the integral of ``inverse_lower`` over (0, 1):
    ``a*t + (a - mu)*log(1 - t) + (1 - t)*b`` with the usual threshold ``t``
    (the set-valued endpoint at p = 0 has measure zero).
    """
    a, b, mu = params.minimum, params.maximum, params.mean
    if params.degenerate:
        return a
    t = params.threshold
    if t == 0.0:
        return b
    if t == 1.0:  # mean == minimum: the middle branch is constant at a
        return a
    return a * t + (a - mu) * math.log1p(-t) + (1.0 - t) * b


def stream_mean_pessimistic(params: PBoxParams) -> float:
    """Expected pessimistic-stream recall under p ~ uniform(0, 1).

    Closed form: ``a*t + b*(1 - t) + (b - mu)*log(t)``.
    """
    a, b, mu = params.minimum, params.maximum, params.mean
    if params.degenerate:
        return a
    t = params.threshold
    if t == 0.0:
        return b
    if t == 1.0:
        return a
    return a * t + b * (1.0 - t) + (b - mu) * math.log(t)


def propagate_interval(
    domain: DomainSpec,
    fixer: FixerSpec,
    streams: RecallStreams,
    mode: str = MODE_EXTREMES,
) -> IntervalBundle:
    """Push sampled recall streams through the closed-form pipeline metrics.

    ``mode="extremes"`` evaluates every recall value in both streams and
    returns [min, max] per metric. ``mode="means"`` evaluates each metric at
    the mean recall of each stream and orients the two results as lo <= hi;
    the optimistic stream supplies the low-prevalence / high-fix-rate
    endpoints.
    """
    if len(streams) == 0:
        raise InvalidParameterError("streams must be nonempty")
    if mode == MODE_EXTREMES:
        rec = np.concatenate([np.asarray(streams.optimistic), np.asarray(streams.pessimistic)])
    elif mode == MODE_MEANS:
        rec = np.array(
            [float(np.mean(streams.optimistic)), float(np.mean(streams.pessimistic))]
        )
    else:
        raise InvalidParameterError(f"mode must be one of {MODE_EXTREMES!r}, {MODE_MEANS!r}")
    prev = pipeline_prevalence(domain, fixer, rec)
    fix = pipeline_fix_rate(fixer, rec)
    _, ratio = pipeline_false_negatives(domain, fixer, rec)
    return IntervalBundle(
        prevalence=Interval(float(prev.min()), float(prev.max())),
        fix_rate=Interval(float(fix.min()), float(fix.max())),
        fn_ratio=Interval(float(ratio.min()), float(ratio.max())),
        mode=mode,
    )
