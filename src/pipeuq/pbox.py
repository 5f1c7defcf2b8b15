"""Inverse p-box sampling of uncertain recall.

A (min, max, mean) triple bounds the unknown CDF of a detector's recall with a
p-box. Inverting the two bounding CDFs gives two quantile functions:

* ``inverse_lower`` inverts the lower CDF bound. It yields the *larger*
  quantiles, so its samples form the optimistic recall stream.
* ``inverse_upper`` inverts the upper CDF bound and yields the smaller
  quantiles: the pessimistic stream.

Both inverses share one threshold ``t = (max - mean) / (max - min)``:

    inverse_lower(p) = min(max, max(min, (p*min - mean) / (p - 1)))   0 <= p < t
                       max                                             t <= p <= 1

    inverse_upper(p) = min                                             0 <= p <= t
                       max - (max - mean) / p                          t < p <= 1

Each bounding CDF is flat at one end, where its inverse is set-valued: [min, mean] at p = 0 for
the lower bound, [mean, max] at p = 1 for the upper. There each inverse takes its middle branch's
value, the one-sided limit: exactly ``mean`` at p = 0 (``max``, then also the mean, when t = 0),
and ``max - (max - mean)``, the mean up to rounding, at p = 1 (``min``, then also the mean, when
t = 1). So both are plain functions of p, and ``stream_chunks`` needs no generator but p's.

``stream_chunks`` is the one sampler of p: it inverts each chunk of uniform p
values into the streams it names, so the pessimistic recall never exceeds the
optimistic one at any index. The simulator and ``pbox-sample`` draw there, and
each stream's mean has a closed form. Every closed-form pipeline metric is
monotone in recall, so its bracket over the box needs no samples:
``pipeline_outcome(..., recall=np.array([box.minimum, box.maximum]))``
evaluates it at both ends in one call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import MAX_TRIALS, InvalidParameterError, check_count, check_unit, unsigned

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PBoxParams",
    "Interval",
    "CHUNK",
    "STREAMS",
    "check_stream",
    "inverse_lower",
    "inverse_upper",
    "stream_chunks",
    "fold_chunk",
    "stream_summary",
    "stream_mean_optimistic",
    "stream_mean_pessimistic",
]

CHUNK = 2**16  # recall samples and simulated trials are drawn this many at a time
STREAMS = ("optimistic", "pessimistic")  # the recall streams, in the order every report lists them


def check_stream(name) -> None:
    """Refuse ``name`` unless it is one of ``STREAMS``."""
    if not isinstance(name, str) or name not in STREAMS:
        raise InvalidParameterError(f"a recall stream is {' or '.join(map(repr, STREAMS))}, got {name!r}")


def fold_chunk(values: np.ndarray, lo=math.inf, hi=-math.inf, count=0, total=0.0) -> tuple:
    """The running ``(min, max, count, sum)`` of a chunked stream of floats: that of the chunks
    before, given as the other arguments, with the chunk ``values`` folded in. Without them it is
    the summary of ``values`` alone. No caller folds a NaN: the recall streams have none, and the
    simulator folds the fn growth of its defined trials only."""
    import numpy as np
    return (float(np.min(values, initial=lo)), float(np.max(values, initial=hi)), count + values.size,
            total + float(np.sum(values)))


class PBoxParams(namedtuple("PBoxParams", "minimum maximum mean")):
    """(min, max, mean) triple bounding an unknown CDF on [0, 1].

    The degenerate case ``minimum == maximum == mean`` is permitted and makes
    every sample equal to that point.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, minimum: float, maximum: float, mean: float):
        values = (minimum, maximum, mean)
        for name, v in zip(cls._fields, values):
            check_unit(v, name, numpy=False)
        self = super().__new__(cls, *map(unsigned, values))
        if not self.minimum <= self.mean <= self.maximum:
            raise InvalidParameterError(
                f"p-box needs minimum <= mean <= maximum, got "
                f"({self.minimum}, {self.mean}, {self.maximum})"
            )
        return self

    @property
    def degenerate(self) -> bool:
        return self.minimum == self.maximum

    @property
    def threshold(self) -> float:
        """Branch point ``t = (max - mean) / (max - min)``; 0 for a degenerate box."""
        if self.degenerate:
            return 0.0
        return (self.maximum - self.mean) / (self.maximum - self.minimum)


DEFAULT_RECALL_PBOX = PBoxParams(0.07, 1.00, 0.74)  # the recall box of evidence's bundled survey statistics


class Interval(namedtuple("Interval", "lo hi")):
    """Closed interval with ``lo <= hi``."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, lo: float, hi: float):
        if not (isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and lo <= hi):
            raise InvalidParameterError(f"interval needs lo <= hi, got [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol


def inverse_lower(params: PBoxParams, p):
    """Invert the lower CDF bound at ``p``, a real number or numpy array (not a list).

    The middle branch is clamped to [min, max], which rounding could otherwise leave by an ulp.
    """
    import numpy as np
    check_unit(p, "p")
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    a, b, mu, t = params.minimum, params.maximum, params.mean, params.threshold
    with np.errstate(all="ignore"):  # the middle branch, discarded at p = 1, divides by zero there
        x = (arr * a - mu) / (arr - 1.0)
    # x > a, so x = a gives a: at min = mean = 0, x is (p*0 - 0) / (p - 1) = -0.0
    out = np.where(arr < t, np.where(x > a, np.minimum(x, b), a), b)
    return float(out[0]) if np.ndim(p) == 0 else out


def inverse_upper(params: PBoxParams, p):
    """Invert the upper CDF bound at ``p``, a real number or numpy array (not a list).

    On a degenerate box every branch gives ``min``.
    """
    import numpy as np
    check_unit(p, "p")
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    a, b, mu, t = params.minimum, params.maximum, params.mean, params.threshold
    # the middle branch, discarded at p = 0, divides by zero there and overflows at a subnormal p
    with np.errstate(all="ignore"):
        x = b - (b - mu) / arr
    out = np.where(arr > t, x, a)
    return float(out[0]) if np.ndim(p) == 0 else out


def stream_chunks(params: PBoxParams, n: int, seed: int, *names: str):
    """The ``n`` samples of the p-box, ``CHUNK`` at a time: per chunk a tuple of its uniform p
    values and, in the order given, their inverse into each stream that ``names`` names,
    ``"optimistic"`` or ``"pessimistic"``: ``(p,)``, ``(p, recall)`` or ``(p, optimistic,
    pessimistic)``. ``check_count`` and ``check_stream`` check the arguments at the call: ``seed`` >= 0,
    and ``n`` in [1, ``MAX_TRIALS``], where a stream mean's division by its count is exact in a float64.

    The p values are successive ``random`` calls on one ``default_rng(seed)``, the one seed rule:
    the inverses draw nothing. Only the named streams are inverted.
    """
    import numpy as np
    seed = check_count(seed, "seed")
    for name in names:
        check_stream(name)
    n = check_count(n, "a recall stream's sample count", 1, MAX_TRIALS)
    rng = np.random.default_rng(seed)
    inverses = [inverse_upper if name == "pessimistic" else inverse_lower for name in names]
    return ((p, *(inverse(params, p) for inverse in inverses))
            for p in (rng.random(min(CHUNK, n - start)) for start in range(0, n, CHUNK)))


def stream_summary(params: PBoxParams, n: int, seed: int) -> dict:
    """``min``, ``max`` and ``mean`` of each stream of ``stream_chunks(params, n, seed, *STREAMS)``,
    one pass that draws p once per chunk, from one ``fold_chunk`` per stream and chunk as
    ``simulate`` folds its fn growths: min and max are numpy's for the whole array, and the mean is
    the in-order sum of the chunks' numpy sums, over ``n``."""
    states = dict.fromkeys(STREAMS, ())
    for _, *chunks in stream_chunks(params, n, seed, *STREAMS):
        states = {name: fold_chunk(chunk, *states[name]) for name, chunk in zip(STREAMS, chunks)}
    return {name: {"min": lo, "max": hi, "mean": total / count} for name, (lo, hi, count, total) in states.items()}


def stream_mean_optimistic(params: PBoxParams) -> float:
    """Expected optimistic-stream recall under p ~ uniform(0, 1).

    Closed form of the integral of ``inverse_lower`` over (0, 1):
    ``a*t + (a - mu)*log(1 - t) + (1 - t)*b`` with the usual threshold ``t``.
    """
    a, b, mu, t = params.minimum, params.maximum, params.mean, params.threshold
    if t == 1.0:  # mean == minimum: the middle branch is constant at a, log1p(-1) raises
        return a
    return a * t + (a - mu) * math.log1p(-t) + (1.0 - t) * b


def stream_mean_pessimistic(params: PBoxParams) -> float:
    """Expected pessimistic-stream recall under p ~ uniform(0, 1).

    Closed form: ``a*t + b*(1 - t) + (b - mu)*log(t)``.
    """
    a, b, mu, t = params.minimum, params.maximum, params.mean, params.threshold
    if t == 0.0:  # mean == maximum, or a degenerate box: log(0) raises
        return b
    return a * t + b * (1.0 - t) + (b - mu) * math.log(t)
