"""Inverse p-box sampling of uncertain recall.

A (min, max, mean) triple bounds the unknown CDF of a detector's recall with a
p-box. Inverting the two bounding CDFs gives two quantile functions:

* ``inverse_lower`` inverts the lower CDF bound. It yields the *larger*
  quantiles, so its samples form the optimistic recall stream.
* ``inverse_upper`` inverts the upper CDF bound and yields the smaller
  quantiles: the pessimistic stream.

Both inverses share one threshold ``t = (max - mean) / (max - min)``:

    inverse_lower(p) = uniform draw on [min, mean]          p = 0
                       max(min, (p*min - mean) / (p - 1))   0 < p < t
                       max                                  t <= p <= 1

    inverse_upper(p) = min                                  0 <= p <= t
                       max - (max - mean) / p               t < p < 1
                       uniform draw on [mean, max]          p = 1

``stream_chunks`` draws each stream at the uniform p values of ``p_chunks``, so
the pessimistic recall never exceeds the optimistic one at any index. The
simulator and ``pbox-sample`` draw their recalls there, and each stream's mean
has a closed form. Every closed-form pipeline metric is monotone in recall, so
its bracket over the box needs no samples: ``pipeline_outcome(...,
recall=np.array([box.minimum, box.maximum]))`` evaluates it at both ends in one
call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import InvalidParameterError, check_count, check_unit

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PBoxParams",
    "Interval",
    "CHUNK",
    "STREAMS",
    "check_stream",
    "unsigned",
    "inverse_lower",
    "inverse_upper",
    "p_chunks",
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


def unsigned(value):
    """``value``, with a negative zero as 0.0: the one zero a record holds, so that no report
    writes -0.0 and numpy's uniform never sees the range (0.0, -0.0)."""
    return 0.0 if math.copysign(1.0, value) < 0.0 else value


def fold_chunk(values: np.ndarray, lo=math.inf, hi=-math.inf, count=0, total=0.0) -> tuple:
    """The running ``(min, max, count, sum)`` of the defined values of a chunked stream, NaN
    marking an undefined one: that of the chunks before, given as the other arguments, with
    the chunk ``values`` folded in. Without them it is the summary of ``values`` alone."""
    import numpy as np
    with np.errstate(over="ignore"):  # simulate's fix rates at a tiny prevalence sum to -inf, as floats do
        chunk_total = float(np.nansum(values))
    return (
        float(np.fmin.reduce(values, initial=lo)),  # fmin, fmax and nansum skip NaN
        float(np.fmax.reduce(values, initial=hi)),
        count + int(np.count_nonzero(values == values)),
        total + chunk_total,
    )


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


def _tie_generator(np, rng):
    """The generator of a tie's uniform draw: ``rng`` is a ``numpy.random.Generator``, None
    (fresh entropy) or a seed, which ``check_count`` takes as it takes every seed."""
    if rng is not None and not isinstance(rng, np.random.Generator):
        rng = check_count(rng, "rng")
    return np.random.default_rng(rng)


def inverse_lower(params: PBoxParams, p, rng=None):
    """Invert the lower CDF bound at ``p``, a real number or numpy array (not a list).

    ``p = 0`` is set-valued and resolved by a uniform draw on [min, mean];
    ``rng`` (seed or ``numpy.random.Generator``) is consulted only then, also
    on a degenerate box, where the draw is ``min``. The middle branch is
    clamped at ``min``, which rounding could otherwise undercut by an ulp.
    """
    import numpy as np
    check_unit(p, "p")
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    a, b, mu, t = params.minimum, params.maximum, params.mean, params.threshold
    out = np.full(arr.shape, b, dtype=float)
    mid = (arr > 0.0) & (arr < t)
    x = (arr[mid] * a - mu) / (arr[mid] - 1.0)
    out[mid] = np.where(x <= a, a, x)  # a tie gives a: (p*0 - 0) / (p - 1) is -0.0
    zero = arr == 0.0
    if zero.any():
        out[zero] = _tie_generator(np, rng).uniform(a, mu, int(zero.sum()))
    return float(out[0]) if np.ndim(p) == 0 else out


def inverse_upper(params: PBoxParams, p, rng=None):
    """Invert the upper CDF bound at ``p``, a real number or numpy array (not a list).

    ``p = 1`` is set-valued and resolved by a uniform draw on [mean, max].
    On a degenerate box every branch gives ``min``.
    """
    import numpy as np
    check_unit(p, "p")
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    a, b, mu, t = params.minimum, params.maximum, params.mean, params.threshold
    out = np.full(arr.shape, a, dtype=float)
    mid = (arr > t) & (arr < 1.0)
    out[mid] = b - (b - mu) / arr[mid]
    one = (arr == 1.0) & (arr > t)
    if one.any():
        out[one] = _tie_generator(np, rng).uniform(mu, b, int(one.sum()))
    return float(out[0]) if np.ndim(p) == 0 else out


def p_chunks(n: int, seed: int):
    """The uniform p values of ``n`` samples, ``CHUNK`` at a time: successive ``random``
    calls on one ``default_rng(seed)``. ``check_count`` checks both at the call: ``n`` in [1, 2**53],
    where a stream mean's division by its count is exact in a float64, and ``seed`` >= 0."""
    import numpy as np
    n = check_count(n, "a recall stream's sample count", 1, 2**53)
    rng = np.random.default_rng(check_count(seed, "seed"))
    return (rng.random(min(CHUNK, n - start)) for start in range(0, n, CHUNK))


def stream_chunks(params: PBoxParams, n: int, seed: int, name: str):
    """The ``n`` samples of the ``name`` stream, ``"optimistic"`` or ``"pessimistic"``, chunk by
    chunk; the arguments are checked at the call.

    Chunk ``k`` of either stream inverts chunk ``k`` of ``p_chunks(n, seed)``. The optimistic stream
    resolves its p = 0 ties with chunk ``k``'s child generator, the ``k``-th child of
    ``SeedSequence(seed)``. The pessimistic needs none: its tie is at p = 1, and p is drawn in [0, 1).
    """
    seed = check_count(seed, "seed")  # an int for SeedSequence, as p_chunks takes it
    check_stream(name)
    return (_invert(params, seed, name, k, p) for k, p in enumerate(p_chunks(n, seed)))


def _invert(params: PBoxParams, seed: int, name: str, k: int, p: np.ndarray) -> np.ndarray:
    """Chunk ``k`` of the ``name`` stream, from that chunk's p values ``p``, unchecked."""
    if name == "pessimistic":
        return inverse_upper(params, p)
    import numpy as np
    return inverse_lower(params, p, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))))


def stream_summary(params: PBoxParams, n: int, seed: int) -> dict:
    """``min``, ``max`` and ``mean`` of each stream of ``stream_chunks(params, n, seed, name)``,
    from one ``fold_chunk`` per chunk as ``simulate`` sums its metrics: min and max are numpy's
    for the whole array, and the mean is the in-order sum of the chunks' numpy sums, over ``n``."""
    summary = {}
    for name in STREAMS:
        state = ()
        for chunk in stream_chunks(params, n, seed, name):
            state = fold_chunk(chunk, *state)
        lo, hi, count, total = state
        summary[name] = {"min": lo, "max": hi, "mean": total / count}
    return summary


def stream_mean_optimistic(params: PBoxParams) -> float:
    """Expected optimistic-stream recall under p ~ uniform(0, 1).

    Closed form of the integral of ``inverse_lower`` over (0, 1):
    ``a*t + (a - mu)*log(1 - t) + (1 - t)*b`` with the usual threshold ``t``
    (the set-valued endpoint at p = 0 has measure zero).
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
