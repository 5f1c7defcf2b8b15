"""Ingest recall/precision samples harvested from the literature.

CSV schema (UTF-8, a leading BOM allowed, header required, ``#`` starts a comment line):

    source_id,metric,value

where ``metric`` is ``recall`` or ``precision`` and ``value`` is a decimal in
[0, 1]. ``source_id`` is an opaque publication identifier used only to count
distinct sources.

The bundled default statistics come from a survey of published AI vulnerability
detectors (2328 recall samples across 115 publications after outlier removal),
so every experiment runs without external data. Precision samples are ingested
and summarized for completeness but feed nothing downstream. No numpy is loaded:
quartiles are rounded bit for bit as ``np.percentile`` (``linear``) rounds them,
the mean is ``math.fsum`` over the count, and -0.0 is stored as 0.0, as in ``PBoxParams``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from collections import namedtuple
from typing import NamedTuple

from .errors import EmptyEvidenceError, EvidenceFormatError, InvalidParameterError, check_unit, decimal, unsigned
from .pbox import PBoxParams

__all__ = [
    "METRICS",
    "EvidenceSample",
    "SummaryStats",
    "load_samples",
    "group_by_metric",
    "remove_outliers",
    "summarize",
    "to_pbox",
    "DEFAULT_RECALL_STATS",
    "DEFAULT_RECALL_PBOX",
]

METRICS = ("recall", "precision")
_HEADER = ["source_id", "metric", "value"]


class EvidenceSample(namedtuple("EvidenceSample", "source_id metric value")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, source_id: str, metric: str, value: float):
        if not isinstance(source_id, str):  # summarize counts the distinct ones
            raise InvalidParameterError(f"source_id must be a str, got {source_id!r}")
        if not isinstance(metric, str) or metric not in METRICS:
            raise InvalidParameterError(f"metric must be one of {METRICS}, got {metric!r}")
        check_unit(value, "value", numpy=False)
        return super().__new__(cls, source_id, metric, unsigned(value))


class SummaryStats(NamedTuple):
    """Descriptive statistics of one metric's sample set.

    Plain record; ``summarize`` guarantees ``minimum <= mean <= maximum`` and
    ``count >= 1`` for anything it produces.
    """

    count: int
    publications: int
    minimum: float
    maximum: float
    mean: float


DEFAULT_RECALL_STATS = SummaryStats(2328, 115, 0.07, 1.00, 0.74)


def _split(line: str) -> list[str]:
    """The cells of one CSV line, as ``next(csv.reader([line]))`` gives them: a nonempty line that
    holds no quote and no line break, and is no longer than csv's field limit, is split on its
    commas, which takes a fifth off ``load_samples``; ``csv`` reads (or refuses) any other."""
    if 0 < len(line) <= csv.field_size_limit() and '"' not in line and "\r" not in line and "\n" not in line:
        return line.split(",")
    return next(csv.reader([line]))


def _read_headed_csv(source, header: list[str]):
    """Yield ``(lineno, cells)`` for each data row of a CSV file, given as a
    path (a ``str`` or ``os.PathLike``) or an open text stream; anything else,
    an int that ``open`` would take as a file descriptor included, is refused.

    Blank lines and ``#`` comments are skipped. The first other line must be
    ``header``, and every later one must have as many cells; otherwise
    :class:`EvidenceFormatError` names the offending line.
    """
    if not isinstance(source, io.TextIOBase):
        if not isinstance(source, (str, os.PathLike)):
            raise InvalidParameterError(f"source must be a path or a text stream, got {source!r}")
        try:
            with open(source, encoding="utf-8-sig", newline="") as fh:
                yield from _read_headed_csv(fh, header)
        except UnicodeDecodeError as exc:
            raise EvidenceFormatError(f"{source} is not UTF-8 text ({exc.reason})") from None
        return
    saw_header = False
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [cell.strip() for cell in _split(line)]
        except csv.Error as exc:
            raise EvidenceFormatError(str(exc), lineno) from exc
        if not saw_header:
            if row != header:
                raise EvidenceFormatError(
                    f"expected header {','.join(header)!r}, got {line!r}", lineno
                )
            saw_header = True
            continue
        if len(row) != len(header):
            raise EvidenceFormatError(f"expected {len(header)} columns, got {len(row)}", lineno)
        yield lineno, row
    if not saw_header:
        raise EvidenceFormatError(f"missing header {','.join(header)!r}")


def load_samples(source) -> list[EvidenceSample]:
    """Parse evidence samples from a path or an open text stream.

    Raises :class:`EvidenceFormatError` (with the line number) for malformed
    rows, a value that ``errors.decimal`` refuses among them, and
    :class:`InvalidParameterError` for out-of-range values. A header-only file
    yields an empty list.
    """
    samples: list[EvidenceSample] = []
    for lineno, (source_id, metric, value_text) in _read_headed_csv(source, _HEADER):
        if metric not in METRICS:
            raise EvidenceFormatError(f"unknown metric {metric!r}", lineno)
        try:
            value = decimal(value_text)
        except ValueError as exc:
            raise EvidenceFormatError(f"value {value_text!r} is not a number", lineno) from exc
        try:
            samples.append(EvidenceSample(source_id, metric, value))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"line {lineno}: {exc}") from None
    return samples


def group_by_metric(samples) -> dict[str, list[EvidenceSample]]:
    groups: dict[str, list[EvidenceSample]] = {m: [] for m in METRICS}
    for s in samples:
        groups[s.metric].append(s)
    return groups


def _quantile(ordered: list[float], q: float) -> float:
    """Hyndman & Fan's type 7 ``q`` quantile of sorted values, rounded as numpy's ``linear`` method."""
    h = (len(ordered) - 1) * q
    i = int(h)
    g = h - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def remove_outliers(samples, policy: str = "iqr", k: float = 1.5):
    """Partition samples into (kept, removed) under an outlier policy.

    ``policy="iqr"`` removes values outside [Q1 - k*IQR, Q3 + k*IQR] in one
    pass (a second pass over the kept set may remove more; this applies
    exactly one). ``policy="none"`` keeps everything. Callers should group by
    metric first; the rule is applied to the values as given.
    """
    samples = list(samples)
    if not isinstance(policy, str) or policy not in ("none", "iqr"):
        raise InvalidParameterError(f"policy must be 'none' or 'iqr', got {policy!r}")
    if policy == "none":
        return samples, []
    # k * IQR must be a float: NaN, infinity (inf * 0 is NaN) and a larger int are refused
    if not isinstance(k, (int, float)) or not 0 <= k <= sys.float_info.max:
        raise InvalidParameterError(f"k must be a finite number >= 0, got {k!r}")
    if not samples:
        raise EmptyEvidenceError("iqr outlier removal needs at least one sample")
    ordered = sorted(s.value for s in samples)
    q1, q3 = _quantile(ordered, 0.25), _quantile(ordered, 0.75)
    lo = q1 - k * (q3 - q1)
    hi = q3 + k * (q3 - q1)
    kept = [s for s in samples if lo <= s.value <= hi]
    removed = [s for s in samples if not lo <= s.value <= hi]
    return kept, removed


def summarize(samples) -> SummaryStats:
    """Count, distinct publications, and min/max/mean of the sample values: the mean is their
    correctly rounded sum (``math.fsum``) over the count, kept in [min, max], which the division can leave by an ulp."""
    samples = list(samples)
    if not samples:
        raise EmptyEvidenceError("cannot summarize an empty sample set")
    values = [float(s.value) for s in samples]
    vmin, vmax = min(values), max(values)
    mean = min(max(math.fsum(values) / len(values), vmin), vmax)
    return SummaryStats(
        count=len(samples),
        publications=len({s.source_id for s in samples}),
        minimum=vmin,
        maximum=vmax,
        mean=mean,
    )


def to_pbox(stats: SummaryStats) -> PBoxParams:
    """Build p-box parameters from summary statistics: (min, max, mean)."""
    return PBoxParams(stats.minimum, stats.maximum, stats.mean)


DEFAULT_RECALL_PBOX = to_pbox(DEFAULT_RECALL_STATS)
