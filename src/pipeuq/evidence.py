"""Ingest recall/precision samples harvested from the literature.

CSV schema (UTF-8, header required, ``#`` starts a comment line):

    source_id,metric,value

where ``metric`` is ``recall`` or ``precision`` and ``value`` is a decimal in
[0, 1]. ``source_id`` is an opaque publication identifier used only to count
distinct sources.

The bundled default statistics come from a survey of published AI vulnerability
detectors (2328 recall samples across 115 publications after outlier removal),
so every experiment runs without external data. Precision samples are ingested
and summarized for completeness but feed nothing downstream.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvidenceError, EvidenceFormatError, InvalidParameterError
from .pbox import PBoxParams

__all__ = [
    "METRICS",
    "EvidenceSample",
    "SummaryStats",
    "load_samples",
    "loads_samples",
    "dump_samples",
    "group_by_metric",
    "remove_outliers",
    "summarize",
    "to_pbox",
    "DEFAULT_RECALL_STATS",
    "DEFAULT_PRECISION_STATS",
    "DEFAULT_RECALL_PBOX",
]

METRICS = ("recall", "precision")
_HEADER = ["source_id", "metric", "value"]


@dataclass(frozen=True)
class EvidenceSample:
    source_id: str
    metric: str
    value: float

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidParameterError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if not 0.0 <= self.value <= 1.0:
            raise InvalidParameterError(f"value must lie in [0, 1], got {self.value!r}")


@dataclass(frozen=True)
class SummaryStats:
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
DEFAULT_PRECISION_STATS = SummaryStats(2043, 100, 0.00, 1.00, 0.71)


def _read_headed_csv(source, header: list[str]):
    """Yield ``(lineno, cells)`` for each data row of a CSV file, given as a
    path or an open text stream.

    Blank lines and ``#`` comments are skipped. The first other line must be
    ``header``, and every later one must have as many cells; otherwise
    :class:`EvidenceFormatError` names the offending line.
    """
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8", newline="") as fh:
            yield from _read_headed_csv(fh, header)
        return
    saw_header = False
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [cell.strip() for cell in next(csv.reader([line]))]
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
    rows and :class:`InvalidParameterError` for out-of-range values. A
    header-only file yields an empty list.
    """
    samples: list[EvidenceSample] = []
    for lineno, (source_id, metric, value_text) in _read_headed_csv(source, _HEADER):
        if metric not in METRICS:
            raise EvidenceFormatError(f"unknown metric {metric!r}", lineno)
        try:
            value = float(value_text)
        except ValueError as exc:
            raise EvidenceFormatError(f"value {value_text!r} is not a number", lineno) from exc
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(f"line {lineno}: value {value} outside [0, 1]")
        samples.append(EvidenceSample(source_id, metric, value))
    return samples


def dump_samples(samples, dest) -> None:
    """Write samples back out in the same CSV schema (round-trip safe)."""
    own = not hasattr(dest, "write")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for s in samples:
            writer.writerow([s.source_id, s.metric, repr(s.value)])
    finally:
        if own:
            fh.close()


def group_by_metric(samples) -> dict[str, list[EvidenceSample]]:
    groups: dict[str, list[EvidenceSample]] = {m: [] for m in METRICS}
    for s in samples:
        groups[s.metric].append(s)
    return groups


def remove_outliers(samples, policy: str = "iqr", k: float = 1.5):
    """Partition samples into (kept, removed) under an outlier policy.

    ``policy="iqr"`` removes values outside [Q1 - k*IQR, Q3 + k*IQR] in one
    pass (a second pass over the kept set may remove more; this applies
    exactly one). ``policy="none"`` keeps everything. Callers should group by
    metric first; the rule is applied to the values as given.
    """
    samples = list(samples)
    if policy == "none":
        return samples, []
    if policy != "iqr":
        raise InvalidParameterError(f"policy must be 'none' or 'iqr', got {policy!r}")
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k!r}")
    if not samples:
        raise EmptyEvidenceError("iqr outlier removal needs at least one sample")
    values = np.array([s.value for s in samples])
    q1, q3 = np.percentile(values, [25.0, 75.0])
    lo = q1 - k * (q3 - q1)
    hi = q3 + k * (q3 - q1)
    kept = [s for s in samples if lo <= s.value <= hi]
    removed = [s for s in samples if not lo <= s.value <= hi]
    return kept, removed


def summarize(samples) -> SummaryStats:
    """Count, distinct publications, and min/max/mean of the sample values."""
    samples = list(samples)
    if not samples:
        raise EmptyEvidenceError("cannot summarize an empty sample set")
    values = np.array([s.value for s in samples])
    vmin, vmax = float(values.min()), float(values.max())
    # summation rounding can push the mean a few ulp outside [min, max]
    mean = min(max(float(values.mean()), vmin), vmax)
    return SummaryStats(
        count=len(samples),
        publications=len({s.source_id for s in samples}),
        minimum=vmin,
        maximum=vmax,
        mean=mean,
    )


def to_pbox(stats: SummaryStats) -> PBoxParams:
    """Build p-box parameters from summary statistics: (min, max, mean)."""
    if not stats.minimum <= stats.mean <= stats.maximum:
        raise InvalidParameterError(
            f"stats need minimum <= mean <= maximum, got "
            f"({stats.minimum}, {stats.mean}, {stats.maximum})"
        )
    return PBoxParams(stats.minimum, stats.maximum, stats.mean)


DEFAULT_RECALL_PBOX = to_pbox(DEFAULT_RECALL_STATS)


def loads_samples(text: str) -> list[EvidenceSample]:
    """Parse samples from an in-memory CSV string."""
    return load_samples(io.StringIO(text))
