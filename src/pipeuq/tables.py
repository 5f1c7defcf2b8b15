"""The ``table`` report of each command: text for a reader, rendered from the values the command computed."""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .casestudies import ComposedPipelineReport
    from .config import RunConfig
    from .pbox import PBoxParams
    from .simulator import SimulationReport


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}"


def _fmt_interval(interval) -> str:
    if interval is None:
        return "n/a"
    return f"[{interval.lo:.2f}, {interval.hi:.2f}]"


def _labels(values: Iterable[float]) -> dict[float, str]:
    """Each distinct value of a grid axis -> its label: two decimals where those tell the values apart, else
    each value's shortest ``repr``, so that no two grid values read alike."""
    values = set(map(float, values))
    labels = {v: f"{v:.2f}" for v in values}
    return labels if len(set(labels.values())) == len(labels) else {v: repr(v) for v in values}


def _aligned(rows: Callable[[], Iterable[Sequence[str]]]) -> Iterable[str]:
    """The lines of the rows ``rows()`` yields, each cell padded to the width of its column's widest.

    ``rows`` is called twice, for the widths now and for the lines as they are read, so a table
    that ``rows`` re-draws is never held."""
    widths = functools.reduce(lambda widths, row: [*map(max, widths, map(len, row))], rows(), itertools.repeat(0))
    return ("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in rows())


def _titled(title: str, rows: Callable[[], Iterable[Sequence[str]]]) -> Iterable[str]:
    return itertools.chain([title + "\n\n"], _aligned(rows))


def _render_analytic_table(cfg: RunConfig, header: Sequence[str], blocks: Callable[[], Iterable[Sequence]]
                           ) -> Iterable[str]:
    title = f"analytic pipeline metrics (recall={cfg.recall}, precision={cfg.precision}, n_items={cfg.n_items})"
    # prevalence, fix_rate and the first five metrics, as ``blocks`` gives them; the grid is computed
    # and formatted twice, once for the widths, so memory does not grow with it
    prevalences, fix_rates = _labels(cfg.prevalence), _labels(cfg.fix_rate)
    return _titled(title, lambda: itertools.chain(
        [header],
        ([prevalences[p], fix_rates[f], *map(_fmt, values)] for block in blocks() for p, f, *values in zip(*block)),
    ))


def _render_simulate_table(cfg: RunConfig, pbox: PBoxParams, reports: Sequence[SimulationReport],
                           modes: Sequence[str]) -> Iterable[str]:
    from .simulator import METRICS

    yield (
        f"simulation intervals (trials={cfg.trials}, n_items={cfg.n_items}, seed={cfg.seed}, "
        f"pbox=({pbox.minimum:.4g}, {pbox.maximum:.4g}, {pbox.mean:.4g}))\n"
    )
    cells = {(r.domain.prevalence, r.fixer.fix_rate): r for r in reports}  # a repeated cell once
    prevalences = sorted({p for p, _ in cells})
    fix_rates = sorted({f for _, f in cells})
    row_labels, column_labels = _labels(prevalences), _labels(fix_rates)
    for metric in METRICS:
        excluded = sum(r.undefined.get(metric, 0) for r in cells.values())
        for mode in modes:
            rows = [["prevalence \\ fix_rate", *[column_labels[f] for f in fix_rates]]]
            rows += [[row_labels[p], *[_fmt_interval(cells[p, f].intervals[metric][mode]) for f in fix_rates]]
                     for p in prevalences]
            yield f"\n-- {metric} ({'per-trial extremes' if mode == 'extremes' else 'stream means'}) --\n"
            yield from _aligned(lambda: rows)
            if mode == modes[0] and excluded:
                yield f"\n   ({excluded} trial(s) with undefined {metric} excluded)\n"


def _render_evidence_table(cfg: RunConfig, summarized: dict) -> Iterable[str]:
    # summarized: each metric with samples -> its (SummaryStats, PBoxParams, removed samples)
    title = f"evidence summary (outlier policy={cfg.outlier_policy}, k={cfg.outlier_k})"
    rows = [["metric", "samples", "publications", "min", "max", "mean", "removed"]]
    for metric in ("recall", "precision"):
        if metric not in summarized:
            rows.append([metric, "-", "-", "-", "-", "-", "-"])
            continue
        (count, publications, lo, hi, mean), _, removed = summarized[metric]
        rows.append([metric, str(count), str(publications), _fmt(lo), _fmt(hi), _fmt(mean), str(len(removed))])
    lines = []
    if "recall" in summarized:
        pb = summarized["recall"][1]
        lines.append(f"recall p-box: (min={pb.minimum:.4g}, max={pb.maximum:.4g}, mean={pb.mean:.4g})")
    for _, _, removed in summarized.values():
        lines += [f"  removed: {s.source_id},{s.metric},{s.value}" for s in removed]
    return itertools.chain(_titled(title, lambda: rows), (line + "\n" for line in lines))


def _render_tools_table(cfg: RunConfig, tools: Iterable[Sequence]) -> Iterable[str]:
    from decimal import Decimal  # statistics, which the intervals used, has loaded it

    # the level as given, 99.5% for 0.995: a percent rounded to a whole one would read 100%
    confidence = format(Decimal(repr(cfg.confidence)).scaleb(2).normalize(), "f")
    title = f"repair-tool confidence intervals (method={cfg.method}, confidence={confidence}%)"
    rows = [["tool", "correct/generated", "point", "lower", "upper"]]
    rows += [
        [name, f"{correct}/{generated}", f"{point:.2%}", f"{lo:.2%}", f"{hi:.2%}"]
        for name, correct, generated, point, lo, hi in tools
    ]
    return _titled(title, lambda: rows)


def _render_composed_table(report: ComposedPipelineReport) -> Iterable[str]:
    lines = [
        "composed pipeline case",
        "",
        f"items      {report.n_items}",
        f"detected   {report.detected}  (detector recall {report.detector_recall})",
        f"fixed      {report.fixed}  (repair accuracy {report.repair_accuracy})",
        f"residual   {report.residual}",
        "fix-rate interval (per-trial extremes): " + _fmt_interval(report.fix_rate_extremes),
        "fix-rate interval (stream means):       " + _fmt_interval(report.fix_rate_means),
    ]
    lines += [f"note: {note}" for note in report.notes]
    return [line + "\n" for line in lines]


def _render_pbox_table(cfg: RunConfig, pbox: PBoxParams, summary: dict) -> Iterable[str]:
    title = (
        f"p-box samples (n={cfg.trials}, seed={cfg.seed}, "
        f"pbox=({pbox.minimum:.4g}, {pbox.maximum:.4g}, {pbox.mean:.4g}))"
    )
    rows = [["stream", "min", "max", "mean"]]
    for name, s in summary.items():
        rows.append([name, _fmt(s["min"]), _fmt(s["max"]), _fmt(s["mean"])])
    return _titled(title, lambda: rows)
