"""Command-line front end.

Subcommands:

* ``analytic``    closed-form pipeline metrics over the prevalence x fix-rate grid
* ``simulate``    Monte Carlo experiment per grid cell, interval tables per metric
* ``evidence``    summarize a recall/precision evidence CSV into p-box parameters
* ``case-study``  confidence-interval table for repair tools, or the composed
                  detect+fix worked example
* ``pbox-sample`` draw paired recall streams from a p-box

Reports serialize as ``table`` (human), ``csv``, or ``json``. The JSON
document has top-level keys ``version``, ``config``, ``results`` and is
byte-stable: rerunning the embedded config reproduces it exactly.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .config import (
    CI_METHODS,
    MODES,
    OUTLIER_POLICIES,
    OUTPUTS,
    RunConfig,
    build_config,
)
from .core import ClassifierProfile, DomainSpec, FixerSpec, pipeline_outcome
from .errors import PipeUQError
from .evidence import group_by_metric, load_samples, remove_outliers, summarize, to_pbox
from .casestudies import (
    DEFAULT_TOOL_RECORDS,
    composed_pipeline_case,
    load_tool_records,
    rule_based_case_study,
)
from .pbox import PBoxParams, sample_recall_streams
from .simulator import METRICS, run_experiment

__all__ = [
    "ReportEnvelope",
    "cmd_analytic",
    "cmd_simulate",
    "cmd_evidence",
    "cmd_case_study",
    "cmd_pbox_sample",
    "main",
]


@dataclass
class ReportEnvelope:
    """A command's full result: version, config echo and payload.

    ``columns`` and ``rows`` give the payload as one tidy table, which the csv
    output writes as it stands and the table output formats. ``rows`` is a
    zero-argument callable that yields the rows afresh on every call, so a
    large payload is never copied.
    """

    version: str
    command: str
    config: dict
    results: dict
    columns: tuple[str, ...]
    rows: Callable[[], Iterable[list]]

    def to_json(self) -> str:
        doc = {"version": self.version, "config": self.config, "results": self.results}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _envelope(command: str, cfg: RunConfig, results: dict, columns, rows) -> ReportEnvelope:
    # the output destination is not part of the experiment: identical configs
    # must yield identical reports wherever they are written
    config = {"command": command, **asdict(cfg)}
    del config["out"]
    return ReportEnvelope(
        version=__version__,
        command=command,
        config=config,
        results=results,
        columns=columns,
        rows=rows,
    )


def _resolve_pbox(cfg: RunConfig) -> PBoxParams:
    """The recall p-box: derived from an evidence CSV when given, else the
    configured (min, max, mean) triple."""
    if cfg.evidence:
        samples = group_by_metric(load_samples(cfg.evidence))["recall"]
        kept, _ = remove_outliers(samples, cfg.outlier_policy, cfg.outlier_k)
        return to_pbox(summarize(kept))
    return PBoxParams(cfg.pbox_min, cfg.pbox_max, cfg.pbox_mean)


# ---------------------------------------------------------------------------
# commands

# report column -> PipelineOutcome field
_ANALYTIC_METRICS = {
    "real_fix_rate": "fix_rate_actual",
    "final_prevalence": "prevalence_final",
    "tpr": "tpr_final",
    "far": "far_final",
    "fn_ratio": "fn_ratio",
    "fn_final": "fn_final",
    "tp_final": "tp_final",
    "fp_final": "fp_final",
    "fixer_load": "fixer_load",
}


def cmd_analytic(cfg: RunConfig) -> ReportEnvelope:
    """Closed-form metrics for every (prevalence, fix_rate) grid cell at the
    configured point recall, evaluated as one call over the whole grid.

    The realized fix rate is reported as undefined (null / "n/a") when
    prevalence is 0, and the false-alert rate when the domain degenerates to
    no negatives.
    """
    prevalence, fix_rate = (
        a.ravel() for a in np.meshgrid(cfg.prevalence, cfg.fix_rate, indexing="ij")
    )
    out = pipeline_outcome(
        ClassifierProfile(cfg.recall, cfg.precision, cfg.specificity),
        DomainSpec(cfg.n_items, prevalence),
        FixerSpec(fix_rate),
    )
    values = [getattr(out, field) for field in _ANALYTIC_METRICS.values()]
    values[0] = np.where(prevalence > 0, values[0], np.nan)  # nothing to fix at P = 0
    # tolist() yields Python floats, whose repr the csv output relies on;
    # NaN marks an undefined cell
    table = [
        [p, f, *(None if v != v else v for v in cell)]
        for p, f, *cell in zip(prevalence.tolist(), fix_rate.tolist(), *(v.tolist() for v in values))
    ]
    results = {
        metric: [{"prevalence": row[0], "fix_rate": row[1], "value": row[i]} for row in table]
        for i, metric in enumerate(_ANALYTIC_METRICS, start=2)
    }
    return _envelope(
        "analytic", cfg, results, ("prevalence", "fix_rate", *_ANALYTIC_METRICS), lambda: table
    )


def cmd_simulate(cfg: RunConfig) -> ReportEnvelope:
    """Monte Carlo experiment per grid cell.

    Every cell runs under the same master seed, so recall streams are paired
    across cells and the whole report is reproducible from the config alone.
    """
    pbox = _resolve_pbox(cfg)
    profile = ClassifierProfile(1.0, cfg.precision, cfg.specificity)
    modes = ("extremes", "means") if cfg.mode == "both" else (cfg.mode,)
    results: dict = {m: [] for m in METRICS}
    results["pbox"] = asdict(pbox)
    for p_r in cfg.prevalence:
        domain = DomainSpec(cfg.n_items, p_r)
        for f_r in cfg.fix_rate:
            report = run_experiment(
                domain, profile, FixerSpec(f_r, cfg.break_rate), pbox, cfg.trials, cfg.seed
            )
            undefined = {
                "real_fix_rate": report.undefined_real_fix_rate,
                "fn_ratio": report.undefined_fn_ratio,
            }
            for metric in METRICS:
                for mode in modes:
                    interval = report.intervals[metric][mode]
                    entry = {
                        "prevalence": p_r,
                        "fix_rate": f_r,
                        "mode": mode,
                        "lo": None if interval is None else interval.lo,
                        "hi": None if interval is None else interval.hi,
                    }
                    if metric in undefined:
                        entry["undefined"] = undefined[metric]
                    if cfg.trace:
                        entry["trials"] = [getattr(o, metric) for o in report.outcomes()]
                    results[metric].append(entry)
    columns = ("metric", "mode", "prevalence", "fix_rate", "lo", "hi", "undefined")
    return _envelope(
        "simulate",
        cfg,
        results,
        columns,
        lambda: (
            [metric, e["mode"], e["prevalence"], e["fix_rate"], e["lo"], e["hi"], e.get("undefined")]
            for metric in METRICS
            for e in results[metric]
        ),
    )


def cmd_evidence(cfg: RunConfig) -> ReportEnvelope:
    """Summarize an evidence CSV: per-metric statistics, outlier partition,
    and the derived p-box parameters."""
    samples = load_samples(cfg.evidence)
    groups = group_by_metric(samples)
    results: dict = {
        "outlier_policy": cfg.outlier_policy,
        "outlier_k": cfg.outlier_k,
    }
    columns = ("metric", "count", "publications", "min", "max", "mean", "removed")
    table = []
    for metric, metric_samples in groups.items():
        if not metric_samples:
            results[metric] = None
            continue
        kept, removed = remove_outliers(metric_samples, cfg.outlier_policy, cfg.outlier_k)
        stats = summarize(kept)
        row = [metric, stats.count, stats.publications, stats.minimum, stats.maximum, stats.mean,
               len(removed)]
        table.append(row)
        results[metric] = {
            **dict(zip(columns[1:6], row[1:6])),
            "pbox": asdict(to_pbox(stats)),
            "removed": [
                {"source_id": s.source_id, "metric": s.metric, "value": s.value}
                for s in removed
            ],
        }
    return _envelope("evidence", cfg, results, columns, lambda: table)


def cmd_case_study(cfg: RunConfig, which: str) -> ReportEnvelope:
    """Either the rule-based tool CI table or the composed-pipeline example."""
    if which == "rule-based":
        tools = load_tool_records(cfg.tools) if cfg.tools else DEFAULT_TOOL_RECORDS
        rows = rule_based_case_study(tools, cfg.confidence, cfg.method)
        columns = ("name", "correct", "generated", "point", "lo", "hi")
        table = [
            [t.name, t.correct, t.generated, row.point, row.ci.lo, row.ci.hi]
            for t, row in zip(tools, rows)
        ]
        results = {
            "confidence": cfg.confidence,
            "method": cfg.method,
            "tools": [dict(zip(columns, line)) for line in table],
        }
        return _envelope("case-study", cfg, results, columns, lambda: table)
    if which == "composed":
        report = composed_pipeline_case(
            cfg.case_n_items, cfg.case_recall, cfg.case_accuracy, _resolve_pbox(cfg)
        )
        extremes, means = report.fix_rate_extremes, report.fix_rate_means
        chain = ("n_items", "detected", "fixed", "residual")
        columns = (*chain, "extremes_lo", "extremes_hi", "means_lo", "means_hi")
        table = [[*(getattr(report, c) for c in chain), extremes.lo, extremes.hi, means.lo, means.hi]]
        results = {
            "chain": dict(zip(chain, table[0])),
            "detector_recall": report.detector_recall,
            "repair_accuracy": report.repair_accuracy,
            "fix_rate": {"extremes": asdict(extremes), "means": asdict(means)},
            "notes": list(report.notes),
        }
        return _envelope("case-study", cfg, results, columns, lambda: table)
    raise PipeUQError(f"unknown case study {which!r}")  # pragma: no cover - argparse guards


def cmd_pbox_sample(cfg: RunConfig) -> ReportEnvelope:
    """Draw paired recall streams from the configured p-box."""
    pbox = _resolve_pbox(cfg)
    streams = sample_recall_streams(pbox, cfg.trials, cfg.seed)
    summary = {}
    for name, values in (("optimistic", streams.optimistic), ("pessimistic", streams.pessimistic)):
        summary[name] = {
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
        }
    results = {
        "pbox": asdict(pbox),
        "count": len(streams),
        "summary": summary,
        "p_values": streams.p_values.tolist(),
        "optimistic": streams.optimistic.tolist(),
        "pessimistic": streams.pessimistic.tolist(),
    }
    return _envelope(
        "pbox-sample",
        cfg,
        results,
        ("index", "p", "optimistic", "pessimistic"),
        lambda: (
            [i, *draw]
            for i, draw in enumerate(
                zip(results["p_values"], results["optimistic"], results["pessimistic"])
            )
        ),
    )


# ---------------------------------------------------------------------------
# rendering

def _fmt(value, digits=4) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{digits}f}"


def _fmt_interval(lo, hi) -> str:
    if lo is None or hi is None:
        return "n/a"
    return f"[{lo:.2f}, {hi:.2f}]"


def _format_columns(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def _titled(title: str, rows: list[list[str]]) -> str:
    return title + "\n\n" + _format_columns(rows) + "\n"


def _render_analytic_table(env: ReportEnvelope) -> str:
    cfg = env.config
    title = (
        f"analytic pipeline metrics (recall={cfg['recall']}, precision={cfg['precision']}, "
        f"specificity={cfg['specificity']}, n_items={cfg['n_items']})"
    )
    # the first five metrics: prevalence, fix_rate, real_fix_rate ... fn_ratio
    rows = [list(env.columns[:7])]
    rows += [[f"{p:.2f}", f"{f:.2f}", *map(_fmt, values[:5])] for p, f, *values in env.rows()]
    return _titled(title, rows)


def _render_simulate_table(env: ReportEnvelope) -> str:
    pbox = env.results["pbox"]
    blocks = [
        f"simulation intervals (trials={env.config['trials']}, n_items={env.config['n_items']}, "
        f"seed={env.config['seed']}, pbox=({pbox['minimum']:.4g}, {pbox['maximum']:.4g}, {pbox['mean']:.4g}))"
    ]
    cells, undefined = {}, defaultdict(int)
    for metric, mode, p, f, lo, hi, n_undefined in env.rows():
        cells[metric, mode, p, f] = _fmt_interval(lo, hi)
        if mode == "extremes":
            undefined[metric] += n_undefined or 0
    modes = {key[1] for key in cells}
    prevalences = sorted({key[2] for key in cells})
    fix_rates = sorted({key[3] for key in cells})
    for metric in METRICS:
        for mode, label in (("extremes", "per-trial extremes"), ("means", "stream means")):
            if mode not in modes:
                continue
            rows = [["prevalence \\ fix_rate", *[f"{f:.2f}" for f in fix_rates]]]
            rows += [[f"{p:.2f}", *[cells[metric, mode, p, f] for f in fix_rates]] for p in prevalences]
            blocks.append(f"-- {metric} ({label}) --\n" + _format_columns(rows))
            if mode == "extremes" and undefined[metric]:
                blocks.append(f"   ({undefined[metric]} trial(s) with undefined {metric} excluded)")
    return "\n\n".join(blocks) + "\n"


def _render_evidence_table(env: ReportEnvelope) -> str:
    results = env.results
    title = f"evidence summary (outlier policy={results['outlier_policy']}, k={results['outlier_k']})"
    summarized = {row[0]: row for row in env.rows()}
    rows = [["metric", "samples", "publications", "min", "max", "mean", "removed"]]
    for metric in ("recall", "precision"):
        if metric not in summarized:
            rows.append([metric, "-", "-", "-", "-", "-", "-"])
            continue
        _, count, publications, lo, hi, mean, n_removed = summarized[metric]
        rows.append([metric, str(count), str(publications), _fmt(lo), _fmt(hi), _fmt(mean), str(n_removed)])
    lines = []
    if "recall" in summarized:
        pb = results["recall"]["pbox"]
        lines.append(
            f"recall p-box: (min={pb['minimum']:.4g}, max={pb['maximum']:.4g}, mean={pb['mean']:.4g})"
        )
    for metric in summarized:
        lines += [f"  removed: {s['source_id']},{s['metric']},{s['value']}" for s in results[metric]["removed"]]
    return _titled(title, rows) + "".join(line + "\n" for line in lines)


def _render_case_table(env: ReportEnvelope) -> str:
    results = env.results
    if "tools" in results:
        title = (
            f"repair-tool confidence intervals "
            f"(method={results['method']}, confidence={results['confidence']:.0%})"
        )
        rows = [["tool", "correct/generated", "point", "lower", "upper"]]
        rows += [
            [name, f"{correct}/{generated}", f"{point:.2%}", f"{lo:.2%}", f"{hi:.2%}"]
            for name, correct, generated, point, lo, hi in env.rows()
        ]
        return _titled(title, rows)
    [(n_items, detected, fixed, residual, ext_lo, ext_hi, means_lo, means_hi)] = env.rows()
    lines = [
        "composed pipeline case",
        "",
        f"items      {n_items}",
        f"detected   {detected}  (detector recall {results['detector_recall']})",
        f"fixed      {fixed}  (repair accuracy {results['repair_accuracy']})",
        f"residual   {residual}",
        "fix-rate interval (per-trial extremes): " + _fmt_interval(ext_lo, ext_hi),
        "fix-rate interval (stream means):       " + _fmt_interval(means_lo, means_hi),
    ]
    lines += [f"note: {note}" for note in results["notes"]]
    return "\n".join(lines) + "\n"


def _render_pbox_table(env: ReportEnvelope) -> str:
    results = env.results
    pb = results["pbox"]
    title = (
        f"p-box samples (n={results['count']}, seed={env.config['seed']}, "
        f"pbox=({pb['minimum']:.4g}, {pb['maximum']:.4g}, {pb['mean']:.4g}))"
    )
    rows = [["stream", "min", "max", "mean"]]
    for name in ("optimistic", "pessimistic"):
        s = results["summary"][name]
        rows.append([name, _fmt(s["min"]), _fmt(s["max"]), _fmt(s["mean"])])
    return _titled(title, rows)


_TABLE_RENDERERS = {
    "analytic": _render_analytic_table,
    "simulate": _render_simulate_table,
    "evidence": _render_evidence_table,
    "case-study": _render_case_table,
    "pbox-sample": _render_pbox_table,
}


def render(env: ReportEnvelope, output: str) -> str:
    if output == "json":
        return env.to_json()
    if output == "csv":
        # csv writes None as an empty field and a float as its repr
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(env.columns)
        writer.writerows(env.rows())
        return buf.getvalue()
    return _TABLE_RENDERERS[env.command](env)


# ---------------------------------------------------------------------------
# argument parsing

def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _add_common(sp) -> None:
    sp.add_argument("--config", metavar="PATH", help="INI config file")
    sp.add_argument("--seed", type=int, metavar="INT")
    sp.add_argument("--output", choices=OUTPUTS)
    sp.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def _add_pbox(sp, with_triple=True) -> None:
    if with_triple:
        sp.add_argument("--pbox-min", type=float, dest="pbox_min", metavar="X")
        sp.add_argument("--pbox-max", type=float, dest="pbox_max", metavar="X")
        sp.add_argument("--pbox-mean", type=float, dest="pbox_mean", metavar="X")
        sp.add_argument(
            "--evidence", metavar="PATH", help="derive the recall p-box from this evidence CSV"
        )
    sp.add_argument("--outlier-policy", choices=OUTLIER_POLICIES, dest="outlier_policy")
    sp.add_argument("--outlier-k", type=float, dest="outlier_k", metavar="K")


def _add_grid(sp) -> None:
    sp.add_argument("--n-items", type=int, dest="n_items", metavar="INT")
    sp.add_argument("--prevalence", type=_float_list, metavar="LIST")
    sp.add_argument("--fix-rate", type=_float_list, dest="fix_rate", metavar="LIST")
    sp.add_argument("--specificity", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipeuq",
        description="Uncertainty propagation for detect-fix-redetect security pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form grid of pipeline metrics")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--recall", type=float)
    p.add_argument("--precision", type=float)

    p = sub.add_parser("simulate", help="Monte Carlo experiment per grid cell")
    _add_common(p)
    _add_grid(p)
    _add_pbox(p)
    p.add_argument("--break-rate", type=float, dest="break_rate")
    p.add_argument("--trials", type=int, metavar="INT")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--trace", action="store_const", const=True, help="embed per-trial values in the report")

    p = sub.add_parser("evidence", help="summarize an evidence CSV into p-box parameters")
    _add_common(p)
    p.add_argument("evidence", nargs="?", metavar="CSV", help="evidence file to ingest")
    _add_pbox(p, with_triple=False)

    p = sub.add_parser("case-study", help="tool CI table or composed pipeline example")
    _add_common(p)
    p.add_argument("which", choices=("rule-based", "composed"))
    p.add_argument("--tools", metavar="PATH", help="tool records CSV (name,correct,generated)")
    p.add_argument("--confidence", type=float)
    p.add_argument("--method", choices=CI_METHODS)
    p.add_argument("--case-n-items", type=int, dest="case_n_items", metavar="INT")
    p.add_argument("--case-recall", type=float, dest="case_recall", metavar="X")
    p.add_argument("--case-accuracy", type=float, dest="case_accuracy", metavar="X")
    _add_pbox(p)

    p = sub.add_parser("pbox-sample", help="draw paired recall streams from a p-box")
    _add_common(p)
    _add_pbox(p)
    p.add_argument("--trials", type=int, metavar="INT", help="number of samples")

    return parser


def _dispatch(args, cfg: RunConfig) -> ReportEnvelope:
    if args.command == "analytic":
        return cmd_analytic(cfg)
    if args.command == "simulate":
        return cmd_simulate(cfg)
    if args.command == "evidence":
        return cmd_evidence(cfg)
    if args.command == "case-study":
        return cmd_case_study(cfg, args.which)
    if args.command == "pbox-sample":
        return cmd_pbox_sample(cfg)
    raise PipeUQError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize --version/help to 0
        return int(exc.code or 0)
    try:
        cfg = build_config(args, args.command)
        env = _dispatch(args, cfg)
        text = render(env, cfg.output)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except PipeUQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # internal invariant violation
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
