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
from dataclasses import asdict, dataclass

from . import __version__
from .config import (
    CI_METHODS,
    COMMANDS,
    MODES,
    OUTLIER_POLICIES,
    OUTPUTS,
    RunConfig,
    build_config,
)
from .core import (
    ClassifierProfile,
    DomainSpec,
    FixerSpec,
    pipeline_false_negatives,
    pipeline_false_positives,
    pipeline_far,
    pipeline_fix_rate,
    pipeline_prevalence,
    pipeline_true_positives,
    pipeline_tpr,
    fixer_load,
)
from .errors import DegenerateDomainError, PipeUQError
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
    """A command's full result: version, config echo and payload."""

    version: str
    command: str
    config: dict
    results: dict

    def to_json(self) -> str:
        doc = {"version": self.version, "config": self.config, "results": self.results}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _envelope(command: str, cfg: RunConfig, results: dict) -> ReportEnvelope:
    # the output destination is not part of the experiment: identical configs
    # must yield identical reports wherever they are written
    config = {"command": command, **asdict(cfg)}
    del config["out"]
    return ReportEnvelope(
        version=__version__,
        command=command,
        config=config,
        results=results,
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

_ANALYTIC_METRICS = (
    "real_fix_rate",
    "final_prevalence",
    "tpr",
    "far",
    "fn_ratio",
    "fn_final",
    "tp_final",
    "fp_final",
    "fixer_load",
)


def cmd_analytic(cfg: RunConfig) -> ReportEnvelope:
    """Closed-form metrics for every (prevalence, fix_rate) grid cell at the
    configured point recall.

    The realized fix rate is reported as undefined (null / "n/a") when
    prevalence is 0, and the false-alert rate when the domain degenerates to
    no negatives.
    """
    profile = ClassifierProfile(cfg.recall, cfg.precision, cfg.specificity)
    results: dict = {m: [] for m in _ANALYTIC_METRICS}
    for p_r in cfg.prevalence:
        domain = DomainSpec(cfg.n_items, p_r)
        for f_r in cfg.fix_rate:
            fixer = FixerSpec(f_r, cfg.break_rate)
            rec = cfg.recall
            fn_final, fn_ratio = pipeline_false_negatives(domain, fixer, rec)
            try:
                far = pipeline_far(profile, domain, fixer)
            except DegenerateDomainError:
                far = None
            cell = {
                "real_fix_rate": pipeline_fix_rate(fixer, rec) if p_r > 0 else None,
                "final_prevalence": pipeline_prevalence(domain, fixer, rec),
                "tpr": pipeline_tpr(rec, fixer),
                "far": far,
                "fn_ratio": fn_ratio,
                "fn_final": fn_final,
                "tp_final": pipeline_true_positives(domain, fixer, rec),
                "fp_final": pipeline_false_positives(profile, domain, fixer),
                "fixer_load": fixer_load(profile, domain),
            }
            for metric in _ANALYTIC_METRICS:
                results[metric].append(
                    {"prevalence": p_r, "fix_rate": f_r, "value": cell[metric]}
                )
    return _envelope("analytic", cfg, results)


def cmd_simulate(cfg: RunConfig) -> ReportEnvelope:
    """Monte Carlo experiment per grid cell.

    Every cell runs under the same master seed, so recall streams are paired
    across cells and the whole report is reproducible from the config alone.
    """
    pbox = _resolve_pbox(cfg)
    profile = ClassifierProfile(1.0, cfg.precision, cfg.specificity)
    modes = ("extremes", "means") if cfg.mode == "both" else (cfg.mode,)
    results: dict = {m: [] for m in METRICS}
    results["pbox"] = {"minimum": pbox.minimum, "maximum": pbox.maximum, "mean": pbox.mean}
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
    return _envelope("simulate", cfg, results)


def cmd_evidence(cfg: RunConfig) -> ReportEnvelope:
    """Summarize an evidence CSV: per-metric statistics, outlier partition,
    and the derived p-box parameters."""
    samples = load_samples(cfg.evidence)
    groups = group_by_metric(samples)
    results: dict = {
        "outlier_policy": cfg.outlier_policy,
        "outlier_k": cfg.outlier_k,
    }
    for metric, metric_samples in groups.items():
        if not metric_samples:
            results[metric] = None
            continue
        kept, removed = remove_outliers(metric_samples, cfg.outlier_policy, cfg.outlier_k)
        stats = summarize(kept)
        pbox = to_pbox(stats)
        results[metric] = {
            "count": stats.count,
            "publications": stats.publications,
            "min": stats.minimum,
            "max": stats.maximum,
            "mean": stats.mean,
            "pbox": {"minimum": pbox.minimum, "maximum": pbox.maximum, "mean": pbox.mean},
            "removed": [
                {"source_id": s.source_id, "metric": s.metric, "value": s.value}
                for s in removed
            ],
        }
    return _envelope("evidence", cfg, results)


def cmd_case_study(cfg: RunConfig, which: str) -> ReportEnvelope:
    """Either the rule-based tool CI table or the composed-pipeline example."""
    if which == "rule-based":
        tools = load_tool_records(cfg.tools) if cfg.tools else DEFAULT_TOOL_RECORDS
        rows = rule_based_case_study(tools, cfg.confidence, cfg.method)
        results = {
            "confidence": cfg.confidence,
            "method": cfg.method,
            "tools": [
                {
                    "name": t.name,
                    "correct": t.correct,
                    "generated": t.generated,
                    "point": row.point,
                    "lo": row.ci.lo,
                    "hi": row.ci.hi,
                }
                for t, row in zip(tools, rows)
            ],
        }
        return _envelope("case-study", cfg, results)
    if which == "composed":
        report = composed_pipeline_case(
            cfg.case_n_items, cfg.case_recall, cfg.case_accuracy, _resolve_pbox(cfg)
        )
        results = {
            "chain": {
                "n_items": report.n_items,
                "detected": report.detected,
                "fixed": report.fixed,
                "residual": report.residual,
            },
            "detector_recall": report.detector_recall,
            "repair_accuracy": report.repair_accuracy,
            "fix_rate": {
                "extremes": {"lo": report.fix_rate_extremes.lo, "hi": report.fix_rate_extremes.hi},
                "means": {"lo": report.fix_rate_means.lo, "hi": report.fix_rate_means.hi},
            },
            "notes": list(report.notes),
        }
        return _envelope("case-study", cfg, results)
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
        "pbox": {"minimum": pbox.minimum, "maximum": pbox.maximum, "mean": pbox.mean},
        "count": len(streams),
        "summary": summary,
        "p_values": [float(v) for v in streams.p_values],
        "optimistic": [float(v) for v in streams.optimistic],
        "pessimistic": [float(v) for v in streams.pessimistic],
    }
    return _envelope("pbox-sample", cfg, results)


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


def _render_analytic_table(env: ReportEnvelope) -> str:
    cfg = env.config
    head = (
        f"analytic pipeline metrics (recall={cfg['recall']}, precision={cfg['precision']}, "
        f"specificity={cfg['specificity']}, n_items={cfg['n_items']})"
    )
    table_metrics = ("real_fix_rate", "final_prevalence", "tpr", "far", "fn_ratio")
    rows = [["prevalence", "fix_rate", *table_metrics]]
    cells = env.results["real_fix_rate"]
    for i, cell in enumerate(cells):
        rows.append(
            [
                f"{cell['prevalence']:.2f}",
                f"{cell['fix_rate']:.2f}",
                *[_fmt(env.results[m][i]["value"]) for m in table_metrics],
            ]
        )
    return head + "\n\n" + _format_columns(rows) + "\n"


def _render_simulate_table(env: ReportEnvelope) -> str:
    results = env.results
    pbox = results["pbox"]
    blocks = [
        f"simulation intervals (trials={env.config['trials']}, n_items={env.config['n_items']}, "
        f"seed={env.config['seed']}, pbox=({pbox['minimum']:.4g}, {pbox['maximum']:.4g}, {pbox['mean']:.4g}))"
    ]
    for metric in METRICS:
        entries = results[metric]
        for mode in ("extremes", "means"):
            mode_entries = [e for e in entries if e["mode"] == mode]
            if not mode_entries:
                continue
            prevalences = sorted({e["prevalence"] for e in mode_entries})
            fix_rates = sorted({e["fix_rate"] for e in mode_entries})
            label = "per-trial extremes" if mode == "extremes" else "stream means"
            rows = [["prevalence \\ fix_rate", *[f"{f:.2f}" for f in fix_rates]]]
            for p in prevalences:
                row = [f"{p:.2f}"]
                for f in fix_rates:
                    e = next(
                        x for x in mode_entries if x["prevalence"] == p and x["fix_rate"] == f
                    )
                    row.append(_fmt_interval(e["lo"], e["hi"]))
                rows.append(row)
            blocks.append(f"-- {metric} ({label}) --\n" + _format_columns(rows))
            undefined = sum(e.get("undefined", 0) for e in mode_entries if mode == "extremes")
            if undefined:
                blocks.append(f"   ({undefined} trial(s) with undefined {metric} excluded)")
    return "\n\n".join(blocks) + "\n"


def _render_evidence_table(env: ReportEnvelope) -> str:
    results = env.results
    lines = [
        f"evidence summary (outlier policy={results['outlier_policy']}, k={results['outlier_k']})"
    ]
    rows = [["metric", "samples", "publications", "min", "max", "mean", "removed"]]
    removed_lines = []
    for metric in ("recall", "precision"):
        entry = results.get(metric)
        if entry is None:
            rows.append([metric, "-", "-", "-", "-", "-", "-"])
            continue
        rows.append(
            [
                metric,
                str(entry["count"]),
                str(entry["publications"]),
                _fmt(entry["min"]),
                _fmt(entry["max"]),
                _fmt(entry["mean"]),
                str(len(entry["removed"])),
            ]
        )
        for s in entry["removed"]:
            removed_lines.append(f"  removed: {s['source_id']},{s['metric']},{s['value']}")
    lines.append(_format_columns(rows))
    recall_entry = results.get("recall")
    if recall_entry:
        pb = recall_entry["pbox"]
        lines.append(
            f"recall p-box: (min={pb['minimum']:.4g}, max={pb['maximum']:.4g}, mean={pb['mean']:.4g})"
        )
    lines.extend(removed_lines)
    return "\n\n".join(lines[:2]) + ("\n" + "\n".join(lines[2:]) if lines[2:] else "") + "\n"


def _render_case_table(env: ReportEnvelope) -> str:
    results = env.results
    if "tools" in results:
        lines = [
            f"repair-tool confidence intervals "
            f"(method={results['method']}, confidence={results['confidence']:.0%})"
        ]
        rows = [["tool", "correct/generated", "point", "lower", "upper"]]
        for t in results["tools"]:
            rows.append(
                [
                    t["name"],
                    f"{t['correct']}/{t['generated']}",
                    f"{t['point']:.2%}",
                    f"{t['lo']:.2%}",
                    f"{t['hi']:.2%}",
                ]
            )
        return lines[0] + "\n\n" + _format_columns(rows) + "\n"
    chain = results["chain"]
    fr = results["fix_rate"]
    lines = [
        "composed pipeline case",
        "",
        f"items      {chain['n_items']}",
        f"detected   {chain['detected']}  (detector recall {results['detector_recall']})",
        f"fixed      {chain['fixed']}  (repair accuracy {results['repair_accuracy']})",
        f"residual   {chain['residual']}",
        f"fix-rate interval (per-trial extremes): "
        + _fmt_interval(fr["extremes"]["lo"], fr["extremes"]["hi"]),
        f"fix-rate interval (stream means):       "
        + _fmt_interval(fr["means"]["lo"], fr["means"]["hi"]),
    ]
    for note in results["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _render_pbox_table(env: ReportEnvelope) -> str:
    results = env.results
    pb = results["pbox"]
    lines = [
        f"p-box samples (n={results['count']}, seed={env.config['seed']}, "
        f"pbox=({pb['minimum']:.4g}, {pb['maximum']:.4g}, {pb['mean']:.4g}))"
    ]
    rows = [["stream", "min", "max", "mean"]]
    for name in ("optimistic", "pessimistic"):
        s = results["summary"][name]
        rows.append([name, _fmt(s["min"]), _fmt(s["max"]), _fmt(s["mean"])])
    return lines[0] + "\n\n" + _format_columns(rows) + "\n"


def _render_csv(env: ReportEnvelope) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    results = env.results
    if env.command == "analytic":
        writer.writerow(["prevalence", "fix_rate", *_ANALYTIC_METRICS])
        for i, cell in enumerate(results["real_fix_rate"]):
            row = [cell["prevalence"], cell["fix_rate"]]
            for metric in _ANALYTIC_METRICS:
                v = results[metric][i]["value"]
                row.append("" if v is None else repr(v))
            writer.writerow(row)
    elif env.command == "simulate":
        writer.writerow(["metric", "mode", "prevalence", "fix_rate", "lo", "hi", "undefined"])
        for metric in METRICS:
            for e in results[metric]:
                writer.writerow(
                    [
                        metric,
                        e["mode"],
                        e["prevalence"],
                        e["fix_rate"],
                        "" if e["lo"] is None else repr(e["lo"]),
                        "" if e["hi"] is None else repr(e["hi"]),
                        e.get("undefined", ""),
                    ]
                )
    elif env.command == "evidence":
        writer.writerow(["metric", "count", "publications", "min", "max", "mean", "removed"])
        for metric in ("recall", "precision"):
            entry = results.get(metric)
            if entry is None:
                continue
            writer.writerow(
                [
                    metric,
                    entry["count"],
                    entry["publications"],
                    repr(entry["min"]),
                    repr(entry["max"]),
                    repr(entry["mean"]),
                    len(entry["removed"]),
                ]
            )
    elif env.command == "case-study":
        if "tools" in results:
            writer.writerow(["name", "correct", "generated", "point", "lo", "hi"])
            for t in results["tools"]:
                writer.writerow(
                    [t["name"], t["correct"], t["generated"], repr(t["point"]), repr(t["lo"]), repr(t["hi"])]
                )
        else:
            chain, fr = results["chain"], results["fix_rate"]
            writer.writerow(
                ["n_items", "detected", "fixed", "residual", "extremes_lo", "extremes_hi", "means_lo", "means_hi"]
            )
            writer.writerow(
                [
                    chain["n_items"],
                    chain["detected"],
                    chain["fixed"],
                    chain["residual"],
                    repr(fr["extremes"]["lo"]),
                    repr(fr["extremes"]["hi"]),
                    repr(fr["means"]["lo"]),
                    repr(fr["means"]["hi"]),
                ]
            )
    elif env.command == "pbox-sample":
        writer.writerow(["index", "p", "optimistic", "pessimistic"])
        for i, (p, o, q) in enumerate(
            zip(results["p_values"], results["optimistic"], results["pessimistic"])
        ):
            writer.writerow([i, repr(p), repr(o), repr(q)])
    return buf.getvalue()


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
        return _render_csv(env)
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
    sp.add_argument("--break-rate", type=float, dest="break_rate")


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
    p.add_argument("--pbox-min", type=float, dest="pbox_min", metavar="X")
    p.add_argument("--pbox-max", type=float, dest="pbox_max", metavar="X")
    p.add_argument("--pbox-mean", type=float, dest="pbox_mean", metavar="X")
    p.add_argument("--evidence", metavar="PATH")
    p.add_argument("--outlier-policy", choices=OUTLIER_POLICIES, dest="outlier_policy")
    p.add_argument("--outlier-k", type=float, dest="outlier_k", metavar="K")

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
