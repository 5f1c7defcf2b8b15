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
byte-stable: rerunning the embedded config reproduces it exactly. It is strict
JSON (RFC 8259): no ``NaN`` or ``Infinity`` token, undefined values are null.

A report is written to its destination as it is encoded, so ``pbox-sample``
needs about 24 bytes per sample plus a constant. ``--out PATH`` replaces a
regular file, or creates a new one, atomically: the report goes to a fresh
temporary file beside ``PATH`` that is renamed over it at the end, so a failed
run leaves neither a partial report nor a changed ``PATH``. Where a rename
would change what ``PATH`` is (a device such as ``/dev/null``, a FIFO, a
symlink, a file with other hard links or of another owner) ``PATH`` is
written in place, where a failed run can leave a partial report.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import os
import stat
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from . import __version__
from .config import CHOICES, COMMON, FLAGS, HELP, PARSERS, RunConfig, build_config
from .errors import PipeUQError

if TYPE_CHECKING:
    from .pbox import PBoxParams

# Each command imports the library modules it runs, so a command loads only
# those: `analytic` never loads the simulator, the evidence reader or the
# case studies.

__all__ = [
    "ReportEnvelope",
    "cmd_analytic",
    "cmd_simulate",
    "cmd_evidence",
    "cmd_case_study",
    "cmd_pbox_sample",
    "write_report",
    "main",
]


@dataclass
class ReportEnvelope:
    """A command's full result: config echo, payload and table renderer.

    ``results`` is the JSON payload; numpy arrays in it are written as lists.
    ``columns`` and ``rows`` give the payload as one tidy table, which the csv
    output writes as it stands and ``table(envelope)`` formats. ``rows`` is a
    zero-argument callable that yields the rows afresh on every call, so a
    large payload is never copied.
    """

    config: dict
    results: dict
    columns: tuple[str, ...]
    rows: Callable[[], Iterable[Iterable]]
    table: Callable[["ReportEnvelope"], str]


def _envelope(command: str, cfg: RunConfig, results: dict, columns, rows, table) -> ReportEnvelope:
    # the output destination is not part of the experiment: identical configs
    # must yield identical reports wherever they are written
    config = {"command": command, **asdict(cfg)}
    del config["out"]
    return ReportEnvelope(config, results, columns, rows, table)


def _resolve_pbox(cfg: RunConfig) -> PBoxParams:
    """The recall p-box: derived from an evidence CSV when given, else the
    configured (min, max, mean) triple."""
    from .pbox import PBoxParams

    if cfg.evidence:
        from .evidence import group_by_metric, load_samples, remove_outliers, summarize, to_pbox

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
    from .core import ClassifierProfile, DomainSpec, FixerSpec, pipeline_outcome

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
    columns = ("prevalence", "fix_rate", *_ANALYTIC_METRICS)
    return _envelope("analytic", cfg, results, columns, lambda: table, _render_analytic_table)


def cmd_simulate(cfg: RunConfig) -> ReportEnvelope:
    """Monte Carlo experiment per grid cell.

    Every cell runs under the same master seed, so recall streams are paired
    across cells and the whole report is reproducible from the config alone.
    """
    from .core import ClassifierProfile, DomainSpec, FixerSpec
    from .simulator import METRICS, run_experiment

    pbox = _resolve_pbox(cfg)
    profile = ClassifierProfile(1.0, cfg.precision, cfg.specificity)
    modes = ("extremes", "means") if cfg.mode == "both" else (cfg.mode,)
    results: dict = {m: [] for m in METRICS}
    results["pbox"] = asdict(pbox)
    for p_r, f_r in itertools.product(cfg.prevalence, cfg.fix_rate):
        domain, fixer = DomainSpec(cfg.n_items, p_r), FixerSpec(f_r, cfg.break_rate)
        report = run_experiment(domain, profile, fixer, pbox, cfg.trials, cfg.seed)
        trials = {metric: [] for metric in METRICS}  # shared by both modes
        for *_, values in report.chunks() if cfg.trace else ():
            for metric in METRICS:  # NaN marks an undefined trial
                trials[metric] += [None if v != v else v for v in values[metric].tolist()]
        for metric, mode in itertools.product(METRICS, modes):
            interval = report.intervals[metric][mode]
            entry = {"prevalence": p_r, "fix_rate": f_r, "mode": mode, "lo": None, "hi": None}
            entry.update(asdict(interval) if interval else {})
            if metric in report.undefined:
                entry["undefined"] = report.undefined[metric]
            if cfg.trace:
                entry["trials"] = trials[metric]
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
        _render_simulate_table,
    )


def cmd_evidence(cfg: RunConfig) -> ReportEnvelope:
    """Summarize an evidence CSV: per-metric statistics, outlier partition,
    and the derived p-box parameters."""
    from .evidence import group_by_metric, load_samples, remove_outliers, summarize, to_pbox

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
    return _envelope("evidence", cfg, results, columns, lambda: table, _render_evidence_table)


def cmd_case_study(cfg: RunConfig, which: str) -> ReportEnvelope:
    """Either the rule-based tool CI table or the composed-pipeline example."""
    if which == "rule-based":
        from .casestudies import DEFAULT_TOOL_RECORDS, load_tool_records, rule_based_case_study

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
        return _envelope("case-study", cfg, results, columns, lambda: table, _render_tools_table)
    if which == "composed":
        from .casestudies import composed_pipeline_case

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
        return _envelope("case-study", cfg, results, columns, lambda: table, _render_composed_table)
    raise PipeUQError(f"unknown case study {which!r}")  # pragma: no cover - argparse guards


def cmd_pbox_sample(cfg: RunConfig) -> ReportEnvelope:
    """Draw paired recall streams from the configured p-box."""
    from .pbox import sample_recall_streams

    pbox = _resolve_pbox(cfg)
    streams = sample_recall_streams(pbox, cfg.trials, cfg.seed)
    arrays = {
        "p_values": streams.p_values,
        "optimistic": streams.optimistic,
        "pessimistic": streams.pessimistic,
    }
    summary = {
        name: {stat: float(getattr(arrays[name], stat)()) for stat in ("min", "max", "mean")}
        for name in ("optimistic", "pessimistic")
    }
    results = {"pbox": asdict(pbox), "count": len(streams), "summary": summary, **arrays}
    return _envelope(
        "pbox-sample",
        cfg,
        results,
        ("index", "p", "optimistic", "pessimistic"),
        # a memoryview yields each float64 as a Python float, whose repr the
        # csv output writes, without copying the array; zip's tuples are the rows
        lambda: zip(itertools.count(), *map(memoryview, arrays.values())),
        _render_pbox_table,
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
    from .simulator import METRICS

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


def _render_tools_table(env: ReportEnvelope) -> str:
    results = env.results
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


def _render_composed_table(env: ReportEnvelope) -> str:
    results = env.results
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


# rows per csv flush and elements per JSON array slice
_BATCH = 4096
_CONTAINERS = (dict, list, tuple, np.ndarray)


@functools.cache
def _encoder(pad: str) -> json.JSONEncoder:
    # the stdlib's C encoder; the item separator "," + pad makes one flat
    # container at indentation ``pad`` read exactly as ``indent=2`` writes it
    return json.JSONEncoder(separators=("," + pad, ": "), sort_keys=True, allow_nan=False)


def _json_chunks(value, indent: str = "\n"):
    """``json.dumps(value, indent=2, sort_keys=True)`` in pieces.

    Keys are str, and a numpy array is 1-D and written as a list. ``indent``
    is the newline plus indentation of ``value``'s own level. A dict or list
    holding containers is walked here; a flat one goes to the C encoder, a
    long list or array ``_BATCH`` elements at a time.
    """
    pad = indent + "  "
    encode = _encoder(pad).encode
    if isinstance(value, dict) and any(isinstance(v, _CONTAINERS) for v in value.values()):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + pad + encode(key) + ": "
            yield from _json_chunks(value[key], pad)
        yield indent + "}"
    elif isinstance(value, (list, tuple)) and any(isinstance(v, _CONTAINERS) for v in value):
        for i, item in enumerate(value):
            yield ("," if i else "[") + pad
            yield from _json_chunks(item, pad)
        yield indent + "]"
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i in range(0, len(value), _BATCH):
            part = value[i:i + _BATCH]
            text = encode(part.tolist() if isinstance(part, np.ndarray) else part)
            yield ("," if i else "[") + pad + text[1:-1]
        yield indent + "]" if len(value) else "[]"
    elif isinstance(value, dict) and value:
        yield "{" + pad + encode(value)[1:-1] + indent + "}"
    else:  # a scalar or an empty dict
        yield encode(value)


def write_report(env: ReportEnvelope, output: str, fh) -> None:
    """Write the report to the text stream ``fh`` as ``table``, ``csv`` or ``json``.

    Every format is written as it is produced, so memory does not grow with
    the report's size. The table comes from the command's renderer; csv rows go
    through a small buffer flushed every ``_BATCH`` rows; the JSON document
    holds ``version``, ``config`` and ``results``, with the bytes of
    ``indent=2, sort_keys=True``, and a NaN or infinity in it raises
    ``ValueError`` (no ``NaN``/``Infinity`` tokens, RFC 8259).
    """
    if output == "table":
        fh.write(env.table(env))
    elif output == "csv":
        # csv writes None as an empty field and a float as its repr. A write
        # per row to the text stream cost 24% more CPU at 10**6 rows, and a
        # fresh buffer per batch stays in StringIO's fast append mode
        rows = itertools.chain([env.columns], env.rows())
        while True:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(itertools.islice(rows, _BATCH))
            if not buf.tell():
                break
            fh.write(buf.getvalue())
    else:
        doc = {"version": __version__, "config": env.config, "results": env.results}
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


@contextlib.contextmanager
def _open_out(path: str):
    """Open ``--out PATH`` for the report, replacing PATH atomically where a rename keeps what it is.

    If PATH does not exist, or is a regular file (not a symlink) with one link,
    owned by us and by a group we are in, the report goes to a fresh temporary file beside it that
    takes PATH's permission bits and group (a new file's: ``0o666`` less the
    umask) and is renamed over PATH at the end; on any exception the temporary
    file is removed and PATH is left as it was. Anything else, such as a
    device, a FIFO, a symlink or a hard-linked file, and a file whose
    directory we cannot write, is opened and written in place.
    """
    directory = os.path.dirname(path) or "."
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    fd = None
    if old is None or (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid()
        and (old.st_gid == os.getegid() or old.st_gid in os.getgroups())
    ):
        try:
            fd, tmp = tempfile.mkstemp(".tmp", os.path.basename(path) + ".", directory)
        except PermissionError:
            if old is None:
                raise
    if fd is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if old is None:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)
            else:
                os.fchown(fd, -1, old.st_gid)
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# argument parsing

# help metavar by a field's type, read from its default (None: a path)
_METAVARS = {int: "INT", float: "X", list: "LIST", type(None): "PATH"}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command in ``FLAGS``, one ``--flag`` per field it takes."""
    parser = argparse.ArgumentParser(
        prog="pipeuq",
        description="Uncertainty propagation for detect-fix-redetect security pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for command, (help_text, names) in FLAGS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", help=HELP["config"])
        if command == "evidence":
            p.add_argument("evidence", nargs="?", metavar="CSV", help="evidence file to ingest")
        if command == "case-study":
            p.add_argument("which", choices=("rule-based", "composed"))
        for name in (*COMMON, *names):
            flag = "--" + name.replace("_", "-")
            help_ = HELP.get((command, name), HELP.get(name))
            kind = type(getattr(defaults, name))
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=help_)
                continue
            p.add_argument(
                flag,
                type=PARSERS[kind][0] if kind in PARSERS else None,
                choices=CHOICES.get(name),
                metavar=_METAVARS.get(kind),
                help=help_,
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize --version/help to 0
        return int(exc.code or 0)
    try:
        cfg = build_config(args, args.command)
        # looked up on every run, so a wrapper set on the module takes effect
        run = globals()["cmd_" + args.command.replace("-", "_")]
        env = run(cfg, args.which) if args.command == "case-study" else run(cfg)
        if not cfg.out:
            write_report(env, cfg.output, sys.stdout)
            return 0
        with _open_out(cfg.out) as fh:
            write_report(env, cfg.output, fh)
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
