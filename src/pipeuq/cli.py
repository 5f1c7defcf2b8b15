"""Command-line front end.

Subcommands:

* ``analytic``    closed-form pipeline metrics over the prevalence x fix-rate grid
* ``simulate``    Monte Carlo experiment per grid cell, interval tables per metric
* ``evidence``    summarize a recall/precision evidence CSV into p-box parameters
* ``case-study``  confidence-interval table for repair tools (``rule-based``), or
                  the composed detect+fix worked example (``composed``)
* ``pbox-sample`` draw paired recall streams from a p-box

A plain command line, a command with its own flags by their full names and at
most its one positional (``evidence``'s CSV, ``case-study``'s study), is read
without argparse (``_scan``); argparse reads any other, and prints help, the
version and usage errors. Either only finds each option, and ``build_config``
reads its text as a config value.

Reports serialize as ``table`` (human), ``csv``, or ``json``. The JSON
document has top-level keys ``version``, ``config``, ``results`` and is
byte-stable: rerunning the embedded config reproduces it exactly. It is strict
JSON (RFC 8259): no ``NaN`` or ``Infinity`` token, undefined values are null.

A report is written to its destination as it is encoded, and ``pbox-sample``
re-draws its streams as it writes them, so memory does not grow with
``--trials`` (a 38 MB peak for 10^6 samples, written in 0.75 s as JSON and
1.25 s as csv, and for 4*10^6 in csv, on a 2-core Xeon).
``--out PATH`` replaces a regular file, or creates a new one, atomically: the
report goes to a new file ``.pipeuq-<16 hex>.tmp`` beside ``PATH``, which has
``PATH``'s permissions (a new ``PATH``'s: those ``open`` gives under the umask)
and is renamed over it at the end, so a failed run leaves neither a partial
report nor a changed ``PATH``, and a ``PATH`` of any valid name can be written.
Where a rename would change what ``PATH`` is (a device such as ``/dev/null``,
a FIFO, a symlink, a file with other hard links or of another owner) ``PATH``
is written in place, where a failed run can leave a partial report.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error,
4 internal invariant violation. A failed write to stdout (a full disk, a
closed pipe) exits 3 with one ``i/o error:`` line. The error line is best
effort: a stderr that cannot take it (a closed pipe) drops it, and the exit
code stands.

``main(argv)`` is the in-process API: it leaves ``os.environ``, the cyclic
garbage collector and the umask as it found them. ``run()`` is the process
entry, used by ``python -m pipeuq.cli`` and the ``pipeuq`` console script. It
calls ``entry()``, which sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
environment already sets it, before numpy is loaded (no command calls a BLAS
routine, and numpy's OpenBLAS would otherwise start a worker thread per CPU;
set the variable yourself to override this), turns the cyclic collector off,
runs ``main`` and gives stdout its last flush. ``run`` then flushes stderr and
ends the process with ``os._exit``: no interpreter teardown, so no ``atexit``
handler runs. A tool that saves its state at exit, such as coverage's
subprocess mode, should call ``entry()`` instead.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import gc
import io
import itertools
import json
import operator
import os
import stat
import sys
import types
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from . import __version__
from .config import CHOICES, DEFAULTS, FLAGS, HELP, OPTIONS, RunConfig, build_config
from .errors import EmptyEvidenceError, PipeUQError

if TYPE_CHECKING:
    import argparse

    from .pbox import PBoxParams

# Each command imports the library modules it runs, so a command loads only
# those: `analytic` never loads the simulator, the evidence reader or the case
# studies. Only `simulate` and `pbox-sample` compute with numpy; `analytic`
# evaluates the closed forms on Python floats. Only a table report loads the
# renderers (`pipeuq.tables`), and only the csv writer's fallback loads `csv`.

__all__ = [
    "ReportEnvelope",
    "cmd_analytic",
    "cmd_simulate",
    "cmd_evidence",
    "cmd_case_study",
    "cmd_pbox_sample",
    "write_report",
    "main",
    "entry",
    "run",
]


class ReportEnvelope(NamedTuple):
    """A command's full result: config echo, payload and table renderer.

    ``results`` is the JSON payload, its arrays and callables written as lists.
    ``columns`` and ``blocks`` give the payload as one tidy table, which the csv
    output writes as it stands. ``blocks`` is a zero-argument callable that yields
    it afresh on every call, so a large payload is never copied, as blocks of rows:
    one equal-length column per name in ``columns``, a list, tuple, range or 1-D
    array. ``table`` is a zero-argument callable too: it renders the values the
    command computed, not the payload, as pieces of text written in turn.
    """

    config: dict
    results: dict
    columns: tuple[str, ...]
    blocks: Callable[[], Iterable[Sequence]]
    table: Callable[[], Iterable[str]]


def _envelope(command: str, cfg: RunConfig, results: dict, columns, blocks, table) -> ReportEnvelope:
    # the command's options; not the output destination: identical configs must
    # yield identical reports wherever they are written
    options = {name: getattr(cfg, name) for name in OPTIONS[command] if name != "out"}
    return ReportEnvelope({"command": command, **options}, results, columns, blocks, table)


def _held(table: list) -> Callable[[], list]:  # a table held as rows: one block of its columns
    return lambda: [tuple(zip(*table))] if table else []


def _table(renderer: str, *args) -> Callable[[], Iterable[str]]:
    """``env.table``: ``pipeuq.tables``' ``renderer`` on ``args``, so only a table report loads that module."""
    def table():
        from . import tables

        return getattr(tables, renderer)(*args)

    return table


def _resolve_pbox(cfg: RunConfig) -> PBoxParams:
    """The recall p-box: derived from an evidence CSV when given, else the
    configured (min, max, mean) triple."""
    from .pbox import PBoxParams

    if cfg.evidence:
        from .evidence import group_by_metric, load_samples, to_pbox

        samples = group_by_metric(load_samples(cfg.evidence))["recall"]
        if not samples:
            raise EmptyEvidenceError(f"evidence file {cfg.evidence} has no recall samples")
        return to_pbox(_summarize(cfg, "recall", samples)[0])
    return PBoxParams(cfg.pbox_min, cfg.pbox_max, cfg.pbox_mean)


def _summarize(cfg: RunConfig, metric: str, samples):
    """``(SummaryStats, removed samples)`` of one metric's evidence samples
    under the configured outlier rule."""
    from .evidence import remove_outliers, summarize

    kept, removed = remove_outliers(samples, cfg.outlier_policy, cfg.outlier_k)
    if not kept:
        raise EmptyEvidenceError(
            f"evidence file {cfg.evidence}: outlier policy {cfg.outlier_policy} with "
            f"k={cfg.outlier_k} removes every {metric} sample"
        )
    return summarize(kept), removed


# ---------------------------------------------------------------------------
# commands

def cmd_analytic(cfg: RunConfig) -> ReportEnvelope:
    """Closed-form metrics for every (prevalence, fix_rate) grid cell at the
    configured point recall, cell by cell on Python floats, so numpy is not
    loaded. The cells are computed as they are written, a grid row at a time,
    so memory does not grow with the grid: the csv rows in one pass over it,
    the table in two (its column widths, then its lines) and each JSON metric
    in a pass of its own formula.

    The realized fix rate is reported as undefined (null / "n/a") when
    prevalence is 0, and the false-alert rate when the domain degenerates to
    no negatives. The closed forms take false positives from precision, so
    specificity is not read.
    """
    from .core import _FORMULAS, ClassifierProfile, DomainSpec, FixerSpec, PipelineOutcome, _grid

    profile = ClassifierProfile(cfg.recall, cfg.precision)
    # float(): a grid given as ints in code is written as floats, as on the command line
    domains = [DomainSpec(cfg.n_items, float(p)) for p in cfg.prevalence]
    fixers = [FixerSpec(float(f)) for f in cfg.fix_rate]
    fix_rates = [fixer.fix_rate for fixer in fixers]

    def rows(formulas):
        # per grid row, the columns of its cells: the prevalence, the fix rate and each of the formulas'
        # values, far None where undefined
        for domain, values in zip(domains, _grid(profile.recall, profile.precision, domains, fixers, formulas)):
            if not domain.prevalence and formulas[0] is _FORMULAS.real_fix_rate:
                values[0] = [None] * len(fixers)  # nothing to fix at P = 0
            yield [[domain.prevalence] * len(fixers), fix_rates, *values]

    def metric(formula):  # one PipelineOutcome field, as the columns of a dict per cell, a grid row a part
        return lambda: (dict(zip(("prevalence", "fix_rate", "value"), row)) for row in rows((formula,)))

    # the report's metrics are PipelineOutcome's fields, by name and in order, each computed as json writes it
    results = dict(zip(PipelineOutcome._fields, map(metric, _FORMULAS)))
    columns = ("prevalence", "fix_rate", *PipelineOutcome._fields)
    # the table prints the first five metrics, real_fix_rate ... fn_ratio, so its rows compute those alone
    table = _table("_render_analytic_table", cfg, columns[:7], lambda: rows(_FORMULAS[:5]))
    return _envelope("analytic", cfg, results, columns, lambda: rows(_FORMULAS), table)


def cmd_simulate(cfg: RunConfig) -> ReportEnvelope:
    """Monte Carlo experiment over the grid: one ``run_grid`` call, a report per cell.

    Every cell runs under the same master seed, so recall streams are paired
    across cells, each cell draws the numbers of its solo run, and the whole
    report is reproducible from the config alone.
    """
    from .core import ClassifierProfile, DomainSpec, FixerSpec
    from .simulator import METRICS, _metrics, run_grid

    pbox = _resolve_pbox(cfg)
    profile = ClassifierProfile(1.0, specificity=cfg.specificity)
    domains = [DomainSpec(cfg.n_items, p_r) for p_r in cfg.prevalence]
    fixers = [FixerSpec(f_r, cfg.break_rate) for f_r in cfg.fix_rate]
    modes = ("extremes", "means") if cfg.mode == "both" else (cfg.mode,)
    results: dict = {m: [] for m in METRICS}
    results["pbox"] = pbox._asdict()
    reports = run_grid(domains, profile, fixers, pbox, cfg.trials, cfg.seed)
    for report in reports:
        for metric, mode in itertools.product(METRICS, modes):
            interval = report.intervals[metric][mode]
            entry = {"prevalence": report.domain.prevalence, "fix_rate": report.fixer.fix_rate, "mode": mode}
            entry.update(interval._asdict() if interval else {"lo": None, "hi": None})
            if metric in report.undefined:
                entry["undefined"] = report.undefined[metric]
            if cfg.trace and mode == modes[0]:  # once per cell, re-drawn as written; None: an undefined trial
                entry["trials"] = lambda report=report, metric=metric: (
                    _metrics(report.domain, counts, (metric,))[metric].tolist() for *_, counts in report.chunks()
                )
            results[metric].append(entry)
    columns = ("metric", "mode", "prevalence", "fix_rate", "lo", "hi", "undefined")
    table = [[metric, e["mode"], e["prevalence"], e["fix_rate"], e["lo"], e["hi"], e.get("undefined")]
             for metric in METRICS for e in results[metric]]
    render = _table("_render_simulate_table", cfg, pbox, reports, modes)
    return _envelope("simulate", cfg, results, columns, _held(table), render)


def cmd_evidence(cfg: RunConfig) -> ReportEnvelope:
    """Summarize an evidence CSV: per-metric statistics, outlier partition,
    and the derived p-box parameters."""
    from .evidence import group_by_metric, load_samples, to_pbox

    samples = load_samples(cfg.evidence)
    groups = group_by_metric(samples)
    results: dict = {
        "outlier_policy": cfg.outlier_policy,
        "outlier_k": cfg.outlier_k,
    }
    columns = ("metric", "count", "publications", "min", "max", "mean", "removed")
    table, summarized = [], {}
    for metric, metric_samples in groups.items():
        if not metric_samples:
            results[metric] = None
            continue
        stats, removed = _summarize(cfg, metric, metric_samples)
        pbox = to_pbox(stats)
        summarized[metric] = stats, pbox, removed
        table.append([metric, *stats, len(removed)])
        results[metric] = {
            **dict(zip(columns[1:6], stats)),
            "pbox": pbox._asdict(),
            "removed": [s._asdict() for s in removed],
        }
    render = _table("_render_evidence_table", cfg, summarized)
    return _envelope("evidence", cfg, results, columns, _held(table), render)


def cmd_case_study(cfg: RunConfig) -> ReportEnvelope:
    """The study ``cfg.which`` names: the rule-based tool CI table or the composed-pipeline example."""
    if cfg.which == "rule-based":
        from .casestudies import DEFAULT_TOOL_RECORDS, load_tool_records, rule_based_case_study

        tools = load_tool_records(cfg.tools) if cfg.tools else DEFAULT_TOOL_RECORDS
        rows = rule_based_case_study(tools, cfg.confidence, cfg.method)
        columns = ("name", "correct", "generated", "point", "lo", "hi")
        table = [[*t, *ci[:3]] for t, ci in zip(tools, rows)]
        results = {
            "confidence": cfg.confidence,
            "method": cfg.method,
            "tools": [dict(zip(columns, line)) for line in table],
        }
        render = _table("_render_tools_table", cfg, table)
        return _envelope("case-study", cfg, results, columns, _held(table), render)
    from .casestudies import composed_pipeline_case

    report = composed_pipeline_case(cfg.case_n_items, cfg.case_recall, cfg.case_accuracy, _resolve_pbox(cfg))
    extremes, means = report.fix_rate_extremes, report.fix_rate_means
    chain = ("n_items", "detected", "fixed", "residual")
    columns = (*chain, "extremes_lo", "extremes_hi", "means_lo", "means_hi")
    table = [[*(getattr(report, c) for c in chain), *extremes, *means]]
    results = {
        "chain": dict(zip(chain, table[0])),
        "detector_recall": report.detector_recall,
        "repair_accuracy": report.repair_accuracy,
        "fix_rate": {"extremes": extremes._asdict(), "means": means._asdict()},
        "notes": list(report.notes),
    }
    render = _table("_render_composed_table", report)
    return _envelope("case-study", cfg, results, columns, _held(table), render)


def cmd_pbox_sample(cfg: RunConfig) -> ReportEnvelope:
    """Draw paired recall streams from the configured p-box, re-drawn as they are written."""
    from .pbox import CHUNK, STREAMS, stream_chunks, stream_summary

    pbox = _resolve_pbox(cfg)
    summary = None if cfg.output == "csv" else stream_summary(pbox, cfg.trials, cfg.seed)  # csv writes none
    draw = functools.partial(stream_chunks, pbox, cfg.trials, cfg.seed)

    def column(*names):  # a JSON list: the last array of each chunk of a pass that names its stream, or none for p
        return lambda: (chunk[-1] for chunk in draw(*names))

    results = {"pbox": pbox._asdict(), "count": cfg.trials, "summary": summary, "p_values": column(),
               **{name: column(name) for name in STREAMS}}

    def blocks():  # chunk k's p values, drawn once, and both streams; a bad count raises before any row
        return ((range(k * CHUNK, k * CHUNK + len(p)), p, *recalls) for k, (p, *recalls) in enumerate(draw(*STREAMS)))

    render = _table("_render_pbox_table", cfg, pbox, summary)
    return _envelope("pbox-sample", cfg, results, ("index", "p", *STREAMS), blocks, render)


# elements per JSON array slice, and csv rows about per write
_BATCH = 4096


@functools.cache
def _encoder(pad: str) -> json.JSONEncoder:
    # the stdlib's C encoder; the item separator "," + pad makes one flat
    # container at indentation ``pad`` read exactly as ``indent=2`` writes it
    return json.JSONEncoder(separators=("," + pad, ": "), sort_keys=True, allow_nan=False)


def _numbers(column, pad: str) -> str:
    """A flat list, tuple, range or 1-D array as JSON without brackets, its values joined by "," + pad.

    Every report format writes its numbers here. A native, C-contiguous float64 array with no NaN
    or infinity goes to orjson, whose Ryu digits are ``repr``'s for a zero or a magnitude in [1e-4,
    1e16): 60 ns a float against 600 ns in the stdlib's C encoder (a 2-core Xeon); ``repr`` writes
    the rest (orjson writes ``1e-05`` as ``0.00001``). All else goes to the stdlib: orjson refuses a
    strided array, misreads a byte-swapped one and writes NaN as ``null``, where the stdlib raises
    ``ValueError``. So only a report that holds such an array imports orjson."""
    if isinstance(column, range):  # pbox-sample's index column, which holds no array
        column = list(column)
    if isinstance(column, (list, tuple)):
        return _encoder(pad).encode(column)[1:-1]
    if column.dtype == float and column.flags.c_contiguous:  # no byte-swapped dtype equals float
        size = abs(column)
        if (size <= sys.float_info.max).all():  # False at NaN and infinities, which the stdlib refuses
            import orjson
            text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
            outliers = ((size >= 1e16) | ((size < 1e-4) & (size != 0.0))).nonzero()[0]
            if not outliers.size:
                return text.replace(",", "," + pad)
            numbers = text.split(",")
            for i, x in zip(outliers.tolist(), column[outliers].tolist()):
                numbers[i] = repr(x)
            return ("," + pad).join(numbers)
    return _encoder(pad).encode(column.tolist())[1:-1]


def _records(columns: dict, pad: str) -> str:
    """Nonempty columns of equal length (lists or tuples), written as the list of one dict per
    index, without its brackets.

    ``_numbers`` writes each column, or its one value where every entry is the same object
    (a grid row's prevalence), one value a line, and one template places them all. A column
    that holds a container, an array or a callable is written dict by dict instead, as
    ``_json_chunks`` writes any dict.
    """
    encode, keys, fields, numbers = _encoder("").encode, sorted(columns), [], []
    for key in keys:
        column = columns[key]
        same = all(map(operator.is_, column, itertools.repeat(column[0])))
        try:
            text = _numbers(column[:1] if same else column, "\n")  # ValueError at NaN or an infinity
        except TypeError:
            break
        if "[" in text or "{" in text:  # a nested container, or a str holding a bracket
            break
        fields.append(f"{pad}  {encode(key)}: ".replace("%", "%%") + (text.replace("%", "%%") if same else "%s"))
        if not same:
            numbers.append(text.split(",\n"))  # exact: a JSON str holds no raw line break
    else:
        record = "{" + ",".join(fields) + pad + "}"
        return ("," + pad).join([record] * len(column)) % tuple(itertools.chain.from_iterable(zip(*numbers)))
    rows = (dict(zip(keys, values)) for values in zip(*map(columns.__getitem__, keys)))
    return ("," + pad).join("".join(_json_chunks(row, pad)) for row in rows)


def _json_chunks(value, indent: str = "\n"):
    """``json.dumps(value, indent=2, sort_keys=True)`` in pieces.

    Keys are str. A numpy array is 1-D, and a zero-argument callable yields
    parts that are joined into one list: a list or an array is written as its
    elements, and a dict of columns as one dict per index (``_records``).
    ``indent`` is the newline plus indentation of ``value``'s own level. A
    dict or list holding containers is walked here; a flat one is written by
    ``_numbers``, ``_BATCH`` elements of a list, array or yielded part at a
    time, and a dict part whole.
    """
    pad = indent + "  "
    encode = _encoder(pad).encode
    np = sys.modules.get("numpy")  # None or absent in a run that made no array
    flat = (list, tuple) if np is None else (list, tuple, np.ndarray)
    containers = (dict, *flat)
    if isinstance(value, dict) and any(isinstance(v, containers) or callable(v) for v in value.values()):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + pad + encode(key) + ": "
            yield from _json_chunks(value[key], pad)
        yield indent + "}"
    elif isinstance(value, (list, tuple)) and any(isinstance(v, containers) or callable(v) for v in value):
        for i, item in enumerate(value):
            yield ("," if i else "[") + pad
            yield from _json_chunks(item, pad)
        yield indent + "]"
    elif isinstance(value, flat) or callable(value):
        sep = "["
        for part in value() if callable(value) else [value]:
            if isinstance(part, dict):  # columns, written whole
                pieces = [_records(part, pad)] if any(map(len, part.values())) else []
            else:
                pieces = (_numbers(part[i:i + _BATCH], pad) for i in range(0, len(part), _BATCH))
            for piece in pieces:
                yield sep + pad + piece
                sep = ","
        yield "[]" if sep == "[" else indent + "]"
    elif isinstance(value, dict) and value:
        yield "{" + pad + encode(value)[1:-1] + indent + "}"
    else:  # a scalar or an empty dict
        yield encode(value)


def _fields(column) -> Sequence[str]:
    """``column``'s csv fields as they stand, where ``csv.writer`` writes them so: a column of nonempty strs
    with no comma, quote or line break, or ``_numbers``' fields with null as empty. ValueError (or TypeError,
    a value JSON does not write) where csv writes one otherwise: another str, a bool or NaN."""
    if all(isinstance(s, str) and s and not any(map(s.__contains__, ',"\r\n')) for s in column):
        return column
    text = _numbers(column, "\n")
    if any(map(text.__contains__, '"tf[{')):
        raise ValueError(text)
    return text.replace("null", "").split(",\n")


def _csv_rows(block: Sequence):
    """``block``'s rows as ``csv.writer`` writes them, a text and its row count per 256 rows (their str
    fields stay in the peak RSS: 4096 rows added 3 MB to ``pbox-sample``'s). ``_fields`` are zipped,
    unless csv writes one otherwise or a lone empty field."""
    for i in range(0, len(block[0]), _BATCH // 16):
        part = [column[i:i + _BATCH // 16] for column in block]
        try:
            fields = [*map(_fields, part)]
            text = "\n".join(map(",".join, zip(*fields))) + "\n"
            numbers = len(part) > 1 or "" not in fields[0]
        except (TypeError, ValueError):
            numbers = False
        if not numbers:
            import csv  # loaded by this fallback alone

            buf = io.StringIO()
            columns = [c.tolist() if hasattr(c, "tolist") else c for c in part]  # arrays as lists
            csv.writer(buf, lineterminator="\n").writerows(zip(*columns))
            text = buf.getvalue()
        yield text, len(part[0])


def write_report(env: ReportEnvelope, output: str, fh) -> None:
    """Write the report to the text stream ``fh`` as ``table``, ``csv`` or ``json``.

    Every format is written as it is produced, so memory does not grow with
    the report's size. The table is written piece by piece as the command's
    renderer yields it; csv rows are written about ``_BATCH`` at a time; the
    JSON document holds ``version``, ``config`` and ``results``, with the bytes
    of ``indent=2, sort_keys=True``, and a NaN or infinity in it raises
    ``ValueError`` (no ``NaN``/``Infinity`` tokens, RFC 8259).
    """
    if output == "table":
        fh.writelines(env.table())
    elif output == "csv":
        # the header goes out with the first batch, so blocks() that fails there writes nothing;
        # map drops each block once its slices are written, not a block later
        texts, rows, header = [], 0, tuple(zip(env.columns))  # a block of one row
        for text, n in itertools.chain.from_iterable(map(_csv_rows, itertools.chain([header], env.blocks()))):
            texts.append(text)
            rows += n
            if rows >= _BATCH:
                fh.writelines(texts)
                texts, rows = [], 0
        fh.writelines(texts)
    else:
        doc = {"version": __version__, "config": env.config, "results": env.results}
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


@contextlib.contextmanager
def _open_out(path: str):
    """Open ``--out PATH`` for the report, replacing PATH atomically where a rename keeps what it is.

    If PATH does not exist, or is a regular file (not a symlink) with one link, owned by us and by
    a group we are in, the report goes to a new file ``.pipeuq-<16 hex>.tmp`` beside it, renamed
    over PATH at the end; on any exception that file is removed and PATH is left as it was. One
    ``open(2)`` creates it: with mode ``0o666`` for a new PATH, which the kernel narrows by the umask
    or a default ACL as ``open(PATH, "w")`` would, and with ``0o600`` for an existing one, until it
    takes PATH's group and permission bits. Anything else, such as a device, a FIFO, a symlink or a
    hard-linked file, and a file whose directory we cannot write, is opened and written in place.
    """
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    fd = None
    if old is None or (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid()
        and (old.st_gid == os.getegid() or old.st_gid in os.getgroups())
    ):
        tmp = os.path.join(os.path.dirname(path), f".pipeuq-{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if old is None else 0o600)
        except OSError as exc:
            if old is None or not isinstance(exc, PermissionError):
                raise OSError(exc.errno, exc.strerror, path) from None  # PATH, not the temporary name
    if fd is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if old is not None:
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
# command -> the field its optional positional sets; each other field it takes is a --flag
_POSITIONALS = {"evidence": "evidence", "case-study": "which"}


def _scan(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` reads from a plain command line, read without
    argparse, or None for any other command line.

    A plain command line is a command in ``FLAGS``, then only that command's flags by their full names, as
    ``--name value`` or ``--name=value`` with a value that does not start with "-", or a bool flag such as
    ``--trace`` alone, and at most one positional where the command takes one. Help, ``--version``, an
    abbreviated flag, ``--`` and every usage error are left to argparse, which prints what it prints.
    """
    command = argv[0] if argv else None
    if command not in FLAGS:
        return None
    fields = ("config", *OPTIONS[command])
    free = [_POSITIONALS[command]] if command in _POSITIONALS else []  # the positional, until it is given
    flags = {"--" + name.replace("_", "-"): name for name in fields if name not in free}
    args = dict.fromkeys(fields)
    words = iter(argv[1:])
    for word in words:
        flag, joined, value = word.partition("=")
        name = flags.get(flag)
        if not word.startswith("-") and free:  # the positional, once
            args[free.pop()] = word
        elif name is None:  # no flag of the command, or a second positional
            return None
        elif type(DEFAULTS.get(name)) is bool:  # stores True and takes no value
            if joined:
                return None
            args[name] = True
        else:
            if not joined:
                value = next(words, "-")  # a flag at the end has no value
            if value.startswith("-"):  # argparse reads "--" as no value
                return None
            args[name] = value
    return types.SimpleNamespace(command=command, **args)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command in ``FLAGS``; one ``--flag`` per field."""
    import argparse  # only a command line that ``_scan`` does not read builds a parser

    parser = argparse.ArgumentParser(
        prog="pipeuq",
        description="Uncertainty propagation for detect-fix-redetect security pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in FLAGS:
        p = sub.add_parser(command, help=FLAGS[command][0])
        p.add_argument("--config", metavar="PATH", help=HELP["config"])
        for name in OPTIONS[command]:
            flag, kind = "--" + name.replace("_", "-"), type(DEFAULTS[name])
            # each option stores its text, which build_config parses and checks as a config value
            metavar = "{" + ",".join(CHOICES[name]) + "}" if name in CHOICES else _METAVARS.get(kind)
            help_ = HELP.get((command, name), HELP.get(name))
            if name == _POSITIONALS.get(command):  # a choice, or evidence's CSV
                p.add_argument(name, nargs="?", metavar=metavar if name in CHOICES else "CSV", help=help_)
            elif kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=help_)
            else:
                p.add_argument(flag, metavar=metavar, help=help_)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` if None) and return its exit code.

    ``_scan`` reads a plain command line and argparse any other, printing help, the version or a usage
    error and exiting here with its code; ``build_config`` then reads each option's text.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _scan(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse already printed usage; normalize --version/help to 0
            return int(exc.code or 0)
    try:
        cfg = build_config(args, args.command)
        # looked up on every run, so a wrapper set on the module takes effect
        env = globals()["cmd_" + args.command.replace("-", "_")](cfg)
        if not cfg.out:
            if sys.stdout is None:  # fd 1 was closed at startup
                raise OSError(errno.EBADF, "stdout is closed")
            write_report(env, cfg.output, sys.stdout)
            # a report smaller than the buffer would otherwise meet a full
            # disk or a closed pipe only at interpreter teardown
            sys.stdout.flush()
            return 0
        with _open_out(cfg.out) as fh:
            write_report(env, cfg.output, fh)
        return 0
    except PipeUQError as exc:
        _complain(f"error: {exc}\n")
        return 2
    except OSError as exc:
        _complain(f"i/o error: {exc}\n")
        return 3
    except Exception:  # internal invariant violation
        import traceback

        _complain(traceback.format_exc())
        return 4


def _complain(text: str) -> None:
    """Write ``text`` to stderr, best effort as argparse writes its messages: a stderr that is closed
    or fails (a closed pipe) costs the text, never the exit code that ``main`` chose."""
    with contextlib.suppress(AttributeError, OSError):  # AttributeError: sys.stderr is None, fd 2 was closed
        sys.stderr.write(text)


def entry() -> int:
    """The process entry: ``main`` on the process's argv, then stdout's last flush.

    Before ``main`` it sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ`` unless
    the variable is already set, in which case that value wins. OpenBLAS reads
    it once, when numpy loads it, and nothing loads numpy before a command
    runs. No command calls a BLAS routine, so this spares the child the worker
    thread per CPU that OpenBLAS would start and wake.

    It also turns the cyclic garbage collector off, and leaves it off: a command
    makes no garbage cycle that grows with its input (argparse's parser, where
    one is built, is the cycle it leaves), while the collector ran 36 times,
    for 6.3 ms, in a ``simulate`` child, mostly as numpy loaded (a 2-core Xeon).

    A write to stdout that failed leaves its data in the buffer, which
    teardown would try to flush again and report as an ignored exception
    with exit 120. So on a failed flush fd 1 is pointed at ``os.devnull``,
    and a run that had not yet reported the failure exits 3 with one line.
    """
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    try:
        if sys.stdout is not None:  # None if fd 1 was closed at startup
            sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not code:
            _complain(f"i/o error: {exc}\n")
            code = 3
    return code


def run() -> NoReturn:
    """``entry()``, then stderr's best-effort flush and ``os._exit`` with its code: the ``pipeuq`` console script.

    The process skips interpreter teardown, which would free every object one by one: a
    ``simulate`` child's exit takes 1.5 ms, not 5.6 ms (a 2-core Xeon). So no ``atexit`` handler
    runs and no file left open is flushed; ``main`` closes what it opens, and ``entry`` flushed
    stdout.
    """
    code = entry()
    with contextlib.suppress(AttributeError, OSError):  # as _complain: fd 2 closed at startup, or failing
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
