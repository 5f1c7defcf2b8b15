"""Run configuration: defaults, INI config files, and validation.

Precedence is CLI options > config file > built-in defaults. ``OPTIONS[command]``
lists a command's options, which are also its config keys (with underscores) and
its report's config echo: a flag each, but ``evidence``'s CSV and ``case-study``'s
study ``which``, each its command's optional positional. An option's text is
parsed and checked as a config value's is. In a config file, ``[common]`` sets
each key for the commands that take it, so one file serves them all;
``[<command>]`` sets one command's, and a key it does not take is an error, e.g.::

    [common]
    seed = 7
    output = json

    [simulate]
    trials = 500
    prevalence = 0.1, 0.5, 1.0

    [case-study]
    which = composed

Built-in defaults ship the reference experiment grid (prevalence 0.10/0.50/
1.00, fix rate 0.50/0.70/0.90/1.00, recall p-box (0.07, 1.00, 0.74)), so
``pipeuq simulate`` with no arguments runs the full default sweep.
"""

from __future__ import annotations

import math
import sys

from .errors import (MAX_ITEMS, MAX_TRIALS, ConfigError, InvalidParameterError, check_count, check_unit, decimal,
                     integer, unsigned)

__all__ = ["RunConfig", "DEFAULTS", "FLAGS", "OPTIONS", "CHOICES", "HELP", "PARSERS", "build_config", "validate_config"]


# RunConfig's fields and their defaults; a field's type is its default's
DEFAULTS = {
    # population / pipeline
    "n_items": 10_000,
    "prevalence": [0.10, 0.50, 1.00],
    "fix_rate": [0.50, 0.70, 0.90, 1.00],
    "recall": 1.0,
    "precision": 1.0,
    "specificity": 0.0,
    "break_rate": 0.0,
    # recall uncertainty source
    "pbox_min": 0.07,
    "pbox_max": 1.00,
    "pbox_mean": 0.74,
    "evidence": None,
    "outlier_policy": "iqr",
    "outlier_k": 1.5,
    # experiment control
    "trials": 1000,
    "seed": 42,
    "mode": "both",
    # case studies
    "which": None,
    "confidence": 0.95,
    "method": "agresti-coull",
    "tools": None,
    "case_n_items": 879,
    "case_recall": 0.86,
    "case_accuracy": 0.44,
    # output
    "output": "table",
    "out": None,
    "trace": False,
}


class RunConfig:
    """Every option of every command: ``DEFAULTS`` overridden by keyword."""

    __slots__ = tuple(DEFAULTS)

    def __init__(self, **values):
        unknown = values.keys() - DEFAULTS.keys()
        if unknown:
            raise TypeError(f"RunConfig got unexpected keyword arguments {sorted(unknown)}")
        for name, default in DEFAULTS.items():
            if name not in values and type(default) is list:
                default = default.copy()  # each instance gets its own lists
            setattr(self, name, values.get(name, default))


_COMMON = ("seed", "output", "out")
_GRID = ("n_items", "prevalence", "fix_rate")
_PBOX = ("pbox_min", "pbox_max", "pbox_mean", "evidence", "outlier_policy", "outlier_k")
# command -> (its help line, the RunConfig fields it takes besides _COMMON); all take --config
FLAGS = {
    "analytic": ("closed-form grid of pipeline metrics", (*_GRID, "recall", "precision")),
    "simulate": (
        "Monte Carlo experiment per grid cell",
        (*_GRID, "specificity", *_PBOX, "break_rate", "trials", "mode", "trace"),
    ),
    "evidence": ("summarize an evidence CSV into p-box parameters", ("evidence", "outlier_policy", "outlier_k")),
    "case-study": (
        "tool CI table or composed pipeline example",
        ("which", "tools", "confidence", "method", "case_n_items", "case_recall", "case_accuracy", *_PBOX),
    ),
    "pbox-sample": ("draw paired recall streams from a p-box", (*_PBOX, "trials")),
}
# command -> every RunConfig field it takes
OPTIONS = {command: (*_COMMON, *names) for command, (_, names) in FLAGS.items()}

CHOICES = {
    "mode": ("extremes", "means", "both"),
    "output": ("table", "csv", "json"),
    "outlier_policy": ("none", "iqr"),
    "method": ("agresti-coull", "wilson"),
    "which": ("rule-based", "composed"),
}

# option help; a (command, field) key overrides the field's own
HELP = {
    "config": "INI config file",
    "out": "write the report here instead of stdout",
    "evidence": "derive the recall p-box from this evidence CSV",
    "trace": "embed per-trial values in the report",
    "tools": "tool records CSV (name,correct,generated)",
    ("pbox-sample", "trials"): "number of samples",
    ("evidence", "evidence"): "evidence file to ingest",
}


def float_list(text: str) -> list[float]:
    """Numbers separated by commas and/or whitespace, e.g. ``"0.1, 0.5 1"``."""
    return [decimal(tok) for tok in text.replace(",", " ").split()]


def _boolean(text: str) -> bool:
    import configparser  # loaded only when a boolean or a config file is read

    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# a field's type, read from its default -> (text parser, what the text must be);
# a field absent here takes the text as it stands
PARSERS = {
    int: (integer, "a number"),
    float: (decimal, "a number"),
    list: (float_list, "a list of numbers"),
    bool: (_boolean, "a boolean"),
}


def _parse_value(name: str, text: str, default):
    if type(default) not in PARSERS:
        return text
    parse, expected = PARSERS[type(default)]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{name}: expected {expected}, got {text!r}") from None


def _apply_file(cfg: RunConfig, path: str, command: str) -> None:
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
        for section in ("common", command):
            if not parser.has_section(section):
                continue
            for key, text in parser.items(section):  # items() interpolates
                key = key.replace("-", "_")
                if key not in (OPTIONS[command] if section == command else DEFAULTS):
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                if key in OPTIONS[command]:  # [common] sets a key for the commands that take it
                    setattr(cfg, key, _parse_value(key, text, DEFAULTS[key]))
    except (configparser.Error, UnicodeDecodeError, ConfigError) as exc:
        # name the file for every error in it; some configparser messages
        # span lines, and the report is one line
        raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None


def build_config(args, command: str) -> RunConfig:
    """Merge defaults, an optional config file, and CLI arguments: each flag's text, parsed as a
    config value before the file is read (a bad flag is refused first) and set after it (a flag wins)."""
    cfg = RunConfig()
    flags = {name: value if value is True else _parse_value(name, value, DEFAULTS[name])  # --trace stores True
             for name in OPTIONS[command] if (value := getattr(args, name, None)) is not None}
    config_path = getattr(args, "config", None)
    if config_path == "":  # it would read as no file
        raise ConfigError("config: an empty path names no file")
    if config_path is not None:
        _apply_file(cfg, config_path, command)
    for name, value in flags.items():
        setattr(cfg, name, value)
    validate_config(cfg, command)
    return cfg


def _refused(errors: list[str], cfg: RunConfig, name: str) -> bool:
    """Whether ``cfg``'s probability ``name``, or an entry of its grid, is no int or float in [0, 1]; the
    first refusal is listed in ``errors``. A kept one has each -0.0 as 0.0, so that no report writes -0.0."""
    grid = type(DEFAULTS[name]) is list  # the caller has checked that a grid is a list
    values = getattr(cfg, name) if grid else [getattr(cfg, name)]
    try:
        for v in values:
            check_unit(v, name, numpy=False)
    except InvalidParameterError as exc:
        errors.append(str(exc))
        return True
    values = [*map(unsigned, values)]
    setattr(cfg, name, values if grid else values[0])
    return False


def validate_config(cfg: RunConfig, command: str) -> None:
    """Validate every numeric field's semantic range, that each count and the seed is an integer
    (kept as an int) and that each path is a str or None; raise listing offenders."""
    errors: list[str] = []
    refused = set()
    for name, least, most in (("n_items", 1, MAX_ITEMS), ("case_n_items", 1, MAX_ITEMS), ("trials", 1, MAX_TRIALS),
                              ("seed", 0, None)):
        try:  # the config keeps the int: the JSON echo writes no numpy integer
            setattr(cfg, name, check_count(getattr(cfg, name), name, least, most))
        except InvalidParameterError as exc:
            errors.append(str(exc))
            refused.add(name)
    for name in ("evidence", "tools", "out"):  # open() would take an int as a file descriptor, and close it
        if not isinstance(value := getattr(cfg, name), (str, type(None))):
            errors.append(f"{name}: must be a path (a str) or None, got {value!r}")
        elif value == "":  # a command would read it as no path
            errors.append(f"{name}: an empty path names no file")
    for name in ("prevalence", "fix_rate"):
        values = getattr(cfg, name)
        if not isinstance(values, list) or not values:
            errors.append(f"{name}: grid must be a nonempty list, got {values!r}")
        elif _refused(errors, cfg, name) or name != "prevalence":
            continue
        elif any(0.0 < v < sys.float_info.min for v in values):
            # the realized fix rate divides by it and would overflow to -inf
            errors.append(f"prevalence: {values!r} has a positive entry below {sys.float_info.min!r}")
    refused |= {name for name in ("recall", "precision", "specificity", "break_rate", "case_recall", "case_accuracy",
                                 "confidence", "pbox_min", "pbox_max", "pbox_mean")
               if _refused(errors, cfg, name)}
    if "confidence" not in refused and cfg.confidence in (0.0, 1.0):
        errors.append(f"confidence: must lie in (0, 1), got {cfg.confidence!r}")
    if not refused & {"pbox_min", "pbox_max", "pbox_mean"} and not cfg.pbox_min <= cfg.pbox_mean <= cfg.pbox_max:
        errors.append(
            f"pbox: need pbox_min <= pbox_mean <= pbox_max, got "
            f"({cfg.pbox_min}, {cfg.pbox_mean}, {cfg.pbox_max})"
        )
    for name, allowed in CHOICES.items():
        if name in OPTIONS[command] and getattr(cfg, name) not in allowed:
            errors.append(f"{name}: must be one of {allowed}, got {getattr(cfg, name)!r}")
    if not isinstance(cfg.outlier_k, (int, float)) or not 0 <= cfg.outlier_k < math.inf:  # also rejects NaN
        errors.append(f"outlier_k: must be finite and >= 0, got {cfg.outlier_k!r}")
    # fixer load <= n_items / precision, false-alert rate <= MAX_TRIALS / precision (its denominator is 0 or >= 2**-53)
    if not refused & {"precision", "n_items"} and cfg.precision * sys.float_info.max < 2 * max(cfg.n_items, MAX_TRIALS):
        errors.append(f"precision: {cfg.precision!r} would leave the fixer load or the false-alert rate infinite")
    if command == "evidence" and cfg.evidence is None:
        errors.append("evidence: a CSV path is required")
    if errors:
        raise ConfigError("; ".join(errors))
