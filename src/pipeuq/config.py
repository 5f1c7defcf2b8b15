"""Run configuration: defaults, INI config files, and validation.

Precedence is CLI flags > config file > built-in defaults. Config files use
INI sections: ``[common]`` applies to every command, ``[<command>]`` to one.
Keys are ``RunConfig`` field names, which are the flag names with underscores;
any section may set any field, e.g.::

    [common]
    seed = 7
    output = json

    [simulate]
    trials = 500
    prevalence = 0.1, 0.5, 1.0

Built-in defaults ship the reference experiment grid (prevalence 0.10/0.50/
1.00, fix rate 0.50/0.70/0.90/1.00, recall p-box (0.07, 1.00, 0.74)), so
``pipeuq simulate`` with no arguments runs the full default sweep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

from .errors import ConfigError

__all__ = ["RunConfig", "FLAGS", "COMMON", "CHOICES", "HELP", "PARSERS", "build_config", "validate_config"]

MAX_ITEMS = 2**63 - 1
# `simulate --trace` embeds 2 x trials floats per metric (3) per grid cell;
# 2**20 of them peak at about 90 MB
MAX_TRACE_FLOATS = 2**20


@dataclass
class RunConfig:
    # population / pipeline
    n_items: int = 10_000
    prevalence: list = field(default_factory=lambda: [0.10, 0.50, 1.00])
    fix_rate: list = field(default_factory=lambda: [0.50, 0.70, 0.90, 1.00])
    recall: float = 1.0
    precision: float = 1.0
    specificity: float = 0.0
    break_rate: float = 0.0
    # recall uncertainty source
    pbox_min: float = 0.07
    pbox_max: float = 1.00
    pbox_mean: float = 0.74
    evidence: str | None = None
    outlier_policy: str = "iqr"
    outlier_k: float = 1.5
    # experiment control
    trials: int = 1000
    seed: int = 42
    mode: str = "both"
    # case studies
    confidence: float = 0.95
    method: str = "agresti-coull"
    tools: str | None = None
    case_n_items: int = 879
    case_recall: float = 0.86
    case_accuracy: float = 0.44
    # output
    output: str = "table"
    out: str | None = None
    trace: bool = False


_GRID = ("n_items", "prevalence", "fix_rate", "specificity")
_PBOX = ("pbox_min", "pbox_max", "pbox_mean", "evidence", "outlier_policy", "outlier_k")
# command -> (its help line, the RunConfig fields it takes as flags besides
# COMMON); every command also takes --config
FLAGS = {
    "analytic": ("closed-form grid of pipeline metrics", (*_GRID, "recall", "precision")),
    "simulate": (
        "Monte Carlo experiment per grid cell",
        (*_GRID, *_PBOX, "break_rate", "trials", "mode", "trace"),
    ),
    "evidence": ("summarize an evidence CSV into p-box parameters", ("outlier_policy", "outlier_k")),
    "case-study": (
        "tool CI table or composed pipeline example",
        ("tools", "confidence", "method", "case_n_items", "case_recall", "case_accuracy", *_PBOX),
    ),
    "pbox-sample": ("draw paired recall streams from a p-box", (*_PBOX, "trials")),
}
COMMON = ("seed", "output", "out")

CHOICES = {
    "mode": ("extremes", "means", "both"),
    "output": ("table", "csv", "json"),
    "outlier_policy": ("none", "iqr"),
    "method": ("agresti-coull", "wilson"),
}

# flag help; a (command, field) key overrides the field's own
HELP = {
    "config": "INI config file",
    "out": "write the report here instead of stdout",
    "evidence": "derive the recall p-box from this evidence CSV",
    "trace": "embed per-trial values in the report",
    "tools": "tool records CSV (name,correct,generated)",
    ("pbox-sample", "trials"): "number of samples",
}


def float_list(text: str) -> list[float]:
    """Numbers separated by commas and/or whitespace, e.g. ``"0.1, 0.5 1"``."""
    return [float(tok) for tok in text.replace(",", " ").split()]


def _boolean(text: str) -> bool:
    import configparser  # loaded only when a boolean or a config file is read

    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# a field's type, read from its default -> (text parser, what the text must be);
# a field absent here takes the text as it stands
PARSERS = {
    int: (int, "a number"),
    float: (float, "a number"),
    list: (float_list, "a list of numbers"),
    bool: (_boolean, "a boolean"),
}


def _parse_value(name: str, text: str, default):
    text = text.strip()
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
    known = {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        for section in ("common", command):
            if not parser.has_section(section):
                continue
            for key, text in parser.items(section):  # items() interpolates
                key = key.replace("-", "_")
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                setattr(cfg, key, _parse_value(key, text, getattr(defaults, key)))
    except (configparser.Error, UnicodeDecodeError) as exc:
        # some configparser messages span lines; the report is one line
        raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None


def build_config(args, command: str) -> RunConfig:
    """Merge defaults, an optional config file, and CLI arguments."""
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        _apply_file(cfg, config_path, command)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    validate_config(cfg, command)
    return cfg


def _unit(errors, cfg, name, *, open_zero=False, open_one=False):
    v = getattr(cfg, name)
    lo_ok = v > 0.0 if open_zero else v >= 0.0
    hi_ok = v < 1.0 if open_one else v <= 1.0
    if not (isinstance(v, (int, float)) and lo_ok and hi_ok):
        lo_b = "(" if open_zero else "["
        hi_b = ")" if open_one else "]"
        errors.append(f"{name}: {v!r} outside {lo_b}0, 1{hi_b}")


def validate_config(cfg: RunConfig, command: str) -> None:
    """Validate every numeric field's semantic range; raise listing offenders."""
    errors: list[str] = []
    for name in ("n_items", "case_n_items", "trials"):
        # binomial draws, float arithmetic and array sizes need an int64 count
        v = getattr(cfg, name)
        if not 1 <= v <= MAX_ITEMS:
            errors.append(f"{name}: must lie in [1, 2**63 - 1], got {v!r}")
    floats = 6 * cfg.trials * len(cfg.prevalence) * len(cfg.fix_rate)
    if command == "simulate" and cfg.trace and floats > MAX_TRACE_FLOATS:
        errors.append(f"trace: {floats} trial values exceed the limit of 2**20; lower trials or the grid")
    if cfg.seed < 0:
        errors.append(f"seed: must be >= 0, got {cfg.seed!r}")
    for name in ("prevalence", "fix_rate"):
        values = getattr(cfg, name)
        if not values:
            errors.append(f"{name}: grid must be nonempty")
        elif not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
            errors.append(f"{name}: {values!r} has entries outside [0, 1]")
        elif name == "prevalence" and any(0.0 < v < sys.float_info.min for v in values):
            # the realized fix rate divides by it and would overflow to -inf
            errors.append(f"prevalence: {values!r} has a positive entry below {sys.float_info.min!r}")
        elif name == "prevalence" and command == "simulate" and any(
            0.0 < v and v * (sys.float_info.max / 2) < cfg.trials for v in values
        ):
            # a trial's realized fix rate lies in [1 - 1/P, 1], so a stream's sum
            # overflows once trials / P nears the largest float; half leaves
            # room for rounding
            errors.append(
                f"prevalence: {values!r} has a positive entry P with trials / P above "
                f"{sys.float_info.max / 2!r}, where the sum of realized fix rates would overflow"
            )
    _unit(errors, cfg, "recall")
    _unit(errors, cfg, "precision", open_zero=True)
    _unit(errors, cfg, "specificity")
    _unit(errors, cfg, "break_rate")
    _unit(errors, cfg, "case_recall")
    _unit(errors, cfg, "case_accuracy")
    _unit(errors, cfg, "confidence", open_zero=True, open_one=True)
    for name in ("pbox_min", "pbox_max", "pbox_mean"):
        _unit(errors, cfg, name)
    if not cfg.pbox_min <= cfg.pbox_mean <= cfg.pbox_max:
        errors.append(
            f"pbox: need pbox_min <= pbox_mean <= pbox_max, got "
            f"({cfg.pbox_min}, {cfg.pbox_mean}, {cfg.pbox_max})"
        )
    for name, allowed in CHOICES.items():
        if getattr(cfg, name) not in allowed:
            errors.append(f"{name}: must be one of {allowed}, got {getattr(cfg, name)!r}")
    if not 0 <= cfg.outlier_k < math.inf:  # also rejects NaN
        errors.append(f"outlier_k: must be finite and >= 0, got {cfg.outlier_k!r}")
    if command == "analytic" and cfg.break_rate != 0.0:
        errors.append(f"break_rate: the closed forms assume 0, got {cfg.break_rate!r}")
    if command == "evidence" and not cfg.evidence:
        errors.append("evidence: a CSV path is required")
    if errors:
        raise ConfigError("; ".join(errors))
