"""Run configuration: defaults, INI config files, and validation.

Precedence is CLI flags > config file > built-in defaults. Config files use
INI sections: ``[common]`` applies to every command, ``[<command>]`` to one.
Keys are the flag names with underscores, e.g.::

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

import configparser
from dataclasses import dataclass, field, fields

from .errors import ConfigError

__all__ = ["RunConfig", "build_config", "validate_config", "COMMANDS"]

COMMANDS = ("analytic", "simulate", "evidence", "case-study", "pbox-sample")

OUTPUTS = ("table", "csv", "json")
MODES = ("extremes", "means", "both")
OUTLIER_POLICIES = ("none", "iqr")
CI_METHODS = ("agresti-coull", "wilson")
MAX_ITEMS = 2**63 - 1


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


_LIST_FIELDS = {"prevalence", "fix_rate"}
_BOOL_FIELDS = {"trace"}


def _parse_value(name: str, text: str, target_type):
    text = text.strip()
    if name in _LIST_FIELDS:
        try:
            return [float(tok) for tok in text.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"{name}: expected a list of numbers, got {text!r}") from None
    if name in _BOOL_FIELDS:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {text!r}")
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {text!r}") from None
    return text


def _apply_file(cfg: RunConfig, path: str, command: str) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    known = {f.name: f for f in fields(RunConfig)}
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
                default = getattr(RunConfig(), key)
                target = type(default) if default is not None else str
                setattr(cfg, key, _parse_value(key, text, target))
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
    if cfg.seed < 0:
        errors.append(f"seed: must be >= 0, got {cfg.seed!r}")
    for name in ("prevalence", "fix_rate"):
        values = getattr(cfg, name)
        if not values:
            errors.append(f"{name}: grid must be nonempty")
        elif not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
            errors.append(f"{name}: {values!r} has entries outside [0, 1]")
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
    if cfg.mode not in MODES:
        errors.append(f"mode: must be one of {MODES}, got {cfg.mode!r}")
    if cfg.output not in OUTPUTS:
        errors.append(f"output: must be one of {OUTPUTS}, got {cfg.output!r}")
    if cfg.outlier_policy not in OUTLIER_POLICIES:
        errors.append(f"outlier_policy: must be one of {OUTLIER_POLICIES}, got {cfg.outlier_policy!r}")
    if not cfg.outlier_k >= 0:  # also rejects NaN
        errors.append(f"outlier_k: must be >= 0, got {cfg.outlier_k!r}")
    if cfg.method not in CI_METHODS:
        errors.append(f"method: must be one of {CI_METHODS}, got {cfg.method!r}")
    if command == "analytic" and cfg.break_rate != 0.0:
        errors.append(f"break_rate: the closed forms assume 0, got {cfg.break_rate!r}")
    if command == "evidence" and not cfg.evidence:
        errors.append("evidence: a CSV path is required")
    if errors:
        raise ConfigError("; ".join(errors))
