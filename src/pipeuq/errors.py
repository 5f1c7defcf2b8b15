"""Exception types shared across the package, and the input checks that raise them."""

import sys


class PipeUQError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidParameterError(PipeUQError, ValueError):
    """A parameter is outside its documented range or otherwise unusable."""


class DegenerateDomainError(PipeUQError, ValueError):
    """A metric is undefined for this domain (e.g. a false-alert rate when
    the domain contains no negatives)."""


class EvidenceFormatError(PipeUQError, ValueError):
    """An evidence CSV could not be parsed.

    ``line`` carries the 1-based line number of the offending row.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyEvidenceError(PipeUQError, ValueError):
    """An operation that needs at least one sample received none."""


class ConfigError(PipeUQError, ValueError):
    """A run configuration failed validation. The message names the fields."""


def check_unit(value, name: str, numpy: bool = True) -> None:
    """Refuse ``value`` unless it is an int or a float in [0, 1] or, with ``numpy``, a nonempty
    numpy scalar or array of a real dtype with every element in [0, 1]: a list, tuple, str,
    None or complex value never passes. numpy is looked up, never imported."""
    if isinstance(value, (int, float)):
        ok = 0.0 <= value <= 1.0
    else:
        np = sys.modules.get("numpy") if numpy else None
        ok = (np is not None and isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind in "biuf"
              and value.size > 0 and bool(np.all((value >= 0.0) & (value <= 1.0))))
    if not ok:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")


def check_count(value, name: str, least: int = 0, most=None) -> None:
    """Refuse ``value`` unless it is a whole number (an int, or a float equal to one) in [least, most]."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):  # None, a str, NaN, infinity
        whole = False
    if not whole or value < least or most is not None and value > most:
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise InvalidParameterError(f"{name} must be an integer {bounds}, got {value!r}")


def check_int(value, name: str, least: int = 0, most=None) -> None:
    """``check_count``, and refuse a whole float too: numpy's ``SeedSequence`` takes no float."""
    check_count(value, name, least, most)
    if not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an int, got {value!r}")
