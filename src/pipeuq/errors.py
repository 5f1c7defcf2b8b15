"""Exception types shared across the package, and the two input checks that raise them:
``check_unit`` of a probability, ``check_count`` of a count or a seed (an integer, never a float)."""

import operator
import sys

# the largest count: binomial draws, float arithmetic and array sizes need an int64
MAX_ITEMS = 2**63 - 1


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


def check_count(value, name: str, least: int = 0, most=None) -> int:
    """``value`` as a Python int if ``operator.index`` takes it (an int, a numpy integer, a bool as 0 or 1)
    and it is in [least, most], else refuse it: no float, which numpy's ``binomial`` and ``SeedSequence`` refuse."""
    try:
        count = operator.index(value)
    except TypeError:  # a float, None, a str, an array of more than one element
        count = None
    if count is None or count < least or most is not None and count > most:
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise InvalidParameterError(f"{name} must be an integer {bounds}, got {value!r}")
    return count
