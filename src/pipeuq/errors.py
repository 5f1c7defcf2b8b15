"""Exception types shared across the package, and the two input checks that raise them:
``check_unit`` of a probability, ``check_count`` of a count or a seed (an integer, never a float);
``unsigned``, the one zero a checked probability keeps; and ``decimal`` and ``integer``, the one
number grammar of text, from a flag, a config key or a CSV cell."""

import math
import operator
import sys

# the largest count: binomial draws, float arithmetic and array sizes need an int64
MAX_ITEMS = 2**63 - 1
# the largest trial count: every int up to it is a float64, so a stream mean's division by its count is exact
MAX_TRIALS = 2**53


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


def _shown(value) -> str:
    """``repr(value)``, or the size of an int that repr refuses: one of more digits than
    ``sys.get_int_max_str_digits()`` (4300 by default), alone or inside a container."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a value of type {type(value).__name__} too long to show"


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
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {_shown(value)}")


def unsigned(value):
    """``value``, with a negative zero as 0.0: the one zero a record or a config holds, so that no
    report writes -0.0 and numpy's uniform never sees the range (0.0, -0.0)."""
    return 0.0 if math.copysign(1.0, value) < 0.0 else value


def check_count(value, name: str, least: int = 0, most=None) -> int:
    """``value`` as a Python int if ``operator.index`` takes it (an int, a numpy integer, a bool as 0 or 1)
    and it is in [least, most], else refuse it: no float, which numpy's ``binomial`` and ``SeedSequence`` refuse."""
    try:
        count = operator.index(value)
    except TypeError:  # a float, None, a str, an array of more than one element
        count = None
    if count is None or count < least or most is not None and count > most:
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise InvalidParameterError(f"{name} must be an integer {bounds}, got {_shown(value)}")
    return count


def decimal(text: str) -> float:
    """The float ``text`` writes, with spaces around it allowed (``.5``, ``5.``, ``+0.5``, ``1E3``, ``007``,
    ``5e-324``), else ValueError: no non-ASCII digit, no digit-group ``_``, nothing infinite or NaN
    (``inf``, ``nan``, ``1e400``), and no literal with a nonzero digit that rounds to 0.0 (``1e-400``)."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    value = float(text)
    if not math.isfinite(value) or value == 0.0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
        raise ValueError(text)
    return value


def integer(text: str) -> int:
    """The int ``text`` writes, with spaces around it allowed (``+7``, ``007``), else ValueError: no
    non-ASCII digit and no digit-group ``_``."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)
