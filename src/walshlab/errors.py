"""Exception hierarchy shared across the library, and the two readers of
file and config input that raise it."""

import json
import math


class WalshLabError(Exception):
    """Base class for all library errors."""


class DepthError(WalshLabError):
    """A dyadic depth is too small to evaluate, or too large to materialize."""


class BudgetError(WalshLabError):
    """A term/pair/materialization budget was exceeded."""


class HorizonError(WalshLabError):
    """A basis index or frequency falls outside the block plan's horizon."""


class ScheduleError(WalshLabError):
    """A growth schedule violates its invariants."""


class ConfigError(WalshLabError):
    """An experiment or CLI configuration is invalid."""


def read_json(path):
    """The JSON document in the file at ``path``.  Text that is not UTF-8
    or not JSON, or an integer past Python's digit limit, is a ConfigError
    naming the file; a file that cannot be opened raises its OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ConfigError(f"{path}: {exc}") from exc


def read_number(value, name: str, cast=int, least=None, error=ConfigError):
    """``value``, a number or numeric string, as a finite ``cast`` (int or
    float) of at least ``least``; booleans, fractions where an int is due
    and non-finite values are refused with ``error``, naming ``name``."""
    if isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = (int if cast is int and not isinstance(value, float) else float)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name}: {exc}") from exc
    if isinstance(number, float) and not math.isfinite(number):
        raise error(f"{name} must be finite, got {number}")
    if isinstance(number, float) and cast is int:
        if not number.is_integer():
            raise error(f"{name} must be an integer, got {number}")
        number = int(number)
    if least is not None and not number >= least:
        raise error(f"{name} must be >= {least}, got {number}")
    return number
