"""Small shared helpers."""

from __future__ import annotations

import json
import numbers
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, DomainError


@contextmanager
def atomic_open(path: str | Path):
    """A UTF-8, LF text handle on a temp file; renamed over ``path`` only if the block ends cleanly."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp~")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, payload) -> None:
    """The package's one JSON layout: indent 1, sorted keys, final newline."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def require(config: dict, key: str):
    """``config[key]``, or a :class:`ConfigError` naming the missing field."""
    if key not in config:
        raise ConfigError(f"missing required config field {key!r}")
    return config[key]


def require_typed(config: dict, key: str, kind: type):
    """``config[key]``, or a :class:`ConfigError` unless it is present and a ``kind``."""
    value = require(config, key)
    if not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def is_number(value) -> bool:
    """A real number that is not a bool: what a JSON number parses to."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_number(config: dict, key: str) -> float:
    """``config[key]`` as a float, or a :class:`ConfigError` unless it is a number."""
    value = require(config, key)
    if not is_number(value):
        raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
    return float(value)


def require_numbers(config: dict, key: str) -> list:
    """``config[key]``, or a :class:`ConfigError` unless it is a list of numbers."""
    values = require_typed(config, key, list)
    if not all(map(is_number, values)):
        raise ConfigError(f"config field {key!r} must be a list of numbers, got {values!r}")
    return values


def check_integer(value, name: str, low: int = 0) -> None:
    """A :class:`DomainError` unless ``value`` is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
