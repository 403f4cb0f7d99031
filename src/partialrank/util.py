"""Small shared helpers."""

from __future__ import annotations

import functools
import json
import numbers
import operator
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


def cache_per_r(builder):
    """``functools.cache`` for a builder of one argument r, keyed on ``operator.index(r)``.

    ``functools.cache`` keys a Python int by itself and any other value in a
    wrapper, so ``np.int64(4)`` would miss the entry of ``4`` and build a
    second table. The result keeps the builder's name, module and docstring,
    and the cache's ``cache_info`` and ``cache_clear``.
    """
    cached = functools.cache(builder)

    @functools.wraps(builder)
    def per_r(r):
        return cached(operator.index(r))

    per_r.cache_info, per_r.cache_clear = cached.cache_info, cached.cache_clear
    return per_r


REQUIRED = object()  # the default of a field that must be present


def field(config: dict, key: str, kind, default=REQUIRED):
    """``config[key]`` checked against ``kind``, or ``default`` when the key is absent.

    ``kind`` is a type, or a one-element list ``[kind]`` for a list of values of
    that kind. A missing field, or a value of another JSON type, raises
    :class:`ConfigError`; a bool is never a number. ``int`` takes an integer
    ``>= 0`` and raises :class:`DomainError` for any other number (``5.0``
    included). ``float`` takes any number and returns it as a float;
    ``numbers.Real`` returns it as written.
    """
    if key not in config:
        if default is REQUIRED:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    return _checked(config[key], key, kind)


def _checked(value, key: str, kind):
    if isinstance(kind, list):
        return [_checked(item, key, kind[0]) for item in _checked(value, key, list)]
    if kind in (int, float, numbers.Real):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
        if kind is int:
            check_integer(value, f"config field {key!r}")
        return float(value) if kind is float else value
    if not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def check_integer(value, name: str, low: int = 0) -> None:
    """A :class:`DomainError` unless ``value`` is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
