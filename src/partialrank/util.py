"""Small shared helpers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError


@contextmanager
def atomic_path(path: str | Path):
    """Yield a temp path in the target directory; rename over the target on success."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp~")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def require(config: dict, key: str):
    """``config[key]``, or a :class:`ConfigError` naming the missing field."""
    if key not in config:
        raise ConfigError(f"missing required config field {key!r}")
    return config[key]
