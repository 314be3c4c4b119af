"""Resource caps shared across the package.

Defaults keep every operation at desk scale; each can be overridden per
call, via CLI flags, or via the environment variables named below.
"""

from __future__ import annotations

import os
from functools import lru_cache

ENV_ENUM_CAP = "PGMHSP_ENUM_CAP"
ENV_POP_CAP = "PGMHSP_POP_CAP"

DEFAULT_ENUM_CAP = 10**7
DEFAULT_POP_CAP = 10**8


class CapExceeded(RuntimeError):
    """A requested computation exceeds the configured resource cap."""


@lru_cache(maxsize=8)  # each variable is read once per process
def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def enum_cap(override: int | None = None) -> int:
    return override if override is not None else _env_int(ENV_ENUM_CAP, DEFAULT_ENUM_CAP)


def pop_cap(override: int | None = None) -> int:
    return override if override is not None else _env_int(ENV_POP_CAP, DEFAULT_POP_CAP)
