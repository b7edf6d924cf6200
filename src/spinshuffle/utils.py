"""Small shared helpers."""

from __future__ import annotations

import os


ENV_THREADS = "SPINSHUFFLE_THREADS"


class NonIdentifiableError(RuntimeError):
    """The data cannot determine the requested unknowns: singular Fisher
    information, or a sparse support unobservable under a mask."""


def worker_count() -> int:
    """Worker parallelism cap from SPINSHUFFLE_THREADS (0 or unset = auto)."""
    raw = os.environ.get(ENV_THREADS, "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError(f"{ENV_THREADS} must be >= 0")
    if value == 0:
        return os.cpu_count() or 1
    return value
