"""Probe for POSIX shared-memory support.

:func:`shared_memory_available` reports whether this interpreter can create
and map ``multiprocessing.shared_memory`` segments (``/dev/shm`` present, no
sandbox in the way).  The benchmark environment stamps record it so numbers
from different hosts can be told apart.
"""

from __future__ import annotations

__all__ = ["shared_memory_available"]

_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """Whether this interpreter can create and map shared-memory segments."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=64)
            try:
                probe.buf[0] = 1
                _AVAILABLE = probe.buf[0] == 1
            finally:
                probe.close()
                probe.unlink()
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE
