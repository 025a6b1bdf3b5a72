"""What this process may run in parallel: usable CPUs and BLAS threads.

Two trainings in two processes each bring their own BLAS thread pool, so
whether they may run side by side depends on that pool's size as well as
on the CPU count.  The pool is read, never resized: in float64 the trained
parameters depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np  # noqa: F401  (loads the BLAS library read below)

#: Thread-count getters across OpenBLAS builds; numpy's wheels ship it
#: with a ``scipy_`` prefix and an ILP64 ``64_`` suffix.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, not the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas_getter():
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in maps
                if "openblas" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs, or ``None`` when it cannot be read
    (another BLAS, or no ``/proc``)."""
    getter = _openblas_getter()
    return int(getter()) if getter is not None else None
