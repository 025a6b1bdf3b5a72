"""Process-level runtime tuning for the training/inference hot path.

The transformer hot path allocates and frees many multi-megabyte
scratch arrays per batch (attention scores and their gradients).  With
glibc's default ``M_MMAP_THRESHOLD``, each of those allocations is
served by ``mmap`` and returned to the kernel on free, so every batch
pays the page-fault + zero-fill cost again.  Raising the mmap and trim
thresholds keeps the buffers on the heap free-list, where they are
recycled across batches — on the profiled trainer this is worth ~1.5x
wall-clock by itself.

:func:`large_alloc_reuse` scopes the tuning with ``mallopt`` and
restores glibc defaults when the outermost scope exits.  On platforms
without glibc ``mallopt`` the context is a documented no-op.  Training
(:class:`~repro.imputation.trainer.Trainer`), Table 1, the robustness
suite and the serve experiment each run inside it.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import functools
import threading

# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# glibc's static defaults (dynamic adjustment stops once set explicitly,
# so "restore" means these, not the pre-context dynamic state).
_DEFAULT_TRIM = 128 * 1024
_DEFAULT_MMAP = 128 * 1024

# Large enough that every autodiff scratch buffer stays on the heap.
_TUNED_BYTES = 256 * 1024 * 1024

# mallopt settings are process-wide, so nesting is counted process-wide.
_depth = 0
_depth_lock = threading.Lock()


@functools.lru_cache(maxsize=None)
def _mallopt():
    """The libc ``mallopt`` symbol, or None when unavailable.

    Resolved once: ``find_library`` runs ``ldconfig`` in a subprocess.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        fn = libc.mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


@contextlib.contextmanager
def large_alloc_reuse():
    """Keep multi-MB numpy buffers on the heap free-list while active.

    Safe to nest: only the outermost scope tunes and restores, so an
    inner scope's exit leaves the allocator tuned for its enclosing one.
    A no-op on non-glibc platforms.
    """
    global _depth
    mallopt = _mallopt()
    if mallopt is None:
        yield False
        return
    with _depth_lock:
        if _depth == 0:
            mallopt(_M_MMAP_THRESHOLD, _TUNED_BYTES)
            mallopt(_M_TRIM_THRESHOLD, _TUNED_BYTES)
        _depth += 1
    try:
        yield True
    finally:
        with _depth_lock:
            _depth -= 1
            if _depth == 0:
                mallopt(_M_MMAP_THRESHOLD, _DEFAULT_MMAP)
                mallopt(_M_TRIM_THRESHOLD, _DEFAULT_TRIM)

