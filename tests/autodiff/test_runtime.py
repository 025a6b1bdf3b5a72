"""large_alloc_reuse: allocator tuning is scoped and harmless."""

from __future__ import annotations

import ctypes.util
import sys
import threading
import time

import numpy as np

from repro.autodiff import runtime
from repro.autodiff.runtime import large_alloc_reuse

TUNE = [
    (runtime._M_MMAP_THRESHOLD, runtime._TUNED_BYTES),
    (runtime._M_TRIM_THRESHOLD, runtime._TUNED_BYTES),
]
RESTORE = [
    (runtime._M_MMAP_THRESHOLD, runtime._DEFAULT_MMAP),
    (runtime._M_TRIM_THRESHOLD, runtime._DEFAULT_TRIM),
]


class TestLargeAllocReuse:
    def test_context_enters_and_exits(self):
        with large_alloc_reuse() as active:
            assert active in (True, False)  # False only on non-glibc
            # Allocation patterns inside the context behave normally.
            arrays = [np.zeros(1_000_000) for _ in range(3)]
            assert all(a.sum() == 0.0 for a in arrays)

    def test_nesting_is_safe(self):
        with large_alloc_reuse():
            with large_alloc_reuse():
                buf = np.ones(2_000_000)
            assert buf.sum() == 2_000_000.0

    def test_exception_still_restores(self):
        try:
            with large_alloc_reuse():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # Allocator still serves requests after restore.
        assert np.arange(1_000_000).dtype == np.int64

    def test_libc_is_looked_up_once(self, monkeypatch):
        # find_library runs ldconfig in a subprocess on every call.
        calls = []
        real = ctypes.util.find_library

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(ctypes.util, "find_library", counting)
        runtime._mallopt.cache_clear()
        for _ in range(3):
            with large_alloc_reuse():
                pass
        assert len(calls) == 1


class TestNestingRestoresOnlyAtTheOutermostExit:
    """An inner scope must not reset the allocator under an outer one."""

    def _recorder(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            time.sleep(0)  # ctypes releases the GIL around the real call
            return 1

        monkeypatch.setattr(runtime, "_mallopt", lambda: mallopt)
        return calls

    def test_nested_scopes_tune_once_and_restore_once(self, monkeypatch):
        calls = self._recorder(monkeypatch)
        with large_alloc_reuse():
            assert calls == TUNE
            with large_alloc_reuse():
                with large_alloc_reuse():
                    pass
                assert calls == TUNE  # inner exits leave the tuning on
            assert calls == TUNE
        assert calls == TUNE + RESTORE

    def test_sequential_scopes_each_tune_and_restore(self, monkeypatch):
        calls = self._recorder(monkeypatch)
        for _ in range(2):
            with large_alloc_reuse():
                pass
        assert calls == (TUNE + RESTORE) * 2

    def test_exception_in_inner_scope_restores_at_the_outer_exit(self, monkeypatch):
        calls = self._recorder(monkeypatch)
        try:
            with large_alloc_reuse():
                try:
                    with large_alloc_reuse():
                        raise RuntimeError("boom")
                except RuntimeError:
                    assert calls == TUNE
                raise RuntimeError("outer")
        except RuntimeError:
            pass
        assert calls == TUNE + RESTORE

    def test_concurrent_scopes_keep_tune_and_restore_paired(self, monkeypatch):
        # mallopt is process-wide, so threads share one nesting count; a
        # lost update would restore under a live scope or never restore.
        calls = self._recorder(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker():
                for _ in range(200):
                    with large_alloc_reuse():
                        with large_alloc_reuse():
                            pass

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert calls and len(calls) % 4 == 0
        for start in range(0, len(calls), 4):
            assert calls[start:start + 4] == TUNE + RESTORE
        assert runtime._depth == 0
