"""What this process may run in parallel, and running it: :func:`fork_join`.

Two workloads in two processes each bring their own BLAS thread pool, so
whether they may run side by side depends on that pool's size as well as
on the CPU count.  The pool is read, never resized: in float64 the trained
parameters depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import traceback
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, TypeVar

import numpy as np  # noqa: F401  (loads the BLAS library read below)

import repro.obs as obs

T = TypeVar("T")
U = TypeVar("U")

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


class ForkedChildError(RuntimeError):
    """The forked child of :func:`fork_join` failed.

    ``exc_type`` and ``child_traceback`` carry what the child reported
    when its work raised; ``exitcode`` is set when it died without
    reporting (a signal or ``os._exit``).
    """

    def __init__(
        self,
        message: str,
        exc_type: str | None = None,
        child_traceback: str = "",
        exitcode: int | None = None,
    ):
        super().__init__(message)
        self.exc_type = exc_type
        self.child_traceback = child_traceback
        self.exitcode = exitcode


def _fork_possible() -> bool:
    """Whether :func:`fork_join` may run its two sides in two processes.

    Each process needs its BLAS pool to itself: with two threads each on
    two CPUs, oversubscription made two trainings slower than running
    them in sequence.  An unreadable pool counts as too large.  A
    daemonic process (a pool or supervisor worker) may not start children.
    """
    threads = blas_threads()
    return (
        threads is not None
        and 2 * threads <= usable_cpus()
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
    )


def _child_main(conn, work: Callable[[], object]) -> None:
    """Body of the forked child: run ``work``, send its result or its error."""
    try:
        message = ("ok", work())
    except BaseException as error:  # the parent re-raises it
        message = ("error", type(error).__name__, str(error), traceback.format_exc())
    obs.child_flush()
    conn.send(message)
    conn.close()


def _receive(conn, child, task: str):
    """The child's result, or its failure as a :class:`ForkedChildError`.

    Polls the child's exit as well as the pipe: processes the child
    forked (gradient workers) inherit its ends of both the result pipe
    and the exit sentinel, so a hard death need not close either.
    """
    while not conn.poll() and child.is_alive():
        _connection_wait([conn, child.sentinel], timeout=0.5)
    message = None
    if conn.poll():
        try:
            message = conn.recv()
        except (EOFError, OSError):  # closed, or cut off mid-message
            pass
    if message is None:
        child.join()
        raise ForkedChildError(
            f"the child {task} exited with code {child.exitcode} "
            "before sending its result",
            exitcode=child.exitcode,
        )
    if message[0] == "error":
        _, exc_type, text, child_traceback = message
        raise ForkedChildError(
            f"{task} failed in the child: {exc_type}: {text}\n\n"
            f"Child traceback:\n{child_traceback}",
            exc_type=exc_type,
            child_traceback=child_traceback,
        )
    return message[1]


def fork_join(
    child: Callable[[], T], caller: Callable[[], U], *, task: str
) -> tuple[T, U]:
    """``(child(), caller())``, with ``child`` run in a forked process.

    When the usable CPUs hold two BLAS pools (two CPUs with BLAS on one
    thread) and fork is available, ``child`` runs in a forked,
    non-daemonic process (so it may start its own workers) while
    ``caller`` runs here; the child calls :func:`repro.obs.child_flush`
    and sends its result back through a pipe, so the result must pickle.
    Otherwise both run here in sequence, ``child`` first; OpenBLAS
    defaults to one thread per CPU, so a process that does not pin it
    takes this path.

    ``task`` names the child's work in errors ("training the plain
    transformer").  A failure in the child raises
    :class:`ForkedChildError`; a failure here (``KeyboardInterrupt``
    included) terminates and reaps the child.
    """
    if not _fork_possible():
        return child(), caller()
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_child_main, args=(sender, child), name=task, daemon=False
    )
    process.start()
    sender.close()
    try:
        caller_result = caller()
        child_result = _receive(receiver, process, task)
    except BaseException:
        process.terminate()
        raise
    finally:
        receiver.close()
        process.join()
    return child_result, caller_result
