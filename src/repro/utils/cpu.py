"""What this process may run in parallel, and running it: :func:`fork_join`
for work in a forked child, :func:`split_halves` for work on a helper thread.

Two workloads side by side each bring their own BLAS thread pool, so
whether they may run in parallel depends on that pool's size as well as
on the CPU count.  The library reads the pool, never resizes it: in
float64 the trained parameters depend on the BLAS thread count.  Only the
``repro`` command sets a default, once, as it starts (:func:`repro.cli.entry`).
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import threading
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
_OPENBLAS_SETTERS = tuple(name.replace("_get_", "_set_") for name in _OPENBLAS_GETTERS)

#: Sides of a forked :func:`fork_join` this process is on: the caller's
#: while ``caller()`` runs, and the whole of a forked child.
_fork_sides = 0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, not the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas_function(names: tuple[str, ...], restype, *argtypes):
    """The first of ``names`` exported by a loaded OpenBLAS, or ``None``."""
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
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                function.restype = restype
                function.argtypes = list(argtypes)
                return function
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs, or ``None`` when it cannot be read
    (another BLAS, or no ``/proc``)."""
    getter = _openblas_function(_OPENBLAS_GETTERS, ctypes.c_int)
    return int(getter()) if getter is not None else None


def set_blas_threads(threads: int) -> None:
    """Resize numpy's OpenBLAS pool to ``threads``; a no-op on another
    BLAS.  For a process entry point that starts after numpy loaded."""
    setter = _openblas_function(_OPENBLAS_SETTERS, None, ctypes.c_int)
    if setter is not None:
        setter(threads)


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


def _two_lanes() -> bool:
    """Whether this process may run two workloads side by side.

    Each needs a BLAS pool to itself: with two threads each on two CPUs,
    oversubscription made two trainings slower than running them in
    sequence.  An unreadable pool counts as too large.  A daemonic
    process (a supervisor attempt) stays on one lane.
    """
    threads = blas_threads()
    return (
        threads is not None
        and 2 * threads <= usable_cpus()
        and not multiprocessing.current_process().daemon
    )


def _fork_possible() -> bool:
    """Whether :func:`fork_join` may run its two sides in two processes."""
    return _two_lanes() and "fork" in multiprocessing.get_all_start_methods()


def _thread_possible() -> bool:
    """Whether :func:`split_halves` may start its helper thread: not on
    either side of a forked :func:`fork_join`, which holds both lanes."""
    return _two_lanes() and not _fork_sides


def _child_main(conn, work: Callable[[], object]) -> None:
    """Body of the forked child: run ``work``, send its result or its error."""
    global _fork_sides
    _fork_sides += 1
    try:
        message = ("ok", work())
    except BaseException as error:  # the parent re-raises it
        message = ("error", type(error).__name__, str(error), traceback.format_exc())
    obs.child_flush()
    conn.send(message)
    conn.close()


def _receive(conn, child, task: str):
    """The child's result, or its failure as a :class:`ForkedChildError`.

    Polls the child's exit as well as the pipe: a process the child
    forks inherits its ends of both the result pipe and the exit
    sentinel, so a hard death need not close either.
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
    non-daemonic process (so it may fork in turn) while
    ``caller`` runs here; the child calls :func:`repro.obs.child_flush`
    and sends its result back through a pipe, so the result must pickle.
    Otherwise both run here in sequence, ``child`` first; OpenBLAS
    defaults to one thread per CPU, so a process that does not pin it
    takes this path.

    ``task`` names the child's work in errors ("training the plain
    transformer").  A failure in the child raises
    :class:`ForkedChildError`; a failure here (``KeyboardInterrupt``
    included) terminates and reaps the child.  While both sides run,
    :func:`split_halves` starts no helper in either process.
    """
    global _fork_sides
    if not _fork_possible():
        return child(), caller()
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_child_main, args=(sender, child), name=task, daemon=False
    )
    process.start()
    sender.close()
    _fork_sides += 1
    try:
        caller_result = caller()
        child_result = _receive(receiver, process, task)
    except BaseException:
        process.terminate()
        raise
    finally:
        _fork_sides -= 1
        receiver.close()
        process.join()
    return child_result, caller_result


def split_halves(work: Callable[[list[T]], list[U]], items: list[T]) -> list[U]:
    """``work(items)``, with the second half of ``items`` on a helper thread.

    ``work`` must map a list to one result per item, each independent of
    the rest, so that ``work(items[:h]) + work(items[h:])`` equals
    ``work(items)``.  It should spend its time where numpy releases the
    GIL (BLAS calls, large ufuncs and reductions).  The caller runs
    ``work`` on the first half while one short-lived thread runs it on
    the second, under :func:`fork_join`'s gate (two BLAS pools fit the
    usable CPUs, and the process is not daemonic) and outside both sides
    of a forked :func:`fork_join`, which already holds both CPUs.
    Otherwise, or for fewer than two items, ``work(items)`` runs here in
    one call.

    The thread is joined before this returns, so none outlives the call
    and a later fork copies no idle pool.  A failure on the helper is
    re-raised here; a failure here still waits for the helper.  The
    helper starts in default thread state: grad mode on
    (:func:`repro.autodiff.no_grad` is per thread).
    """
    if len(items) < 2 or not _thread_possible():
        return work(items)
    half = (len(items) + 1) // 2
    outcome: list = []

    def helper() -> None:
        try:
            outcome.append((True, work(items[half:])))
        except BaseException as error:  # re-raised in the caller
            outcome.append((False, error))

    thread = threading.Thread(target=helper, name="repro-split-halves", daemon=True)
    thread.start()
    try:
        first = work(items[:half])
    finally:
        thread.join()
    succeeded, second = outcome[0]
    if not succeeded:
        raise second
    return first + second
