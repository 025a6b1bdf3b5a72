"""Deterministic, seedable fault injectors for testing recovery paths.

A recovery path that has never fired is a liability, not a feature.  This
module makes each failure mode the resilience layer claims to survive
*injectable on demand*, deterministically, so tests (and the CI fault
smoke job) can prove the corresponding recovery actually happens:

* :class:`CrashOnce` / :class:`HangOnce` / :class:`FailOnce` — wrap a job
  function so that each payload's *first* attempt crashes the worker
  (``os._exit``), hangs it, or raises; the retry runs the real job.
  First-attempt state lives in marker files under a test-owned directory,
  so the injection is exact across processes and repeatable across runs;
* :func:`corrupt_cache_entry` — truncate or garbage-fill a
  :class:`~repro.switchsim.cache.TraceCache` entry on disk, exercising
  the quarantine-and-resimulate path;
* :func:`stalling_lp` — a HiGHS LP solve that sleeps first, turning
  any branch-and-bound run into a stalled solver for deadline tests;
* :class:`SteppingClock` — a fake monotonic clock advancing a fixed step
  per reading, for driving :class:`~repro.resilience.budget.Budget`
  expiry without sleeping.

Everything here composes with the PR-2 ``repro.testing`` harness: the
injected sweeps are asserted bit-identical to clean ones via the golden
trace fingerprints.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from pathlib import Path
from typing import Any, Callable, Union

from repro.switchsim.cache import TraceCache

PathLike = Union[str, Path]
Selector = Callable[[Any], bool]


def payload_key(payload: Any) -> str:
    """Stable short key identifying a job payload (via its ``repr``)."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


class _OncePerPayload:
    """Base injector: trigger on each selected payload's first attempt.

    The trigger is recorded as a marker file *before* the fault fires, so
    a retried attempt (fresh process included) sees the marker and runs
    the real job.  Marker creation is atomic (``open("x")``), making the
    injection race-free under concurrent workers.
    """

    fault_kind = "fault"

    def __init__(
        self,
        fn: Callable[[Any], Any],
        state_dir: PathLike,
        selector: Selector | None = None,
    ):
        self.fn = fn
        self.state_dir = Path(state_dir)
        self.selector = selector

    def _should_fire(self, payload: Any) -> bool:
        if self.selector is not None and not self.selector(payload):
            return False
        self.state_dir.mkdir(parents=True, exist_ok=True)
        marker = self.state_dir / f"{self.fault_kind}_{payload_key(payload)}"
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            return False
        return True

    def _fire(self, payload: Any) -> None:
        raise NotImplementedError

    def __call__(self, payload: Any) -> Any:
        if self._should_fire(payload):
            self._fire(payload)
        return self.fn(payload)


class CrashOnce(_OncePerPayload):
    """Kill the worker process on each payload's first attempt.

    ``os._exit`` bypasses every ``finally`` and pipe write — exactly the
    signature of a segfault or the OOM killer from the parent's view.
    """

    fault_kind = "crash"

    def __init__(self, fn, state_dir, selector=None, exit_code: int = 9):
        super().__init__(fn, state_dir, selector)
        self.exit_code = exit_code

    def _fire(self, payload: Any) -> None:
        os._exit(self.exit_code)


class HangOnce(_OncePerPayload):
    """Stall the worker on each payload's first attempt.

    The sleep outlives any sensible per-job timeout, so the supervisor's
    kill-and-retry path fires; without a timeout the job merely runs
    ``hang_seconds`` late (a transient stall).
    """

    fault_kind = "hang"

    def __init__(self, fn, state_dir, selector=None, hang_seconds: float = 60.0):
        super().__init__(fn, state_dir, selector)
        self.hang_seconds = hang_seconds

    def _fire(self, payload: Any) -> None:
        time.sleep(self.hang_seconds)


class FailOnce(_OncePerPayload):
    """Raise from the job function on each payload's first attempt."""

    fault_kind = "error"

    def __init__(self, fn, state_dir, selector=None, message: str = "injected fault"):
        super().__init__(fn, state_dir, selector)
        self.message = message

    def _fire(self, payload: Any) -> None:
        raise RuntimeError(self.message)


def corrupt_cache_entry(
    cache: TraceCache, params, mode: str = "truncate"
) -> Path:
    """Damage the on-disk cache entry for ``params``; returns its path.

    ``mode="truncate"`` cuts the archive short (a crash mid-write on a
    filesystem without atomic rename); ``mode="garbage"`` overwrites it
    with non-npz bytes (bit rot, torn page).
    """
    path = cache.path_for(params)
    if not path.exists():
        raise FileNotFoundError(f"no cache entry to corrupt at {path}")
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(len(data) // 3, 1)])
    elif mode == "garbage":
        path.write_bytes(b"this is not an npz archive")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def stalling_lp(delay: float):
    """An LP solver that sleeps ``delay`` seconds before every HiGHS solve.

    Pass the returned callable as ``lp`` to
    :func:`repro.smt.branch_bound.solve_milp` to simulate a solver whose
    nodes have become slow — the situation a wall-clock
    :class:`~repro.resilience.budget.Budget` exists to bound.
    """
    from repro.smt.simplex import solve_lp_scipy

    def stalled(problem, **kwargs):
        time.sleep(delay)
        return solve_lp_scipy(problem, **kwargs)

    return stalled


class SteppingClock:
    """Fake monotonic clock: advances ``step`` seconds per reading.

    Lets tests drive :class:`~repro.resilience.budget.Budget` expiry
    deterministically — "the solver explored k nodes, so k·step seconds
    passed" — without any real sleeping.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0):
        self.step = step
        self.now = start
        self.readings = 0

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        self.readings += 1
        return value


def kill_after_puts(journal, count: int, sig: int = signal.SIGKILL) -> None:
    """Send ``sig`` to this process after ``count`` more journal puts.

    Each put is durable before the signal fires, so the interrupted run
    models the worst honest crash: everything committed survives, the
    cell in flight is lost.  Used by the table1 resume tests.
    """
    remaining = {"n": int(count)}
    original = journal.put

    def put(key, value):
        original(key, value)
        remaining["n"] -= 1
        if remaining["n"] <= 0:
            os.kill(os.getpid(), sig)

    journal.put = put
