"""Supervised process execution: timeouts, retries, crash recovery.

A plain ``multiprocessing.Pool`` is all-or-nothing: one worker that
segfaults, hangs on a pathological scenario, or dies to the OOM killer
takes the whole ``Pool.map`` down and loses every sibling's work.  A
:class:`Supervisor` runs the same embarrassingly-parallel jobs with a
recovery story per failure mode:

* **hang** — each attempt gets a wall-clock ``timeout``; an expired
  attempt is killed and retried without stalling siblings (the scheduler
  keeps every other in-flight job running);
* **crash** — a worker that dies without reporting (signal, ``os._exit``)
  is detected by its exit code and the job is retried in a fresh process;
* **error** — an exception inside the job function is captured, reported,
  and retried (transient errors — a full disk, a flaky NFS read — heal;
  deterministic ones exhaust their attempts and land in the report);
* **graceful degradation** — jobs that exhaust ``max_attempts`` do not
  raise; the sweep returns every completed result plus a structured
  :class:`FailureReport`, so hours of sibling work survive one casualty.

Retries are safe *because* jobs are deterministic functions of their
payload: a respawned worker re-derives the same seed and produces a
bit-identical result (asserted against the golden trace fingerprints in
``tests/resilience/``).  Retry backoff grows exponentially with
deterministic jitter — seeded per (job, attempt), so a supervised sweep
is reproducible end to end.

Workers are separate ``multiprocessing`` processes (fork-preferred); the
supervisor itself is single-threaded and drives everything from a
``connection.wait`` event loop.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

import repro.obs as obs

#: Longest the event loop sleeps between bookkeeping passes (seconds).
_POLL_CAP = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """When to give up on a job and how long to wait between attempts.

    ``backoff_seconds`` grows exponentially from ``backoff_base`` and is
    capped at ``backoff_cap``; on top rides uniform jitter of up to
    ``jitter`` times the delay, derived deterministically from
    ``(seed, job_index, attempt)`` so reruns back off identically.
    """

    max_attempts: int = 3
    timeout: float | None = None  # per-attempt wall clock; None = no limit
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25  # fraction of the delay added as jitter
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    def backoff_seconds(self, job_index: int, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based) of one job."""
        delay = min(
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
            self.backoff_cap,
        )
        if self.jitter > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, int(job_index), int(attempt)])
            )
            delay += float(rng.uniform(0.0, self.jitter * delay))
        return delay


@dataclass
class JobFailure:
    """One job that exhausted its attempts, and why.

    ``backoff_seconds`` is the total retry backoff the job sat out and
    ``wall_seconds`` the wall clock from its first launch to the terminal
    failure — so a degraded sweep's report says not just *that* a job
    died but how much time its retries consumed.  Both default to 0 for
    hand-constructed failures.
    """

    index: int
    kind: str  # "timeout" | "crash" | "error"
    attempts: int
    message: str
    backoff_seconds: float = 0.0
    wall_seconds: float = 0.0

    def __str__(self) -> str:
        text = (
            f"job {self.index}: {self.kind} after {self.attempts} "
            f"attempt(s): {self.message}"
        )
        if self.wall_seconds > 0:
            text += (
                f" [{self.wall_seconds:.2f}s wall clock, "
                f"{self.backoff_seconds:.2f}s in backoff]"
            )
        return text


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of one job, as observed by the supervisor."""

    index: int
    attempt: int  # 1-based
    outcome: str  # "ok" | "timeout" | "crash" | "error"
    seconds: float  # attempt wall clock (launch to verdict)
    backoff_seconds: float = 0.0  # delay scheduled before the next attempt


@dataclass
class FailureReport:
    """Structured account of what a supervised sweep could not finish.

    ``attempt_log`` records every attempt — including successful ones —
    with its outcome, duration, and the backoff scheduled after it, so a
    degraded run is diagnosable from the report (or the emitted
    ``supervisor.*`` metrics) alone.
    """

    total_jobs: int = 0
    failures: list[JobFailure] = field(default_factory=list)
    retries: int = 0  # attempts beyond each job's first
    attempt_log: list[AttemptRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> list[int]:
        return [f.index for f in self.failures]

    def summary(self) -> str:
        done = self.total_jobs - len(self.failures)
        head = (
            f"{done}/{self.total_jobs} jobs completed, "
            f"{len(self.failures)} failed, {self.retries} retr"
            + ("y" if self.retries == 1 else "ies")
        )
        if not self.failures:
            return head
        return head + "\n" + "\n".join(f"  {f}" for f in self.failures)


@dataclass
class SweepResult:
    """Completed results (``None`` at failed indices) plus the report."""

    results: list[Any]
    report: FailureReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    def completed(self) -> list[Any]:
        """The successful results, in job order."""
        return [r for i, r in enumerate(self.results) if i not in set(self.report.failed_indices)]


def _attempt_runner(fn, payload, conn, index: int = 0, attempt: int = 1) -> None:
    """Child-process entry: run the job, report through the pipe.

    When observability is configured in the supervising process the
    forked child inherits it: the attempt runs under a
    ``supervisor.attempt`` span and the child's buffered trace events and
    metrics are flushed before the process exits (``os._exit`` via
    multiprocessing skips ``atexit``, so this is the only flush point).
    """
    try:
        with obs.span("supervisor.attempt", job=index, attempt=attempt):
            result = fn(payload)
    except BaseException as exc:  # noqa: BLE001 - everything must be reported
        obs.child_flush()
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - pipe already gone
            pass
        finally:
            conn.close()
        return
    obs.child_flush()
    conn.send(("ok", result))
    conn.close()


@dataclass
class _Attempt:
    """Parent-side bookkeeping for one in-flight attempt."""

    index: int
    attempt: int  # 1-based
    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    deadline: float | None  # absolute monotonic time, None = no limit
    started_at: float = 0.0  # monotonic launch time


class Supervisor:
    """Runs ``fn(payload)`` for every payload under supervision.

    ``fn`` must be a deterministic function of its payload (retries rerun
    it from scratch) and — together with the payloads — compatible with
    the platform's process start method (under ``fork`` anything goes;
    under ``spawn`` both must pickle).

    ``on_attempt`` is called with every :class:`AttemptRecord` the moment
    it is appended to the report — successes, retried failures, and
    terminal failures alike — which is how the streaming service keeps
    its per-shard health board current while a sweep is in flight.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        policy: RetryPolicy | None = None,
        workers: int | None = None,
        on_attempt: "Callable[[AttemptRecord], None] | None" = None,
    ):
        self.fn = fn
        self.policy = policy if policy is not None else RetryPolicy()
        self.workers = workers
        self.on_attempt = on_attempt
        self._ctx = self._context()

    @staticmethod
    def _context() -> multiprocessing.context.BaseContext:
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            return multiprocessing.get_context()

    # ------------------------------------------------------------------
    def run(self, payloads: Sequence[Any]) -> SweepResult:
        """Execute every payload; never raises on job failure."""
        n = len(payloads)
        report = FailureReport(total_jobs=n)
        results: list[Any] = [None] * n
        if n == 0:
            return SweepResult(results, report)
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        workers = max(1, min(int(workers), n))

        pending: list[tuple[int, int]] = [(i, 1) for i in range(n)]
        pending.reverse()  # pop() then serves jobs in input order
        waiting: list[tuple[float, int, int]] = []  # (ready_at, index, attempt)
        inflight: dict[int, _Attempt] = {}
        # Per-job diagnostics for the report: first launch time and the
        # total backoff the job has sat out across its retries.
        self._first_launch: dict[int, float] = {}
        self._backoff_total: dict[int, float] = {}

        try:
            while pending or waiting or inflight:
                now = time.monotonic()
                # Backoff timers that came due move back to the run queue.
                due = [w for w in waiting if w[0] <= now]
                if due:
                    waiting = [w for w in waiting if w[0] > now]
                    for _, index, attempt in sorted(due, key=lambda w: w[1]):
                        pending.append((index, attempt))
                while pending and len(inflight) < workers:
                    index, attempt = pending.pop()
                    inflight[index] = self._launch(payloads[index], index, attempt, now)

                if not inflight:
                    # Nothing running: sleep until the next backoff expires.
                    if waiting:
                        time.sleep(
                            min(_POLL_CAP, max(0.0, min(w[0] for w in waiting) - now))
                        )
                    continue

                timeout = _POLL_CAP
                deadlines = [a.deadline for a in inflight.values() if a.deadline]
                if deadlines:
                    timeout = min(timeout, max(0.0, min(deadlines) - now))
                ready = multiprocessing.connection.wait(
                    [a.conn for a in inflight.values()], timeout=timeout
                )

                ready_set = set(ready)
                now = time.monotonic()
                for index in list(inflight):
                    attempt = inflight[index]
                    if attempt.conn in ready_set:
                        self._finish(attempt, results, report, pending, waiting)
                        del inflight[index]
                    elif attempt.deadline is not None and now >= attempt.deadline:
                        self._kill(attempt)
                        self._record(
                            attempt,
                            "timeout",
                            f"exceeded {self.policy.timeout}s wall clock",
                            report,
                            pending,
                            waiting,
                        )
                        del inflight[index]
                    elif not attempt.process.is_alive() and not attempt.conn.poll():
                        exitcode = attempt.process.exitcode
                        attempt.conn.close()
                        self._record(
                            attempt,
                            "crash",
                            f"worker died without reporting (exit code {exitcode})",
                            report,
                            pending,
                            waiting,
                        )
                        del inflight[index]
        finally:
            for attempt in inflight.values():
                self._kill(attempt)

        return SweepResult(results, report)

    # ------------------------------------------------------------------
    def _launch(self, payload: Any, index: int, attempt: int, now: float) -> _Attempt:
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_attempt_runner,
            args=(self.fn, payload, send, index, attempt),
            daemon=True,
        )
        process.start()
        send.close()  # parent keeps only the read end
        deadline = now + self.policy.timeout if self.policy.timeout else None
        self._first_launch.setdefault(index, now)
        return _Attempt(index, attempt, process, recv, deadline, started_at=now)

    def _finish(self, attempt, results, report, pending, waiting) -> None:
        """Drain a readable pipe: success, reported error, or a torn write."""
        try:
            status, value = attempt.conn.recv()
        except (EOFError, OSError):
            status, value = "crash", "worker closed the pipe without a result"
        attempt.conn.close()
        attempt.process.join()
        if status == "ok":
            results[attempt.index] = value
            record = AttemptRecord(
                attempt.index,
                attempt.attempt,
                "ok",
                time.monotonic() - attempt.started_at,
            )
            report.attempt_log.append(record)
            obs.counter("supervisor.jobs_completed").inc()
            if self.on_attempt is not None:
                self.on_attempt(record)
            return
        self._record(attempt, status, str(value), report, pending, waiting)

    def _record(self, attempt, kind, message, report, pending, waiting) -> None:
        """Schedule a retry with backoff, or record the terminal failure."""
        now = time.monotonic()
        seconds = now - attempt.started_at
        plural = {"timeout": "timeouts", "crash": "crashes", "error": "errors"}
        obs.counter(f"supervisor.{plural.get(kind, kind)}").inc()
        if attempt.attempt < self.policy.max_attempts:
            report.retries += 1
            obs.counter("supervisor.retries").inc()
            delay = self.policy.backoff_seconds(attempt.index, attempt.attempt)
            self._backoff_total[attempt.index] = (
                self._backoff_total.get(attempt.index, 0.0) + delay
            )
            record = AttemptRecord(attempt.index, attempt.attempt, kind, seconds, delay)
            report.attempt_log.append(record)
            waiting.append((now + delay, attempt.index, attempt.attempt + 1))
        else:
            record = AttemptRecord(attempt.index, attempt.attempt, kind, seconds)
            report.attempt_log.append(record)
            report.failures.append(
                JobFailure(
                    attempt.index,
                    kind,
                    attempt.attempt,
                    message,
                    backoff_seconds=self._backoff_total.get(attempt.index, 0.0),
                    wall_seconds=now - self._first_launch[attempt.index],
                )
            )
            obs.counter("supervisor.jobs_failed").inc()
        if self.on_attempt is not None:
            self.on_attempt(record)

    @staticmethod
    def _kill(attempt: _Attempt) -> None:
        attempt.conn.close()
        if attempt.process.is_alive():
            attempt.process.terminate()
            attempt.process.join(timeout=1.0)
            if attempt.process.is_alive():  # pragma: no cover - stubborn child
                attempt.process.kill()
                attempt.process.join(timeout=1.0)
