"""Data-parallel gradient workers for the trainer.

:class:`GradientWorkerPool` keeps a small set of forked worker processes
alive across batches and hands each one gradient *shards* — contiguous
slices of a training batch.  The protocol is deliberately stateless: every
command carries the current model parameters and the shard's Lagrange
multipliers, so a worker that crashes mid-batch can be respawned and
handed the identical command with no state reconciliation.  That is the
same supervision idea as :func:`repro.eval.parallel.simulate_jobs_supervised`
(respawn, bounded retries), specialised to a persistent pool: training
dispatches thousands of tiny shard commands, so per-task process spawn
would dominate.

Determinism: a shard's gradient depends only on (parameters, shard
indices, multipliers) — never on which worker ran it or in what order —
so ``run_shards`` results are bitwise identical to running the same
shards serially in-process.  The trainer exploits this for the
k-worker == 1-worker bit-identity guarantee (``TrainerConfig.grad_shards``).

Workers report spans and metrics through :mod:`repro.obs`; the fork
start method keeps the parent's observability configuration, and
:func:`repro.obs.child_flush` ships each worker's buffers back to the
run's journal directory.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Sequence

import repro.obs as obs


class WorkerCrashError(RuntimeError):
    """A gradient worker died more times than the respawn budget allows."""


def _worker_loop(conn, compute: Callable, index: int, parent_end) -> None:
    """Body of one worker process: recv command, compute shard, reply.

    The fork left this worker a copy of the trainer's end of its pipe;
    closing it lets ``recv`` see EOF, so the worker exits when the
    trainer dies without sending ``stop``.
    """
    parent_end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, indices, params, lam, fault = message
        if fault:
            os._exit(17)  # test hook: simulate a hard crash mid-batch
        with obs.span("trainer.worker_shard", worker=index, examples=len(indices)):
            result = compute(indices, params, lam)
        obs.child_flush()
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class GradientWorkerPool:
    """Persistent fork-based pool computing per-shard gradients.

    ``compute(indices, params, lam)`` runs inside the worker and returns a
    picklable result; it is shipped to the children by fork, not pickle,
    so bound methods of the live trainer work.
    """

    def __init__(self, compute: Callable, workers: int, max_respawns: int = 3):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._compute = compute
        self._max_respawns = max_respawns
        self._respawns = 0
        self._fault_budget = 0  # commands to poison (tests only)
        self._ctx = multiprocessing.get_context("fork")
        self._workers = [self._spawn(i) for i in range(workers)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> dict:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_loop,
            args=(child_conn, self._compute, index, parent_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return {"process": process, "conn": parent_conn, "index": index}

    def close(self) -> None:
        """Stop every worker and reap the processes."""
        for worker in self._workers:
            try:
                worker["conn"].send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker["process"].join(timeout=5)
            if worker["process"].is_alive():
                worker["process"].terminate()
                worker["process"].join(timeout=5)
            worker["conn"].close()
        self._workers = []

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def respawns(self) -> int:
        return self._respawns

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _replace(self, crashed: dict, reason: str) -> dict:
        self._respawns += 1
        obs.counter("trainer.worker_respawns").inc()
        if self._respawns > self._max_respawns:
            raise WorkerCrashError(
                f"gradient worker {crashed['index']} died ({reason}) and the "
                f"respawn budget ({self._max_respawns}) is exhausted"
            )
        crashed["process"].join(timeout=5)
        crashed["conn"].close()
        replacement = self._spawn(crashed["index"])
        self._workers[self._workers.index(crashed)] = replacement
        return replacement

    def run_shards(self, commands: Sequence[tuple]) -> list[Any]:
        """Run ``(indices, params, lam)`` commands; results in command order.

        At most one command is in flight per worker (bounded pipe buffers
        in both directions cannot deadlock).  A worker that dies is
        respawned and its command retried, up to ``max_respawns`` total.
        """
        pending = list(enumerate(commands))
        results: list[Any] = [None] * len(commands)
        outstanding = len(commands)
        inflight: dict[Any, tuple[int, dict]] = {}
        idle = list(self._workers)

        while outstanding:
            while pending and idle:
                slot, command = pending.pop(0)
                worker = idle.pop(0)
                fault = False
                if self._fault_budget > 0:
                    self._fault_budget -= 1
                    fault = True
                try:
                    worker["conn"].send(("shard", *command, fault))
                except (BrokenPipeError, OSError) as error:
                    pending.insert(0, (slot, command))
                    idle.append(self._replace(worker, f"send failed: {error}"))
                    continue
                inflight[worker["conn"]] = (slot, worker)
            for conn in _connection_wait(list(inflight)):
                slot, worker = inflight.pop(conn)
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    pending.insert(0, (slot, commands[slot]))
                    idle.append(self._replace(worker, "worker process died"))
                    continue
                results[slot] = payload
                outstanding -= 1
                idle.append(worker)
        return results
