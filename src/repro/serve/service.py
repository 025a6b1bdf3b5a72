"""The streaming imputation service: records in, imputed windows out.

:class:`StreamService` is the long-lived layer an operator would run:
per-interval coarse records for a fleet of switches go in (``submit``),
constraint-enforced fine-grained windows come out with bounded latency.
Internally it composes the substrates the batch pipeline already trusts:

* the :class:`~repro.serve.windows.WindowAssembler` turns record streams
  into self-contained :class:`~repro.serve.windows.WindowTask` s;
* completed tasks wait in a :class:`~repro.serve.queueing.BoundedQueue`
  and are dispatched in micro-batches, so inference amortises through
  ``impute_batch`` exactly as the offline evaluation does;
* each dispatch shards its tasks by :func:`~repro.serve.sharding.
  shard_of` and — in supervised mode — runs one worker process per shard
  under the :class:`~repro.resilience.supervisor.Supervisor`, whose
  respawn/backoff machinery makes shard crashes and hangs survivable.

The recovery story rests on the **stateless per-window protocol**: a
shard job is a pure function of its payload (the tasks carry their full
coarse telemetry; the model parameters are frozen), so a respawned shard
re-derives output bit-identical to what the dead worker would have
produced.  The parent deduplicates emitted windows by ``(switch_id,
window_index)`` and treats a duplicate as a bug, not a shrug.

Parity with the offline pipeline is the headline property: the per-task
samples are constructed exactly like :func:`~repro.telemetry.dataset.
build_dataset` windows, ``impute_batch`` is pinned item-identical to
``impute``, and the CEM projection is deterministic — so float64
streamed output is bit-identical to ``train → table1`` on the same
windows (``tests/serve/test_stream_parity.py``), for one shard or many,
across a crash-respawn.

Two opt-in robustness layers ride on top (both absent from the default
strict path — no policy object, no sentinel, behaviour-identical):

* a :class:`~repro.serve.windows.DegradedStreamPolicy` lets the
  assembler repair, skip, or resync around per-switch protocol
  violations instead of raising (``serve.degraded.*`` counters);
* an :class:`~repro.robustness.sentinel.OODSentinel` scores every
  window's pre-enforcement constraint residuals + CEM correction mass
  and flags — or quarantines — windows that look off-distribution
  (``serve.ood.score`` histogram, ``serve.ood.flagged`` /
  ``serve.ood.quarantined`` counters).

Service metrics (when :mod:`repro.obs` is configured): the
``serve.latency_seconds`` histogram (p50/p99 via its quantiles),
``serve.queue_depth`` / ``serve.switch_intervals_per_sec`` gauges, and
``serve.records`` / ``serve.records_rejected`` / ``serve.windows`` /
``serve.dispatches`` / ``serve.backpressure`` / ``serve.respawns``
counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.imputation.cem import ConstraintEnforcer
from repro.serve.errors import ServeError
from repro.serve.health import ShardHealthBoard
from repro.serve.queueing import BoundedQueue, QueueFull
from repro.serve.records import CoarseRecord, ImputedWindow
from repro.serve.sharding import shard_of
from repro.serve.slo import SloPolicy, SloTracker
from repro.serve.windows import (
    DegradedStreamPolicy,
    StreamProtocolError,
    WindowAssembler,
    WindowTask,
)
from repro.switchsim.switch import SwitchConfig
from repro.telemetry.dataset import FeatureScaler
from repro.testing.selfcheck import SelfCheckError, selfcheck_enforced
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.sentinel import OODSentinel
    from repro.serve.config import ServeConfig


#: Child → parent result for one window: everything the parent needs to
#: build an :class:`ImputedWindow`, in picklable primitives.  The final
#: element is the OOD shift score (None when no sentinel is installed).
_WindowResult = tuple  # (switch_id, window_index, start_interval, start_bin,
#                        values, ood_score)

#: Valid values of ``StreamService``'s ``ood_action``.
_OOD_ACTIONS = ("off", "flag", "quarantine")


class _ShardJob:
    """The pure per-shard unit of work: tasks in, window results out.

    Deterministic function of its payload (the tasks are self-contained,
    the model/scaler/enforcer are frozen at construction), which is what
    makes Supervisor retries — and therefore crash-respawn bit-equality —
    sound.  Runs in the parent in inline mode and in a forked worker per
    shard in supervised mode.
    """

    def __init__(
        self,
        model: Any,
        scaler: FeatureScaler,
        switch_config: SwitchConfig,
        use_cem: bool,
        selfcheck: bool,
        sentinel: "OODSentinel | None" = None,
    ):
        self.model = model
        self.scaler = scaler
        self.switch_config = switch_config
        self.use_cem = use_cem
        self.selfcheck = selfcheck
        self.sentinel = sentinel
        self.enforcer = ConstraintEnforcer(switch_config) if use_cem else None

    def __call__(self, payload: tuple) -> list[_WindowResult]:
        dispatch, shard, tasks = payload
        # Counted *inside* the job so supervised shards count in their own
        # process: a crashed attempt's count dies with it (os._exit stages
        # no .parts) and only the successful respawn's count merges in.
        obs.counter("serve.shard.windows").inc(len(tasks))
        with obs.span("serve.shard", dispatch=dispatch, shard=shard, windows=len(tasks)):
            samples = [
                task.sample(self.scaler, self.switch_config.num_queues)
                for task in tasks
            ]
            imputed = self.model.impute_batch(samples)
            results: list[_WindowResult] = []
            for task, sample, pre_enforcement in zip(tasks, samples, imputed):
                values = pre_enforcement
                if self.enforcer is not None:
                    values = self.enforcer.enforce(pre_enforcement, sample)
                score = None
                if self.sentinel is not None:
                    # Scored from the raw prediction's residuals + the
                    # CEM correction mass — computed here, shard-side,
                    # because the parent only ever sees enforced values.
                    score = self.sentinel.score(
                        pre_enforcement,
                        values if self.enforcer is not None else None,
                        sample,
                        self.switch_config,
                    )
                if self.selfcheck:
                    selfcheck_enforced(
                        values,
                        sample,
                        self.switch_config,
                        repro={"switch_id": task.switch_id, "shard": shard},
                    )
                results.append(
                    (
                        task.switch_id,
                        task.window_index,
                        task.start_interval,
                        task.start_bin,
                        values,
                        score,
                    )
                )
        return results


@dataclass
class ServeReport:
    """What the service did, and how fast: the operator-facing summary."""

    records: int = 0
    windows: int = 0
    switches: int = 0
    shards: int = 1
    dispatches: int = 0
    backpressure_events: int = 0
    respawns: int = 0
    queue_high_water: int = 0
    wall_seconds: float = 0.0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    latency_max: float = 0.0
    switch_intervals_per_sec: float = 0.0
    # Degraded-mode and OOD fields stay 0 on the strict default path —
    # their render lines only appear when something actually happened.
    records_rejected: int = 0
    gaps_repaired: int = 0
    gaps_skipped: int = 0
    resyncs: int = 0
    duplicates_dropped: int = 0
    ood_flagged: int = 0
    ood_quarantined: int = 0
    # Live-operation fields: shard_health is always populated; the SLO
    # fields stay inert (no render line) unless a policy was active.
    shard_health: dict = field(default_factory=dict)
    slo_active: bool = False
    slo_breach_events: int = 0
    slo_sustained: bool = False

    def render(self) -> str:
        lines = [
            "streaming imputation service",
            f"  switches            {self.switches}",
            f"  shards              {self.shards}",
            f"  records ingested    {self.records}",
            f"  windows emitted     {self.windows}",
            f"  dispatches          {self.dispatches}",
            f"  backpressure events {self.backpressure_events}",
            f"  shard respawns      {self.respawns}",
            f"  queue high water    {self.queue_high_water}",
            f"  wall clock          {self.wall_seconds:.3f} s",
            f"  throughput          {self.switch_intervals_per_sec:.1f} switch-intervals/s",
            "  imputation latency  "
            f"p50 {self.latency_p50 * 1e3:.2f} ms · "
            f"p99 {self.latency_p99 * 1e3:.2f} ms · "
            f"max {self.latency_max * 1e3:.2f} ms",
        ]
        degraded = [
            ("records rejected", self.records_rejected),
            ("gaps repaired", self.gaps_repaired),
            ("gaps skipped", self.gaps_skipped),
            ("stream resyncs", self.resyncs),
            ("duplicates dropped", self.duplicates_dropped),
            ("OOD flagged", self.ood_flagged),
            ("OOD quarantined", self.ood_quarantined),
        ]
        lines.extend(
            f"  {name:<19} {count}" for name, count in degraded if count
        )
        if self.shard_health:
            states = " ".join(
                f"{shard}:{state}" for shard, state in sorted(self.shard_health.items())
            )
            lines.append(f"  shard health        {states}")
        if self.slo_active:
            verdict = "sustained breach" if self.slo_sustained else "ok"
            lines.append(
                f"  slo                 {verdict} · "
                f"breach events {self.slo_breach_events}"
            )
        return "\n".join(lines)


class StreamService:
    """Long-lived streaming imputation over a fleet of switches.

    ``submit`` ingests one record and returns whatever windows the
    resulting micro-batch dispatch emitted (often none — windows are
    batched up to ``batch_windows`` before inference); ``drain`` flushes
    the queue at end of stream.  ``supervised=True`` runs each dispatch's
    shards as worker processes under the Supervisor with per-attempt
    ``deadline`` and ``max_attempts``; inline mode (the default) computes
    in-process, which is what the deterministic harness replays against.

    ``job_wrapper`` wraps the shard job before use — the seam the
    fault-injection tests use to splice ``repro.resilience.faults``
    (CrashOnce/HangOnce) into shard workers.
    """

    def __init__(
        self,
        model: Any,
        switch_config: SwitchConfig,
        scaler: FeatureScaler,
        interval: int,
        window_intervals: int,
        stride_intervals: int | None = None,
        *,
        shards: int = 1,
        batch_windows: int = 8,
        queue_capacity: int = 64,
        deadline: float | None = None,
        max_attempts: int = 3,
        supervised: bool = False,
        use_cem: bool = True,
        selfcheck: bool = False,
        seed: int = 0,
        job_wrapper: Callable[[Callable], Callable] | None = None,
        policy: DegradedStreamPolicy | None = None,
        sentinel: "OODSentinel | None" = None,
        ood_action: str = "off",
        slo: SloPolicy | None = None,
        stale_after: float = 5.0,
    ):
        check_positive("shards", shards)
        check_positive("batch_windows", batch_windows)
        if ood_action not in _OOD_ACTIONS:
            raise ValueError(
                f"ood_action must be one of {_OOD_ACTIONS}, got {ood_action!r}"
            )
        if ood_action != "off" and sentinel is None:
            raise ValueError(
                f"ood_action={ood_action!r} requires a calibrated sentinel "
                "(see repro.robustness.calibrate_sentinel)"
            )
        self.shards = int(shards)
        self.batch_windows = int(batch_windows)
        self.deadline = deadline
        self.max_attempts = int(max_attempts)
        self.supervised = bool(supervised)
        self.seed = int(seed)
        self.ood_action = ood_action
        self.sentinel = sentinel if ood_action != "off" else None
        self.assembler = WindowAssembler(
            switch_config, interval, window_intervals, stride_intervals,
            policy=policy,
        )
        self.queue = BoundedQueue(queue_capacity)
        self._job = _ShardJob(
            model, scaler, switch_config, use_cem, selfcheck, sentinel=self.sentinel
        )
        self._dispatch_fn = job_wrapper(self._job) if job_wrapper else self._job
        self.health = ShardHealthBoard(self.shards, stale_after=stale_after)
        # The strict default (no objective bounded) constructs no tracker.
        self._slo = SloTracker(slo) if slo is not None and slo.active else None
        self._emitted_keys: set[tuple[str, int]] = set()
        self._quarantined: list[ImputedWindow] = []
        self._latencies: list[float] = []
        self._records = 0
        self._records_rejected = 0
        self._ood_flagged = 0
        self._dispatches = 0
        self._respawns = 0
        self._started_at: float | None = None
        self._wall_seconds = 0.0

    @classmethod
    def from_config(
        cls,
        model: Any,
        scaler: FeatureScaler,
        config: "ServeConfig",
        *,
        selfcheck: bool = False,
        job_wrapper: Callable[[Callable], Callable] | None = None,
        sentinel: "OODSentinel | None" = None,
    ) -> "StreamService":
        scenario = config.scenario
        # The strict default constructs no policy object at all — the
        # degraded-mode machinery exists only when opted into.
        policy = None
        if (
            config.on_gap != "raise"
            or config.on_duplicate != "raise"
            or config.repair_intervals > 0
        ):
            policy = DegradedStreamPolicy(
                on_gap=config.on_gap,
                on_duplicate=config.on_duplicate,
                repair_intervals=config.repair_intervals,
            )
        return cls(
            model,
            scenario.switch_config(),
            scaler,
            scenario.interval,
            scenario.window_intervals,
            window_stride(scenario),
            shards=config.shards,
            batch_windows=config.batch_windows,
            queue_capacity=config.queue_capacity,
            deadline=config.deadline,
            max_attempts=config.max_attempts,
            supervised=config.supervised,
            use_cem=config.use_cem,
            selfcheck=selfcheck,
            seed=config.seed,
            job_wrapper=job_wrapper,
            policy=policy,
            sentinel=sentinel,
            ood_action=config.ood_action,
            slo=SloPolicy.from_config(config),
            stale_after=config.health_stale_after,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, record: CoarseRecord) -> list[ImputedWindow]:
        """Ingest one record; returns windows emitted by any dispatch it
        triggered (micro-batch full, or backpressure on a full queue)."""
        if self._started_at is None:
            self._started_at = time.perf_counter()
            obs.event(
                "service_started",
                shards=self.shards,
                supervised=self.supervised,
                batch_windows=self.batch_windows,
            )
        try:
            tasks = self.assembler.push(record)
        except StreamProtocolError:
            # Protocol violations are ordering bugs, not malformed data —
            # they surface unchanged and are not "rejected records".
            raise
        except ValueError:
            self._records_rejected += 1
            obs.counter("serve.records_rejected").inc()
            obs.event("record_rejected", switch=record.switch_id)
            raise
        self._records += 1
        obs.counter("serve.records").inc()
        emitted: list[ImputedWindow] = []
        for task in tasks:
            try:
                self.queue.push(task)
            except QueueFull:
                # Backpressure: the ingest path blocks on a synchronous
                # dispatch before the record's window is accepted.
                obs.counter("serve.backpressure").inc()
                obs.event(
                    "backpressure", switch=record.switch_id, queue=len(self.queue)
                )
                if self._slo is not None:
                    self._slo.observe_backpressure()
                emitted.extend(self._dispatch())
                self.queue.push(task)
        if len(self.queue) >= self.batch_windows:
            emitted.extend(self._dispatch())
        obs.gauge("serve.queue_depth").set(len(self.queue))
        self._touch_clock()
        self._publish_live()
        return emitted

    def drain(self) -> list[ImputedWindow]:
        """Flush every pending window (end of stream / shutdown)."""
        emitted = self._dispatch()
        obs.gauge("serve.queue_depth").set(len(self.queue))
        self._touch_clock()
        obs.event(
            "service_drained",
            records=self._records,
            windows=len(self._emitted_keys) - len(self._quarantined),
        )
        self._publish_live()
        return emitted

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> list[ImputedWindow]:
        tasks = list(self.queue.drain())
        if not tasks:
            return []
        dispatch = self._dispatches
        self._dispatches += 1
        obs.counter("serve.dispatches").inc()

        by_shard: dict[int, list[WindowTask]] = {}
        for task in tasks:
            by_shard.setdefault(shard_of(task.switch_id, self.shards), []).append(task)
        # The dispatch index makes every payload unique across the run —
        # fault injectors key their once-only markers on the payload.
        payloads = [
            (dispatch, shard, tuple(by_shard[shard])) for shard in sorted(by_shard)
        ]

        with obs.span("serve.dispatch", index=dispatch, windows=len(tasks)):
            if self.supervised:
                # Heartbeats arrive through the Supervisor's on_attempt
                # callback as each shard attempt resolves.
                shard_results = self._run_supervised(payloads)
            else:
                shard_results = []
                for payload in payloads:
                    shard_results.append(self._dispatch_fn(payload))
                    self.health.beat(payload[1])

        now = time.perf_counter()
        by_key = {(t.switch_id, t.window_index): t for t in tasks}
        emitted: list[ImputedWindow] = []
        for payload, results in zip(payloads, shard_results):
            _, shard, _ = payload
            for result in results:
                switch_id, window_index, start_interval, start_bin, values, score = (
                    result
                )
                key = (switch_id, window_index)
                if key in self._emitted_keys:
                    raise ServeError(
                        f"window {key} emitted twice — the stateless "
                        "per-window protocol was violated"
                    )
                self._emitted_keys.add(key)
                latency = now - by_key[key].created_at
                self._latencies.append(latency)
                obs.histogram("serve.latency_seconds").observe(latency)
                obs.counter("serve.windows").inc()
                if self._slo is not None:
                    self._slo.observe_latency(latency)
                flagged = False
                if score is not None:
                    obs.histogram("serve.ood.score").observe(score)
                    obs.gauge("serve.ood.last_score").set(score)
                    flagged = self.sentinel.flags(score)
                    if flagged:
                        self._ood_flagged += 1
                        obs.counter("serve.ood.flagged").inc()
                        obs.event(
                            "ood_flagged",
                            switch=switch_id,
                            window=window_index,
                            score=score,
                        )
                window = ImputedWindow(
                    switch_id=switch_id,
                    window_index=window_index,
                    start_interval=start_interval,
                    start_bin=start_bin,
                    values=values,
                    shard=shard,
                    latency_seconds=latency,
                    ood_score=score,
                    ood_flagged=flagged,
                )
                quarantined = flagged and self.ood_action == "quarantine"
                if self._slo is not None and self.sentinel is not None:
                    self._slo.observe_window(quarantined)
                if quarantined:
                    # Held back, not lost: inspectable via quarantined().
                    self._quarantined.append(window)
                    obs.counter("serve.ood.quarantined").inc()
                    obs.event(
                        "ood_quarantined",
                        switch=switch_id,
                        window=window_index,
                        score=score,
                    )
                    continue
                emitted.append(window)
        if self._slo is not None:
            # One evaluation per dispatch: the unit of service progress.
            self._slo.evaluate()
        emitted.sort(key=lambda w: w.key)
        return emitted

    def _run_supervised(self, payloads: Sequence[tuple]) -> list[list[_WindowResult]]:
        # Heavy import deferred: inline services never touch the supervisor.
        from repro.resilience.supervisor import RetryPolicy, Supervisor

        policy = RetryPolicy(
            max_attempts=self.max_attempts,
            timeout=self.deadline,
            seed=self.seed,
        )

        def on_attempt(record):
            shard = payloads[record.index][1]
            if record.outcome == "ok":
                self.health.beat(shard)
            elif record.attempt >= self.max_attempts:
                self.health.dead(shard)
                obs.event(
                    "shard_dead",
                    shard=shard,
                    outcome=record.outcome,
                    attempts=record.attempt,
                )
            else:
                self.health.respawning(shard)
                obs.event(
                    "respawn",
                    shard=shard,
                    outcome=record.outcome,
                    attempt=record.attempt,
                )
            obs.live_tick()

        supervisor = Supervisor(
            self._dispatch_fn,
            policy=policy,
            workers=self.shards,
            on_attempt=on_attempt,
        )
        sweep = supervisor.run(payloads)
        respawns = sweep.report.retries
        if respawns:
            self._respawns += respawns
            obs.counter("serve.respawns").inc(respawns)
        if not sweep.ok:
            failure = sweep.report.failures[0]
            prefix = "SelfCheckError: "
            if failure.message.startswith(prefix):
                # Surface the oracle verdict under its own exit code (3),
                # not as a generic shard failure.
                raise SelfCheckError(
                    "serve.shard", failure.message[len(prefix) :]
                )
            raise ServeError(
                "shard(s) failed terminally; stream cannot make progress\n"
                + sweep.report.summary()
            )
        return list(sweep.results)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _touch_clock(self) -> None:
        if self._started_at is not None:
            self._wall_seconds = time.perf_counter() - self._started_at

    def _publish_live(self) -> None:
        """Push the service/health/slo sections to the live exporter.

        The section payloads are only *built* when live export is on —
        the disabled path is one function call and a boolean check.
        """
        if not obs.live_enabled():
            return
        obs.live_section(
            "serve",
            {
                "records": self._records,
                "windows": len(self._emitted_keys) - len(self._quarantined),
                "dispatches": self._dispatches,
                "queue_depth": len(self.queue),
                "respawns": self._respawns,
                "wall_seconds": round(self._wall_seconds, 3),
            },
        )
        obs.live_section("health", self.health.snapshot())
        if self._slo is not None:
            obs.live_section("slo", self._slo.snapshot())
        obs.live_tick()

    def quarantined(self) -> list[ImputedWindow]:
        """Windows the sentinel held back (``ood_action="quarantine"``)."""
        return list(self._quarantined)

    def report(self) -> ServeReport:
        latencies = np.asarray(self._latencies, dtype=float)
        wall = self._wall_seconds
        throughput = self._records / wall if wall > 0 else 0.0
        stats = self.assembler.stats
        obs.gauge("serve.switch_intervals_per_sec").set(throughput)
        return ServeReport(
            records=self._records,
            windows=len(self._emitted_keys) - len(self._quarantined),
            switches=self.assembler.num_switches,
            shards=self.shards,
            dispatches=self._dispatches,
            backpressure_events=self.queue.overflows,
            respawns=self._respawns,
            queue_high_water=self.queue.high_water,
            wall_seconds=wall,
            latency_p50=float(np.percentile(latencies, 50)) if latencies.size else 0.0,
            latency_p99=float(np.percentile(latencies, 99)) if latencies.size else 0.0,
            latency_mean=float(latencies.mean()) if latencies.size else 0.0,
            latency_max=float(latencies.max()) if latencies.size else 0.0,
            switch_intervals_per_sec=throughput,
            records_rejected=self._records_rejected,
            gaps_repaired=stats.gaps_repaired,
            gaps_skipped=stats.gaps_skipped,
            resyncs=stats.resyncs,
            duplicates_dropped=stats.duplicates_dropped,
            ood_flagged=self._ood_flagged,
            ood_quarantined=len(self._quarantined),
            shard_health=self.health.states(),
            slo_active=self._slo is not None,
            slo_breach_events=self._slo.breach_events if self._slo else 0,
            slo_sustained=self._slo.sustained if self._slo else False,
        )


def window_stride(scenario: Any) -> int:
    """The service's evaluation stride: non-overlapping windows.

    Training uses overlapping windows (``scenario.stride_intervals``) for
    data efficiency, but a service imputes each interval once — the same
    non-overlapping layout the offline evaluation splits use.
    """
    return int(scenario.window_intervals)
