"""repro.obs — structured tracing, metrics, and profiling (opt-in).

Observability for the simulate → train → enforce → evaluate pipeline,
built on three layers:

* **tracing** (:mod:`repro.obs.trace`) — hierarchical wall-clock spans
  (``with obs.span("table1.train", method="kal"): ...``) appended to a
  single JSONL file in the Chrome trace event format, so a whole run
  renders as a flame chart in Perfetto / ``chrome://tracing`` (see
  :func:`repro.obs.trace.export_chrome` for the wrapped-array form the
  viewers load directly).  Spans recorded in forked processes
  (``utils.cpu.fork_join`` children, ``resilience.supervisor`` attempts)
  land in the same file under their own pid.
* **metrics** (:mod:`repro.obs.metrics`) — a registry of counters,
  gauges, histograms, and series (cache hits/misses, supervisor retries,
  per-epoch losses, C1–C3 residuals, solver nodes) snapshotted to a
  ``metrics.json`` document and rendered by ``repro obs summary``.
* **profiling** (:mod:`repro.obs.profile`) — per-stage cProfile capture
  writing ``.pstats`` archives plus top-N cumulative reports.
* **live status** (:mod:`repro.obs.live`) — periodic mid-run snapshots
  (append-only ``status.jsonl`` + atomically-replaced
  ``status.latest.json``) rendered by the ``repro obs top`` dashboard.
* **events** (:mod:`repro.obs.events`) — a schema-validated JSONL log of
  discrete operational occurrences (respawns, backpressure, SLO
  breaches, checkpoint saves) appended to directly by every process.

Everything is **off by default** and near-free when off: the module-level
flags below gate every entry point, the disabled :func:`span` /
:func:`counter` return shared no-op singletons, and no submodule of this
package is imported until :func:`configure` enables a layer — importing
:mod:`repro` (or any instrumented module) never pays for observability
(pinned by ``tests/obs/test_disabled.py``).

Process model: state is configured in the parent and inherited by forked
children.  The trace writer and metrics registry detect a fork (pid
change) and re-bind, so child events carry the child pid and child
metrics are staged to a ``<metrics>.parts`` sidecar that the parent's
:func:`finish` merges.  Under a ``spawn`` start method children simply
run with observability disabled.
"""

from __future__ import annotations

import atexit
import os
from typing import Any, Union

PathLike = Union[str, "os.PathLike[str]"]

__all__ = [
    "configure",
    "finish",
    "annotate",
    "span",
    "counter",
    "gauge",
    "histogram",
    "series",
    "profile_stage",
    "event",
    "live_tick",
    "live_section",
    "child_flush",
    "enabled",
    "tracing_enabled",
    "metrics_enabled",
    "profiling_enabled",
    "live_enabled",
    "events_enabled",
]

# Fast-path gates: every instrumentation entry point checks one of these
# module globals and returns a shared no-op object when it is False.
_TRACING = False
_METRICS = False
_PROFILING = False
_LIVE = False
_EVENTS = False

#: Pid that called configure(); forked children see a different getpid().
_ROOT_PID: int | None = None
_ATEXIT_REGISTERED = False


class _NullSpan:
    """Shared no-op stand-in for spans and profile stages (reentrant)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **args: Any) -> None:
        """Discard annotations (the live span merges them into ``args``)."""


class _NullMetric:
    """Shared no-op stand-in for every metric type."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def append(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()


# ----------------------------------------------------------------------
# Instrumentation entry points (hot: called from instrumented modules)
# ----------------------------------------------------------------------
def span(name: str, **args: Any) -> Any:
    """A wall-clock span context manager; a shared no-op when tracing is off.

    ``args`` become the Chrome trace event's ``args`` mapping; more can be
    attached mid-span with ``.annotate(key=value)`` (e.g. a solve status
    known only at the end).
    """
    if not _TRACING:
        return _NULL_SPAN
    from repro.obs.trace import start_span

    return start_span(name, args)


def counter(name: str) -> Any:
    """A monotonically increasing counter (``.inc(n)``)."""
    if not _METRICS:
        return _NULL_METRIC
    from repro.obs.metrics import registry

    return registry().counter(name)


def gauge(name: str) -> Any:
    """A last-value-wins gauge (``.set(v)``)."""
    if not _METRICS:
        return _NULL_METRIC
    from repro.obs.metrics import registry

    return registry().gauge(name)


def histogram(name: str) -> Any:
    """A value distribution (``.observe(v)``): count/sum/min/max/quantiles."""
    if not _METRICS:
        return _NULL_METRIC
    from repro.obs.metrics import registry

    return registry().histogram(name)


def series(name: str) -> Any:
    """An append-only ordered series (``.append(v)``), e.g. per-epoch loss."""
    if not _METRICS:
        return _NULL_METRIC
    from repro.obs.metrics import registry

    return registry().series(name)


def profile_stage(name: str) -> Any:
    """A cProfile capture around a pipeline stage; no-op when profiling is
    off or another stage is already being profiled in this process."""
    if not _PROFILING:
        return _NULL_SPAN
    from repro.obs.profile import stage

    return stage(name)


def event(kind: str, **args: Any) -> None:
    """Record one operational event (``kind`` from ``events.EVENT_KINDS``).

    A single boolean check when the event log is off — callers pay no
    allocation for the kwargs dict until the layer is enabled... which is
    why hot paths should still guard payload *construction* with
    :func:`events_enabled` when the args are expensive to build.
    """
    if not _EVENTS:
        return
    from repro.obs.events import emit

    emit(kind, args)


def live_tick() -> None:
    """Give the live exporter a chance to flush (time-gated, parent-only)."""
    if not _LIVE:
        return
    from repro.obs.live import tick

    tick()


def live_section(name: str, payload: Any) -> None:
    """Publish a structured section into the live status snapshot.

    Guard payload construction with :func:`live_enabled` on hot paths —
    the disabled path must allocate nothing.
    """
    if not _LIVE:
        return
    from repro.obs.live import set_section

    set_section(name, payload)


# ----------------------------------------------------------------------
# State queries
# ----------------------------------------------------------------------
def tracing_enabled() -> bool:
    return _TRACING


def metrics_enabled() -> bool:
    return _METRICS


def profiling_enabled() -> bool:
    return _PROFILING


def live_enabled() -> bool:
    return _LIVE


def events_enabled() -> bool:
    return _EVENTS


def enabled() -> bool:
    """Is any observability layer on?"""
    return _TRACING or _METRICS or _PROFILING or _LIVE or _EVENTS


# ----------------------------------------------------------------------
# Run control
# ----------------------------------------------------------------------
def configure(
    trace: PathLike | None = None,
    metrics: PathLike | None = None,
    profile: PathLike | None = None,
    header: "dict[str, Any] | None" = None,
    status: PathLike | None = None,
    status_interval: float = 1.0,
    events: PathLike | None = None,
) -> None:
    """Enable the requested layers for this process (and forked children).

    ``trace`` — path of the JSONL span file (appended to, never
    truncated, so several runs can share one flame chart);
    ``metrics`` — path of the JSON metrics snapshot (snapshots at the
    same path accumulate: an existing document is merged, not replaced);
    ``profile`` — directory for per-stage ``.pstats`` + report files;
    ``status`` — path of the live-status JSONL file; every
    ``status_interval`` seconds a snapshot is appended there and
    ``<status>.latest.json`` is atomically replaced (``repro obs top``
    tails it).  Live status implies a metrics registry: when ``metrics``
    is not also requested an *ephemeral* registry feeds the exporter and
    no ``metrics.json`` is written at the end;
    ``events`` — path of the structured operational event log (JSONL,
    schema-validated, appended to by forked children directly);
    ``header`` — fields stamped into the trace header and metrics run
    record (the CLI adds ``argv``; :func:`annotate` adds
    ``config_digest`` once the run's config exists).

    Calling with every path ``None`` resets to the disabled state.
    """
    global _TRACING, _METRICS, _PROFILING, _LIVE, _EVENTS
    global _ROOT_PID, _ATEXIT_REGISTERED
    finish()  # flush any previous configuration first
    if (
        trace is None
        and metrics is None
        and profile is None
        and status is None
        and events is None
    ):
        return
    _ROOT_PID = os.getpid()
    if trace is not None:
        from repro.obs.trace import open_writer

        open_writer(trace, dict(header or {}))
        _TRACING = True
    if metrics is not None or status is not None:
        from repro.obs.metrics import open_registry

        if metrics is not None:
            open_registry(metrics, dict(header or {}))
        else:
            # Status-only run: counters must exist for the exporter to
            # publish, but nothing should persist past finish().
            shadow = str(status) + ".live-metrics"
            open_registry(shadow, dict(header or {}), persist=False)
        _METRICS = True
    if events is not None:
        from repro.obs.events import open_log

        open_log(events)
        _EVENTS = True
    if status is not None:
        # Opened after the metrics registry: the exporter's first flush
        # already publishes a (possibly empty) merged metric view.
        from repro.obs.live import open_exporter

        open_exporter(status, status_interval, dict(header or {}))
        _LIVE = True
    if profile is not None:
        from repro.obs.profile import open_profiler

        open_profiler(profile)
        _PROFILING = True
    if not _ATEXIT_REGISTERED:
        # Backstop for library users who never call finish(); the CLI
        # calls it explicitly.  Harmless double-flush: finish() is
        # idempotent.  (multiprocessing children exit via os._exit and
        # skip atexit — they flush through child_flush() instead.)
        atexit.register(finish)
        _ATEXIT_REGISTERED = True


def annotate(**fields: Any) -> None:
    """Attach run-level fields (``config_digest``, experiment name, ...)
    to the trace header and the metrics run record."""
    if _TRACING:
        from repro.obs.trace import annotate_header

        annotate_header(fields)
    if _METRICS:
        from repro.obs.metrics import annotate_run

        annotate_run(fields)
    if _LIVE:
        from repro.obs.live import annotate_header as live_annotate

        live_annotate(fields)


def finish() -> None:
    """Flush and disable every layer (idempotent).

    In the configuring (root) process this writes the final metrics
    snapshot — merging any ``.parts`` staged by forked children — and
    flushes the trace file.  In a forked child it stages the child's
    contribution instead (same effect as :func:`child_flush`).
    """
    global _TRACING, _METRICS, _PROFILING, _LIVE, _EVENTS, _ROOT_PID
    in_child = _ROOT_PID is not None and os.getpid() != _ROOT_PID
    if _TRACING:
        from repro.obs.trace import close_writer

        close_writer()
        _TRACING = False
    if _LIVE:
        # Closed before the registry so the final status snapshot still
        # sees the live metric values (children's parts included).
        from repro.obs.live import close_exporter

        close_exporter()
        _LIVE = False
    if _EVENTS:
        from repro.obs.events import close_log

        close_log()
        _EVENTS = False
    if _METRICS:
        from repro.obs.metrics import close_registry

        close_registry(final=not in_child)
        _METRICS = False
    if _PROFILING:
        from repro.obs.profile import close_profiler

        close_profiler()
        _PROFILING = False
    _ROOT_PID = None


def child_flush() -> None:
    """Make a forked worker's observations durable without disabling.

    Called at process-boundary points (supervisor attempts, pool jobs):
    flushes buffered trace events and stages the child's metrics to the
    ``.parts`` sidecar the parent merges at :func:`finish`.  Cheap and
    safe to call repeatedly — parts are deduplicated per pid — and a
    no-op in the root process for metrics (the root writes the final
    snapshot itself) and entirely when observability is off.
    """
    if _TRACING:
        from repro.obs.trace import flush

        flush()
    if _METRICS:
        from repro.obs.metrics import stage_child_parts

        stage_child_parts()
