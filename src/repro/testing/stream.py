"""Deterministic stream-test harness for the serving layer.

The service's headline correctness property — streamed output
bit-identical to the offline ``train → table1`` pipeline on the same
windows — is only testable if the *stream itself* is reproducible.  This
harness provides that: golden fleet scenarios (per-switch simulator
traces under derived seeds), a deterministic interval-major record
schedule, a replay driver that checks the service's accounting while it
runs, and the offline reference computed through the literal batch-path
functions (:func:`~repro.telemetry.dataset.build_dataset` +
``model.impute`` + :class:`~repro.imputation.cem.ConstraintEnforcer`).

Everything here is a pure function of (traces, model, knobs), so a
parity failure reduces to a small, replayable scenario — the same
discipline :mod:`repro.testing.differential` applies to the simulator
and CEM twins.

Imports of the serve machinery are deferred into the functions that need
them, so pulling this harness into :mod:`repro.testing`'s namespace does
not void the serve disabled-path guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.switchsim.simulation import SimulationTrace
from repro.telemetry.dataset import FeatureScaler, build_dataset
from repro.telemetry.sampling import sample_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.records import CoarseRecord, ImputedWindow
    from repro.serve.service import ServeReport, StreamService


def fleet_record_schedule(
    traces: "Mapping[str, SimulationTrace]",
    interval: int,
    max_intervals: int | None = None,
) -> "list[CoarseRecord]":
    """The deterministic arrival order of a replayed fleet.

    Interval-major interleave in sorted switch-id order: every switch's
    record for interval ``j`` arrives before any record for ``j + 1`` —
    what a fleet collector flushing once per interval would deliver.
    """
    from repro.serve.records import records_from_telemetry

    streams = [
        list(
            records_from_telemetry(
                switch_id, sample_trace(traces[switch_id], interval), max_intervals
            )
        )
        for switch_id in sorted(traces)
    ]
    schedule: list = []
    for j in range(max((len(s) for s in streams), default=0)):
        for stream in streams:
            if j < len(stream):
                schedule.append(stream[j])
    return schedule


def replay(
    service: "StreamService",
    records: "list[CoarseRecord]",
) -> "tuple[dict[tuple[str, int], ImputedWindow], ServeReport]":
    """Drive a record schedule through a service; windows keyed by identity.

    Checks the service's own accounting while replaying: no window may be
    emitted twice (the service raises on that itself), and after the
    drain the emitted count must equal the report's.  Returns the windows
    as a ``(switch_id, window_index) → ImputedWindow`` mapping plus the
    final report.
    """
    emitted: dict = {}
    for record in records:
        for window in service.submit(record):
            assert window.key not in emitted, f"duplicate window {window.key}"
            emitted[window.key] = window
    for window in service.drain():
        assert window.key not in emitted, f"duplicate window {window.key}"
        emitted[window.key] = window
    report = service.report()
    assert report.windows == len(emitted), (
        f"service reported {report.windows} windows but emitted {len(emitted)}"
    )
    return emitted, report


def offline_windows(
    model: Any,
    traces: "Mapping[str, SimulationTrace]",
    interval: int,
    window_intervals: int,
    scaler: FeatureScaler,
    use_cem: bool = True,
) -> "dict[tuple[str, int], np.ndarray]":
    """The offline pipeline's output for the same windows the service emits.

    Runs the literal batch-path code: :func:`build_dataset` slices each
    trace into non-overlapping windows under the shared training
    ``scaler``, ``model.impute`` runs the pre-batching per-sample path
    (pinned identical to ``impute_batch``), and the CEM projection uses
    the same :class:`ConstraintEnforcer` defaults as ``table1``'s full
    method.  Keys match the service's ``(switch_id, window_index)``.
    """
    from repro.imputation.cem import ConstraintEnforcer

    reference: dict = {}
    enforcer = None
    for switch_id in sorted(traces):
        dataset = build_dataset(
            traces[switch_id],
            interval=interval,
            window_intervals=window_intervals,
            stride_intervals=window_intervals,
            scaler=scaler,
        )
        if enforcer is None and use_cem:
            enforcer = ConstraintEnforcer(dataset.switch_config)
        for index, sample in enumerate(dataset.samples):
            imputed = model.impute(sample)
            if enforcer is not None:
                imputed = enforcer.enforce(imputed, sample)
            reference[(switch_id, index)] = imputed
    return reference


def assert_stream_matches_offline(
    streamed: "Mapping[tuple[str, int], ImputedWindow]",
    offline: "Mapping[tuple[str, int], np.ndarray]",
    exact: bool = True,
    rtol: float = 1e-6,
    atol: float = 1e-6,
) -> None:
    """Pin stream/offline parity window by window.

    Every streamed window must exist offline with identical provenance
    and — ``exact=True`` (the float64 guarantee) — a bit-identical value
    array; ``exact=False`` tolerance-pins the float32 path instead.  The
    streamed keys must cover every offline window whose intervals the
    stream ingested (the caller controls coverage via ``max_intervals``),
    so lost windows fail loudly rather than vacuously passing.
    """
    assert streamed, "no windows were streamed"
    missing = set(streamed) - set(offline)
    assert not missing, f"streamed windows with no offline twin: {sorted(missing)}"
    for key in sorted(streamed):
        got = streamed[key].values
        want = offline[key]
        assert got.shape == want.shape, f"{key}: shape {got.shape} != {want.shape}"
        if exact:
            assert np.array_equal(got, want), (
                f"{key}: streamed window differs from offline "
                f"(max abs diff {np.abs(got - want).max()})"
            )
        else:
            np.testing.assert_allclose(
                got, want, rtol=rtol, atol=atol, err_msg=f"window {key}"
            )
