"""The ``repro run serve`` experiment: train, then stream a fleet.

Deterministic end to end: the model is trained exactly as ``table1``
trains its Transformer+KAL column (same :func:`~repro.eval.table1.
train_transformer`, same derived config, same seed), the fleet's traces
are simulator outputs under per-switch seeds, and the replay interleaves
the per-switch record streams interval by interval — the arrival order a
fleet collector would produce, and the one the stream-test harness
replays when pinning stream/offline parity.
"""

from __future__ import annotations

from repro.serve.config import ServeConfig


def table1_config_from(config: ServeConfig):
    """The :class:`Table1Config` this service's model is trained under.

    Field-for-field transcription — the point is that the streamed model
    is *literally* the offline pipeline's model, so stream/offline parity
    is a property of the service layer alone.
    """
    from repro.eval.table1 import Table1Config

    return Table1Config(
        scenario=config.scenario,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        d_model=config.d_model,
        num_layers=config.num_layers,
        d_ff=config.d_ff,
        num_heads=config.num_heads,
        mu=config.mu,
        seed=config.seed,
        dtype=config.dtype,
    )


def fleet_switch_id(index: int) -> str:
    """Stable id of the ``index``-th replayed switch (``sw0003``)."""
    return f"sw{index:04d}"


def run_serve_experiment(
    config: ServeConfig, selfcheck: bool = False, slo_exit: bool = False
) -> int:
    """Train the model, replay the fleet through the service, report.

    ``slo_exit=True`` turns a *sustained* SLO breach (``config.slo_*``
    bounds violated for ``slo_sustain`` consecutive evaluations) into
    exit code 4 — distinct from config errors (2) and self-check
    violations (3), so CI can tell "the service ran but missed its
    objectives" apart from "the service is broken".
    """
    import repro.obs as obs
    from repro.autodiff.runtime import large_alloc_reuse
    from repro.eval.scenarios import generate_dataset, generate_trace
    from repro.eval.table1 import train_transformer
    from repro.serve.records import records_from_telemetry
    from repro.serve.service import StreamService
    from repro.telemetry.sampling import sample_trace

    with obs.span("serve.run", seed=config.seed, switches=config.num_switches):
        # Same allocator tuning as the offline pipeline — training *and*
        # the streamed inference run under it.
        with large_alloc_reuse():
            with obs.span("serve.dataset"):
                train, val, _ = generate_dataset(config.scenario, seed=config.seed)
            model, train_seconds = train_transformer(
                train, val, table1_config_from(config), use_kal=True
            )
            print(f"trained Transformer+KAL on {len(train)} windows in {train_seconds:.0f}s")

            sentinel = None
            if config.ood_action != "off":
                # Calibrated on the validation split: held out from
                # training but drawn from the training distribution.
                from repro.robustness.sentinel import calibrate_sentinel

                with obs.span("serve.calibrate_sentinel"):
                    sentinel = calibrate_sentinel(
                        model,
                        val,
                        quantile=config.ood_quantile,
                        use_cem=config.use_cem,
                        threshold=config.ood_threshold,
                    )
                print(
                    f"calibrated OOD sentinel on {sentinel.calibration_size} windows "
                    f"({sentinel.calibration}, q{config.ood_quantile:g} "
                    f"threshold {sentinel.threshold:.4f})"
                )

            # The fleet: per-switch traces under distinct derived seeds
            # (seed+0 is the training trace; the fleet starts at seed+1).
            streams = []
            for index in range(config.num_switches):
                trace = generate_trace(
                    config.scenario, seed=config.seed + index + 1, selfcheck=selfcheck
                )
                telemetry = sample_trace(trace, config.scenario.interval)
                streams.append(
                    list(
                        records_from_telemetry(
                            fleet_switch_id(index), telemetry, config.max_intervals
                        )
                    )
                )

            service = StreamService.from_config(
                model, model.scaler, config, selfcheck=selfcheck, sentinel=sentinel
            )
            emitted = 0
            with obs.span("serve.replay"):
                # Interval-major interleave: every switch's record for
                # interval j arrives before any switch's record for j+1.
                for j in range(max(len(s) for s in streams)):
                    for stream in streams:
                        if j < len(stream):
                            emitted += len(service.submit(stream[j]))
                emitted += len(service.drain())

            report = service.report()
            print(report.render())
            if emitted != report.windows:
                raise RuntimeError(
                    f"emitted {emitted} windows but report counts {report.windows}"
                )
            if slo_exit and report.slo_sustained:
                print(
                    "slo: sustained breach "
                    f"({report.slo_breach_events} breach event(s)) — exit 4"
                )
                return 4
    return 0
