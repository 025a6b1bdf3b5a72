"""The typed configuration of the streaming service.

:class:`ServeConfig` is the complete, digestable specification of a
``repro run serve`` run: the scenario (which fixes the switch geometry,
interval, and window length — shared with the model's training), the
fleet being replayed, the sharding/batching/backpressure knobs, and the
training hyper-parameters of the model the service loads.

This module stays deliberately light: it is imported when the experiment
registry is built (so ``repro --help`` can list ``serve``), and must not
pull in any service machinery — the disabled-path guarantee in
``tests/serve/test_disabled_serve.py`` pins exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.digest import register_digest_neutral_default
from repro.eval.scenarios import ScenarioConfig, quick_scenario


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines one streaming-service run.

    The training fields mirror :class:`~repro.eval.table1.Table1Config`
    field-for-field, because the serve parity story is literal: the
    service runs the *same* trained model over the *same* windows the
    offline pipeline would, so its training spec must be expressible
    identically (the runner derives a ``Table1Config`` from these).
    """

    scenario: ScenarioConfig = field(default_factory=quick_scenario)

    # --- the replayed fleet -------------------------------------------
    num_switches: int = 4  # switches whose streams are replayed
    max_intervals: int | None = 24  # cap per-switch stream length (None = all)

    # --- service topology and flow control ----------------------------
    shards: int = 2  # worker shards (switches hash-assigned)
    supervised: bool = False  # run shards as supervised worker processes
    batch_windows: int = 8  # micro-batch size for impute_batch
    queue_capacity: int = 64  # pending-window bound (backpressure beyond)
    deadline: float | None = None  # per-attempt wall clock in supervised mode
    max_attempts: int = 3  # supervisor attempts per shard dispatch
    use_cem: bool = True  # project every window onto C1–C3

    # --- graceful degradation (strict protocol by default) -------------
    # "raise" keeps the strict per-switch protocol; "skip"/"reset" opt
    # into DegradedStreamPolicy handling (see repro.serve.windows).
    on_gap: str = "raise"
    on_duplicate: str = "raise"
    repair_intervals: int = 0  # carry-forward repair for gaps <= this

    # --- OOD sentinel (off by default) ----------------------------------
    # "off" | "flag" | "quarantine": what to do with windows whose
    # calibrated shift score exceeds the threshold (repro.robustness).
    ood_action: str = "off"
    ood_quantile: float = 0.99  # calibration quantile on in-distribution scores
    # None = shift-driven calibration (measured separation from degraded
    # windows); a float pins the exceedance bar directly.
    ood_threshold: float | None = None

    # --- live operation: health + SLOs (all off/neutral by default) ----
    # A shard with no completed work for this long reads as "stale".
    health_stale_after: float = 5.0
    # Service-level objectives, each None = unbounded; any bound set
    # constructs an SloTracker over rolling slo_window_seconds windows.
    # "Sustained" breach = slo_sustain consecutive breached evaluations
    # (what --slo-exit turns into exit code 4).
    slo_p99_latency: float | None = None  # seconds
    slo_backpressure_per_min: float | None = None  # events per minute
    slo_quarantine_rate: float | None = None  # fraction of windows
    slo_window_seconds: float = 5.0
    slo_sustain: int = 2

    # --- model training (mirrors Table1Config) ------------------------
    epochs: int = 2
    batch_size: int = 8
    learning_rate: float = 1e-3
    d_model: int = 32
    num_layers: int = 2
    d_ff: int = 64
    num_heads: int = 4
    mu: float = 0.5
    seed: int = 0
    dtype: str = "float32"  # float64 gives bit-exact stream/offline parity


# ``ood_threshold`` post-dates the pinned serve digests (examples corpus,
# checkpoint fingerprints); while unset it must not move any of them.
register_digest_neutral_default("ServeConfig", "ood_threshold", None)

# The live-operation fields likewise post-date the pinned digests: at
# their defaults they describe no behaviour change (no tracker, same
# emitted windows), so they must not move cache keys either.
register_digest_neutral_default("ServeConfig", "health_stale_after", 5.0)
register_digest_neutral_default("ServeConfig", "slo_p99_latency", None)
register_digest_neutral_default("ServeConfig", "slo_backpressure_per_min", None)
register_digest_neutral_default("ServeConfig", "slo_quarantine_rate", None)
register_digest_neutral_default("ServeConfig", "slo_window_seconds", 5.0)
register_digest_neutral_default("ServeConfig", "slo_sustain", 2)
