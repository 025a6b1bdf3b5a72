"""Regenerates Table 1: consistency and downstream errors for 4 methods.

Rows (all normalised errors, lower is better):

    a. Max Constraint            d. Burst Detection       g. Burst Interarrival
    b. Periodic Constraint       e. Burst Height          h. Empty Queue Freq.
    c. Sent pkts count           f. Burst Frequency       i. Concurrent bursts

Columns: IterImputer | Transformer | Transformer+KAL | Transformer+KAL+CEM.

Expected shape versus the paper: KAL shrinks the consistency errors
(sometimes overshooting row a), CEM nullifies rows a–c exactly, and the
downstream rows improve monotonically from IterImputer through the full
method, with CEM occasionally a wash on burst frequency (row f) — the
consistency/pattern trade-off §4 discusses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

import repro.obs as obs
from repro.config import config_digest
from repro.constraints.spec import check_constraints
from repro.downstream.metrics import DownstreamReport, evaluate_downstream
from repro.eval.report import format_table
from repro.eval.scenarios import ScenarioConfig, generate_dataset, paper_scenario
from repro.imputation.cem import ConstraintEnforcer
from repro.imputation.iterative import IterativeImputer
from repro.imputation.trainer import Trainer, TrainerConfig
from repro.imputation.transformer_imputer import TransformerConfig, TransformerImputer
from repro.resilience.journal import ResultJournal
from repro.telemetry.dataset import TelemetryDataset
from repro.utils.cpu import fork_join

ROW_LABELS = {
    "max": "a. Max Constraint",
    "periodic": "b. Periodic Constraint",
    "sent": "c. Sent pkts count Constraint",
    "burst_detection": "d. Burst Detection",
    "burst_height": "e. Burst Height",
    "burst_frequency": "f. Burst Frequency",
    "burst_interarrival": "g. Burst Interarrival Time",
    "empty_queue": "h. Empty Queue Frequency",
    "concurrent_bursts": "i. Avg count of concurrent bursts",
}

METHODS = ("IterImputer", "Transformer", "Transformer+KAL", "Transformer+KAL+CEM")


@dataclass
class Table1Config:
    """Knobs for the Table-1 run; defaults match the paper-like scenario."""

    scenario: ScenarioConfig = field(default_factory=paper_scenario)
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    d_model: int = 32
    num_layers: int = 2
    d_ff: int = 64
    num_heads: int = 4
    mu: float = 0.5
    burst_threshold: float = 5.0
    seed: int = 0
    dtype: str = "float32"  # training precision (see TrainerConfig.dtype)
    fused_kernels: bool = True  # fused attention/softmax/layer-norm path
    cem_vectorized: bool = True  # vectorized CEM projection passes; False
    # runs the per-interval reference loop (same outputs, bit for bit)
    batch_inference: bool = True  # impute test windows in batched forward
    # passes; False runs the pre-optimization per-sample path (identical
    # outputs — see TransformerImputer.impute_batch)


@dataclass
class Table1Result:
    """The regenerated table plus training metadata."""

    values: dict[str, dict[str, float]]  # row key -> method -> error
    # Per-model training wall time.  The two trainings may overlap (see
    # train_pair), so the sum is not the time spent training.
    train_seconds: dict[str, float]
    num_test_windows: int
    cem_seconds_per_window: float

    def render(self) -> str:
        """Plain-text rendering in the paper's layout."""
        headers = ["Error Metric", *METHODS]
        rows = []
        for key, label in ROW_LABELS.items():
            rows.append([label] + [f"{self.values[key][m]:.3f}" for m in METHODS])
        return format_table(headers, rows)

    def improvement_over_transformer(self) -> dict[str, float]:
        """% improvement of the full method over the plain transformer on
        the downstream rows (the paper reports 11–96%)."""
        out = {}
        for key in (
            "burst_detection",
            "burst_height",
            "burst_frequency",
            "burst_interarrival",
            "empty_queue",
            "concurrent_bursts",
        ):
            base = self.values[key]["Transformer"]
            full = self.values[key]["Transformer+KAL+CEM"]
            out[key] = 100.0 * (base - full) / base if base > 0 else 0.0
        return out


def _evaluate_method(
    impute_fn,
    test: TelemetryDataset,
    config: Table1Config,
    method: str = "",
    batch_impute_fn=None,
    batch_size: int = 16,
) -> tuple[dict[str, float], float]:
    """Mean consistency + downstream errors of a method over the test set.

    Returns the per-row errors and the mean per-window imputation time.
    ``method`` labels the span and, when metrics are on, the per-window
    C1/C2/C3 residual histograms (``table1.<method>.residual.c1`` ...).

    ``batch_impute_fn`` (samples -> list of arrays) amortises the
    per-forward overhead for methods that can impute many windows in one
    pass; each window's result is identical to the per-sample call (see
    :meth:`TransformerImputer.impute_batch`), so the table's values do
    not depend on which path ran.
    """
    consistency = {"max": [], "periodic": [], "sent": []}
    downstream: list[DownstreamReport] = []
    elapsed = 0.0
    with obs.span("table1.evaluate", method=method, windows=len(test.samples)):
        record_residuals = obs.metrics_enabled() and method
        batched: list[np.ndarray] = []
        if batch_impute_fn is not None:
            for start_index in range(0, len(test.samples), batch_size):
                chunk = test.samples[start_index : start_index + batch_size]
                start = time.perf_counter()
                batched.extend(batch_impute_fn(chunk))
                elapsed += time.perf_counter() - start
        for index, sample in enumerate(test.samples):
            if batch_impute_fn is not None:
                imputed = batched[index]
            else:
                start = time.perf_counter()
                imputed = impute_fn(sample)
                elapsed += time.perf_counter() - start
            report = check_constraints(imputed, sample, test.switch_config)
            consistency["max"].append(report.max_error)
            consistency["periodic"].append(report.periodic_error)
            consistency["sent"].append(report.sent_error)
            if record_residuals:
                obs.histogram(f"table1.{method}.residual.c1").observe(report.max_error)
                obs.histogram(f"table1.{method}.residual.c2").observe(
                    report.periodic_error
                )
                obs.histogram(f"table1.{method}.residual.c3").observe(report.sent_error)
            downstream.append(
                evaluate_downstream(imputed, sample.target_raw, config.burst_threshold)
            )
    averaged = DownstreamReport.average(downstream)
    values = {key: float(np.mean(v)) for key, v in consistency.items()}
    values.update(
        burst_detection=averaged.burst_detection,
        burst_height=averaged.burst_height,
        burst_frequency=averaged.burst_frequency,
        burst_interarrival=averaged.burst_interarrival,
        empty_queue=averaged.empty_queue,
        concurrent_bursts=averaged.concurrent_bursts,
    )
    return values, elapsed / max(len(test.samples), 1)


def journal_scope(config: Table1Config) -> str:
    """The journal key prefix identifying one exact Table-1 configuration.

    Everything that determines the table's numbers participates in the
    hash, so a journal can never leak results across configurations (a
    changed epoch count, scenario knob, or seed starts a fresh scope).
    The hash is :func:`repro.config.config_digest` — the same canonical
    digest that keys the trace cache and fingerprints checkpoints.
    """
    return "table1/" + config_digest(config)[:16]


def _new_model(train: TelemetryDataset, config: Table1Config) -> TransformerImputer:
    """The untrained transformer every Table-1 training starts from."""
    return TransformerImputer(
        TransformerConfig(
            num_features=train.num_features,
            num_queues=train.num_queues,
            d_model=config.d_model,
            num_heads=config.num_heads,
            num_layers=config.num_layers,
            d_ff=config.d_ff,
        ),
        train.scaler,
        seed=config.seed,
    )


def train_transformer(
    train: TelemetryDataset,
    val: TelemetryDataset,
    config: Table1Config,
    use_kal: bool,
    checkpoint: Union[str, Path, None] = None,
    resume: bool = False,
) -> tuple[TransformerImputer, float]:
    model = _new_model(train, config)
    trainer = Trainer(
        model,
        train,
        TrainerConfig(
            epochs=config.epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            use_kal=use_kal,
            mu=config.mu,
            seed=config.seed,
            dtype=config.dtype,
            fused_kernels=config.fused_kernels,
        ),
        val=val,
    )
    start = time.perf_counter()
    with obs.span("table1.train", method="kal" if use_kal else "plain"):
        with obs.profile_stage(f"table1.train.{'kal' if use_kal else 'plain'}"):
            trainer.train(checkpoint_path=checkpoint, resume=resume)
    return model, time.perf_counter() - start


def train_pair(
    train: TelemetryDataset, val: TelemetryDataset, config: Table1Config
) -> tuple[TransformerImputer, TransformerImputer, dict[str, float]]:
    """Train the plain and the KAL transformer: ``(plain, kal, seconds)``.

    The plain model trains through :func:`~repro.utils.cpu.fork_join`: in
    a forked child while the KAL model trains here when the usable CPUs
    hold two BLAS pools, otherwise here first.  Its parameters load into
    a model built from the same config, seed and scaler.  Each training
    is the unchanged :func:`train_transformer` on the same inputs and
    BLAS pool, so both paths give the same models bit for bit.

    ``seconds`` maps ``"Transformer"`` / ``"Transformer+KAL"`` to each
    training's wall time; run concurrently, the two overlap.
    """

    def plain_training() -> tuple[dict[str, np.ndarray], float]:
        model, seconds = train_transformer(train, val, config, use_kal=False)
        return model.state_dict(), seconds

    (state, plain_seconds), (kal, kal_seconds) = fork_join(
        plain_training,
        lambda: train_transformer(train, val, config, use_kal=True),
        task="training the plain transformer",
    )
    plain = _new_model(train, config)
    plain.to_dtype(config.dtype)
    plain.load_state_dict(state)
    return plain, kal, {"Transformer": plain_seconds, "Transformer+KAL": kal_seconds}


def run_table1(
    config: Table1Config | None = None,
    datasets: tuple[TelemetryDataset, TelemetryDataset, TelemetryDataset] | None = None,
    pretrained: tuple[TransformerImputer, TransformerImputer] | None = None,
    journal: Union[ResultJournal, str, Path, None] = None,
) -> Table1Result:
    """Run the full Table-1 experiment.

    ``datasets`` may be passed in to reuse a simulation, and ``pretrained``
    = (plain_model, kal_model) to reuse trained transformers (e.g. from a
    benchmark fixture); otherwise everything is built fresh.

    ``journal`` (a :class:`~repro.resilience.journal.ResultJournal` or a
    path to open one at) makes the run resumable: each method column is
    committed durably the moment its evaluation finishes, and a re-run
    with the same journal skips completed columns — including the
    training they would have required.  Because every column is a
    deterministic function of ``config`` — journaled payloads contain
    only config-determined values, never timings — an
    interrupted-then-resumed run produces a byte-identical table to an
    uninterrupted one, and two fresh runs of the same config write
    byte-identical journals.  ``None`` (the default) is the seed
    behaviour with zero overhead.
    """
    config = config if config is not None else Table1Config()
    from repro.autodiff.runtime import kernel_scope

    with obs.span("table1.run", seed=config.seed, epochs=config.epochs):
        # Covers inference too: the evaluation columns run the same
        # kernel selection the models were trained under.
        with kernel_scope(config.fused_kernels):
            return _run_table1(config, datasets, pretrained, journal)


def _run_table1(config, datasets, pretrained, journal) -> Table1Result:
    journal = ResultJournal.coerce(journal)
    scope = journal_scope(config) if journal is not None else None

    def recorded(method: str):
        return journal.get(f"{scope}/{method}") if journal is not None else None

    def commit(method: str, payload: dict) -> None:
        if journal is not None:
            journal.put(f"{scope}/{method}", payload)

    if datasets is None:
        with obs.span("table1.dataset"):
            with obs.profile_stage("table1.dataset"):
                datasets = generate_dataset(config.scenario, seed=config.seed)
    train, val, test = datasets
    if len(test) == 0:
        raise ValueError("test split is empty; increase duration_bins")

    values: dict[str, dict[str, float]] = {key: {} for key in ROW_LABELS}
    train_seconds: dict[str, float] = {}

    cell = recorded("IterImputer")
    if cell is None:
        iterative = IterativeImputer()
        iter_values, _ = _evaluate_method(iterative.impute, test, config, method="iter")
        commit("IterImputer", {"values": iter_values})
    else:
        iter_values = cell["values"]
    for key, value in iter_values.items():
        values[key]["IterImputer"] = value

    plain_cell = recorded("Transformer")
    kal_cell = recorded("Transformer+KAL")
    cem_cell = recorded("Transformer+KAL+CEM")

    plain_model = kal_model = None
    if pretrained is not None:
        plain_model, kal_model = pretrained
    elif plain_cell is None and (kal_cell is None or cem_cell is None):
        plain_model, kal_model, train_seconds = train_pair(train, val, config)
    else:
        # Train only the model still needed by un-journaled columns.
        if plain_cell is None:
            plain_model, seconds = train_transformer(train, val, config, use_kal=False)
            train_seconds["Transformer"] = seconds
        if kal_cell is None or cem_cell is None:
            kal_model, seconds = train_transformer(train, val, config, use_kal=True)
            train_seconds["Transformer+KAL"] = seconds

    if plain_cell is None:
        plain_values, _ = _evaluate_method(
            plain_model.impute,
            test,
            config,
            method="plain",
            batch_impute_fn=plain_model.impute_batch if config.batch_inference else None,
        )
        commit("Transformer", {"values": plain_values})
    else:
        plain_values = plain_cell["values"]
    for key, value in plain_values.items():
        values[key]["Transformer"] = value

    if kal_cell is None:
        kal_values, _ = _evaluate_method(
            kal_model.impute,
            test,
            config,
            method="kal",
            batch_impute_fn=kal_model.impute_batch if config.batch_inference else None,
        )
        commit("Transformer+KAL", {"values": kal_values})
    else:
        kal_values = kal_cell["values"]
    for key, value in kal_values.items():
        values[key]["Transformer+KAL"] = value

    if cem_cell is None:
        enforcer = ConstraintEnforcer(
            test.switch_config, vectorized=config.cem_vectorized
        )
        record_before = obs.metrics_enabled()

        def _finish(imputed, sample):
            if record_before:
                # Residuals going *into* CEM, paired with the post-CEM
                # table1.full.residual.* histograms recorded by
                # _evaluate_method — together they show what CEM repaired.
                report = check_constraints(imputed, sample, test.switch_config)
                obs.histogram("cem.residual_before.c1").observe(report.max_error)
                obs.histogram("cem.residual_before.c2").observe(report.periodic_error)
                obs.histogram("cem.residual_before.c3").observe(report.sent_error)
            return enforcer.enforce(imputed, sample)

        def full_method(sample):
            return _finish(kal_model.impute(sample), sample)

        def full_method_batch(chunk):
            return [
                _finish(imputed, sample)
                for imputed, sample in zip(kal_model.impute_batch(chunk), chunk)
            ]

        with obs.profile_stage("table1.cem"):
            full_values, cem_seconds = _evaluate_method(
                full_method,
                test,
                config,
                method="full",
                batch_impute_fn=full_method_batch if config.batch_inference else None,
            )
        commit("Transformer+KAL+CEM", {"values": full_values})
    else:
        full_values = cem_cell["values"]
        # Timings are deliberately not journaled (they would make two
        # runs of one config byte-different); pre-unification journals
        # may still carry the key, so keep reading it.
        cem_seconds = float(cem_cell.get("cem_seconds_per_window", 0.0))
    for key, value in full_values.items():
        values[key]["Transformer+KAL+CEM"] = value

    return Table1Result(
        values=values,
        train_seconds=train_seconds,
        num_test_windows=len(test),
        cem_seconds_per_window=cem_seconds,
    )
