"""The built-in experiments: table1, scalability, replication, simulate, serve, robustness.

Each entry pairs a typed config dataclass with a run function whose
stdout is the experiment's report; ``repro run <name>`` is the CLI's
one front door to them.

Heavy imports (training, solvers) happen inside the run functions so
that importing the registry — which the CLI does to build its parser —
stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.eval.fabric_scenarios import (
    FlowIncastConfig,
    LeafSpineConfig,
    RedWebsearchConfig,
    run_flow_incast_experiment,
    run_leaf_spine_experiment,
    run_red_websearch_experiment,
)
from repro.eval.replication import ReplicationConfig
from repro.eval.scalability import ScalabilityConfig
from repro.eval.scenarios import ScenarioConfig, quick_scenario
from repro.eval.table1 import Table1Config
from repro.experiments.registry import CliOption, Experiment, register
from repro.robustness.config import RobustnessConfig
from repro.serve.config import ServeConfig

#: Where ``table1 --resume`` keeps its journal when ``--journal`` is absent.
DEFAULT_TABLE1_JOURNAL = Path("repro-table1.journal.jsonl")


@dataclass(frozen=True)
class SimulateConfig:
    """Declarative form of the ``simulate`` experiment.

    ``engine`` selects the simulation core (``auto``/``array``/
    ``reference`` — all bit-identical); it is part of the config for
    reproducibility of *how* a trace was produced, but deliberately
    absent from the trace cache key, which hashes only what determines
    the trace's contents.
    """

    scenario: ScenarioConfig = field(default_factory=quick_scenario)
    seed: int = 0
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ("auto", "array", "reference"):
            raise ValueError(
                f"engine must be 'auto', 'array', or 'reference', got {self.engine!r}"
            )


# ----------------------------------------------------------------------
# Run functions (config in, exit code out, report on stdout)
# ----------------------------------------------------------------------
def run_simulate_experiment(
    config: SimulateConfig,
    out: Union[str, Path] = Path("trace.npz"),
    cache: Union[str, Path, None] = None,
    selfcheck: bool = False,
) -> int:
    """Simulate the scenario and save the fine-grained trace as .npz."""
    from repro.eval.scenarios import generate_trace
    from repro.switchsim.io import save_trace

    trace = generate_trace(
        config.scenario,
        seed=config.seed,
        cache=cache,
        engine=config.engine,
        selfcheck=selfcheck,
    )
    save_trace(trace, out)
    print(
        f"simulated {trace.num_bins} bins x {trace.num_queues} queues "
        f"(max qlen {trace.qlen.max()}, drops {trace.dropped.sum()}) -> {out}"
    )
    return 0


def run_table1_experiment(
    config: Table1Config,
    journal: Union[str, Path, None] = None,
    resume: bool = False,
    selfcheck: bool = False,
) -> int:
    """Run the full Table-1 experiment and print the table."""
    from repro.eval.table1 import run_table1

    datasets = None
    if selfcheck:
        from repro.eval.scenarios import generate_dataset

        datasets = generate_dataset(config.scenario, seed=config.seed, selfcheck=True)
    if journal is None and resume:
        journal = DEFAULT_TABLE1_JOURNAL
    result = run_table1(config, datasets=datasets, journal=journal)
    print(result.render())
    print()
    for key, value in result.improvement_over_transformer().items():
        print(f"  {key}: {value:+.1f}% vs plain transformer")
    return 0


def run_serve_experiment(
    config: ServeConfig, selfcheck: bool = False, slo_exit: bool = False
) -> int:
    """Train the model, stream a replayed fleet through repro.serve."""
    from repro.serve.runner import run_serve_experiment as _run

    return _run(config, selfcheck=selfcheck, slo_exit=slo_exit)


def run_robustness_experiment(
    config: RobustnessConfig,
    bench_out: Union[str, Path, None] = None,
    check_claim: bool = False,
    selfcheck: bool = False,
) -> int:
    """Distribution-shift suite: degradation curves + the KAL+CEM claim."""
    from repro.robustness.runner import run_robustness_experiment as _run

    return _run(
        config, bench_out=bench_out, check_claim=check_claim, selfcheck=selfcheck
    )


def run_scalability_experiment(config: ScalabilityConfig) -> int:
    """FM-alone solve effort vs horizon."""
    from repro.eval.report import format_table
    from repro.eval.scalability import run_scaling

    points = run_scaling(config)
    rows = [
        [
            str(p.horizon),
            p.status + (" (timed out)" if p.timed_out else ""),
            f"{p.solve_seconds:.2f}",
            str(p.nodes_explored),
        ]
        for p in points
    ]
    print(format_table(["horizon", "status", "seconds", "nodes"], rows))
    return 0


def run_replication_experiment(config: ReplicationConfig) -> int:
    """Cross-seed Table-1 replication: mean ± std per cell."""
    from repro.eval.replication import run_replicated_table1

    replicated = run_replicated_table1(config.table1, list(config.seeds))
    print(replicated.render())
    print()
    print(
        f"  seeds: {', '.join(str(s) for s in replicated.seeds)}; "
        "win rate of Transformer+KAL+CEM vs Transformer: "
        f"{replicated.win_rate('Transformer+KAL+CEM', 'Transformer'):.2f}"
    )
    return 0


# ----------------------------------------------------------------------
# Default configs (quick profile, seed 0; --set scenario={} for the paper scale)
# ----------------------------------------------------------------------
def _default_table1() -> Table1Config:
    return Table1Config(scenario=quick_scenario(), epochs=10, seed=0)


def _default_scalability() -> ScalabilityConfig:
    return ScalabilityConfig()


def _default_replication() -> ReplicationConfig:
    return ReplicationConfig(
        table1=Table1Config(scenario=quick_scenario(), epochs=10, seed=0),
        seeds=(0, 1, 2),
    )


def _default_simulate() -> SimulateConfig:
    return SimulateConfig(scenario=quick_scenario(), seed=0, engine="auto")


def _default_serve() -> ServeConfig:
    return ServeConfig()


def _default_robustness() -> RobustnessConfig:
    return RobustnessConfig()


def _default_leaf_spine() -> LeafSpineConfig:
    return LeafSpineConfig()


def _default_red_websearch() -> RedWebsearchConfig:
    return RedWebsearchConfig()


def _default_flow_incast() -> FlowIncastConfig:
    return FlowIncastConfig()


_SELFCHECK = CliOption(
    flags=("--selfcheck",),
    dest="selfcheck",
    kwargs={
        "action": "store_true",
        "help": "run the invariant oracles inline; violations abort with a "
        "serialized repro (off by default)",
    },
)

register(
    Experiment(
        name="table1",
        config_cls=Table1Config,
        default_config=_default_table1,
        run=run_table1_experiment,
        artifact_dir="artifacts/table1",
        summary="regenerate Table 1 (consistency + downstream errors, 4 methods)",
        cli_options=(
            CliOption(
                flags=("--journal",),
                dest="journal",
                kwargs={
                    "type": Path,
                    "help": "result journal (JSONL); completed method columns "
                    "are committed durably and skipped on re-run",
                },
            ),
            CliOption(
                flags=("--resume",),
                dest="resume",
                kwargs={
                    "action": "store_true",
                    "help": f"journal to {DEFAULT_TABLE1_JOURNAL} when "
                    "--journal is absent",
                },
            ),
            _SELFCHECK,
        ),
    )
)

register(
    Experiment(
        name="serve",
        config_cls=ServeConfig,
        default_config=_default_serve,
        run=run_serve_experiment,
        artifact_dir="artifacts/serve",
        summary="stream a replayed fleet through the imputation service",
        cli_options=(
            CliOption(
                flags=("--slo-exit",),
                dest="slo_exit",
                kwargs={
                    "action": "store_true",
                    "help": "exit 4 when a configured SLO breach is sustained "
                    "at end of run (run control only; digest-neutral)",
                },
            ),
            _SELFCHECK,
        ),
    )
)

register(
    Experiment(
        name="robustness",
        config_cls=RobustnessConfig,
        default_config=_default_robustness,
        run=run_robustness_experiment,
        artifact_dir="artifacts/robustness",
        summary="distribution-shift suite: per-method degradation curves "
        "and the KAL+CEM off-distribution claim",
        cli_options=(
            CliOption(
                flags=("--bench-out",),
                dest="bench_out",
                kwargs={
                    "type": Path,
                    "help": "write the run as a BENCH_robustness.json-shaped "
                    "artifact at this path",
                },
            ),
            CliOption(
                flags=("--check-claim",),
                dest="check_claim",
                kwargs={
                    "action": "store_true",
                    "help": "exit 1 unless KAL+CEM degrades no faster than "
                    "plain ML on every axis (CI regression sentinel)",
                },
            ),
            _SELFCHECK,
        ),
    )
)

register(
    Experiment(
        name="scalability",
        config_cls=ScalabilityConfig,
        default_config=_default_scalability,
        run=run_scalability_experiment,
        artifact_dir="artifacts/scalability",
        summary="FM-alone solve effort vs horizon (the §2.3 blow-up)",
    )
)

register(
    Experiment(
        name="replication",
        config_cls=ReplicationConfig,
        default_config=_default_replication,
        run=run_replication_experiment,
        artifact_dir="artifacts/replication",
        summary="cross-seed Table-1 replication (mean ± std per cell)",
    )
)

register(
    Experiment(
        name="leaf_spine_small",
        config_cls=LeafSpineConfig,
        default_config=_default_leaf_spine,
        run=run_leaf_spine_experiment,
        artifact_dir="artifacts/leaf_spine",
        summary="websearch traffic across a small leaf-spine fabric, "
        "per-(switch, queue) datasets with cross-switch features",
        cli_options=(_SELFCHECK,),
    )
)

register(
    Experiment(
        name="red_websearch",
        config_cls=RedWebsearchConfig,
        default_config=_default_red_websearch,
        run=run_red_websearch_experiment,
        artifact_dir="artifacts/red_websearch",
        summary="the paper workload under RED early-drop admission "
        "instead of plain Dynamic Threshold",
        cli_options=(_SELFCHECK,),
    )
)

register(
    Experiment(
        name="flow_incast",
        config_cls=FlowIncastConfig,
        default_config=_default_flow_incast,
        run=run_flow_incast_experiment,
        artifact_dir="artifacts/flow_incast",
        summary="flow-level background traffic (sampled sizes and RTTs, "
        "paced packets) plus incast bursts",
        cli_options=(_SELFCHECK,),
    )
)

register(
    Experiment(
        name="simulate",
        config_cls=SimulateConfig,
        default_config=_default_simulate,
        run=run_simulate_experiment,
        artifact_dir="artifacts/traces",
        summary="simulate a switch trace and save it as .npz",
        cli_options=(
            CliOption(
                flags=("--out",),
                dest="out",
                kwargs={"type": Path, "default": Path("trace.npz")},
            ),
            CliOption(
                flags=("--cache",),
                dest="cache",
                kwargs={
                    "type": Path,
                    "help": "trace cache directory; re-runs skip simulation "
                    "entirely",
                },
            ),
            _SELFCHECK,
        ),
    )
)
