"""Command-line interface: run experiments, train and apply models.

Usage (installed as the console script ``repro`` or via
``python -m repro.cli``)::

    repro run table1 --config examples/table1.toml --set epochs=5
    repro run simulate --set scenario.duration_bins=4000
    repro run table1 --set scenario={}      # the paper-scale scenario
    repro experiments
    repro train --profile quick --epochs 10 --out model.npz
    repro impute --model model.npz --profile quick

``repro run <experiment>`` is the one entry point for experiments: the
experiment is resolved in the :mod:`repro.experiments` registry, its
typed config is loaded from ``--config`` (TOML or JSON; defaults
otherwise) and then modified by dotted-path ``--set`` overrides.
``train``, ``impute`` and ``verify`` work on model files rather than
reports, and pick their scenario with ``--profile paper|quick``.

All subcommands are deterministic given their config/seed.  The command
runs OpenBLAS on one thread per process unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set (:func:`entry`), so float64 results do not
depend on the machine and both CPUs of a two-CPU machine take the
concurrent paths of :mod:`repro.utils.cpu`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: Variables that size OpenBLAS's thread pool; one the user set wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed (e.g. PYTHONPATH=src)
        from repro import __version__

        return __version__


def _scenario(args) -> "ScenarioConfig":
    from repro.eval.scenarios import paper_scenario, quick_scenario

    return paper_scenario() if args.profile == "paper" else quick_scenario()


def _annotate_obs(config, experiment: str) -> None:
    """Stamp the resolved config's digest into the observability run.

    A trace/metrics file then carries the same ``config_digest`` that
    scopes this run's journal, cache entries, and checkpoints — making
    observability artifacts joinable with every other artifact of the
    run.  No-op when observability is off.
    """
    import repro.obs as obs

    if not obs.enabled():
        return
    from repro.config import config_digest

    obs.annotate(config_digest=config_digest(config), experiment=experiment)


# ----------------------------------------------------------------------
# Registry-backed subcommands
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    """Run a registered experiment from its typed config."""
    from repro.config import apply_overrides, load_config
    from repro.experiments import get_experiment

    experiment = get_experiment(args.experiment)
    if args.config is not None:
        config = load_config(
            args.config, experiment.config_cls, expected_experiment=experiment.name
        )
    else:
        config = experiment.default_config()
    config = apply_overrides(config, args.overrides)
    _annotate_obs(config, experiment=experiment.name)
    options = {
        option.dest: getattr(args, option.dest) for option in experiment.cli_options
    }
    return experiment.run(config, **options)


def cmd_experiments(args) -> int:
    """List the registered experiments."""
    from repro.eval.report import format_table
    from repro.experiments import iter_experiments

    rows = [
        [e.name, e.config_cls.__name__, e.artifact_dir, e.summary]
        for e in iter_experiments()
    ]
    print(format_table(["experiment", "config", "artifacts", "summary"], rows))
    return 0


# ----------------------------------------------------------------------
# Model-file subcommands (not experiments: they produce/consume .npz
# model artifacts rather than a reproducible report)
# ----------------------------------------------------------------------
def cmd_train(args) -> int:
    """Train the transformer (+KAL) and save its parameters."""
    from repro.eval.scenarios import generate_dataset
    from repro.eval.table1 import Table1Config, train_transformer
    from repro.nn.serialization import save_module

    scenario = _scenario(args)
    train, val, test = generate_dataset(scenario, seed=args.seed)
    config = Table1Config(
        scenario=scenario,
        epochs=args.epochs,
        seed=args.seed,
        dtype=args.dtype,
    )
    _annotate_obs(config, experiment="train")
    model, seconds = train_transformer(
        train,
        val,
        config,
        use_kal=not args.no_kal,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    save_module(model, args.out)
    print(
        f"trained on {len(train)} windows in {seconds:.0f}s "
        f"(KAL={'off' if args.no_kal else 'on'}) -> {args.out}"
    )
    print(f"val/test windows available: {len(val)}/{len(test)}")
    return 0


def _load_trained_model(args, selfcheck: bool = False):
    """Rebuild the profile's dataset and load ``--model`` into an imputer.

    Returns ``(model, test)``: the trained imputer and the test split it
    is applied to.
    """
    from repro.eval.scenarios import generate_dataset
    from repro.eval.table1 import Table1Config
    from repro.imputation.transformer_imputer import TransformerConfig, TransformerImputer
    from repro.nn.serialization import load_module

    scenario = _scenario(args)
    train, _, test = generate_dataset(scenario, seed=args.seed, selfcheck=selfcheck)
    table_config = Table1Config(scenario=scenario, seed=args.seed)
    model = TransformerImputer(
        TransformerConfig(
            num_features=train.num_features,
            num_queues=train.num_queues,
            d_model=table_config.d_model,
            num_heads=table_config.num_heads,
            num_layers=table_config.num_layers,
            d_ff=table_config.d_ff,
        ),
        train.scaler,
        seed=args.seed,
    )
    load_module(model, args.model)
    return model, test


def cmd_impute(args) -> int:
    """Load a trained model, impute the test split, report consistency."""
    import numpy as np

    from repro.constraints import check_constraints
    from repro.imputation import ConstraintEnforcer

    model, test = _load_trained_model(args, selfcheck=args.selfcheck)
    enforcer = ConstraintEnforcer(test.switch_config)

    satisfied = 0
    mae_total = 0.0
    for sample in test.samples:
        imputed = enforcer.enforce(model.impute(sample), sample)
        if args.selfcheck:
            from repro.testing.selfcheck import selfcheck_enforced

            selfcheck_enforced(imputed, sample, test.switch_config)
        report = check_constraints(imputed, sample, test.switch_config)
        satisfied += report.satisfied
        mae_total += float(np.abs(imputed - sample.target_raw).mean())
    print(
        f"imputed {len(test)} windows: {satisfied}/{len(test)} constraint-"
        f"satisfied, MAE {mae_total / max(len(test), 1):.3f} packets"
    )
    return 0 if satisfied == len(test) else 1


def cmd_verify(args) -> int:
    """Audit a trained model against the switch constraints (C1-C3)."""
    from repro.verify import ConstraintVerifier

    model, test = _load_trained_model(args)
    verifier = ConstraintVerifier(test, tolerance=args.tolerance)
    report = verifier.verify(model, perturbations=args.perturbations, seed=args.seed)
    print(report.summary())
    return 0 if report.tolerant_rate >= args.required_rate else 1


def cmd_obs(args) -> int:
    """Delegate to the observability toolbox (``python -m repro.obs``).

    ``repro obs summary --metrics m.json``, ``repro obs export t.jsonl``,
    and ``repro obs validate t.jsonl`` all pass through unchanged.
    """
    from repro.obs.__main__ import main as obs_main

    return obs_main(list(args.obs_args))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from repro.experiments import iter_experiments

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FM+ML telemetry imputation (HotNets '23 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", choices=("paper", "quick"), default="quick")
        p.add_argument("--seed", type=int, default=0)

    def observable(p):
        """Add the opt-in observability flags (see docs/observability.md).

        ``--profile`` is taken by the model-file subcommands (scenario
        profile ``paper``/``quick``), so the cProfile flag is spelled
        ``--profile-dir`` everywhere.
        """
        p.add_argument(
            "--trace",
            type=Path,
            nargs="?",
            const=Path("repro-trace.jsonl"),
            default=None,
            metavar="PATH",
            help="append wall-clock spans to PATH as Chrome-trace JSONL "
            "(default repro-trace.jsonl; load via `repro obs export`)",
        )
        p.add_argument(
            "--metrics",
            type=Path,
            nargs="?",
            const=Path("repro-metrics.json"),
            default=None,
            metavar="PATH",
            help="snapshot counters/gauges/histograms/series to PATH "
            "(default repro-metrics.json; accumulates across runs)",
        )
        p.add_argument(
            "--profile-dir",
            dest="obs_profile",
            type=Path,
            nargs="?",
            const=Path("repro-profile"),
            default=None,
            metavar="DIR",
            help="cProfile each pipeline stage into DIR "
            "(default repro-profile/): .pstats + top-25 cumulative report",
        )
        p.add_argument(
            "--status-file",
            dest="status_file",
            type=Path,
            nargs="?",
            const=Path("repro-status.jsonl"),
            default=None,
            metavar="PATH",
            help="append live status snapshots to PATH while running "
            "(default repro-status.jsonl; tail with `repro obs top`)",
        )
        p.add_argument(
            "--status-interval",
            dest="status_interval",
            type=float,
            default=1.0,
            metavar="SECONDS",
            help="seconds between live status snapshots (default 1.0)",
        )
        p.add_argument(
            "--events",
            dest="events",
            type=Path,
            nargs="?",
            const=Path("repro-events.jsonl"),
            default=None,
            metavar="PATH",
            help="append structured operational events to PATH as JSONL "
            "(respawns, backpressure, SLO breaches, checkpoint saves)",
        )

    # --- repro run <experiment> ---------------------------------------
    p = sub.add_parser(
        "run", help="run a registered experiment from a typed config"
    )
    run_sub = p.add_subparsers(dest="experiment", required=True)
    for experiment in iter_experiments():
        # No prefix matching: `--profile` must not resolve to `--profile-dir`.
        ep = run_sub.add_parser(
            experiment.name, help=experiment.summary, allow_abbrev=False
        )
        ep.add_argument(
            "--config",
            type=Path,
            help=f"{experiment.config_cls.__name__} as TOML or JSON "
            "(defaults when absent)",
        )
        ep.add_argument(
            "--set",
            dest="overrides",
            action="append",
            metavar="KEY=VALUE",
            default=[],
            help="override a config field by dotted path "
            "(e.g. --set scenario.duration_bins=4000, or --set scenario={} "
            "for the paper-scale scenario); repeatable",
        )
        observable(ep)
        for option in experiment.cli_options:
            ep.add_argument(*option.flags, dest=option.dest, **dict(option.kwargs))
        ep.set_defaults(func=cmd_run)

    p = sub.add_parser("experiments", help="list the registered experiments")
    p.set_defaults(func=cmd_experiments)

    # --- model-file subcommands ---------------------------------------
    p = sub.add_parser("train", help="train the transformer imputer")
    common(p)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--no-kal", action="store_true", help="disable the knowledge-augmented loss")
    p.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float32",
        help="training precision; float64 reproduces the reference kernels "
        "bit-for-bit at a fixed BLAS thread count, which repro fixes at one "
        "unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set",
    )
    p.add_argument("--out", type=Path, default=Path("model.npz"))
    p.add_argument(
        "--checkpoint",
        type=Path,
        help="write an atomic, checksummed training checkpoint here every epoch",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from an existing --checkpoint instead of epoch 0",
    )
    observable(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("impute", help="impute the test split with a trained model")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the invariant oracles inline; violations abort with a "
        "serialized repro (off by default)",
    )
    observable(p)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("verify", help="audit a trained model against C1-C3")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--perturbations", type=int, default=0)
    p.add_argument(
        "--required-rate",
        type=float,
        default=0.0,
        help="exit non-zero if the within-tolerance rate falls below this",
    )
    observable(p)
    p.set_defaults(func=cmd_verify)

    # --- observability artifact inspection ----------------------------
    p = sub.add_parser(
        "obs",
        help="inspect observability artifacts (summary / export / validate)",
    )
    p.add_argument(
        "obs_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments for `python -m repro.obs` (try `repro obs --help`)",
    )
    p.set_defaults(func=cmd_obs)

    return parser


def _resumable(args) -> bool:
    """Whether an interrupted command's progress is journal/checkpoint-saved."""
    if args.command == "train":
        return True
    return args.command == "run" and args.experiment == "table1"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain errors (infeasible CEM input, unsupported engine, a bad
    ``--cache`` path, an invalid config file or ``--set`` override,
    self-check violations) are reported on stderr with a non-zero exit
    code instead of a traceback.
    """
    from repro.config import ConfigError
    from repro.imputation.cem import CEMInfeasibleError
    from repro.serve.errors import ServeError
    from repro.switchsim.engine import EngineUnsupported
    from repro.testing.selfcheck import SelfCheckError

    args = build_parser().parse_args(argv)
    obs_requested = any(
        getattr(args, dest, None) is not None
        for dest in ("trace", "metrics", "obs_profile", "status_file", "events")
    )
    if obs_requested:
        import repro.obs as obs

        obs.configure(
            trace=getattr(args, "trace", None),
            metrics=getattr(args, "metrics", None),
            profile=getattr(args, "obs_profile", None),
            status=getattr(args, "status_file", None),
            status_interval=getattr(args, "status_interval", 1.0),
            events=getattr(args, "events", None),
            header={
                "argv": list(argv) if argv is not None else sys.argv[1:],
                "command": args.command,
            },
        )
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed stdout (e.g. `repro obs summary |
        # head`); exit quietly with the conventional SIGPIPE status and
        # detach stdout so the interpreter's shutdown flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        # Supervisor attempts are daemonic (terminated with us), a forked
        # fork_join child is reaped by its caller, and the journal /
        # checkpoint flush on every write, so there is nothing left to save.
        hint = " (progress saved; resumable with --resume)" if _resumable(args) else ""
        print(f"\ninterrupted{hint}", file=sys.stderr)
        return 130
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except CEMInfeasibleError as exc:
        print(f"error: constraint enforcement infeasible: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"error: self-check violation: {exc}", file=sys.stderr)
        return 3
    except ServeError as exc:
        print(f"error: streaming service degraded: {exc}", file=sys.stderr)
        return 2
    except EngineUnsupported as exc:
        print(
            f"error: engine=array cannot reproduce this configuration: {exc}\n"
            "hint: use --set engine=auto (falls back) or --set engine=reference",
            file=sys.stderr,
        )
        return 2
    except NotADirectoryError as exc:
        print(
            f"error: --cache must point to a directory: {exc}",
            file=sys.stderr,
        )
        return 2
    finally:
        if obs_requested:
            # Flush + write final artifacts even on error/interrupt, and
            # disable so chained in-process main() calls don't leak state.
            import repro.obs as obs

            obs.finish()


def entry() -> int:
    """The ``repro`` command: fix the BLAS pool size, then run :func:`main`.

    One OpenBLAS thread per process, unless the user chose a count.  The
    variable is read when numpy loads OpenBLAS (this module does not
    import numpy), and by every child process; if numpy has loaded
    already, OpenBLAS's setter applies it.  Calling :func:`main`, or
    importing ``repro``, leaves the process as it is.
    """
    if not any(os.environ.get(name) for name in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        if "numpy" in sys.modules:
            from repro.utils.cpu import set_blas_threads

            set_blas_threads(1)
    return main()


if __name__ == "__main__":
    sys.exit(entry())
