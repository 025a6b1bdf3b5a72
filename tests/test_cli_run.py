"""The registry-backed CLI: repro run, repro experiments, --version, --set."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

# One tiny Table-1 configuration expressed as --set overrides, used both
# directly and (rendered to TOML) through --config.
TINY_TABLE1_OVERRIDES = [
    "d_model=16",
    "num_heads=2",
    "num_layers=1",
    "d_ff=32",
    "scenario.buffer_capacity=60",
    "scenario.steps_per_bin=4",
    "scenario.interval=25",
    "scenario.window_intervals=4",
    "scenario.stride_intervals=2",
    "scenario.duration_bins=600",
    "scenario.websearch_sources=6",
    "scenario.incast_fan_in=4",
    "scenario.incast_burst=15",
    "scenario.incast_period=250",
    "scenario.incast_jitter=60",
]


def _tiny_table1_config():
    from repro.config import apply_overrides
    from repro.eval.scenarios import quick_scenario
    from repro.eval.table1 import Table1Config

    base = Table1Config(scenario=quick_scenario(), epochs=1, seed=0)
    return apply_overrides(base, TINY_TABLE1_OVERRIDES)


def _set_flags(overrides):
    flags = []
    for assignment in overrides:
        flags += ["--set", assignment]
    return flags


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        from repro import __version__

        assert __version__ in out


class TestExperimentsListing:
    def test_lists_registered_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "scalability", "replication", "simulate"):
            assert name in out


class TestRunParser:
    def test_run_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "frobnicate"])
        assert excinfo.value.code == 2

    def test_every_registered_experiment_has_a_subparser(self):
        from repro.experiments import experiment_names

        for name in experiment_names():
            args = build_parser().parse_args(["run", name])
            assert args.experiment == name
            assert args.config is None and args.overrides == []

    def test_table1_run_options_parse(self):
        args = build_parser().parse_args(
            ["run", "table1", "--journal", "j.jsonl", "--resume", "--selfcheck"]
        )
        assert str(args.journal) == "j.jsonl"
        assert args.resume and args.selfcheck

    def test_profile_dir_has_one_spelling(self):
        args = build_parser().parse_args(["run", "simulate", "--profile-dir", "d"])
        assert str(args.obs_profile) == "d"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "simulate", "--profile", "d"])
        assert excinfo.value.code == 2


class TestRunSimulate:
    def test_run_simulate_from_config_file(self, tmp_path, capsys):
        from repro.config import apply_overrides, save_config
        from repro.experiments import SimulateConfig

        config = apply_overrides(SimulateConfig(), ["scenario.duration_bins=200"])
        path = tmp_path / "sim.toml"
        save_config(config, path, experiment="simulate")
        out = tmp_path / "trace.npz"
        assert main(["run", "simulate", "--config", str(path), "--out", str(out)]) == 0
        assert "simulated 200 bins" in capsys.readouterr().out


# The paper- and quick-profile configs, spelled out with the digests the
# experiments have always run under (journals, caches and checkpoints in
# the wild are keyed by them).  `repro run` must keep resolving to them.
PAPER_DIGESTS = {
    "table1": "0a80341806dfe2d455c1676d3003d7e2d8f877cb1b518510f98897d85dbd6682",
    "simulate": "66e3164a4c844e703693b237cf99fb31a08ab7b371a6e74f7fa4db3319c09e16",
    "serve": "248ab491c8ca120b1f5e6cf55192201b79ae61f9a93ac7a94f03aba0f52cf39f",
}
DEFAULT_DIGESTS = {
    "table1": "5e5bf99c907ea9189a1bbfbad9184227526922a3e54dfa70095e9210ab188227",
    "simulate": "5db8bbd28a28a111988109ff8db76de77ebe0239da197f9fda4686d5edc9310d",
    "serve": "0214e7ffb1dff8b3b0a2c93e08a65fe46a93b464588b80556bf6b9ee97523c8f",
    "scalability": "b8a47c88ac29a99439d911d5c53c271ebbfd97b58988f3013c949a50523d357b",
}


def _profile_config(name, scenario):
    from repro.eval.scalability import ScalabilityConfig
    from repro.eval.table1 import Table1Config
    from repro.experiments import SimulateConfig
    from repro.serve.config import ServeConfig

    if name == "table1":
        return Table1Config(scenario=scenario, epochs=10, seed=0)
    if name == "simulate":
        return SimulateConfig(scenario=scenario, seed=0, engine="auto")
    if name == "serve":
        return ServeConfig(
            scenario=scenario, seed=0, num_switches=4, shards=2, supervised=False
        )
    return ScalabilityConfig(horizons=(8, 16, 32), node_limit=2_000, deadline=None)


def _resolved(monkeypatch, argv):
    """The config ``repro run ...`` hands to the experiment's run function."""
    import dataclasses

    import repro.experiments.registry as registry_mod
    from repro.experiments import get_experiment

    name, seen = argv[1], []
    patched = dataclasses.replace(
        get_experiment(name), run=lambda config, **options: seen.append(config) or 0
    )
    monkeypatch.setitem(registry_mod._REGISTRY, name, patched)
    assert main(argv) == 0
    return seen[0]


class TestProfilePins:
    @pytest.mark.parametrize("name", sorted(PAPER_DIGESTS))
    def test_scenario_reset_is_the_paper_profile(self, name, monkeypatch):
        from repro.config import config_digest
        from repro.eval.scenarios import paper_scenario

        config = _resolved(monkeypatch, ["run", name, "--set", "scenario={}"])
        assert config == _profile_config(name, paper_scenario())
        assert config_digest(config) == PAPER_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(DEFAULT_DIGESTS))
    def test_defaults_are_the_quick_profile(self, name, monkeypatch):
        from repro.config import config_digest
        from repro.eval.scenarios import quick_scenario

        config = _resolved(monkeypatch, ["run", name])
        assert config == _profile_config(name, quick_scenario())
        assert config_digest(config) == DEFAULT_DIGESTS[name]


class TestRunErrors:
    def test_bad_override_exits_two_with_usable_message(self, capsys):
        code = main(["run", "table1", "--set", "epoch=3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "did you mean 'epochs'" in err

    def test_unparseable_override_exits_two(self, capsys):
        code = main(["run", "table1", "--set", "epochs"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "table1", "--config", str(tmp_path / "nope.toml")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_wrong_experiment_config_exits_two(self, tmp_path, capsys):
        from repro.config import save_config
        from repro.eval.scalability import ScalabilityConfig

        path = tmp_path / "scal.toml"
        save_config(ScalabilityConfig(), path, experiment="scalability")
        code = main(["run", "table1", "--config", str(path)])
        assert code == 2
        assert "scalability" in capsys.readouterr().err

    def test_nested_bad_override_suggests_the_field(self, capsys):
        code = main(["run", "table1", "--set", "scenario.durations_bins=9"])
        assert code == 2
        assert "did you mean 'duration_bins'" in capsys.readouterr().err


class TestRunTable1Equivalence:
    def test_config_file_and_set_journals_byte_identical(self, tmp_path, capsys):
        """One config, two spellings, same bytes.

        ``repro run table1 --set ...`` and ``repro run table1 --config
        tiny.toml`` must hash to the same journal scope and commit
        identical payloads in the same order — the journals are compared
        byte-for-byte.
        """
        from repro.config import save_config
        from repro.eval.table1 import journal_scope

        config = _tiny_table1_config()
        toml_path = tmp_path / "tiny.toml"
        save_config(config, toml_path, experiment="table1")

        set_journal = tmp_path / "set.jsonl"
        config_journal = tmp_path / "config.jsonl"
        assert (
            main(
                [
                    "run", "table1",
                    "--journal", str(set_journal),
                    *_set_flags(["epochs=1", *TINY_TABLE1_OVERRIDES]),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "run", "table1",
                    "--config", str(toml_path),
                    "--journal", str(config_journal),
                ]
            )
            == 0
        )
        assert set_journal.read_bytes() == config_journal.read_bytes()
        assert journal_scope(config) in set_journal.read_text()


class TestRunKeyboardInterrupt:
    def test_run_table1_interrupt_hints_resume(self, capsys, monkeypatch):
        import repro.eval.table1 as table1

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(table1, "run_table1", interrupted)
        code = main(["run", "table1"])
        assert code == 130
        assert "resumable with --resume" in capsys.readouterr().err

    def test_run_simulate_interrupt_has_no_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.eval.scenarios as scenarios

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(scenarios, "generate_trace", interrupted)
        code = main(["run", "simulate", "--out", str(tmp_path / "t.npz")])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" not in err
