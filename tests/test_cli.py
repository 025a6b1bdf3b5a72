"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["run", "simulate"])
        assert args.overrides == [] and args.config is None
        assert str(args.out) == "trace.npz" and args.cache is None

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["simulate", "table1", "serve", "scalability"])
    def test_experiments_are_only_reachable_through_run(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_selfcheck_off_by_default(self):
        for command in (
            ["run", "simulate"],
            ["impute", "--model", "m.npz"],
            ["run", "table1"],
        ):
            assert build_parser().parse_args(command).selfcheck is False

    def test_resilience_flags_off_by_default(self):
        from repro.experiments import get_experiment

        train = build_parser().parse_args(["train"])
        assert train.checkpoint is None and train.resume is False
        table1 = build_parser().parse_args(["run", "table1"])
        assert table1.journal is None and table1.resume is False
        assert get_experiment("scalability").default_config().deadline is None

    def test_resilience_flags_parse(self):
        from repro.config import apply_overrides
        from repro.eval.scalability import ScalabilityConfig

        train = build_parser().parse_args(
            ["train", "--checkpoint", "ck.npz", "--resume"]
        )
        assert str(train.checkpoint) == "ck.npz" and train.resume
        table1 = build_parser().parse_args(["run", "table1", "--journal", "j.jsonl"])
        assert str(table1.journal) == "j.jsonl"
        args = build_parser().parse_args(["run", "scalability", "--set", "deadline=2.5"])
        assert apply_overrides(ScalabilityConfig(), args.overrides).deadline == 2.5

    def test_bad_engine_rejected_with_usable_message(self, tmp_path, capsys):
        code = main(
            ["run", "simulate", "--set", "engine=warp", "--out", str(tmp_path / "t.npz")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "'warp'" in err
        # The message names the valid engines, so the fix is obvious.
        assert "array" in err and "reference" in err
        assert not (tmp_path / "t.npz").exists()


def _simulate(*args):
    return main(["run", "simulate", *args])


class TestSimulate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = _simulate(
            "--set", "scenario.duration_bins=300", "--set", "seed=1", "--out", str(out)
        )
        assert code == 0
        with np.load(out) as archive:
            assert archive["qlen"].shape[1] == 300
            assert (archive["sent"] >= 0).all()
        assert "simulated 300 bins" in capsys.readouterr().out

    def test_selfcheck_passes_on_healthy_run(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = _simulate(
            "--set", "scenario.duration_bins=200", "--out", str(out), "--selfcheck"
        )
        assert code == 0
        assert out.exists()

    def test_cache_pointing_at_file_errors_usably(self, tmp_path, capsys):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("something else lives here")
        code = _simulate(
            "--set", "scenario.duration_bins=50",
            "--out", str(tmp_path / "t.npz"),
            "--cache", str(not_a_dir),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--cache must point to a directory" in err
        assert str(not_a_dir) in err


class TestTrainImpute:
    def test_train_then_impute(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "train",
                "--profile",
                "quick",
                "--epochs",
                "1",
                "--out",
                str(model_path),
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert model_path.exists()

        code = main(
            ["impute", "--profile", "quick", "--model", str(model_path), "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert "constraint-satisfied" in out
        assert code == 0  # CEM makes every window consistent

    def test_infeasible_cem_exits_nonzero_with_message(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.imputation.cem import CEMInfeasibleError, ConstraintEnforcer

        model_path = tmp_path / "model.npz"
        assert main(["train", "--epochs", "1", "--out", str(model_path)]) == 0

        def infeasible(self, raw, sample):
            raise CEMInfeasibleError("sample pins exceed the interval maximum")

        monkeypatch.setattr(ConstraintEnforcer, "enforce", infeasible)
        code = main(["impute", "--model", str(model_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "constraint enforcement infeasible" in err
        assert "sample pins exceed" in err

    def test_selfcheck_violation_exits_three(self, tmp_path, capsys, monkeypatch):
        from repro.imputation.cem import ConstraintEnforcer

        model_path = tmp_path / "model.npz"
        assert main(["train", "--epochs", "1", "--out", str(model_path)]) == 0
        # A broken enforcer that returns the raw imputation untouched: the
        # --selfcheck oracle must catch it before the consistency report.
        monkeypatch.setattr(ConstraintEnforcer, "enforce", lambda self, raw, s: raw)
        code = main(["impute", "--model", str(model_path), "--selfcheck"])
        assert code == 3
        assert "self-check violation" in capsys.readouterr().err


class TestVerify:
    def test_train_then_verify(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert main(["train", "--epochs", "1", "--out", str(model_path)]) == 0
        code = main(
            [
                "verify",
                "--model",
                str(model_path),
                "--tolerance",
                "100.0",  # a 1-epoch model passes only a huge tolerance
                "--required-rate",
                "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert "constraint satisfaction" in out
        assert code == 0

    def test_verify_fails_below_required_rate(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(["train", "--epochs", "1", "--out", str(model_path)])
        code = main(
            [
                "verify",
                "--model",
                str(model_path),
                "--tolerance",
                "1e-9",  # exact satisfaction: a raw model cannot pass
                "--required-rate",
                "1.0",
            ]
        )
        assert code == 1


class TestScalability:
    def test_prints_table(self, capsys):
        code = main(
            ["run", "scalability", "--set", "horizons=[4]", "--set", "node_limit=5000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "horizon" in out
        assert "4" in out

    def test_tiny_deadline_marks_timeout(self, capsys):
        code = main(
            ["run", "scalability", "--set", "horizons=[4]", "--set", "deadline=0.000001"]
        )
        assert code == 0
        assert "(timed out)" in capsys.readouterr().out


class TestKeyboardInterrupt:
    def test_simulate_interrupt_exits_130(self, tmp_path, capsys, monkeypatch):
        import repro.eval.scenarios as scenarios

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(scenarios, "generate_trace", interrupted)
        out = tmp_path / "t.npz"
        code = _simulate("--set", "seed=3", "--out", str(out))
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" not in err  # simulate has nothing to resume
        assert not out.exists()  # no half-written trace is left behind

    def test_table1_interrupt_hints_resume(self, tmp_path, capsys, monkeypatch):
        import repro.eval.table1 as table1

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(table1, "run_table1", interrupted)
        code = main(["run", "table1", "--journal", str(tmp_path / "j.jsonl")])
        assert code == 130
        assert "resumable with --resume" in capsys.readouterr().err

    def test_train_interrupt_hints_resume(self, capsys, monkeypatch):
        import repro.eval.table1 as table1

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(table1, "train_transformer", interrupted)
        code = main(["train", "--epochs", "1"])
        assert code == 130
        assert "resumable with --resume" in capsys.readouterr().err
