"""Resilience is strictly opt-in: default paths run zero resilience code.

The acceptance bound is "<5% overhead with features off".  The strong
form proven here is structural: with every resilience knob at its
default, no Supervisor, ResultJournal, Budget, or checkpoint write is
ever constructed — the default paths execute the seed code, so their
overhead is the cost of a few ``is None`` branches.  A lenient timing
check pins that passing the explicit defaults costs nothing measurable.
"""

from __future__ import annotations

import time

import pytest

import repro.resilience.budget as budget_mod
import repro.resilience.checkpoint as checkpoint_mod
import repro.resilience.journal as journal_mod
import repro.resilience.supervisor as supervisor_mod
from repro.eval import generate_dataset, generate_trace, quick_scenario
from repro.imputation import Trainer, TrainerConfig, TransformerImputer
from repro.imputation.transformer_imputer import TransformerConfig
from repro.smt import IntVar, Solver


@pytest.fixture()
def forbid_resilience(monkeypatch):
    """Make any resilience-machinery construction an immediate failure."""

    def forbid(name):
        def boom(*args, **kwargs):
            raise AssertionError(f"{name} constructed on a default code path")

        return boom

    monkeypatch.setattr(supervisor_mod.Supervisor, "__init__", forbid("Supervisor"))
    monkeypatch.setattr(journal_mod.ResultJournal, "__init__", forbid("ResultJournal"))
    monkeypatch.setattr(budget_mod.Budget, "__init__", forbid("Budget"))
    monkeypatch.setattr(checkpoint_mod, "save_checkpoint", forbid("save_checkpoint"))


def _tiny_trainer(dataset, epochs=1):
    model = TransformerImputer(
        TransformerConfig(
            num_features=dataset.num_features,
            num_queues=dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
        ),
        dataset.scaler,
        seed=0,
    )
    return Trainer(model, dataset, TrainerConfig(epochs=epochs, batch_size=8, seed=0))


class TestDefaultPathsAreSeedPaths:
    def test_generate_dataset_never_builds_a_supervisor(self, forbid_resilience):
        import dataclasses

        scenario = dataclasses.replace(quick_scenario(), duration_bins=200)
        assert generate_trace(scenario, seed=0).num_bins == 200
        train, _, _ = generate_dataset(quick_scenario(), seed=1)
        assert len(train) > 0

    def test_default_train_never_checkpoints(self, forbid_resilience, small_dataset):
        trainer = _tiny_trainer(small_dataset)
        history = trainer.train()
        assert len(history.loss) == 1

    def test_default_solver_never_builds_a_budget(self, forbid_resilience):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(x >= 3)
        assert s.check().is_sat

    def test_run_table1_without_journal_opens_none(self, forbid_resilience):
        from repro.resilience.journal import ResultJournal

        # The run_table1 entry guard: journal=None must stay None (the
        # full experiment is exercised elsewhere; the coercion is what
        # decides whether any journal I/O can happen at all).
        assert ResultJournal.coerce(None) is None


class TestDefaultOverheadPin:
    def test_explicit_defaults_cost_under_5_percent(self, small_dataset):
        """train() and train(<explicit defaults>) run the same code; the
        measured gap pins the resilience plumbing at noise level."""

        def best_of(k, fn):
            times = []
            for _ in range(k):
                trainer = _tiny_trainer(small_dataset)
                start = time.perf_counter()
                fn(trainer)
                times.append(time.perf_counter() - start)
            return min(times)

        plain = best_of(3, lambda t: t.train())
        explicit = best_of(
            3,
            lambda t: t.train(checkpoint_path=None, checkpoint_every=1, resume=False),
        )
        # <5% relative, with a small absolute floor against timer noise.
        assert explicit <= plain * 1.05 + 0.05, (plain, explicit)
