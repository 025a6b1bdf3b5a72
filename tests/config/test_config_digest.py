"""config_digest: the one content hash behind caches, journals, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import config_digest
from repro.eval.scenarios import quick_scenario
from repro.eval.table1 import Table1Config, journal_scope
from repro.imputation.trainer import TrainerConfig


class TestDigestStability:
    def test_deterministic(self):
        config = Table1Config()
        assert config_digest(config) == config_digest(config)

    def test_reordered_but_equal_mapping_digests_equal(self):
        # The regression the unification exists to prevent: key order,
        # tuple-vs-list, and numpy-vs-python scalars must not change the
        # digest, or journals/caches silently fork.
        a = {"epochs": 10, "alphas": (1.0, 0.5), "seed": 0}
        b = {"seed": np.int64(0), "alphas": [1.0, 0.5], "epochs": 10}
        assert config_digest(a) == config_digest(b)

    def test_equal_configs_digest_equal(self):
        assert config_digest(Table1Config(epochs=5)) == config_digest(
            Table1Config(epochs=5)
        )

    def test_any_field_change_changes_digest(self):
        base = config_digest(Table1Config())
        assert config_digest(Table1Config(epochs=31)) != base
        assert config_digest(Table1Config(seed=1)) != base
        scenario = quick_scenario()
        changed = type(scenario)(**{**scenario.__dict__, "buffer_capacity": 81})
        assert config_digest(Table1Config(scenario=changed)) != config_digest(
            Table1Config(scenario=quick_scenario())
        )

    def test_kind_separates_namespaces(self):
        payload = {"seed": 0}
        assert config_digest(payload, kind="trace_cache") != config_digest(payload)

    def test_different_config_types_never_collide(self):
        # Two dataclasses that happen to share field values still digest
        # apart, because the type name participates.
        assert config_digest(TrainerConfig()) != config_digest(
            {"kind": "TrainerConfig"}
        )

    def test_unencodable_values_rejected(self):
        with pytest.raises(TypeError):
            config_digest({"fn": lambda: None})


class TestDelegation:
    """The three pre-existing hash sites all flow through config_digest."""

    def test_journal_scope_is_a_digest_prefix(self):
        config = Table1Config()
        assert journal_scope(config) == "table1/" + config_digest(config)[:16]

    def test_trace_key_is_a_digest_prefix(self):
        from repro.switchsim.cache import TRACE_CACHE_VERSION, trace_key

        params = {"seed": 0, "scenario": {"duration_bins": 100}}
        expected = config_digest(
            {"__trace_cache_version__": TRACE_CACHE_VERSION, "params": dict(params)},
            kind="trace_cache",
        )[:32]
        assert trace_key(params) == expected

    def test_checkpoint_fingerprint_is_a_digest(self):
        from dataclasses import replace

        from repro.imputation.trainer import Trainer

        stub = type("Stub", (), {"config": TrainerConfig(epochs=4, log_every=2)})()
        fingerprint = Trainer.config_fingerprint(stub)
        # epochs/log_every are excluded: resuming with more epochs is a
        # legitimate continuation, not a different experiment.
        assert fingerprint == config_digest(
            replace(stub.config, epochs=1, log_every=0)
        )
        stub_longer = type(
            "Stub", (), {"config": TrainerConfig(epochs=99, log_every=5)}
        )()
        assert Trainer.config_fingerprint(stub_longer) == fingerprint
        stub_other = type(
            "Stub", (), {"config": TrainerConfig(epochs=4, learning_rate=0.5)}
        )()
        assert Trainer.config_fingerprint(stub_other) != fingerprint
