"""End-to-end observability: chained CLI runs share one trace + snapshot.

Mirrors the CI obs-smoke job: a micro Table-1 run, the scalability
study, a cache-backed simulate pair, and a supervised job sweep all append
to the same trace file and accumulate into the same metrics document;
the result validates against the checked-in schema, exports to the
Perfetto-loadable form, and covers spans from the instrumented modules
— including supervised child processes under their own pids.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs.metrics import load_snapshot
from repro.obs.schema import validate_trace
from repro.obs.trace import read_events

SCHEMA = Path(__file__).resolve().parents[1] / "corpus" / "obs_trace.schema.json"

# The tiny Table-1 configuration from tests/test_cli_run.py (tests/ is
# not a package, so the list is restated rather than imported).
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


def _simulate_job(seed):
    """Supervisor job that opens its own span around a short simulation."""
    import dataclasses

    from repro.eval.scenarios import generate_trace, quick_scenario

    scenario = dataclasses.replace(quick_scenario(), duration_bins=200)
    with obs.span("sweep.job", seed=seed):
        return generate_trace(scenario, seed=seed, cache=None).num_bins


def _set_flags(overrides):
    flags = []
    for assignment in overrides:
        flags += ["--set", assignment]
    return flags


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One shared trace/metrics/profile artifact set from chained runs."""
    root = tmp_path_factory.mktemp("obs")
    trace = root / "trace.jsonl"
    metrics = root / "metrics.json"
    profile = root / "profile"
    obs_flags = [
        "--trace", str(trace), "--metrics", str(metrics),
        "--profile-dir", str(profile),
    ]

    assert (
        main(
            ["run", "table1", "--set", "epochs=1"]
            + _set_flags(TINY_TABLE1_OVERRIDES)
            + obs_flags
        )
        == 0
    )
    assert (
        main(
            ["run", "scalability", "--set", "horizons=[4]", "--set", "node_limit=200"]
            + obs_flags
        )
        == 0
    )
    cache_dir = root / "cache"
    for _ in range(2):  # second run is a pure cache hit
        assert (
            main(
                [
                    "run", "simulate",
                    "--set", "scenario.duration_bins=300",
                    "--out", str(root / "trace.npz"),
                    "--cache", str(cache_dir),
                ]
                + obs_flags
            )
            == 0
        )

    # Supervised sweep: spans and metrics from supervisor-managed child
    # processes must land in the same artifacts.
    from repro.resilience import Supervisor

    obs.configure(trace=trace, metrics=metrics)
    sweep = Supervisor(_simulate_job, workers=2).run([11, 12])
    assert sweep.results == [200, 200]
    obs.finish()

    return {"trace": trace, "metrics": metrics, "profile": profile}


class TestPipelineTrace:
    def test_trace_validates_against_checked_in_schema(self, artifacts):
        assert validate_trace(artifacts["trace"], SCHEMA) == []

    def test_spans_cover_instrumented_modules(self, artifacts):
        spans = {
            e["name"] for e in read_events(artifacts["trace"]) if e["ph"] == "X"
        }
        modules = {name.split(".")[0] for name in spans}
        # simulate → train → enforce → evaluate, plus cache and supervisor.
        expected = {
            "switchsim", "scenarios", "cache", "trainer", "cem",
            "table1", "scalability", "smt", "supervisor",
        }
        missing = expected - modules
        assert not missing, f"uninstrumented modules: {sorted(missing)}"
        assert len(modules) >= 6

    def test_supervised_child_spans_carry_child_pids(self, artifacts):
        events = read_events(artifacts["trace"])
        attempt_pids = {
            e["pid"] for e in events
            if e["ph"] == "X" and e["name"] == "supervisor.attempt"
        }
        assert attempt_pids, "no supervisor.attempt spans recorded"
        assert os.getpid() not in attempt_pids
        # And the job's own span ran inside the same child process.
        job_pids = {
            e["pid"] for e in events
            if e["ph"] == "X" and e["name"] == "sweep.job"
        }
        assert job_pids & attempt_pids

    def test_export_is_perfetto_loadable_json(self, artifacts, tmp_path):
        out = tmp_path / "trace.chrome.json"
        assert main(["obs", "export", str(artifacts["trace"]), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]


class TestPipelineMetrics:
    def test_residual_and_cache_series_recorded(self, artifacts):
        metrics = load_snapshot(artifacts["metrics"])["metrics"]
        for c in ("c1", "c2", "c3"):
            assert metrics[f"cem.residual_before.{c}"]["count"] >= 1
            assert metrics[f"table1.full.residual.{c}"]["count"] >= 1
        assert metrics["cache.misses"]["value"] >= 1
        assert metrics["cache.hits"]["value"] >= 1
        assert metrics["trainer.kal.emd_loss"]["values"]
        assert metrics["smt.solves"]["value"] >= 1

    def test_runs_carry_config_digests(self, artifacts):
        runs = load_snapshot(artifacts["metrics"])["runs"]
        assert len(runs) >= 4  # table1, scalability, simulate x2
        digests = [r.get("config_digest") for r in runs if "config_digest" in r]
        assert digests and all(len(d) == 64 for d in digests)

    def test_obs_summary_renders(self, artifacts, capsys):
        assert (
            main(
                [
                    "obs", "summary",
                    "--metrics", str(artifacts["metrics"]),
                    "--trace", str(artifacts["trace"]),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache.hits" in out
        assert "table1.run" in out


class TestPipelineProfile:
    def test_profile_artifacts_written(self, artifacts):
        names = {p.name for p in artifacts["profile"].glob("*.pstats")}
        assert "table1.train.kal.pstats" in names
        assert "table1.dataset.pstats" in names
