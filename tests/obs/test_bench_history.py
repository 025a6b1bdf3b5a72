"""The bench-trajectory ledger and its regression gate.

The gate's contract: ``ingest --baseline`` records the reference bar per
(bench, config_digest); ``check`` exits 1 when a tracked metric drifts
past tolerance in its "worse" direction — and *only* then.  Artifacts
with no matching baseline are notes, not failures (unless ``--strict``),
so quick-profile CI runs never get judged against paper-profile bars.
The checked-in artifacts must pass against the checked-in ledger.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import bench_history
from repro.obs.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write_artifact(root, bench="serve", digest="digest-a", **metrics):
    defaults = {
        "switch_intervals_per_sec": 1000.0,
        "windows_per_sec": 200.0,
        "p99_latency_seconds": 0.05,
    }
    defaults.update(metrics)
    (root / f"BENCH_{bench}.json").write_text(
        json.dumps({"bench": bench, "config_digest": digest, "metrics": defaults}),
        encoding="utf-8",
    )


class TestLedger:
    def test_ingest_records_tracked_metrics_only(self, tmp_path):
        _write_artifact(tmp_path, untracked_noise=42.0)
        entries = bench_history.ingest(tmp_path, baseline=True)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["bench"] == "serve" and entry["baseline"] is True
        assert set(entry["metrics"]) == {
            "switch_intervals_per_sec", "windows_per_sec", "p99_latency_seconds",
        }
        ledger = bench_history.load_ledger(
            tmp_path / bench_history.DEFAULT_LEDGER
        )
        assert ledger == [entries[0]]

    def test_check_ok_within_tolerance(self, tmp_path):
        _write_artifact(tmp_path)
        bench_history.ingest(tmp_path, baseline=True)
        _write_artifact(tmp_path, switch_intervals_per_sec=700.0)  # -30%
        lines, regressions = bench_history.check(tmp_path, tolerance=0.5)
        assert regressions == []
        assert any("ok" in line for line in lines)

    def test_higher_direction_regression_detected(self, tmp_path):
        _write_artifact(tmp_path)
        bench_history.ingest(tmp_path, baseline=True)
        _write_artifact(tmp_path, windows_per_sec=40.0)  # -80%, beyond ±50%
        _, regressions = bench_history.check(tmp_path, tolerance=0.5)
        assert [r.key for r in regressions] == ["windows_per_sec"]
        assert "fell below" in str(regressions[0])

    def test_lower_direction_regression_detected(self, tmp_path):
        _write_artifact(tmp_path)
        bench_history.ingest(tmp_path, baseline=True)
        _write_artifact(tmp_path, p99_latency_seconds=0.2)  # 4x the baseline
        _, regressions = bench_history.check(tmp_path, tolerance=0.5)
        assert [r.key for r in regressions] == ["p99_latency_seconds"]
        assert "rose above" in str(regressions[0])

    def test_equal_direction_flip_fails(self, tmp_path):
        (tmp_path / "BENCH_robustness.json").write_text(
            json.dumps(
                {
                    "bench": "robustness",
                    "config_digest": "digest-r",
                    "metrics": {"claim": {"holds": True}},
                }
            ),
            encoding="utf-8",
        )
        bench_history.ingest(tmp_path, baseline=True)
        (tmp_path / "BENCH_robustness.json").write_text(
            json.dumps(
                {
                    "bench": "robustness",
                    "config_digest": "digest-r",
                    "metrics": {"claim": {"holds": False}},
                }
            ),
            encoding="utf-8",
        )
        _, regressions = bench_history.check(tmp_path)
        assert [r.key for r in regressions] == ["claim.holds"]

    def test_missing_tracked_metric_fails(self, tmp_path):
        _write_artifact(tmp_path)
        bench_history.ingest(tmp_path, baseline=True)
        document = json.loads((tmp_path / "BENCH_serve.json").read_text())
        del document["metrics"]["windows_per_sec"]
        (tmp_path / "BENCH_serve.json").write_text(json.dumps(document))
        lines, regressions = bench_history.check(tmp_path)
        assert [r.key for r in regressions] == ["windows_per_sec"]
        assert any("MISSING" in line for line in lines)

    def test_unmatched_digest_is_note_unless_strict(self, tmp_path):
        _write_artifact(tmp_path, digest="digest-a")
        bench_history.ingest(tmp_path, baseline=True)
        _write_artifact(tmp_path, digest="digest-b")  # config changed
        lines, regressions = bench_history.check(tmp_path)
        assert regressions == []
        assert any("no baseline" in line for line in lines)
        _, strict_regressions = bench_history.check(tmp_path, strict=True)
        assert len(strict_regressions) == 1

    def test_latest_matching_baseline_wins(self, tmp_path):
        _write_artifact(tmp_path, windows_per_sec=1000.0)
        bench_history.ingest(tmp_path, baseline=True)
        _write_artifact(tmp_path, windows_per_sec=100.0)
        bench_history.ingest(tmp_path, baseline=True)  # re-baselined lower
        _, regressions = bench_history.check(tmp_path, tolerance=0.5)
        assert regressions == []  # judged against the newer bar

    def test_torn_final_line_is_skipped(self, tmp_path):
        _write_artifact(tmp_path)
        entries = bench_history.ingest(tmp_path, baseline=True)
        ledger = tmp_path / bench_history.DEFAULT_LEDGER
        with open(ledger, "a", encoding="utf-8") as handle:
            handle.write('{"bench": "ser')  # an append cut short
        assert bench_history.load_ledger(ledger) == entries

    def test_malformed_interior_line_raises(self, tmp_path):
        _write_artifact(tmp_path)
        ledger = tmp_path / bench_history.DEFAULT_LEDGER
        ledger.parent.mkdir(parents=True)
        ledger.write_text('{"bench": "ser\n', encoding="utf-8")
        bench_history.ingest(tmp_path, baseline=True)
        with pytest.raises(ValueError, match=":1: malformed ledger line"):
            bench_history.load_ledger(ledger)
        with pytest.raises(ValueError, match="malformed ledger line"):
            bench_history.check(tmp_path)

    def test_ingest_after_a_torn_line_starts_a_new_line(self, tmp_path):
        _write_artifact(tmp_path)
        ledger = tmp_path / bench_history.DEFAULT_LEDGER
        ledger.parent.mkdir(parents=True)
        ledger.write_text('{"bench": "ser', encoding="utf-8")
        entries = bench_history.ingest(tmp_path, baseline=True)
        lines = ledger.read_text(encoding="utf-8").splitlines()
        assert lines[0] == '{"bench": "ser'
        assert [json.loads(line) for line in lines[1:]] == entries
        # The torn line is interior now: the ledger no longer loads.
        with pytest.raises(ValueError, match=":1: malformed ledger line"):
            bench_history.load_ledger(ledger)

    def test_tolerance_validation(self, tmp_path):
        with pytest.raises(ValueError, match="tolerance"):
            bench_history.check(tmp_path, tolerance=-0.1)


class TestCli:
    def test_check_exits_one_on_regression(self, tmp_path, capsys):
        _write_artifact(tmp_path)
        assert main(["bench", "ingest", "--root", str(tmp_path), "--baseline"]) == 0
        assert "ingested serve" in capsys.readouterr().out
        _write_artifact(tmp_path, windows_per_sec=1.0)
        assert main(["bench", "check", "--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "regression(s)" in captured.err

    def test_check_exits_zero_when_clean(self, tmp_path, capsys):
        _write_artifact(tmp_path)
        assert main(["bench", "ingest", "--root", str(tmp_path), "--baseline"]) == 0
        assert main(["bench", "check", "--root", str(tmp_path)]) == 0
        assert "bench check: ok" in capsys.readouterr().out

    def test_check_fails_closed_after_ingest_onto_a_torn_line(self, tmp_path, capsys):
        _write_artifact(tmp_path)
        ledger = tmp_path / bench_history.DEFAULT_LEDGER
        ledger.parent.mkdir(parents=True)
        ledger.write_text('{"bench": "ser', encoding="utf-8")
        assert main(["bench", "ingest", "--root", str(tmp_path), "--baseline"]) == 0
        _write_artifact(tmp_path, windows_per_sec=0.1)
        assert main(["bench", "check", "--root", str(tmp_path)]) == 2
        assert "malformed ledger line" in capsys.readouterr().err

    def test_ingest_empty_root_exits_two(self, tmp_path, capsys):
        assert main(["bench", "ingest", "--root", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err


class TestCheckedInArtifacts:
    def test_repo_artifacts_pass_against_checked_in_ledger(self, capsys):
        ledger = REPO_ROOT / bench_history.DEFAULT_LEDGER
        assert ledger.exists(), "seed the ledger with `repro obs bench ingest --baseline`"
        assert main(["bench", "check", "--root", str(REPO_ROOT)]) == 0
        assert "bench check: ok" in capsys.readouterr().out

    def test_every_checked_in_bench_has_a_baseline(self):
        entries = bench_history.load_ledger(REPO_ROOT / bench_history.DEFAULT_LEDGER)
        baselined = {e["bench"] for e in entries if e.get("baseline")}
        artifacts = {a["bench"] for a in bench_history.discover_artifacts(REPO_ROOT)}
        assert artifacts <= baselined
