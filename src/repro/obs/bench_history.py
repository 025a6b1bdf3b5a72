"""Bench-trajectory tracking: a ledger of ``BENCH_*.json`` over time.

Every benchmark in this repo writes a standardized artifact
(:mod:`benchmarks.bench_schema`), but until now each write *replaced*
history — a 30% throughput regression looked identical to a 30% gain.
This module folds the artifacts into an append-only JSONL **ledger**
(``benchmarks/bench_history.jsonl``) and turns it into a regression
gate:

* ``repro obs bench ingest [--baseline]`` appends one entry per artifact
  (bench name, config digest, the tracked metric values, a timestamp);
  ``--baseline`` marks the entries as the reference bar;
* ``repro obs bench check`` compares each artifact against the **latest
  baseline with the same (bench, config_digest)** and exits 1 when a
  tracked metric regresses beyond ``tolerance`` — higher-is-better
  metrics may not fall below ``baseline * (1 - tolerance)``,
  lower-is-better may not rise above ``baseline * (1 + tolerance)``,
  and exact metrics (the robustness claim verdict) must match.

Matching on the config digest is what keeps the gate honest across
profiles: a quick-profile CI artifact never gets compared against the
checked-in paper-profile baseline — it is reported as unmatched (a note,
not a failure, unless ``strict``).

Tracked metrics are a deliberate curation, not everything in the
artifact: throughput/speedup headlines and latency bounds, the numbers
whose silent decay a maintainer actually wants to be paged about.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HISTORY_SCHEMA_VERSION = 1

#: Ledger location relative to the repo / artifact root.
DEFAULT_LEDGER = Path("benchmarks") / "bench_history.jsonl"

#: Default fractional tolerance before a drift counts as a regression.
#: Wide on purpose: single-core CI runners are noisy, and the gate's job
#: is catching step-function decay, not 3% jitter.
DEFAULT_TOLERANCE = 0.5


@dataclass(frozen=True)
class TrackedMetric:
    """One metric the gate watches, and which direction is "worse"."""

    key: str  # dotted path into the artifact's "metrics" mapping
    direction: str  # "higher" | "lower" | "equal"

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "equal"):
            raise ValueError(f"unknown direction {self.direction!r} for {self.key}")


#: What ``check`` compares, per bench name.
TRACKED: dict[str, tuple[TrackedMetric, ...]] = {
    "simspeed": (
        TrackedMetric("speedup", "higher"),
        TrackedMetric("cache_hit_speedup", "higher"),
        TrackedMetric("array_steps_per_sec", "higher"),
    ),
    "train": (
        TrackedMetric("train_speedup", "higher"),
        TrackedMetric("cem_speedup", "higher"),
    ),
    "serve": (
        TrackedMetric("switch_intervals_per_sec", "higher"),
        TrackedMetric("windows_per_sec", "higher"),
        TrackedMetric("p99_latency_seconds", "lower"),
    ),
    "topology": (
        TrackedMetric("fabric_switch_steps_per_sec", "higher"),
        TrackedMetric("flow_array_steps_per_sec", "higher"),
        TrackedMetric("fabric_overhead_vs_reference", "lower"),
    ),
    "robustness": (
        TrackedMetric("claim.holds", "equal"),
    ),
}


def _lookup(metrics: dict[str, Any], dotted: str) -> Any:
    """Resolve ``a.b.c`` inside a nested metrics mapping (None if absent)."""
    node: Any = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


# ----------------------------------------------------------------------
# Artifacts and the ledger
# ----------------------------------------------------------------------
def discover_artifacts(root: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """Parse every ``BENCH_*.json`` under ``root`` (sorted by bench name)."""
    artifacts = []
    for path in sorted(Path(root).glob("BENCH_*.json")):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(document, dict) or "bench" not in document:
            raise ValueError(f"{path}: not a bench_schema artifact")
        document["_path"] = str(path)
        artifacts.append(document)
    return artifacts


def load_ledger(path: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """The ledger's entries in append order.

    Only the final line may fail to parse: an append cut short leaves a
    torn last line, which is skipped.  A malformed line anywhere else
    raises ``ValueError``, so a lost baseline fails the gate instead of
    turning it into "no baseline — skipped".
    """
    ledger_path = Path(path)
    if not ledger_path.exists():
        return []
    lines = ledger_path.read_text(encoding="utf-8").splitlines()
    entries = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except ValueError as exc:
            if number == len(lines):
                break  # torn trailing line
            raise ValueError(
                f"{ledger_path}:{number}: malformed ledger line ({exc})"
            ) from exc
    return entries


def _ends_mid_line(path: Path) -> bool:
    """Whether ``path`` is non-empty and its last byte is not a newline."""
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except OSError:  # missing, or empty (seek before the start)
        return False


def ledger_entry(
    artifact: dict[str, Any], baseline: bool, recorded_unix: float | None = None
) -> dict[str, Any]:
    """The ledger line for one artifact: tracked metric values only."""
    bench = artifact["bench"]
    metrics = artifact.get("metrics", {})
    tracked = {
        metric.key: _lookup(metrics, metric.key)
        for metric in TRACKED.get(bench, ())
    }
    profile = metrics.get("profile") if isinstance(metrics, dict) else None
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "bench": bench,
        "config_digest": artifact.get("config_digest"),
        "recorded_unix": time.time() if recorded_unix is None else recorded_unix,
        "baseline": bool(baseline),
        "profile": profile,
        "metrics": tracked,
    }


def ingest(
    root: "str | os.PathLike[str]",
    ledger: "str | os.PathLike[str] | None" = None,
    baseline: bool = False,
    benches: "list[str] | None" = None,
) -> list[dict[str, Any]]:
    """Append one ledger entry per artifact; returns what was appended."""
    root = Path(root)
    ledger_path = Path(ledger) if ledger is not None else root / DEFAULT_LEDGER
    entries = []
    for artifact in discover_artifacts(root):
        if benches and artifact["bench"] not in benches:
            continue
        entries.append(ledger_entry(artifact, baseline))
    if entries:
        ledger_path.parent.mkdir(parents=True, exist_ok=True)
        # A torn last line must not swallow the first new entry.
        torn = _ends_mid_line(ledger_path)
        with open(ledger_path, "a", encoding="utf-8") as handle:
            if torn:
                handle.write("\n")
            for entry in entries:
                handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return entries


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One tracked metric outside tolerance vs its baseline."""

    bench: str
    key: str
    direction: str
    current: Any
    baseline: Any
    tolerance: float

    def __str__(self) -> str:
        if self.direction == "equal":
            return (
                f"{self.bench}.{self.key}: {self.current!r} != "
                f"baseline {self.baseline!r}"
            )
        verb = "fell below" if self.direction == "higher" else "rose above"
        return (
            f"{self.bench}.{self.key}: {self.current:.6g} {verb} the "
            f"±{self.tolerance:.0%} envelope of baseline {self.baseline:.6g}"
        )


def _baseline_for(
    entries: list[dict[str, Any]], bench: str, digest: "str | None"
) -> "dict[str, Any] | None":
    """The latest baseline entry matching (bench, config_digest)."""
    match = None
    for entry in entries:
        if (
            entry.get("baseline")
            and entry.get("bench") == bench
            and entry.get("config_digest") == digest
        ):
            match = entry  # entries are in append order; keep the last
    return match


def check(
    root: "str | os.PathLike[str]",
    ledger: "str | os.PathLike[str] | None" = None,
    tolerance: float = DEFAULT_TOLERANCE,
    benches: "list[str] | None" = None,
    strict: bool = False,
) -> "tuple[list[str], list[Regression]]":
    """Compare artifacts under ``root`` against their recorded baselines.

    Returns ``(report_lines, regressions)``; the CLI exits 1 when
    ``regressions`` is non-empty (or, under ``strict``, when an artifact
    has no matching baseline).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    root = Path(root)
    ledger_path = Path(ledger) if ledger is not None else root / DEFAULT_LEDGER
    entries = load_ledger(ledger_path)
    lines: list[str] = []
    regressions: list[Regression] = []
    checked = 0

    for artifact in discover_artifacts(root):
        bench = artifact["bench"]
        if benches and bench not in benches:
            continue
        tracked = TRACKED.get(bench)
        if not tracked:
            lines.append(f"{bench}: no tracked metrics registered — skipped")
            continue
        digest = artifact.get("config_digest")
        baseline = _baseline_for(entries, bench, digest)
        if baseline is None:
            note = (
                f"{bench}: no baseline for config {str(digest)[:12]} — "
                + ("FAIL (strict)" if strict else "skipped")
            )
            lines.append(note)
            if strict:
                regressions.append(
                    Regression(bench, "<baseline>", "equal", digest, None, tolerance)
                )
            continue
        checked += 1
        metrics = artifact.get("metrics", {})
        base_metrics = baseline.get("metrics", {})
        for metric in tracked:
            current = _lookup(metrics, metric.key)
            reference = base_metrics.get(metric.key)
            if reference is None:
                lines.append(
                    f"{bench}.{metric.key}: baseline has no value — skipped"
                )
                continue
            if current is None:
                regressions.append(
                    Regression(
                        bench, metric.key, metric.direction, None, reference, tolerance
                    )
                )
                lines.append(f"{bench}.{metric.key}: MISSING from artifact — FAIL")
                continue
            ok, summary = _compare(metric, current, reference, tolerance)
            lines.append(f"{bench}.{metric.key}: {summary}")
            if not ok:
                regressions.append(
                    Regression(
                        bench,
                        metric.key,
                        metric.direction,
                        current,
                        reference,
                        tolerance,
                    )
                )
    if checked == 0 and not regressions:
        lines.append("no artifacts matched a recorded baseline — nothing gated")
    return lines, regressions


def _compare(
    metric: TrackedMetric, current: Any, reference: Any, tolerance: float
) -> "tuple[bool, str]":
    if metric.direction == "equal":
        ok = current == reference
        return ok, (
            f"{current!r} == baseline {reference!r}"
            if ok
            else f"{current!r} != baseline {reference!r} — FAIL"
        )
    current_f = float(current)
    reference_f = float(reference)
    if metric.direction == "higher":
        bound = reference_f * (1.0 - tolerance)
        ok = current_f >= bound
        relation = f">= {bound:.6g}"
    else:
        bound = reference_f * (1.0 + tolerance)
        ok = current_f <= bound
        relation = f"<= {bound:.6g}"
    summary = (
        f"{current_f:.6g} vs baseline {reference_f:.6g} "
        f"({'ok' if ok else 'FAIL'}: {relation})"
    )
    return ok, summary
