"""Compare two sets of benchmark results (choosing-metrics guide, section 8).

For every workload and metric found in both sets: each side's median and
quartiles, the share of pairs the candidate B wins (runs paired by seed
where the seeds match, else in order; ties count for neither side), the
relative change of the medians against the metric's bound, and a verdict:

* ``better`` -- B wins at least nine tenths of the pairs and the medians
  differ by more than A's own spread (its interquartile distance);
* ``unresolved`` -- either side's spread (interquartile distance over
  median) exceeds the bound, unless every run of B beats every run of A;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``same`` -- otherwise.

Metrics without a bound (per-layer ones) get only the numbers.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any


def load(path: str | Path) -> list[dict[str, Any]]:
    """Result records from a result file or every result file in a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for file in files:
        if file.name.endswith(".trace.json"):
            continue
        record = json.loads(file.read_text())
        if isinstance(record, dict) and "workload" in record and "metrics" in record:
            results.append(record)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: tuple[float, float, float]  # q1, median, q3
    b: tuple[float, float, float]
    won: int
    pairs: int
    change: float  # relative change of the median, positive = worse
    bound: float | None
    verdict: str


def _pairs(a_runs: list[dict], b_runs: list[dict]) -> list[tuple[dict, dict]]:
    a_by_seed = {run["seed"]: run for run in a_runs}
    b_by_seed = {run["seed"]: run for run in b_runs}
    common = sorted(set(a_by_seed) & set(b_by_seed))
    if common:
        return [(a_by_seed[seed], b_by_seed[seed]) for seed in common]
    return list(zip(a_runs, b_runs))


def compare(a: list[dict], b: list[dict], bench: dict) -> list[Row]:
    specs = {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    rows = []
    for workload in sorted({run["workload"] for run in a} & {run["workload"] for run in b}):
        a_runs = [run for run in a if run["workload"] == workload]
        b_runs = [run for run in b if run["workload"] == workload]
        names = [n for n in a_runs[0]["metrics"] if all(n in r["metrics"] for r in a_runs + b_runs)]
        for name in names:
            lower = specs.get(name, {}).get("better", "lower") == "lower"

            def value(run: dict) -> float:
                return run["metrics"][name]["value"]

            def beats(x: float, y: float) -> bool:
                return x < y if lower else x > y

            a_values = [value(run) for run in a_runs]
            b_values = [value(run) for run in b_runs]
            qa, qb = quartiles(a_values), quartiles(b_values)
            pairs = _pairs(a_runs, b_runs)
            won = sum(beats(value(rb), value(ra)) for ra, rb in pairs)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            change = change if lower else -change
            spread = max(
                (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
            )
            bound = bounds.get(name)
            if won >= 0.9 * len(pairs) and beats(qb[1], qa[1]) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            elif bound is None:
                verdict = "-"
            elif spread > bound:
                every = all(beats(x, y) for x in b_values for y in a_values)
                verdict = "better" if every else "unresolved"
            elif change > bound:
                verdict = "worse"
            else:
                verdict = "same"
            rows.append(
                Row(
                    workload, name, a_runs[0]["metrics"][name]["unit"], qa, qb,
                    won, len(pairs), change, bound, verdict,
                )
            )
    return rows


def render(rows: list[Row], a_label: str, b_label: str) -> str:
    lines = [
        f"A = {a_label}",
        f"B = {b_label}",
        f"{'workload':<16} {'metric':<32} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'B won':>7} {'change/bound':>14}  verdict",
    ]
    for row in rows:
        def cell(q: tuple[float, float, float]) -> str:
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

        bound = f"{row.bound:.2f}" if row.bound is not None else "-"
        lines.append(
            f"{row.workload:<16} {row.metric + ' (' + row.unit + ')':<32} {cell(row.a):>30} "
            f"{cell(row.b):>30} {row.won:>3}/{row.pairs:<3} {row.change:>+7.3f}/{bound:<6}  "
            f"{row.verdict}"
        )
    return "\n".join(lines)
