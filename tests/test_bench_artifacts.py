"""Every checked-in ``BENCH_*.json`` parses and still has a writer.

An artifact whose bench was deleted would otherwise sit at the repo root
as a number nothing regenerates.  A writer is a ``benchmarks/bench_*.py``
calling ``write_bench_json("<name>", ...)``, or the ``repro run
robustness --bench-out`` runner.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from benchmarks.bench_schema import read_bench_json

ROOT = Path(__file__).resolve().parents[1]
NAMES = [path.stem.removeprefix("BENCH_") for path in sorted(ROOT.glob("BENCH_*.json"))]


def test_artifacts_are_checked_in():
    # Guards the glob: an empty list would pass the parametrized test vacuously.
    assert NAMES


@pytest.mark.parametrize("name", NAMES)
def test_artifact_parses_and_has_a_writer(name):
    assert read_bench_json(name)["bench"] == name
    call = re.compile(r'write_bench_json\(\s*"' + re.escape(name) + '"')
    writers = [
        path.name
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
        if call.search(path.read_text())
    ]
    runner = ROOT / "src" / "repro" / "robustness" / "runner.py"
    if f'"bench": "{name}"' in runner.read_text():
        writers.append(runner.name)
    assert writers, f"nothing in the tree writes BENCH_{name}.json"
