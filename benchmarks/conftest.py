"""Shared benchmark fixtures: one simulation and one training run per session.

The profile is selected with ``REPRO_BENCH_PROFILE``:

* ``paper`` (default) — the paper-like scenario (4 ports, 6 s of traffic,
  30-epoch training); the full benchmark run takes several minutes.
* ``quick`` — a scaled-down scenario for smoke runs (~1 minute total).

Each benchmark writes the table/figure it regenerates to
``benchmarks/results/*.txt`` so EXPERIMENTS.md can reference concrete
output.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval import generate_dataset, paper_scenario, quick_scenario
from repro.eval.table1 import Table1Config, train_pair

RESULTS_DIR = Path(__file__).parent / "results"


def _profile() -> str:
    profile = os.environ.get("REPRO_BENCH_PROFILE", "paper")
    if profile not in ("paper", "quick"):
        raise ValueError(f"REPRO_BENCH_PROFILE must be 'paper' or 'quick', got {profile!r}")
    return profile


@pytest.fixture(scope="session")
def bench_profile() -> str:
    return _profile()


@pytest.fixture(scope="session")
def table1_config(bench_profile) -> Table1Config:
    if bench_profile == "paper":
        return Table1Config(scenario=paper_scenario(), epochs=30)
    return Table1Config(
        scenario=quick_scenario(),
        epochs=6,
        d_model=32,
        num_layers=1,
        d_ff=64,
        batch_size=4,
    )


@pytest.fixture(scope="session")
def datasets(table1_config):
    """(train, val, test) for the selected profile — one simulation/session."""
    return generate_dataset(table1_config.scenario, seed=table1_config.seed)


@pytest.fixture(scope="session")
def trained_models(datasets, table1_config):
    """(plain_emd_model, kal_model), trained once per session."""
    train, val, _ = datasets
    plain, kal, seconds = train_pair(train, val, table1_config)
    return {
        "plain": plain,
        "kal": kal,
        "plain_seconds": seconds["Transformer"],
        "kal_seconds": seconds["Transformer+KAL"],
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, text: str) -> None:
    """Write a regenerated table/figure and echo it to stdout."""
    path = results_dir / name
    path.write_text(text)
    print(f"\n--- {name} ---")
    print(text)
