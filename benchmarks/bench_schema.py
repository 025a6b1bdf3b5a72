"""Shared schema for the machine-readable ``BENCH_*.json`` artifacts.

Every benchmark that publishes numbers to the repo root writes them
through :func:`write_bench_json`, so all artifacts share one shape::

    {
      "schema_version": 1,
      "bench": "<name>",
      "config_digest": "<sha256 of the driving config, or null>",
      "timings": {...},    # wall-clock measurements, seconds
      "metrics": {...}     # everything else (counts, ratios, metadata)
    }

``config_digest`` is the same digest that scopes journals, trace-cache
entries, and checkpoints (:func:`repro.config.config_digest`), making a
benchmark artifact joinable with the observability artifacts of the run
that produced it.  The file is not named ``bench_*.py``-collectible: it
defines no tests, only the helper.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.robustness.runner import BENCH_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_bench_json(
    name: str,
    *,
    config: Any = None,
    config_digest: str | None = None,
    timings: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root in the shared schema.

    Pass either ``config`` (any config dataclass or mapping — digested
    via :func:`repro.config.config_digest`) or a precomputed
    ``config_digest``; ``timings`` holds wall-clock seconds, ``metrics``
    everything else.  Returns the written path.
    """
    if config is not None and config_digest is None:
        from repro.config import config_digest as digest_fn

        config_digest = digest_fn(config)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": name,
        "config_digest": config_digest,
        "timings": dict(timings or {}),
        "metrics": dict(metrics or {}),
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def read_bench_json(name: str) -> dict:
    """Load ``BENCH_<name>.json``, checking the schema version."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    doc = json.loads(path.read_text())
    version = doc.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path.name}: schema_version {version!r} "
            f"(this tree reads {BENCH_SCHEMA_VERSION})"
        )
    return doc
