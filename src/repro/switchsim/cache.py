"""On-disk cache of simulation traces, keyed by a content hash.

Simulating long traces is the expensive step of dataset generation: every
benchmark or training re-run of an unchanged scenario repeats the exact
same deterministic simulation.  :class:`TraceCache` persists traces as
``.npz`` archives (via :mod:`repro.switchsim.io`) under a content hash of
the *parameters that determine the trace* — switch configuration, traffic
generator parameters, seed, and duration — so repeated runs skip the
simulation entirely.

Keying and invalidation
-----------------------

Keys come from :func:`repro.config.config_digest` — the same canonical
content hash that scopes Table-1 journals and fingerprints training
checkpoints — over the parameter mapping with :data:`TRACE_CACHE_VERSION`
mixed in.  Bump the version whenever the simulator or a traffic
generator changes behaviour for the same parameters — every old entry
then misses (stale files are simply never read again and can be
garbage-collected with :meth:`TraceCache.clear`).  Callers that change
*their* trace-producing code independently of this module should include
their own revision marker in the params (see ``traffic_rev`` in
:mod:`repro.eval.scenarios`).

The cache directory defaults to the ``REPRO_TRACE_CACHE`` environment
variable, falling back to ``~/.cache/repro/traces``.  Writes go through a
temporary file plus :func:`os.replace`, so concurrent writers (two
processes simulating the same scenario) at worst do redundant work, never
corrupt an entry.
"""

from __future__ import annotations

import os
import tempfile
import warnings
import zipfile
from pathlib import Path
from typing import Any, Mapping, Union

import repro.obs as obs
from repro.config import config_digest
from repro.switchsim.io import load_trace, save_trace
from repro.switchsim.simulation import SimulationTrace

PathLike = Union[str, Path]

#: Bump to invalidate every existing cache entry (simulator semantics change).
TRACE_CACHE_VERSION = 1

_ENV_VAR = "REPRO_TRACE_CACHE"
_DEFAULT_ROOT = "~/.cache/repro/traces"


def trace_key(params: Mapping[str, Any]) -> str:
    """Content hash of a parameter mapping (stable across processes).

    Delegates to :func:`repro.config.config_digest`, so the trace cache,
    the Table-1 journal scope, and checkpoint fingerprints all share one
    canonicalization — two runs agree on "same experiment" everywhere or
    nowhere.
    """
    payload = {
        "__trace_cache_version__": TRACE_CACHE_VERSION,
        "params": dict(params),
    }
    return config_digest(payload, kind="trace_cache")[:32]


class TraceCache:
    """Content-addressed store of :class:`SimulationTrace` archives.

    Tracks ``hits``/``misses``/``stores`` counters so callers (and tests)
    can assert that a re-run skipped simulation entirely.
    """

    def __init__(self, root: PathLike | None = None):
        if root is None:
            root = os.environ.get(_ENV_VAR) or _DEFAULT_ROOT
        self.root = Path(root).expanduser()
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"trace cache root exists but is not a directory: {self.root}"
            )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def cache_stats(self) -> dict[str, int]:
        """This instance's lifetime counters as a plain dict.

        The same numbers stream into the :mod:`repro.obs` metrics
        registry (``cache.hits``/``cache.misses``/...) when metrics are
        enabled; the accessor works regardless, so tests and callers can
        assert cache behaviour without turning observability on.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }

    def path_for(self, params: Mapping[str, Any]) -> Path:
        """The archive path a parameter mapping hashes to."""
        return self.root / f"{trace_key(params)}.npz"

    def get(self, params: Mapping[str, Any]) -> SimulationTrace | None:
        """The cached trace for ``params``, or None (counting hit/miss).

        An unreadable or corrupt entry counts as a miss: the bad file is
        moved aside to ``<root>/quarantine/`` with a warning (so the
        evidence survives for diagnosis and the next ``put`` re-populates
        the slot cleanly) and the caller re-simulates.  A truncated
        ``.npz`` must never kill a sweep — it costs one re-simulation.
        """
        with obs.span("cache.get") as span:
            path = self.path_for(params)
            if path.exists():
                try:
                    trace = load_trace(path)
                # BadZipFile (a truncated archive) subclasses Exception
                # directly, not OSError/ValueError.
                except (
                    OSError,
                    ValueError,
                    KeyError,
                    AssertionError,
                    zipfile.BadZipFile,
                ) as exc:
                    self._quarantine(path, exc)
                else:
                    self.hits += 1
                    obs.counter("cache.hits").inc()
                    span.annotate(outcome="hit")
                    return trace
            self.misses += 1
            obs.counter("cache.misses").inc()
            span.annotate(outcome="miss")
            return None

    def _quarantine(self, path: Path, exc: BaseException) -> None:
        """Move an unreadable entry out of the addressable namespace."""
        destination = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
            note = f"moved to {destination}"
        except OSError:
            # A concurrent reader may have quarantined it first; losing
            # the race (or an unwritable directory) must not raise — the
            # entry is simply treated as the miss it is.
            note = "could not be moved"
        self.quarantined += 1
        obs.counter("cache.quarantined").inc()
        warnings.warn(
            f"trace cache entry {path.name} is unreadable "
            f"({type(exc).__name__}: {exc}); {note}, will re-simulate",
            RuntimeWarning,
            stacklevel=3,
        )

    @property
    def quarantine_dir(self) -> Path:
        """Where unreadable entries are moved (``<root>/quarantine``)."""
        return self.root / "quarantine"

    def put(self, params: Mapping[str, Any], trace: SimulationTrace) -> Path:
        """Store ``trace`` under the hash of ``params`` (atomic replace)."""
        with obs.span("cache.put"):
            path = self.path_for(params)
            self.root.mkdir(parents=True, exist_ok=True)
            # np.savez appends ".npz" to other suffixes, so keep it explicit.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=path.stem, suffix=".tmp.npz"
            )
            os.close(fd)
            try:
                save_trace(trace, tmp_name)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stores += 1
            obs.counter("cache.stores").inc()
            return path

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        if not self.root.exists():
            return 0
        removed = 0
        for entry in self.root.glob("*.npz"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*.npz"))
