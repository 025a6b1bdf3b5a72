"""The serving layer is strictly opt-in: default paths build none of it.

The acceptance bound is "<5% overhead on existing CLI paths".  The
strong form proven here is structural: importing :mod:`repro` (or any
pre-existing subsystem) loads no ``repro.serve`` module at all; building
the CLI parser / registry loads only the package shim and the
:class:`ServeConfig` dataclass (plus the stateless error type the CLI
dispatcher maps to an exit code); and no serve machinery object is ever
constructed on a non-serve code path.  A lenient timing check pins the
only cost the registry entry adds — one extra dataclass import — at
noise level.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Modules allowed on non-serve paths: the lazy package shim, the typed
#: config (the registry must describe the experiment), and the
#: import-light error type (the CLI dispatcher catches it).
ALLOWED = {"repro.serve", "repro.serve.config", "repro.serve.errors"}


def _fresh_interpreter(code: str) -> None:
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=REPO,
    )


class TestNoEagerImports:
    def test_import_repro_loads_no_serve_modules(self):
        _fresh_interpreter(
            "import sys\n"
            "import repro\n"
            "import repro.imputation.pipeline\n"
            "import repro.eval.table1\n"
            "import repro.resilience.supervisor\n"
            "import repro.testing\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.serve')]\n"
            "assert not loaded, f'eagerly imported: {loaded}'\n"
        )

    def test_cli_parser_loads_only_the_config_shim(self):
        _fresh_interpreter(
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            f"allowed = {sorted(ALLOWED)!r}\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.serve'))\n"
            "extra = [m for m in loaded if m not in allowed]\n"
            "assert not extra, f'serve machinery imported by the parser: {extra}'\n"
        )

    def test_existing_cli_path_loads_only_the_config_shim(self, tmp_path):
        out = tmp_path / "trace.npz"
        _fresh_interpreter(
            "import sys\n"
            "from repro.cli import main\n"
            "assert main([\n"
            "    'run', 'simulate',\n"
            "    '--set', 'scenario.duration_bins=300',\n"
            f"    '--out', {str(out)!r},\n"
            "]) == 0\n"
            f"allowed = {sorted(ALLOWED)!r}\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.serve'))\n"
            "extra = [m for m in loaded if m not in allowed]\n"
            "assert not extra, f'serve machinery imported by simulate: {extra}'\n"
        )
        assert out.exists()


class TestNoConstructionOnDefaultPaths:
    @pytest.fixture()
    def forbid_serve(self, monkeypatch):
        import repro.serve.queueing as queueing_mod
        import repro.serve.service as service_mod
        import repro.serve.windows as windows_mod

        def forbid(name):
            def boom(*args, **kwargs):
                raise AssertionError(f"{name} constructed on a non-serve code path")

            return boom

        monkeypatch.setattr(service_mod.StreamService, "__init__", forbid("StreamService"))
        monkeypatch.setattr(
            windows_mod.WindowAssembler, "__init__", forbid("WindowAssembler")
        )
        monkeypatch.setattr(queueing_mod.BoundedQueue, "__init__", forbid("BoundedQueue"))

    def test_simulate_cli_builds_no_serve_machinery(
        self, forbid_serve, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "run", "simulate",
                    "--set", "scenario.duration_bins=300",
                    "--out", str(tmp_path / "trace.npz"),
                ]
            )
            == 0
        )

    def test_experiments_listing_builds_no_serve_machinery(
        self, forbid_serve, capsys
    ):
        from repro.cli import main

        assert main(["experiments"]) == 0
        assert "serve" in capsys.readouterr().out


class TestOverheadPin:
    def test_registry_import_overhead_is_noise(self):
        # The serve registry entry costs one dataclass module import at
        # parser build; pin it against the whole parser construction.
        start = time.perf_counter()
        from repro.cli import build_parser

        build_parser()
        first = time.perf_counter() - start

        times = []
        for _ in range(5):
            start = time.perf_counter()
            build_parser()
            times.append(time.perf_counter() - start)
        steady = min(times)
        # Warm parser builds are milliseconds; the serve entry adds one
        # cached-module lookup.  Generous absolute pin (5% of any sane
        # parser-build budget) rather than a fragile relative one.
        assert steady < max(first, 0.05) * 2 + 0.05, (first, steady)
