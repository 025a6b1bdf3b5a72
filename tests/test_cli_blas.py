"""The ``repro`` command pins OpenBLAS to one thread; the library does not.

Each case starts a fresh interpreter that runs the command's entry point
(:func:`repro.cli.entry`) with :func:`repro.cli.main` replaced by a probe
that prints :func:`repro.utils.cpu.blas_threads`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY = """
import sys
{preload}
import repro.cli as cli

def probe():
    from repro.utils.cpu import blas_threads
    print(blas_threads())
    return 0

cli.main = probe
sys.exit(cli.entry())
"""

LIBRARY = """
import os
import repro
import repro.cli
from repro.utils.cpu import blas_threads
print(blas_threads(), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _python(code: str, **variables: str) -> str:
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.update(variables)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.fixture(scope="module")
def default_threads() -> str:
    """What OpenBLAS runs when nothing pins it."""
    threads = _python("import numpy\nfrom repro.utils.cpu import blas_threads\nprint(blas_threads())")
    if threads == "None":
        pytest.skip("numpy does not use OpenBLAS here")
    return threads


@pytest.mark.parametrize("preload", ["", "import numpy"], ids=["env", "setter"])
def test_the_command_runs_one_blas_thread(default_threads, preload):
    """Before numpy loads, the variable does it; after, OpenBLAS's setter."""
    assert _python(ENTRY.format(preload=preload)) == "1"


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_variable_the_user_set_wins(default_threads, variable):
    wanted = _python(
        "import numpy\nfrom repro.utils.cpu import blas_threads\nprint(blas_threads())",
        **{variable: "2"},
    )
    if wanted == "1":
        pytest.skip("one usable CPU: OpenBLAS caps a requested 2 at 1")
    assert _python(ENTRY.format(preload=""), **{variable: "2"}) == wanted


def test_importing_the_library_pins_nothing(default_threads):
    assert _python(LIBRARY) == f"{default_threads} None"
