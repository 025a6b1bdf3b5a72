"""Command line of the end-to-end benchmark: ``run`` and ``compare``.

``run`` starts one fresh child process per workload, with BLAS and OpenMP
pinned to one thread, and collects its result.  This module imports only
the standard library, so the parent process stays small; the child
imports numpy and ``repro`` from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RUN_PY = HERE / "run.py"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("fleet_burst", "fleet_trickle", "table1_paper", "robustness_grid")
#: Pinned in every child: the machine is shared and has two cores.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Extra fresh interpreters timed for the import share of set-up.
IMPORT_PROBES = 2
#: A run must end within this many seconds (180 s, minus a margin).
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def import_modules() -> float:
    """Import everything a workload runs; return the seconds it took."""
    start = time.perf_counter()
    from benchmarks.e2e import tracing, workloads  # noqa: F401

    for module in tracing.TARGET_MODULES:
        importlib.import_module(module)
    seconds = time.perf_counter() - start
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC / 'repro'}")
    return seconds


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    numpy = sys.modules.get("numpy")
    return {
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "thread_pins": {pin: os.environ.get(pin) for pin in THREAD_PINS},
        "platform": platform.platform(),
        "started_unix": time.time(),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    spec: Any = None,
    import_s: list[float] | None = None,
    imported: tuple[float, float] | None = None,
) -> tuple[dict[str, Any], Any]:
    """Run one workload in this process; return (result record, tracer).

    ``imported`` is the (start, end) of this process's imports, which a
    traced run attributes to a ``python.import`` span.
    """
    from benchmarks.e2e import tracing, workloads

    tracer = tracing.Tracer() if trace else None
    start = imported[0] if imported else time.perf_counter()
    if tracer is not None and imported:
        tracer.record("python.import", *imported)
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        outcome = workloads.execute(name, seed, seconds, tracer, spec)
    wall = time.perf_counter() - start - (tracer.suspended_s if tracer else 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        values, units = workloads.per_layer(outcome, tracer, wall), workloads.PER_LAYER
    else:
        values = workloads.end_to_end(outcome, import_s or [0.0], peak_rss_mb)
        units = workloads.END_TO_END
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
        "samples": {
            "import_s": import_s or [],
            "setup_s": outcome.setup_s,
            "unit_s": outcome.unit_s,
            "requests": len(outcome.latency_ms),
        },
        "claim_holds": outcome.claim_holds,
        "provenance": provenance(seed, seconds, trace),
    }
    if tracer is not None:
        result["traced_wall_s"] = wall
        result["layers"] = {
            layer: {"calls": stats.calls, "busy_s": stats.busy_s, "self_s": stats.self_s}
            for layer, stats in sorted(
                tracing.layer_table(tracer.spans).items(), key=lambda item: -item[1].self_s
            )
        }
    return result, tracer


def render(result: dict[str, Any]) -> list[str]:
    """Human-readable lines: the layer table (traced), then ``name unit value``."""
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']}"]
    layers = result.get("layers")
    if layers:
        wall = result["traced_wall_s"]
        lines.append(f"{'layer':<28} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self%':>7}")
        for layer, stats in layers.items():
            lines.append(
                f"{layer:<28} {stats['calls']:>8} {stats['busy_s']:>10.4f} "
                f"{stats['self_s']:>10.4f} {100 * stats['self_s'] / wall:>6.2f}%"
            )
        unattributed = result["metrics"]["unattributed_s"]["value"]
        lines.append(f"{'unattributed':<28} {'':>8} {'':>10} {unattributed:>10.4f} "
                     f"{100 * unattributed / wall:>6.2f}%")
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['unit']} {metric['value']:.6g}")
    attempted = max(result["attempted"], 1)
    lines.append(f"failed_frac fraction {result['failed'] / attempted:.6g}")
    return lines


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n")
    tmp.replace(path)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _probe_imports(deadline: float) -> list[float]:
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, str(RUN_PY), "probe"],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _run_one(args: argparse.Namespace, name: str, results: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    stem = f"{name}-seed{args.seed}-{'traced' if args.trace else 'plain'}-{time.time_ns()}"
    out = results / f"{stem}.json"
    try:
        probes = _probe_imports(deadline)
        done = subprocess.run(
            [
                sys.executable,
                str(RUN_PY),
                "child",
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(int(args.trace)),
                "--out", str(out),
                "--import-s", ",".join(repr(s) for s in probes),
            ],
            env=child_env(),
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 1
    if done.returncode != 0 or not out.is_file():
        print(f"{name}: child exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.read_text())
    for line in render(result):
        print(line)
    print(f"result: {out}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0 if result["correct"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    results = Path(args.results).resolve() if args.results else RESULTS
    status = 0
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        status = max(status, _run_one(args, name, results))
    return status


def cmd_child(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    import_s = import_modules()
    imported = (start, time.perf_counter())
    probes = [float(s) for s in args.import_s.split(",") if s]
    result, tracer = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s=[import_s, *probes],
        imported=imported,
    )
    out = Path(args.out)
    if tracer is not None:
        trace_path = out.with_name(out.stem + ".trace.json")
        write_json(trace_path, tracer.chrome_trace(start, result["provenance"]))
        result["trace_file"] = trace_path.name
    write_json(out, result)
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    print(repr(import_modules()))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from benchmarks.e2e import compare

    bench = json.loads(Path(args.benchmark).read_text())
    rows = compare.compare(compare.load(args.a), compare.load(args.b), bench)
    print(compare.render(rows, args.a, args.b))
    return 0


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = top.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print metrics, write results")
    run.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    run.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    run.add_argument("--seconds", type=float, default=4.0, help="least timed work per run")
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced run: per-layer metrics and a Chrome trace",
    )
    run.add_argument("--results", help=f"result directory (default {RESULTS.relative_to(ROOT)})")
    run.set_defaults(handler=cmd_run)

    cmp = commands.add_parser("compare", help="compare two result sets")
    cmp.add_argument("a", help="baseline: a result directory or file")
    cmp.add_argument("b", help="candidate: a result directory or file")
    cmp.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"), help="bounds and directions"
    )
    cmp.set_defaults(handler=cmd_compare)

    child = commands.add_parser("child", help="internal: one workload, run by `run`")
    child.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, required=True, choices=(0, 1))
    child.add_argument("--out", required=True)
    child.add_argument("--import-s", default="")
    child.set_defaults(handler=cmd_child)

    probe = commands.add_parser("probe", help="internal: time the imports, run by `run`")
    probe.set_defaults(handler=cmd_probe)
    return top


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in ("run", "compare", "child", "probe", "-h", "--help"):
        argv = ["run", *argv]
    args = parser().parse_args(argv)
    return args.handler(args)
