"""``python -m repro.obs`` — offline trace/metrics tooling.

Mirrors the ``repro obs`` CLI subcommand so the tools work without the
console entry point (e.g. in CI): ``summary`` renders metrics and trace
tables, ``export`` wraps a JSONL trace for Perfetto, ``validate`` checks
a trace (or event log) against a checked-in schema, ``top`` tails a
live-status file as a terminal dashboard, and ``bench ingest``/``bench
check`` maintain the bench-trajectory ledger and its regression gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="render a metrics snapshot and/or trace as tables"
    )
    p_summary.add_argument(
        "--metrics",
        default=None,
        help="metrics.json snapshot to summarize",
    )
    p_summary.add_argument(
        "--trace",
        default=None,
        help="JSONL trace file to aggregate by span name",
    )

    p_export = sub.add_parser(
        "export", help="wrap a JSONL trace into Perfetto-loadable JSON"
    )
    p_export.add_argument("trace", help="JSONL trace file")
    p_export.add_argument(
        "--out",
        default=None,
        help="output path (default: <trace>.chrome.json)",
    )

    p_validate = sub.add_parser(
        "validate", help="validate a JSONL trace or event log against a schema"
    )
    p_validate.add_argument("trace", help="JSONL trace / event-log file")
    p_validate.add_argument(
        "--schema",
        default="tests/corpus/obs_trace.schema.json",
        help="schema document (default: tests/corpus/obs_trace.schema.json)",
    )

    p_top = sub.add_parser(
        "top", help="terminal dashboard tailing a live status file"
    )
    p_top.add_argument(
        "--status",
        default="repro-status.jsonl",
        help="status file written by --status-file (default: repro-status.jsonl)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds (default: 1.0)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (CI-friendly)",
    )

    p_bench = sub.add_parser(
        "bench", help="bench-trajectory ledger: record and gate BENCH_*.json"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    for name, help_text in (
        ("ingest", "append current BENCH_*.json artifacts to the ledger"),
        ("check", "fail (exit 1) when a tracked metric regressed vs baseline"),
    ):
        p = bench_sub.add_parser(name, help=help_text)
        p.add_argument(
            "--root",
            default=".",
            help="directory holding BENCH_*.json (default: current directory)",
        )
        p.add_argument(
            "--ledger",
            default=None,
            help="ledger path (default: <root>/benchmarks/bench_history.jsonl)",
        )
        p.add_argument(
            "--bench",
            action="append",
            default=None,
            help="restrict to this bench name (repeatable)",
        )
        if name == "ingest":
            p.add_argument(
                "--baseline",
                action="store_true",
                help="mark the ingested entries as the reference baseline",
            )
        else:
            p.add_argument(
                "--tolerance",
                type=float,
                default=None,
                help="fractional drift allowed before failing (default: 0.5)",
            )
            p.add_argument(
                "--strict",
                action="store_true",
                help="also fail artifacts with no matching baseline",
            )
    return parser


def run(args: argparse.Namespace) -> int:
    if args.command == "summary":
        if args.metrics is None and args.trace is None:
            # Fall back to the CLI's default artifact paths when present.
            if Path("repro-metrics.json").exists():
                args.metrics = "repro-metrics.json"
            if Path("repro-trace.jsonl").exists():
                args.trace = "repro-trace.jsonl"
        if args.metrics is None and args.trace is None:
            print("nothing to summarize: pass --metrics and/or --trace",
                  file=sys.stderr)
            return 2
        from repro.obs.summary import summarize_metrics, summarize_trace

        sections = []
        if args.metrics is not None:
            sections.append(summarize_metrics(args.metrics))
        if args.trace is not None:
            sections.append(summarize_trace(args.trace))
        print("\n\n".join(sections))
        return 0

    if args.command == "export":
        from repro.obs.trace import export_chrome

        out = args.out or str(Path(args.trace).with_suffix(".chrome.json"))
        written = export_chrome(args.trace, out)
        print(f"wrote {written}")
        return 0

    if args.command == "validate":
        from repro.obs.schema import validate_trace

        errors = validate_trace(args.trace, args.schema)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(f"{args.trace}: INVALID ({len(errors)} error(s))",
                  file=sys.stderr)
            return 1
        from repro.obs.trace import read_events

        print(f"{args.trace}: valid ({len(read_events(args.trace))} events)")
        return 0

    if args.command == "top":
        return _run_top(args)

    if args.command == "bench":
        return _run_bench(args)

    raise AssertionError(f"unhandled command {args.command!r}")


def _run_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.live import latest_path_for, load_latest, render_status

    latest = latest_path_for(args.status)
    while True:
        try:
            snapshot = load_latest(args.status)
        except FileNotFoundError:
            if args.once:
                print(f"{latest}: no status yet", file=sys.stderr)
                return 2
            frame = f"waiting for {latest} ..."
        else:
            frame = render_status(snapshot)
        if args.once:
            print(frame)
            return 0
        # Clear + home, like top(1); one frame per refresh interval.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(max(args.interval, 0.05))
        except KeyboardInterrupt:
            return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench_history

    if args.bench_command == "ingest":
        entries = bench_history.ingest(
            args.root, args.ledger, baseline=args.baseline, benches=args.bench
        )
        kind = "baseline" if args.baseline else "trajectory"
        for entry in entries:
            print(
                f"ingested {entry['bench']} "
                f"({str(entry['config_digest'])[:12]}) as {kind}"
            )
        if not entries:
            print("no BENCH_*.json artifacts found", file=sys.stderr)
            return 2
        return 0

    tolerance = (
        bench_history.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    )
    try:
        lines, regressions = bench_history.check(
            args.root,
            args.ledger,
            tolerance=tolerance,
            benches=args.bench,
            strict=args.strict,
        )
    except ValueError as exc:
        print(f"bench check: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if regressions:
        print(
            f"bench check: {len(regressions)} regression(s) beyond "
            f"±{tolerance:.0%}",
            file=sys.stderr,
        )
        return 1
    print("bench check: ok")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other
        # well-behaved CLI filters (and detach stdout so the interpreter
        # doesn't raise again while flushing at shutdown).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
