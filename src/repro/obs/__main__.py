"""``python -m repro.obs`` — offline trace/metrics tooling.

Mirrors the ``repro obs`` CLI subcommand so the tools work without the
console entry point (e.g. in CI): ``summary`` renders metrics and trace
tables, ``export`` wraps a JSONL trace for Perfetto, ``validate`` checks
a trace (or event log) against a checked-in schema, and ``top`` tails a
live-status file as a terminal dashboard.
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
