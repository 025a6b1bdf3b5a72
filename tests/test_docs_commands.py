"""Every ``repro ...`` command shown in the docs must still work.

Collects each ``repro ...`` / ``python -m repro.cli ...`` line inside a
fenced block of the user-facing docs, joins ``\\`` continuations, drops
``# comments`` and a trailing ``&``, and checks that it parses with the
real CLI parser.  ``repro run`` lines must also resolve: their
``--config`` file loads as the experiment's config type and their
``--set`` overrides apply to it.  A ``$ ``-prompted line is a transcript
whose shown output may be an intended error, so it only has to parse.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "examples" / "README.md",
    *sorted(ROOT.glob(".*/skills/*/SKILL.md")),  # build-and-run notes
]

# Optional prompt, optional VAR=value prefixes, then the program.
_COMMAND = re.compile(
    r"^(?P<prompt>\$\s+)?(?:[A-Za-z_][A-Za-z0-9_]*=\S*\s+)*"
    r"(?:repro|python -m repro\.cli)\s+(?P<args>.*)$"
)


def _fenced_lines(path: Path):
    """(line number, logical line) for lines inside ``` fences."""
    inside = False
    pending, start = "", 0
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            inside = not inside
            continue
        if not inside:
            continue
        if not pending:
            start = number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, (pending + line).strip()
        pending = ""


def _doc_commands():
    commands = []
    for path in DOC_FILES:
        for number, line in _fenced_lines(path):
            match = _COMMAND.match(line)
            if match is None:
                continue
            argv = shlex.split(match["args"], comments=True)
            if argv and argv[-1] == "&":
                argv.pop()
            where = f"{path.relative_to(ROOT)}:{number}"
            commands.append(pytest.param(argv, match["prompt"] is not None, id=where))
    return commands


COMMANDS = _doc_commands()


def test_the_docs_show_commands():
    # Guards the collector itself: a broken pattern would pass vacuously.
    assert len(COMMANDS) >= 40


@pytest.mark.parametrize("argv, transcript", COMMANDS)
def test_doc_command_parses_and_resolves(argv, transcript):
    from repro.config import apply_overrides, load_config
    from repro.experiments import get_experiment

    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`repro {shlex.join(argv)}` does not parse (exit {exc.code})")
    if args.command != "run" or transcript:
        return
    experiment = get_experiment(args.experiment)
    if args.config is None:
        config = experiment.default_config()
    else:
        config = load_config(
            ROOT / args.config,
            experiment.config_cls,
            expected_experiment=experiment.name,
        )
    apply_overrides(config, args.overrides)
