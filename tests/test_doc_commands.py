"""Every ``python -m repro …`` command in README.md and EXPERIMENTS.md
parses under the current CLI.

The commands are only parsed, never run, so a doc line that names a
deleted subcommand or flag fails here in milliseconds.
"""

import contextlib
import io
import pathlib
import re
import shlex

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).parent.parent
DOCS = ("README.md", "EXPERIMENTS.md")
#: Shell operators that end the command's own arguments.
_STOP = {"&", "&&", "|", "||", ";"}


def _doc_commands(doc):
    """argv of each documented command, ``\\`` continuations joined."""
    text = (ROOT / doc).read_text().replace("\\\n", " ")
    found = []
    for match in re.finditer(r"python -m repro\s+([^`\n]*)", text):
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token in _STOP or token.startswith(">"):
                break
            argv.append(token)
        found.append(argv)
    return found


def test_documented_commands_parse():
    failures = []
    for doc in DOCS:
        commands = _doc_commands(doc)
        assert commands, f"{doc} names no python -m repro command"
        for argv in commands:
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    build_parser().parse_args(argv)
            except SystemExit:
                failures.append(f"{doc}: python -m repro {shlex.join(argv)}"
                                f"\n  {err.getvalue().strip()}")
    assert not failures, "\n".join(failures)
