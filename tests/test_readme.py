"""The README's examples run as written: every `python` block in one
namespace, and the single-computation commands print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from burau.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
COMMANDS = ("burau", "pairing", "twist", "hom")


def _transcripts():
    """(argv, expected stdout) for each `$ burau <command>` in a plain block
    whose command is one of COMMANDS; a transcript ends at a blank line."""
    found = []
    for lang, body in BLOCKS:
        if lang:
            continue
        for chunk in body.strip("\n").split("\n\n"):
            lines = chunk.split("\n")
            if not lines[0].startswith("$ burau "):
                continue
            command = lines.pop(0)[2:]
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0).strip()
            argv = shlex.split(command)[1:]
            if argv[0] in COMMANDS:
                found.append((argv, "\n".join(lines) + "\n"))
    return found


def test_python_blocks_run():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    namespace = {}
    for body in blocks:
        exec(compile(body, "README.md", "exec"), namespace)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_transcripts_match(capsys, command):
    transcripts = [(argv, out) for argv, out in _transcripts() if argv[0] == command]
    assert transcripts, f"README shows no `burau {command}` example"
    for argv, expected in transcripts:
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected, argv
