"""The README's examples run as written: every `python` block in one
namespace, and the single-computation commands print what the README shows.
The package re-exports exactly the names those blocks import."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import burau
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


def test_package_exports_the_names_the_readme_imports():
    imported = {}
    for lang, body in BLOCKS:
        if lang != "python":
            continue
        for node in ast.walk(ast.parse(body)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("burau."):
                for alias in node.names:
                    imported[alias.name] = node.module
    assert set(burau.__all__) == set(imported)
    for name, module in imported.items():
        assert getattr(burau, name) is getattr(sys.modules[module], name)


def _modules_loaded_by(statement, env):
    code = (
        f"import sys; {statement}; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'burau'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return set(proc.stdout.split())


def test_package_import_loads_what_the_command_line_loads(child_env):
    package = _modules_loaded_by("import burau", child_env)
    cli = _modules_loaded_by("import burau.cli", child_env)
    assert package == cli - {"burau.cli"}
