"""The CLI examples in the README run as written."""

from __future__ import annotations

import shlex
from importlib import resources
from pathlib import Path

import pytest

from infradep.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The commands of the ``sh`` block under "## CLI", continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


COMMANDS = readme_cli_commands()


def test_readme_cli_block_is_found():
    assert len(COMMANDS) >= 10
    assert all(argv[0] == "infradep" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:]) for a in COMMANDS])
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shipped = resources.files("infradep") / "models" / "accidental.gsts"
    (tmp_path / "mymodel.gsts").write_bytes(shipped.read_bytes())
    code = main(argv[1:])
    assert code == 0, capsys.readouterr().err
