"""README's CLI block, run as written: every documented command must exit 0."""

import shlex
from pathlib import Path

from capsep.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """argv of each ``capsep ...`` line in the code block of the CLI section."""
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("capsep ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # cert --output cert.json, then verify-cert reads it
    commands = readme_commands()
    assert len(commands) >= 10 and ["verify-cert", "--input", "cert.json"] in commands
    for argv in commands:  # in file order
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 0, f"capsep {' '.join(argv)} exited {code}: {err}"
