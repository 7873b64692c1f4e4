"""README's CLI block, run as written: every documented command must exit 0,
and its handler returns the document that ``cli_main`` prints."""

import json
import shlex
from pathlib import Path

import capsep.cli
from capsep.cli import build_parser, cli_main

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


def test_readme_handlers_return_their_documents(tmp_path, monkeypatch):
    # a handler only builds its document: cli_main alone prints it
    monkeypatch.chdir(tmp_path)

    def refuse(*args):
        raise AssertionError("a handler printed for itself")
    monkeypatch.setattr(capsep.cli, "_emit", refuse)
    for argv in readme_commands():
        args = build_parser().parse_args(argv)
        doc = args.func(args)
        assert type(doc) is dict, argv
        if args.output:  # cert --output cert.json, which verify-cert reads
            Path(args.output).write_text(json.dumps(doc))
