"""The README's examples stay runnable: every ``keygait`` command in its
quick start parses with the CLI's own parser, and its Python API snippet
runs as written. A renamed flag or function fails here, not in a reader's
shell."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from keygait.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of the README section ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _quick_start_commands() -> list[str]:
    lines = _code_block("Quick start", "sh").replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("keygait ")]


def _parser_and_commands() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """``build_parser()`` and its subcommand parsers, with prefix matching
    off: a README flag must name an option, not abbreviate a renamed one."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser, sub.choices


@pytest.mark.parametrize("command", _quick_start_commands())
def test_quick_start_command_parses(command):
    argv = shlex.split(command)
    assert argv[0] == "keygait"
    parser, _ = _parser_and_commands()
    assert parser.parse_args(argv[1:]).command == argv[1]


def test_quick_start_shows_every_command():
    shown = {shlex.split(command)[1] for command in _quick_start_commands()}
    assert shown == set(_parser_and_commands()[1])


def test_python_api_snippet_runs(capsys):
    exec(compile(_code_block("Python API", "python"), str(README), "exec"), {})
    global_eer, mean_subject_eer = map(float, capsys.readouterr().out.split())
    assert 0.0 <= global_eer <= 1.0 and 0.0 <= mean_subject_eer <= 1.0
