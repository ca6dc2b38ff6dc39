"""CLI contract: every subcommand's ``--help`` works.

The subcommands are discovered by walking the real argparse parser, so
a subcommand added later is covered without touching this file.
"""

from __future__ import annotations

import argparse

import pytest

from repro.__main__ import build_parser, main


def _subcommands() -> list:
    parser = build_parser()
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            names.extend(action.choices)
    return names


SUBCOMMANDS = _subcommands()


def test_every_subcommand_is_discovered():
    assert len(SUBCOMMANDS) == 14
    assert "fleet-validate" in SUBCOMMANDS


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage:")
    assert name in out


def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_profile_runs(capsys):
    assert main(["profile", "--commands", "1", "--attacks", "0", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Profile — house/echo, 1+0 commands")
