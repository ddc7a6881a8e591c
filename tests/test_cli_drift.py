"""README command lines against the parsers they drive.

Every ``python -m repro.serving`` / ``python -m repro.mpi.net`` /
``python -m repro.bench`` command line in README.md must name a
subcommand (``repro.serving``) and flags that the module's
``build_parser()`` accepts, so a deleted or renamed flag cannot survive
in the documentation.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.bench.__main__ import build_parser as bench_parser
from repro.mpi.net.__main__ import build_parser as mpi_parser
from repro.serving.__main__ import build_parser as serving_parser

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ("repro.serving", "repro.mpi.net", "repro.bench")


def _command_lines():
    """``(module, argv)`` for every README command line of ``MODULES``."""
    lines = README.read_text().splitlines()
    joined, pending = [], ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        joined.append(pending + line)
        pending = ""
    commands = []
    for line in joined:
        if line.lstrip().startswith(("#", "|")):
            continue
        for module in MODULES:
            match = re.search(r"python3? -m " + re.escape(module) + r"(\s|$)",
                              line)
            if match is None:
                continue
            rest = line[match.end():].split("#")[0]
            rest = re.split(r"[|&;`]", rest)[0]
            commands.append((module, shlex.split(rest)))
    return commands


def _options(parser: argparse.ArgumentParser):
    return {option for action in parser._actions
            for option in action.option_strings}


def _subcommands(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


COMMANDS = _command_lines()


def test_readme_has_command_lines_for_both_clis():
    modules = {module for module, _ in COMMANDS}
    assert modules == set(MODULES)


@pytest.mark.parametrize("module, argv", COMMANDS,
                         ids=[" ".join([module] + argv)
                              for module, argv in COMMANDS])
def test_readme_command_line_flags_exist(module, argv):
    if module == "repro.serving":
        subcommands = _subcommands(serving_parser())
        assert argv and argv[0] in subcommands, argv
        known = _options(subcommands[argv[0]])
        flags = argv[1:]
    else:
        parser = mpi_parser() if module == "repro.mpi.net" else bench_parser()
        known = _options(parser)
        flags = argv
    unknown = [flag for flag in flags
               if flag.startswith("--") and flag.split("=")[0] not in known]
    assert not unknown, f"README passes {unknown} to python -m {module}"
