"""Docs drift guards: the CLI reference must track the argparse tree.

``docs/CLI.md`` documents every subcommand and long flag.  These tests
walk ``build_parser()`` — the single source of truth — and fail when a
command or flag exists in the code but not in the docs (or when a command
documented no longer exists), so the reference cannot silently rot the
way the original ARCHITECTURE.md did.
"""

import argparse
import pathlib
import re

from repro.cli import build_parser

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
CLI_MD = DOCS / "CLI.md"


def _subparsers():
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _long_flags(subparser):
    flags = set()
    for action in subparser._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                flags.add(option)
    return flags


def _sections(text):
    """Map each ``## command`` heading to its body (up to the next ``##``)."""
    sections = {}
    for match in re.finditer(r"^## (\S+)\n(.*?)(?=^## |\Z)", text, re.M | re.S):
        sections[match.group(1)] = match.group(2)
    return sections


def test_cli_reference_exists():
    assert CLI_MD.is_file(), "docs/CLI.md is missing"


def test_every_subcommand_has_a_section():
    sections = _sections(CLI_MD.read_text())
    commands = set(_subparsers())
    missing = commands - set(sections)
    assert not missing, f"docs/CLI.md lacks a '## <command>' section for: {sorted(missing)}"
    stale = set(sections) - commands
    assert not stale, f"docs/CLI.md documents commands that no longer exist: {sorted(stale)}"


def test_every_long_flag_is_documented_in_its_section():
    sections = _sections(CLI_MD.read_text())
    problems = []
    for name, subparser in _subparsers().items():
        body = sections.get(name, "")
        for flag in sorted(_long_flags(subparser)):
            if flag not in body:
                problems.append(f"{name}: {flag}")
    assert not problems, (
        "flags present in cli.py but absent from their docs/CLI.md section:\n  "
        + "\n  ".join(problems)
    )


def test_scaling_and_architecture_docs_exist():
    scaling = (DOCS / "SCALING.md").read_text()
    assert "## The shard model" in scaling
    assert "## Why a metro segment's cell needs no other segment" in scaling
    architecture = (DOCS / "ARCHITECTURE.md").read_text()
    assert "## The life of a result" in architecture
    assert "--partitions" not in scaling + architecture
