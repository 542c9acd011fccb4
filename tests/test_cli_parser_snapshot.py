"""The CLI's surface, pinned: every subcommand's options and defaults.

``cli_parser_snapshot.json`` was written from the commit *before* the
CLI said each thing once (shared option groups, one service-backend
builder, one cluster job loop), so this test shows that refactor moved
no option string, default, choice list, type or arity.  A deliberate
CLI change regenerates it::

    PYTHONPATH=src python tests/test_cli_parser_snapshot.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT = Path(__file__).with_name("cli_parser_snapshot.json")


def parser_snapshot() -> dict:
    """``{subcommand: {dest: option facts}}`` for the whole parser."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            a.dest: {
                "flags": list(a.option_strings),
                "action": type(a).__name__,
                "default": a.default,
                # The set is the interface; the order only shows in --help.
                "choices": sorted(a.choices) if a.choices is not None else None,
                "type": a.type.__name__ if a.type is not None else None,
                "nargs": a.nargs,
                "required": a.required,
                "metavar": a.metavar,
            }
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }


def test_every_subcommand_keeps_its_options_and_defaults():
    expected = json.loads(SNAPSHOT.read_text())
    actual = json.loads(json.dumps(parser_snapshot()))
    assert sorted(actual) == sorted(expected)
    assert len(actual) == 17
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    # One line per option, so a diff of this file reads option by option.
    subcommands = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(dest)}: {json.dumps(facts, sort_keys=True)}"
            for dest, facts in sorted(options.items())
        )
        + "\n }"
        for name, options in sorted(parser_snapshot().items())
    )
    SNAPSHOT.write_text("{\n" + subcommands + "\n}\n")
