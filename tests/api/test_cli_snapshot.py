"""The CLI's option strings equal a snapshot of the parser.

``cli_snapshot.json`` records, for every subcommand path (``""`` for the top
level, ``"campaign run"`` for a nested one), each argument's option strings
with its dest, default, nargs and choices.  The test pins them, so renaming,
dropping or re-defaulting an option fails here before a script that uses it
does.  Help text is not pinned.

Regenerate the fixture (only when an option changes on purpose) with::

    PYTHONPATH=src python tests/api/test_cli_snapshot.py
"""

import argparse
import json
import os

from repro.api.cli import build_parser

FIXTURE = os.path.join(os.path.dirname(__file__), "cli_snapshot.json")


def _actions(parser: argparse.ArgumentParser, path: str, out: dict) -> dict:
    entries = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _actions(sub, f"{path} {name}".strip(), out)
            continue
        entries.append(
            {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "nargs": action.nargs,
                "choices": list(action.choices) if action.choices is not None else None,
            }
        )
    out[path] = entries
    return out


def cli_snapshot() -> dict:
    """Every subcommand path's arguments, as JSON-ready metadata."""
    return json.loads(json.dumps(_actions(build_parser(), "", {}), default=repr))


def test_cli_options_equal_snapshot():
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert cli_snapshot() == expected


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(cli_snapshot(), handle, indent=1, sort_keys=True)
        handle.write("\n")
