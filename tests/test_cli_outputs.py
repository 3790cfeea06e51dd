"""The CLI output digest in tools/: it reaches every verb and repeats itself."""

import importlib.util
import shlex
from pathlib import Path

from gf4codes import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_verb_succeeds_and_two_runs_print_the_same_lines():
    tool = load_tool()
    first = tool.lines()
    assert tool.lines() == first
    *calls, total = first
    assert total.startswith(f"total: {len(calls)} calls ")
    succeeded = set()
    for line in calls:
        digest, code, argv = line.split(" ", 2)
        assert len(digest) == 64
        words = shlex.split(argv)
        if code == "0" and not {"-h", "--help"} & set(words):
            succeeded.add(words[0])
    assert succeeded == {verb[0] for verb in cli._VERBS}
