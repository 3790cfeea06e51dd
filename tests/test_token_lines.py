"""The token-line counter in tools/, on a source with every kind of line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "token_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""
# a comment

import os  # counted


def f(a,
      b):  # a header over two lines
    """Function docstring."""
    x = """a string that is not a docstring,
    over two lines"""
    "a string statement after the first one"
    return (a +
            b)


class C:
    # a comment before the docstring
    """Class docstring."""

    def g(self): return 1

    y = 2
'''


def test_counts_lines_that_hold_a_token_outside_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("token_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import; def (2); x = (2); the string statement; return (2); class;
    # def g; y = 2.
    assert tool.token_lines(path) == 11
