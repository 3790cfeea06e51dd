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


def load_tool():
    spec = importlib.util.spec_from_file_location("token_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_counts_lines_that_hold_a_token_outside_comments_and_docstrings(tmp_path):
    tool = load_tool()
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import; def (2); x = (2); the string statement; return (2); class;
    # def g; y = 2.
    assert tool.token_lines(path) == 11


def test_functions_prints_each_top_level_def_and_class(tmp_path, capsys):
    tool = load_tool()
    path = tmp_path / "sample.py"
    path.write_text(SOURCE + "\n\n@staticmethod\ndef h():\n    pass\n")
    assert tool.main(["--functions", str(path)]) == 0
    # f as above (7); class, def g and y = 2 (3); the decorator, def h
    # and its body (3).  The import belongs to neither.
    assert capsys.readouterr().out == "".join(
        f"{count:6d}  {path}:{name}\n" for name, count in (("f", 7), ("C", 3), ("h", 3)))
