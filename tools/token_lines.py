"""Count the lines of Python source that hold code.

A line counts when it holds a token other than a comment or a docstring,
so blank lines, comment lines and docstring lines do not.  Every line a
counted token spans counts, so a bracketed expression or a string literal
split over several lines counts each of its lines.  A docstring is a
string literal that is the first statement of a module, class or
function body.

Usage: python tools/token_lines.py [PATH ...]
       python tools/token_lines.py --functions FILE ...

Each PATH is a .py file or a directory searched for them recursively; the
default is src/gf4codes.  Prints one line per file, then the total.  With
--functions, prints one line per top-level def and class of each FILE
instead: the counted lines from its first decorator to its last line.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def token_lines(path: Path) -> int:
    """The number of lines of `path` that hold a token outside comments
    and docstrings."""
    return len(_counted(path))


def function_lines(path: Path) -> list[tuple[str, int]]:
    """(name, token lines) of each top-level def and class of `path`."""
    counted = _counted(path)
    with tokenize.open(path) as source:
        tree = ast.parse(source.read())
    counts = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            counts.append((node.name, len(counted & set(range(first, node.end_lineno + 1)))))
    return counts


def _counted(path: Path) -> set[int]:
    """The numbers of the lines that `token_lines` counts."""
    with tokenize.open(path) as source:
        tokens = list(tokenize.generate_tokens(source.readline))
    lines: set[int] = set()
    # A docstring opens a body: the module's, or one after a line ending
    # in ':' (def or class), which starts with INDENT.
    body_opens = True
    in_header = header_ended = False
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.INDENT and header_ended:
                body_opens = True
            elif tok.type == tokenize.NEWLINE:
                in_header = False
            continue
        starts_body = body_opens
        body_opens = header_ended = False
        if tok.type == tokenize.NAME and tok.string in ("def", "class"):
            in_header = True
        elif tok.type == tokenize.OP and tok.string == ":" and in_header and _ends_line(tokens, i):
            in_header, header_ended = False, True
        if starts_body and tok.type == tokenize.STRING and _ends_line(tokens, i):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _ends_line(tokens: list[tokenize.TokenInfo], i: int) -> bool:
    """True if the token after tokens[i], past comments, ends the line."""
    i += 1
    while tokens[i].type == tokenize.COMMENT:
        i += 1
    return tokens[i].type in (tokenize.NEWLINE, tokenize.NL, tokenize.ENDMARKER)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--functions"]:
        for f in map(Path, argv[1:]):
            for name, count in function_lines(f):
                print(f"{count:6,d}  {f}:{name}")
        return 0
    paths = [Path(arg) for arg in argv] or [Path("src/gf4codes")]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = token_lines(f)
        total += count
        print(f"{count:6,d}  {f}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
