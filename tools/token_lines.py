"""Count the lines of Python source that hold code.

A line counts when it holds a token other than a comment or a docstring,
so blank lines, comment lines and docstring lines do not.  Every line a
counted token spans counts, so a bracketed expression or a string literal
split over several lines counts each of its lines.  A docstring is a
string literal that is the first statement of a module, class or
function body.

Usage: python tools/token_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them recursively; the
default is src/gf4codes.  Prints one line per file, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def token_lines(path: Path) -> int:
    """The number of lines of `path` that hold a token outside comments
    and docstrings."""
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
    return len(lines)


def _ends_line(tokens: list[tokenize.TokenInfo], i: int) -> bool:
    """True if the token after tokens[i], past comments, ends the line."""
    i += 1
    while tokens[i].type == tokenize.COMMENT:
        i += 1
    return tokens[i].type in (tokenize.NEWLINE, tokenize.NL, tokenize.ENDMARKER)


def main(argv: list[str]) -> int:
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
