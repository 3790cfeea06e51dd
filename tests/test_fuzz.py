"""Seeded fuzz of the matrix reader against a line-by-line reference.

Each input is the `emit_matrix` text of a seeded random code, edited a few
times by inserting, deleting or replacing characters drawn from digits,
whitespace, line ends, comment and sign marks, non-ASCII digits and
spaces, and NUL.  `parse_matrix` must accept exactly the texts that
`oracle.oparse_matrix` reads by the README grammar, with the same rows
less the dependent ones it drops, raise nothing but `MatrixFormatError`
on the rest, and round-trip what it accepts through `emit_matrix`.
"""

import random
import warnings

import oracle
from gf4codes import MatrixFormatError, emit_matrix, parse_matrix

ALPHABET = ("0", "1", "2", "3", " ", "\t", "\r", "\n", "#", "+", "_", "\uff15", "\xa0",
            "\u2028", "\x00")
LENGTHS = (1, 2, 13, 64, 65, 130)


def mutate(rng, text):
    """`text` after one to four seeded edits, half of them in the header."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        end = text.index("\n") + 1 if rng.random() < 0.5 else len(chars)
        i = rng.randrange(min(end, len(chars)) + 1)
        edit = rng.randrange(3)
        if edit == 0 or i == len(chars):
            chars.insert(i, rng.choice(ALPHABET))
        elif edit == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(ALPHABET)
    return "".join(chars)


def test_parse_matrix_agrees_with_a_line_by_line_reader():
    rng = random.Random(53)
    texts = []
    for n in LENGTHS:
        for k in range(min(n, 4) + 1):
            text = emit_matrix(oracle.to_code(oracle.rand_code_rows(rng, n, k), n))
            texts.append(text)
            if 0 < k < n:
                # The last row twice, which `parse_matrix` drops with a warning.
                lines = text.splitlines(keepends=True)
                texts.append(f"{n} {k + 1}\n" + "".join(lines[1:]) + lines[-1])
    outcomes = {"accepted": 0, "rejected": 0, "dropped": 0}
    for _ in range(3000):
        text = mutate(rng, rng.choice(texts))
        want = oracle.oparse_matrix(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = parse_matrix(text)
            except MatrixFormatError:
                assert want is None, repr(text)
                outcomes["rejected"] += 1
                continue
        assert want is not None, repr(text)
        # Only dependent rows warn, and they are the rows left out.
        assert all(w.category is UserWarning for w in caught), repr(text)
        assert bool(caught) == bool(code.dropped_rows), repr(text)
        n, rows = want
        assert code.n == n, repr(text)
        assert [row.coords() for row in code.rows] == [
            row for i, row in enumerate(rows) if i not in code.dropped_rows], repr(text)
        assert parse_matrix(emit_matrix(code)) == code, repr(text)
        outcomes["accepted"] += 1
        outcomes["dropped"] += bool(code.dropped_rows)
    assert min(outcomes.values()) > 20, outcomes
