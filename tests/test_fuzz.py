"""Seeded fuzz of every text reader against a line-by-line reference.

Each input is a valid text, edited a few times by inserting, deleting or
replacing characters drawn from digits, whitespace, line ends, comment and
sign marks, non-ASCII digits and spaces, and NUL.  The texts are the
`emit_matrix` texts of seeded random codes, the `format_enumerator` texts
of their enumerators, plain and CSV, seeded bounds tables, and digit
vectors, spaced, packed and split over lines.  Each reader must accept
exactly the texts that its reference in `oracle` reads by the README
grammar, raise nothing but its documented error on the rest, and
round-trip what it accepts through its writer.  A sample of the same
inputs then goes through `cli.main` in this process.

Seeded argv over every verb and flag check the CLI's plain-argv reader and
its table-built parser against the hand-written parser in `oracle`.
"""

import io
import random
import sys
import warnings

import oracle
from gf4codes import (FormatError, MatrixFormatError, catalog, cli, emit_matrix,
                      format_enumerator, macwilliams, parse_bounds_table, parse_enumerator,
                      parse_matrix, weight_enumerator)

ALPHABET = ("0", "1", "2", "3", " ", "\t", "\r", "\n", "#", "+", "_", "\uff15", "\xa0",
            "\u2028", "\x00")
LENGTHS = (1, 2, 13, 64, 65, 130)


def mutate(rng, text):
    """`text` after one to four seeded edits, half of them in the first line."""
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


def matrix_texts(rng, lengths, max_k):
    """The texts of random codes of each length, and for 0 < k < n the same
    text with its last row twice, which `parse_matrix` drops with a warning."""
    texts = []
    for n in lengths:
        for k in range(min(n, max_k) + 1):
            text = emit_matrix(oracle.to_code(oracle.rand_code_rows(rng, n, k), n))
            texts.append(text)
            if 0 < k < n:
                lines = text.splitlines(keepends=True)
                texts.append(f"{n} {k + 1}\n" + "".join(lines[1:]) + lines[-1])
    return texts


def enumerator_texts(rng):
    """(text, n, k) for the enumerators of random codes and of their duals,
    each as plain and as CSV text."""
    texts = []
    for n in (1, 2, 5, 13, 28):
        for k in range(1, min(n, 4) + 1):
            w = weight_enumerator(oracle.to_code(oracle.rand_code_rows(rng, n, k)))
            for enum, dim in ((w, k), (macwilliams(w, k), n - k)):
                texts += [(format_enumerator(enum, csv=csv), n, dim) for csv in (False, True)]
    return texts


def bounds_texts(rng):
    """Tables of two to six `n,k,d_lower,d_upper` rows, some with spaces
    after the commas and some naming one (n, k) twice."""
    texts = []
    for _ in range(30):
        rows = []
        for _ in range(rng.randint(2, 6)):
            n, k = (5, 1) if rng.random() < 0.3 else (rng.randint(1, 40), rng.randint(0, 20))
            lo = rng.randint(1, 12)
            rows.append((", " if rng.random() < 0.3 else ",").join(
                map(str, (n, k, lo, lo + rng.randint(0, 3)))))
        texts.append("".join(row + "\n" for row in rows))
    return texts


def vector_texts(rng):
    """Random digit vectors, packed, spaced, and split over two lines."""
    texts = []
    for n in (1, 2, 5, 13, 28):
        digits = "".join(rng.choice("0123") for _ in range(n))
        cut = rng.randrange(n + 1)
        texts += [digits + "\n", " ".join(digits) + "\n",
                  digits[:cut] + "\n" + digits[cut:] + "\n"]
    return texts


def test_parse_matrix_agrees_with_a_line_by_line_reader():
    rng = random.Random(53)
    texts = matrix_texts(rng, LENGTHS, 4)
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


def test_parse_enumerator_agrees_with_a_line_by_line_reader():
    rng = random.Random(54)
    texts = enumerator_texts(rng)
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(1500):
        base, n, _ = rng.choice(texts)
        text = mutate(rng, base)
        want = oracle.oparse_enumerator(text, n)
        try:
            w = parse_enumerator(text, n)
        except FormatError:
            assert want is None, repr(text)
            outcomes["rejected"] += 1
            continue
        assert w.coefficients == want, repr(text)
        for csv in (False, True):
            assert parse_enumerator(format_enumerator(w, csv=csv), n) == w, repr(text)
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_parse_bounds_table_agrees_with_a_line_by_line_reader():
    rng = random.Random(55)
    texts = bounds_texts(rng)
    outcomes = {"accepted": 0, "rejected": 0, "repeated": 0}
    for _ in range(1500):
        text = mutate(rng, rng.choice(texts))
        want = oracle.oparse_bounds(text)
        try:
            table = parse_bounds_table(text)
        except FormatError:
            assert want is None, repr(text)
            outcomes["rejected"] += 1
            continue
        assert table == want, repr(text)
        outcomes["accepted"] += 1
        outcomes["repeated"] += len(table) < len(oracle._content_lines(text))
    assert min(outcomes.values()) > 20, outcomes


def test_vector_digits_agree_with_a_line_by_line_reader():
    rng = random.Random(56)
    texts = vector_texts(rng)
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(1500):
        text = mutate(rng, rng.choice(texts))
        want = oracle.oparse_vector_digits(text)
        try:
            vector = cli._parse_vector_digits(text)
        except FormatError:
            assert want is None, repr(text)
            outcomes["rejected"] += 1
            continue
        assert vector.coords() == want, repr(text)
        assert cli._parse_vector_digits(vector.to_digits()) == vector, repr(text)
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_cli_reports_every_mutated_input_with_one_error_line(monkeypatch, capsys):
    rng = random.Random(57)
    matrices = matrix_texts(rng, (1, 2, 5, 13), 3) + [
        emit_matrix(catalog.get(name).code) for name in ("c5_2", "hexacode")]
    # (arguments, the stdin to mutate); a first row is mutated in place.
    cases = [(("check", "-"), text) for text in matrices]
    cases += [(("wenum", "-"), text) for text in matrices]
    cases += [(("macwilliams", "-", "--n", str(n), "--k", str(k)), text)
              for text, n, k in enumerator_texts(rng)]
    cases += [(("quantum", "catalog:c5_2", "--bounds", "-"), text) for text in bounds_texts(rng)]
    cases += [(("circulant", "--first-row", text, "--k", "3"), None) for text in vector_texts(rng)]
    exits = set()
    for _ in range(250):
        args, stdin = rng.choice(cases)
        if stdin is None:
            args = args[:2] + (mutate(rng, args[2]),) + args[3:]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(mutate(rng, stdin)))
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            # argparse ends its own usage message with a `PROG: error:` line.
            assert exc.code == 2, args
            assert ": error: " in capsys.readouterr().err.splitlines()[-1], args
            continue
        out, err = capsys.readouterr()
        exits.add(code)
        assert code in (0, 2, 3, 4, 5), args
        assert "Traceback" not in err, args
        lines = err.splitlines()
        while lines and lines[0].startswith("warning: "):
            del lines[0]
        # `check` exits 3 without an error line when the code it read is
        # not self-orthogonal, so that it works as a gate.
        if code == 0 or (args[0] == "check" and code == 3 and out):
            assert lines == [], (args, err)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), (args, err)
    assert exits >= {0, 3, 5}, exits


# Values for the argv fuzz, besides each flag's plain ones: forms only
# argparse reads, and forms it rejects.
ODD_VALUES = ("-", "", "-1", "+3", "1_0", "\uff15", " 2", "x", "--", "-h", "--help",
              "--max-dim=3", "--ma", "--a=x")


def plain_value(rng, kwargs):
    if kwargs.get("type") is int:
        return rng.choice(("0", "3", "16"))
    return rng.choice(kwargs.get("choices", ("catalog:c5_2", "out.txt", "-", "")))


def test_plain_argv_reader_agrees_with_the_hand_written_parser(capsys):
    rng = random.Random(58)
    reference, table = oracle.build_parser(), cli.build_parser()
    verbs = {name: arguments for name, _, _, arguments in cli._VERBS}
    every_flag = sorted({flag for arguments in verbs.values() for flag, _ in arguments
                         if flag[0] == "-"})
    outcomes = {"read": 0, "left to argparse": 0, "rejected": 0}
    for _ in range(2000):
        verb = rng.choice(list(verbs)) if rng.random() < 0.97 else rng.choice(ODD_VALUES)
        words = []
        for flag, kwargs in verbs.get(verb, ()):
            if flag[0] != "-":
                words += [[plain_value(rng, kwargs)]] * (rng.random() < 0.9)
            elif rng.random() < 0.85:
                value = plain_value(rng, kwargs) if rng.random() < 0.8 else rng.choice(ODD_VALUES)
                words.append([flag] if kwargs.get("action") else [flag, value])
                if rng.random() < 0.15:
                    # An abbreviation, --flag=value, or another verb's flag.
                    words[-1][:2] = [rng.choice((flag[:4], f"{flag}={value}",
                                                 rng.choice(every_flag)))]
        if rng.random() < 0.1 and words:
            # A repeated flag, or one positional too many.
            words.append(list(rng.choice(words)))
        rng.shuffle(words)
        argv = [verb] + [token for word in words for token in word]
        try:
            want = vars(reference.parse_args(argv))
        except SystemExit:
            want = None
        said = capsys.readouterr()
        got = cli._read_plain_args(argv)
        # The plain reader reads exactly what argparse reads, or nothing.
        if got is not None:
            assert vars(got) == want, argv
        try:
            built = vars(table.parse_args(argv))
        except SystemExit:
            built = None
        assert built == want and capsys.readouterr() == said, argv
        outcomes["read" if got else "left to argparse" if want else "rejected"] += 1
    assert min(outcomes.values()) > 100, outcomes
