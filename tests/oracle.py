"""Naive reference implementations used to cross-check the package.

Everything here works on plain tuples of ints 0..3, one coordinate per
entry, with no bitplanes and no Gray walks.  Multiplication is derived
from polynomial arithmetic mod w**2 + w + 1 rather than copied tables, so
agreement with the package is evidence, not tautology.

Also hosts the randomized generators shared by the test modules: random
codes, and random self-dual codes built from block sums plus monomial
transforms; and the CLI's argparse parser as it was written out by hand,
one `add_argument` call per argument, which the table-built parser and the
plain-argv reader of `gf4codes.cli` are checked against.
"""

import argparse
import re
from itertools import combinations, product
from math import comb

from gf4codes import GF4Vector, LinearCode
from gf4codes.cli import (_cmd_catalog, _cmd_check, _cmd_circulant, _cmd_double,
                          _cmd_dual_distance, _cmd_macwilliams, _cmd_quantum, _cmd_shorten,
                          _cmd_wenum)
from gf4codes.enumerator import DEFAULT_MAX_DIM


# ---------------------------------------------------------------------------
# field elements as ints 0..3 encoding b + a*w as (a << 1) | b
# ---------------------------------------------------------------------------

def omul(x, y):
    a1, b1 = x >> 1, x & 1
    a2, b2 = y >> 1, y & 1
    # (a1 w + b1)(a2 w + b2) with w**2 = w + 1, coefficients mod 2
    aa = a1 & a2
    a = aa ^ (a1 & b2) ^ (a2 & b1)
    b = aa ^ (b1 & b2)
    return (a << 1) | b


def oadd(x, y):
    return x ^ y


def oconj(x):
    return omul(x, x)


def oinv(x):
    return next(y for y in (1, 2, 3) if omul(x, y) == 1)


# ---------------------------------------------------------------------------
# vectors as tuples
# ---------------------------------------------------------------------------

def vadd(u, v):
    return tuple(oadd(a, b) for a, b in zip(u, v))


def vscale(c, v):
    return tuple(omul(c, x) for x in v)


def wt(v):
    return sum(1 for x in v if x)


def oherm(u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = oadd(acc, omul(x, oconj(y)))
    return acc


def otrace_ip(u, v):
    h = oherm(u, v)
    return oadd(h, oconj(h))


def ospan(rows, n):
    """All 4**k codewords of the span, as tuples."""
    words = []
    for coeffs in product(range(4), repeat=len(rows)):
        word = (0,) * n
        for c, row in zip(coeffs, rows):
            if c:
                word = vadd(word, vscale(c, row))
        words.append(word)
    return words


def orref(rows, n):
    """Reduced row echelon form with leftmost pivots, one coordinate at a time.

    Returns (pivot columns, reduced nonzero rows as tuples).
    """
    work = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        c = oinv(work[r][col])
        work[r] = [omul(c, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [oadd(x, omul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return tuple(pivots), tuple(tuple(row) for row in work[:len(pivots)])


def orank(rows):
    return len(orref(rows, len(rows[0]) if rows else 0)[0])


def orref_matrices(n):
    """Every reduced row echelon matrix with n columns, one per subspace.

    Each row is 1 at its pivot, 0 at the other pivots and before its own,
    and free at the remaining columns after its pivot.
    """
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [[c for c in range(p + 1, n) if c not in pivots] for p in pivots]
            slots = [(i, c) for i, cols in enumerate(free) for c in cols]
            for values in product(range(4), repeat=len(slots)):
                rows = [[0] * n for _ in pivots]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), x in zip(slots, values):
                    rows[i][c] = x
                yield [tuple(r) for r in rows]


def owenum(rows, n):
    """Weight profile A_0..A_n by full naive enumeration."""
    counts = [0] * (n + 1)
    for word in ospan(rows, n):
        counts[wt(word)] += 1
    return counts


def okrawtchouk(n, j, i):
    """K_j(i) for GF(4): the coefficient of y**j in (1 + 3y)**(n-i) * (1 - y)**i."""
    return sum(comb(n - i, j - s) * 3 ** (j - s) * comb(i, s) * (-1) ** s
               for s in range(max(0, j - (n - i)), min(i, j) + 1))


def omacwilliams(coeffs, k):
    """Dual enumerator via direct polynomial convolution of the substitution."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for j, aj in enumerate(coeffs):
        if not aj:
            continue
        p1 = [comb(n - j, t) * 3 ** t for t in range(n - j + 1)]
        p2 = [comb(j, s) * (-1) ** s for s in range(j + 1)]
        for t, c1 in enumerate(p1):
            for s, c2 in enumerate(p2):
                out[t + s] += aj * c1 * c2
    assert all(x % 4 ** k == 0 for x in out), "inexact MacWilliams division"
    return [x // 4 ** k for x in out]


def odual_brute(rows, n):
    """All vectors hermitian-orthogonal to every row, by scanning GF(4)^n."""
    assert n <= 8, "brute force scan limited to short lengths"
    return [v for v in product(range(4), repeat=n)
            if all(oherm(v, g) == 0 for g in rows)]


def odual_basis(rows, n):
    """A basis of the hermitian dual: one row per free column, ascending.

    The row for free column f is 1 at f and, at the pivot of each row of
    the reduced conjugated generator matrix, that row's entry at f.
    """
    pivots, reduced = orref([tuple(oconj(x) for x in r) for r in rows], n)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for p, r in zip(pivots, reduced):
            v[p] = r[f]
        basis.append(tuple(v))
    return basis


def ofind_odd_dual(rows, n):
    """The first odd-weight dual vector of a lexicographic search, or None.

    The all-one vector comes first when n is odd and it lies in the dual.
    Then every combination of 1, 2, ... rows of `odual_basis` is tried, the
    rows in lexicographic order of their indices and the nonzero
    coefficients in lexicographic order, which covers the whole dual.
    """
    ones = (1,) * n
    if n % 2 == 1 and all(oherm(ones, g) == 0 for g in rows):
        return ones
    basis = odual_basis(rows, n)
    for size in range(1, len(basis) + 1):
        for idxs in combinations(range(len(basis)), size):
            for coeffs in product((1, 2, 3), repeat=size):
                v = (0,) * n
                for t, c in zip(idxs, coeffs):
                    v = vadd(v, vscale(c, basis[t]))
                if wt(v) % 2 == 1:
                    return v
    return None


def oowned_pair(rows, n):
    """The dual word from the first row nonzero at two columns where every
    other row is 0, or None.

    With a and b that row's entries at the two lowest such columns i < j,
    the word is conj(b) at i and conj(a) at j.
    """
    for r, row in enumerate(rows):
        alone = [c for c in range(n)
                 if row[c] and not any(other[c] for s, other in enumerate(rows) if s != r)]
        if len(alone) >= 2:
            i, j = alone[:2]
            word = [0] * n
            word[i], word[j] = oconj(row[j]), oconj(row[i])
            return tuple(word)
    return None


# ---------------------------------------------------------------------------
# text readers
# ---------------------------------------------------------------------------

def _content_lines(text):
    """The lines of `text` that every reader reads, by the README grammar.

    Lines end at LF, CRLF or a lone CR.  A line that splits into no
    whitespace-separated tokens, or whose first token starts with #, is
    skipped.
    """
    return [line for line in re.split("\r\n|\r|\n", text)
            if line.split() and not line.split()[0].startswith("#")]


def oparse_matrix(text):
    """(n, rows) of a matrix text by the README grammar, or None if it is
    not one: rows as coordinate tuples, dependent ones included.

    Lines as in `_content_lines`.  The first is the header, two tokens that
    int() reads as n and k with 0 <= k <= n; exactly k lines follow it,
    each of n tokens from 0, 1, 2 and 3.
    """
    lines = [line.split() for line in _content_lines(text)]
    if not lines or len(lines[0]) != 2:
        return None
    try:
        n, k = int(lines[0][0]), int(lines[0][1])
    except ValueError:
        return None
    rows = lines[1:]
    if not 0 <= k <= n or len(rows) != k:
        return None
    if any(len(row) != n or not set(row) <= {"0", "1", "2", "3"} for row in rows):
        return None
    return n, [tuple(map(int, row)) for row in rows]


def oparse_enumerator(text, n):
    """(A_0, ..., A_n) of an enumerator text for length n, or None if it is
    not one.

    Each line of `_content_lines` is two tokens, split at commas and
    whitespace alike, that int() reads as j and A_j with 0 <= j <= n and
    A_j >= 0, no j twice.  Weights no line names are zero.
    """
    coeffs = [0] * (n + 1)
    seen = set()
    for line in _content_lines(text):
        tokens = [t for t in re.split(r"[,\s]+", line) if t]
        if len(tokens) != 2:
            return None
        try:
            j, a = int(tokens[0]), int(tokens[1])
        except ValueError:
            return None
        if not 0 <= j <= n or j in seen or a < 0:
            return None
        seen.add(j)
        coeffs[j] = a
    return tuple(coeffs)


def oparse_bounds(text):
    """{(n, k): (d_lower, d_upper)} of a bounds table, or None if it is not
    one.

    Each line of `_content_lines` is four comma-separated fields that int()
    reads, surrounding whitespace and all, as n, k, d_lower and d_upper
    with d_lower <= d_upper.  A later line for the same (n, k) replaces an
    earlier one.
    """
    table = {}
    for line in _content_lines(text):
        fields = line.split(",")
        if len(fields) != 4:
            return None
        try:
            n, k, lo, hi = map(int, fields)
        except ValueError:
            return None
        if lo > hi:
            return None
        table[n, k] = lo, hi
    return table


def oparse_vector_digits(text):
    """Coordinates of a digit-vector text, or None if it is not one: the
    tokens of every line of `_content_lines`, in order, read as one string
    of at least one digit from 0, 1, 2 and 3."""
    digits = "".join("".join(line.split()) for line in _content_lines(text))
    if not digits or set(digits) - set("0123"):
        return None
    return tuple(map(int, digits))


# ---------------------------------------------------------------------------
# randomized generators
# ---------------------------------------------------------------------------

def rand_vec(rng, n):
    return tuple(rng.randrange(4) for _ in range(n))


def rand_code_rows(rng, n, k):
    """k independent random rows of length n."""
    while True:
        rows = [rand_vec(rng, n) for _ in range(k)]
        if any(wt(r) == 0 for r in rows):
            continue
        if orank(rows) == k:
            return rows


def rand_owning_rows(rng, n, k):
    """k random rows of length n >= k, each the only one nonzero at a
    column of its own; other columns are random, zero columns included."""
    own = rng.sample(range(n), k)
    rows = []
    for r in range(k):
        row = [0 if c in own else rng.randrange(4) for c in range(n)]
        row[own[r]] = rng.randrange(1, 4)
        rows.append(tuple(row))
    return rows


HEXACODE_ROWS = ((1, 0, 0, 2, 1, 1), (0, 1, 0, 1, 2, 1), (0, 0, 1, 1, 1, 2))
C8_ROWS = ((1, 0, 0, 0, 0, 1, 1, 1), (0, 1, 0, 0, 1, 0, 1, 1),
           (0, 0, 1, 0, 1, 1, 0, 1), (0, 0, 0, 1, 1, 1, 1, 0))
I2_ROWS = ((1, 1),)

_BLOCKS = (HEXACODE_ROWS, C8_ROWS, I2_ROWS)


def rand_self_dual_rows(rng, length):
    """Rows of a random self-dual [length, length/2] code.

    Direct sums of self-dual blocks stay self-dual, and so do column
    permutations and nonzero column scalings (c * conj(c) = 1 for every
    nonzero c), so the result is self-dual by construction.
    """
    assert length % 2 == 0 and length >= 2
    blocks = []
    rem = length
    while rem:
        blocks.append(rng.choice([b for b in _BLOCKS if len(b[0]) <= rem]))
        rem -= len(blocks[-1][0])
    rows = []
    offset = 0
    for blk in blocks:
        width = len(blk[0])
        for r in blk:
            row = [0] * length
            row[offset:offset + width] = r
            rows.append(row)
        offset += width
    perm = rng.sample(range(length), length)
    scalars = [rng.choice((1, 2, 3)) for _ in range(length)]
    return [tuple(omul(scalars[j], row[perm[j]]) for j in range(length))
            for row in rows]


# ---------------------------------------------------------------------------
# bridge to the package
# ---------------------------------------------------------------------------

def to_code(rows, n=None):
    return LinearCode([GF4Vector.from_coords(r) for r in rows], n=n)


# ---------------------------------------------------------------------------
# the CLI parser, one hand-written call per argument
# ---------------------------------------------------------------------------

def _add_max_dim(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, metavar="K",
                   help=f"enumeration budget: allow up to 4^K codewords "
                        f"(default {DEFAULT_MAX_DIM})")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="matrix file, '-' for stdin, or catalog:NAME")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf4codes",
        description="Quaternary linear codes: self-orthogonality, doubling, "
                    "weight enumerators, quantum code parameters.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = sub.add_parser("check", help="report self-orthogonality and evenness")
    _add_input(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("wenum", help="exact weight enumerator")
    _add_input(p)
    _add_max_dim(p)
    p.add_argument("--partitions", type=int, default=1, metavar="P",
                   help="split the enumeration into P chunks (same result)")
    p.add_argument("--csv", action="store_true", help="emit 'j,A_j' lines")
    p.set_defaults(func=_cmd_wenum)

    p = sub.add_parser("macwilliams", help="dual enumerator from 'j A_j' lines")
    p.add_argument("input", help="enumerator file ('j A_j' lines) or '-'")
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--csv", action="store_true", help="emit 'j,A_j' lines")
    p.set_defaults(func=_cmd_macwilliams)

    p = sub.add_parser("dual-distance",
                       help="minimum distance of the hermitian dual")
    _add_input(p)
    _add_max_dim(p)
    p.set_defaults(func=_cmd_dual_distance)

    p = sub.add_parser("shorten", help="shorten at a coordinate")
    _add_input(p)
    p.add_argument("--at", type=int, required=True, metavar="POS",
                   help="coordinate to shorten at (0-based)")
    p.add_argument("--emit", metavar="FILE", help="write the matrix to FILE")
    p.set_defaults(func=_cmd_shorten)

    p = sub.add_parser("circulant", help="code from cyclic shifts of a row")
    p.add_argument("--first-row", required=True, metavar="DIGITS",
                   help="row digits, e.g. '0 0 1 2 3' or '00123'")
    p.add_argument("--k", type=int, required=True, help="number of shift rows")
    p.add_argument("--emit", metavar="FILE", help="write the matrix to FILE")
    p.set_defaults(func=_cmd_circulant)

    p = sub.add_parser("double",
                       help="doubled self-orthogonal code from two inputs")
    p.add_argument("--a", required=True, metavar="INPUT", help="first code")
    p.add_argument("--b", required=True, metavar="INPUT", help="second code")
    p.add_argument("--x1", default="search", metavar="X",
                   help="odd dual vector for the first code: 'allones', "
                        "'search', or a digits file (default search)")
    p.add_argument("--x2", default="search", metavar="X",
                   help="odd dual vector for the second code (default search)")
    p.add_argument("--mode", choices=("odd", "even"), default="even",
                   help="odd: [2n+1,k+1]; even: [2n+2,k+2] (default even)")
    p.add_argument("--emit", metavar="FILE", help="write the matrix to FILE")
    _add_max_dim(p)
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("quantum", help="quantum [[n,k,d]] parameters")
    _add_input(p)
    _add_max_dim(p)
    p.add_argument("--bounds", metavar="FILE",
                   help="CSV table 'n,k,d_lower,d_upper' for annotation")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("catalog", help="list built-in codes or show one")
    p.add_argument("name", nargs="?", help="entry name (omit to list all)")
    p.set_defaults(func=_cmd_catalog)

    return parser
