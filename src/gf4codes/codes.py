"""Linear codes over GF(4).

Generator matrices, reduced row echelon form, hermitian duals, shortening,
the circulant construction, the self-orthogonality and evenness predicates,
and the matrix text format shared with the CLI.

Linearity leaves one predicate to compute: a linear code is even, and
trace self-orthogonal, exactly when it is hermitian self-orthogonal.

Row reduction and duals work on the (lo, hi) bitplanes of the rows, never
coordinate by coordinate, through the bitplane helpers of `gf4`: a pivot
is found from the lowest set bit of a row's support, and a row is
eliminated with two XORs.  One insertion step, `_insert`, is the only
elimination loop: `rref` runs it over all rows and back-substitutes,
`LinearCode.from_rows` runs it forward to find the dependent rows in one
pass, and `contains` runs it once against the reduced form.

Each code is reduced at most once, and often never.  A code whose rows
each own a column, nonzero in that row alone, is independent by one OR/AND
pass over the supports.  Every `dual()` basis owns its free columns, so
a dual is never reduced to be built, and codes stacked from such rows,
like the doubled codes, mostly pass too.  The reduced form is then
computed on first use.

The matrix text format converts whole rows at a time, through
`GF4Vector.from_digits` and `GF4Vector.to_digits`.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence

from .errors import MatrixFormatError, PreconditionError
from .gf4 import (GF4Vector, _entry, _multiples, _records, cyclic_shift,
                  delete_coordinate, hermitian_inner, inv)


_DIGITS = ("0", "1", "2", "3")


def _insert(echelon: dict[int, tuple[tuple[int, int], ...]], lo: int, hi: int) -> bool:
    """Reduce the row (lo, hi) against `echelon`; True if it adds a pivot.

    `echelon` maps each pivot bit to the _multiples of its row, which is 1
    at that bit and zero at every lower one.  The row is eliminated at its
    lowest set bit, one dict lookup and two XORs against the multiple of
    the pivot row that cancels the entry, until it is zero or reaches a
    bit without a pivot row; there it is scaled to 1 and becomes that
    bit's pivot row.
    """
    while lo | hi:
        bit = (lo | hi) & -(lo | hi)
        c = _entry(lo, hi, bit)
        pivot_row = echelon.get(bit)
        if pivot_row is None:
            echelon[bit] = _multiples(*_multiples(lo, hi)[inv(c) - 1])
            return True
        mlo, mhi = pivot_row[c - 1]
        lo ^= mlo
        hi ^= mhi
    return False


def rref(rows: Sequence[GF4Vector], n: int) -> tuple[tuple[int, ...], tuple[GF4Vector, ...]]:
    """Reduced row echelon form with deterministic leftmost pivots.

    Returns (pivot columns, reduced nonzero rows).  Pivot entries are 1 and
    are the only nonzero entries in their columns.  Every row must have
    length n.

    The reduction works on the rows' (lo, hi) bitplanes, never coordinate
    by coordinate.  Each row is inserted in turn into the pivot rows found
    so far (`_insert`), always eliminated at its lowest nonzero column.
    Back-substitution from the last pivot then clears every pivot column
    outside its own row.  Rows become vectors again only on return.
    """
    echelon: dict[int, tuple[tuple[int, int], ...]] = {}
    # The reduced form depends only on the row space, not on the order of
    # the rows.  Last first suits the bases dual() builds, one row per free
    # column in ascending order: each row then stops at its own free column
    # after at most one elimination per pivot of the primal code, instead
    # of picking up the free columns of the rows before it.
    for row in reversed(rows):
        _insert(echelon, row.lo, row.hi)
    bits = sorted(echelon)
    pivot_mask = sum(bits)  # distinct powers of two: the sum is their union
    # Rows with higher pivots are fully reduced first, so clearing one pivot
    # column from a row leaves its entries at the other pivot columns alone.
    for bit in reversed(bits):
        lo, hi = echelon[bit][0]
        rest = ((lo | hi) & pivot_mask) ^ bit
        while rest:
            b = rest & -rest
            rest ^= b
            mlo, mhi = echelon[b][_entry(lo, hi, b) - 1]
            lo ^= mlo
            hi ^= mhi
        echelon[bit] = _multiples(lo, hi)
    return (tuple(b.bit_length() - 1 for b in bits),
            tuple(GF4Vector(n, *echelon[b][0]) for b in bits))


def _owns_columns(rows: Sequence[GF4Vector]) -> bool:
    """True if every row has a column where it alone is nonzero.

    Such rows are independent: a combination with a nonzero coefficient on
    row i is nonzero at the column row i owns.  One OR/AND pass over the
    supports decides it.
    """
    seen = shared = 0
    for row in rows:
        support = row.lo | row.hi
        shared |= seen & support
        seen |= support
    owned = seen & ~shared
    return all((row.lo | row.hi) & owned for row in rows)


class LinearCode:
    """An [n, k] linear code over GF(4), held as a generator matrix.

    Rows are kept exactly as given; construction helpers and the catalog
    rely on the row layout surviving round trips.  Instances are immutable.

    Independence of the rows is proved at construction, by the cheapest
    means that works.  When every row owns a column, where no other row is
    nonzero, one pass over the bitplanes proves it; every `dual()` basis
    passes this test.  Otherwise the rows are reduced, and dependent rows
    raise ValueError.  The reduced row echelon form, used by `contains`,
    `same_row_space` and `dual`, is computed at most once: at construction
    when the proof needed it, else on first use.  The dual and the
    self-orthogonality test are likewise computed once per instance.

    The zero code (k = 0) is representable by passing no rows and an
    explicit length; `from_rows` itself requires at least one row.
    """

    __slots__ = ("n", "rows", "dropped_rows", "_reduced_form", "_dual", "_self_orthogonal")

    def __init__(self, rows: Sequence[GF4Vector], n: int | None = None,
                 dropped_rows: tuple[int, ...] = ()) -> None:
        rows = tuple(rows)
        if n is None:
            if not rows:
                raise ValueError("length required for a code with no rows")
            n = rows[0].n
        if n < 0:
            raise ValueError("code length must be nonnegative")
        for row in rows:
            if row.n != n:
                raise ValueError("rows have mixed lengths")
        self.n = n
        self.rows = rows
        self.dropped_rows = dropped_rows
        self._reduced_form: tuple[tuple[int, ...], tuple[GF4Vector, ...]] | None = None
        self._dual: LinearCode | None = None
        self._self_orthogonal: bool | None = None
        if not _owns_columns(rows):
            self._reduced_form = rref(rows, n)
            if len(self._reduced_form[0]) != len(rows):
                raise ValueError("generator rows are linearly dependent")

    @property
    def k(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    @classmethod
    def from_rows(cls, rows: Iterable[GF4Vector]) -> "LinearCode":
        """Build a code from generator rows, dropping dependent ones.

        One forward pass inserts each row into the pivot rows of the rows
        kept before it; a row that adds no pivot is dependent on them.
        Dependent rows are dropped with a warning; their input indices are
        recorded in `dropped_rows` on the result.
        """
        given = list(rows)
        if not given:
            raise MatrixFormatError("no generator rows given")
        n = given[0].n
        for row in given:
            if row.n != n:
                raise MatrixFormatError("ragged rows: lengths differ")
        echelon: dict[int, tuple[tuple[int, int], ...]] = {}
        kept: list[GF4Vector] = []
        dropped: list[int] = []
        for idx, row in enumerate(given):
            if _insert(echelon, row.lo, row.hi):
                kept.append(row)
            else:
                dropped.append(idx)
        if dropped:
            warnings.warn(
                f"dropped {len(dropped)} dependent generator row(s) at indices {dropped}",
                stacklevel=2,
            )
        return cls(kept, n=n, dropped_rows=tuple(dropped))

    def _reduced(self) -> tuple[tuple[int, ...], tuple[GF4Vector, ...]]:
        """(pivot columns, reduced rows) of the row space, computed once."""
        if self._reduced_form is None:
            self._reduced_form = rref(self.rows, self.n)
        return self._reduced_form

    def contains(self, v: GF4Vector) -> bool:
        """Membership of v in the row span: v reduces to zero by `_insert`."""
        if v.n != self.n:
            raise ValueError("length mismatch")
        echelon = {1 << p: _multiples(row.lo, row.hi) for p, row in zip(*self._reduced())}
        return not _insert(echelon, v.lo, v.hi)

    def same_row_space(self, other: "LinearCode") -> bool:
        """Equality as codes, decided on canonical reduced forms."""
        return self.n == other.n and self._reduced() == other._reduced()

    def dual(self) -> "LinearCode":
        """The hermitian dual, an [n, n-k] code.

        v is orthogonal to every codeword iff the conjugated generator
        matrix sends v to zero, so the dual is the kernel of that matrix,
        extracted from its reduced form with free columns in ascending
        order.  Conjugation is a field automorphism fixing 0 and 1, so that
        reduced form is the conjugate of the code's own, with the same
        pivots.  Each basis row owns its free column, so the dual's
        construction proves independence without a reduction.
        """
        if self._dual is None:
            n = self.n
            pivots, rrows = self._reduced()
            reduced = [(1 << p, c.lo, c.hi)
                       for p, c in zip(pivots, map(GF4Vector.conjugate, rrows))]
            pivot_set = set(pivots)
            basis = []
            for f in range(n):
                if f in pivot_set:
                    continue
                bit = 1 << f
                lo, hi = bit, 0
                # Characteristic 2: each reduced row's entry at f copies
                # over to its pivot position without sign.
                for pbit, rlo, rhi in reduced:
                    if rlo & bit:
                        lo |= pbit
                    if rhi & bit:
                        hi |= pbit
                basis.append(GF4Vector(n, lo, hi))
            self._dual = LinearCode(basis, n=n)
        return self._dual

    def is_hermitian_self_orthogonal(self) -> bool:
        """True iff every pair of generator rows has hermitian product 0.

        Computed once per instance.
        """
        if self._self_orthogonal is None:
            rows = self.rows
            self._self_orthogonal = all(
                hermitian_inner(x, y) == 0 for i, x in enumerate(rows) for y in rows[i:])
        return self._self_orthogonal

    def is_trace_self_orthogonal(self) -> bool:
        """True iff the trace product vanishes on all codeword pairs.

        For a linear code this is hermitian self-orthogonality.  With x and
        y in the code, so is c*x for every c, and its trace product with y
        is Tr(c <x, y>).  If Tr(c a) = 0 for every c in GF(4) then a = 0
        (take c = omega/a for a != 0), so every <x, y> vanishes; the
        converse is immediate.
        """
        return self.is_hermitian_self_orthogonal()

    def is_even(self) -> bool:
        """True iff every codeword has even weight.

        Over GF(4), wt(x) = <x, x> (mod 2) for the hermitian product, and
        <x + cy, x + cy> = <x, x> + <y, y> + Tr(conj(c) <x, y>) for nonzero
        c.  So a linear code is even exactly when it is hermitian
        self-orthogonal.
        """
        return self.is_hermitian_self_orthogonal()

    def is_self_dual(self) -> bool:
        return 2 * self.k == self.n and self.is_hermitian_self_orthogonal()

    def shorten(self, position: int) -> "LinearCode":
        """Codewords that vanish at `position`, with that coordinate deleted.

        Implemented by row reduction on the target column: one pivot row is
        eliminated and discarded, never by codeword enumeration.
        """
        if not 0 <= position < self.n:
            raise IndexError("coordinate out of range")
        rows = list(self.rows)
        piv = next((i for i, row in enumerate(rows) if row[position] != 0), None)
        if piv is not None:
            pivot_row = rows.pop(piv)
            pivot_row = pivot_row.scale(inv(pivot_row[position]))
            rows = [r + pivot_row.scale(r[position]) if r[position] else r for r in rows]
        return LinearCode([delete_coordinate(r, position) for r in rows], n=self.n - 1)


def circulant(first_row: GF4Vector, k: int) -> LinearCode:
    """Code generated by k successive right cyclic shifts of first_row.

    Row i is first_row shifted right by i positions.  Dependent shift rows
    are dropped with a warning, as in `from_rows`.
    """
    if not 1 <= k <= first_row.n:
        raise PreconditionError(f"k must be in 1..{first_row.n}, got {k}")
    rows = [first_row]
    for _ in range(k - 1):
        rows.append(cyclic_shift(rows[-1]))
    return LinearCode.from_rows(rows)


def parse_matrix(text: str) -> LinearCode:
    """Parse the matrix text format.

    First line: ``n k``.  Then k rows, each of n whitespace-separated
    digits from {0,1,2,3} with 2 = omega and 3 = omega**2.  Lines starting
    with ``#`` and blank lines are skipped.  A header ``n 0`` with no rows
    is the zero code of length n.
    """
    header: tuple[int, int] | None = None
    rows: list[GF4Vector] = []
    for lineno, line in _records(text):
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise MatrixFormatError(f"line {lineno}: expected header 'n k'")
            try:
                n, k = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise MatrixFormatError(f"line {lineno}: expected header 'n k'") from None
            if not 0 <= k <= n:
                raise MatrixFormatError(f"line {lineno}: header requires 0 <= k <= n")
            header = (n, k)
            continue
        n, k = header
        if len(rows) == k:
            raise MatrixFormatError(f"line {lineno}: more than {k} rows")
        if len(tokens) != n:
            raise MatrixFormatError(
                f"line {lineno}: expected {n} entries, found {len(tokens)}")
        try:
            row = GF4Vector.from_digits("".join(tokens))
        except ValueError:
            row = None
        # A token of several digits gives a row longer than n.
        if row is None or row.n != n:
            bad = next(tok for tok in tokens if tok not in _DIGITS)
            raise MatrixFormatError(f"line {lineno}: invalid digit {bad!r}")
        rows.append(row)
    if header is None:
        raise MatrixFormatError("empty input: missing header line")
    if len(rows) != header[1]:
        raise MatrixFormatError(
            f"expected {header[1]} rows, found only {len(rows)}")
    if not rows:
        return LinearCode((), n=header[0])
    return LinearCode.from_rows(rows)


def emit_matrix(code: LinearCode) -> str:
    """Matrix text for a code; parse_matrix(emit_matrix(c)) returns c."""
    lines = [f"{code.n} {code.k}"]
    lines += [" ".join(row.to_digits()) for row in code.rows]
    return "\n".join(lines) + "\n"
