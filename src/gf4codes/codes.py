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
elimination loop: `rref` runs it over all rows and `_back_substitute`
finishes the echelon, and `LinearCode.from_rows` runs it forward to name
the dependent rows of a matrix the constructor refused.

Each code is reduced at most once, and often never.  A column owned by a
row, nonzero in that row alone (`_owned_columns`), settles two questions
without a reduction.  Rows that each own a column are independent, by one
OR/AND pass over the supports, and codes stacked from such rows, like the
doubled codes and the long inputs, mostly pass; their reduced form is
computed by `rref` on first use.  A code whose rows do not all own a
column is reduced by `rref` at construction instead, to prove its rows
independent.  And a vector's coefficient on a row that owns a column is
read at that column, so `contains` subtracts k multiples of the rows: of
the given rows when each owns a column, else of the reduced rows, each of
which owns its pivot column.  A parsed code whose rows each own a column
and that is only doubled is never reduced.

A dual is never reduced to be built.  `dual()` knows the dual's k at once
and builds its basis, one row per free column of the code's reduced form
(`_dual_rows`), only when its rows are first read.  The doubling step
needs one odd-weight dual row, and `_odd_dual_row` finds it without
building the others: dual row f has odd weight exactly where the XOR of
the reduced rows' supports has a 0 bit.

The matrix text format converts a whole matrix at a time: its rows laid
end to end are one vector, written by one `GF4Vector.to_digits` call and,
in the layout `emit_matrix` writes, read by one `GF4Vector.from_digits`
call.  Any other layout is read line by line.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence

from .errors import ConsistencyError, MatrixFormatError, PreconditionError
from .gf4 import (GF4Vector, _entry, _multiples, _orthogonal, _records, _stacked,
                  cyclic_shift, delete_coordinate, inv)


_DIGITS = ("0", "1", "2", "3")


def _insert(echelon: dict[int, tuple[tuple[int, int], ...]], lo: int, hi: int) -> int:
    """Reduce the row (lo, hi) against `echelon`; the pivot bit it adds, or 0.

    `echelon` maps each pivot bit to the _multiples of its row, which is 1
    at that bit and zero at every lower one.  The row is eliminated at its
    lowest set bit, one dict lookup and two XORs against the multiple of
    the pivot row that cancels the entry c, until it is zero or reaches a
    bit without a pivot row; there it is scaled to 1 and becomes that
    bit's pivot row.  The multiples of x/c are those of x rotated: with
    1/c = omega**e they start at omega**e * x.  Each elimination clears its
    bit, so the row's lowest bit rises and the loop ends; a pivot row that
    is not 1 at its bit would leave it set, and raises ConsistencyError
    instead of looping forever.
    """
    while lo | hi:
        bit = (lo | hi) & -(lo | hi)
        c = (1 if lo & bit else 0) | (2 if hi & bit else 0)
        pivot_row = echelon.get(bit)
        if pivot_row is None:
            multiples = _multiples(lo, hi)
            e = (4 - c) % 3
            echelon[bit] = multiples[e:] + multiples[:e]
            return bit
        mlo, mhi = pivot_row[c - 1]
        lo ^= mlo
        hi ^= mhi
        if (lo | hi) & bit:
            raise ConsistencyError(f"pivot row of column {bit.bit_length() - 1} is not 1 there")
    return 0


def _back_substitute(echelon: dict[int, tuple[tuple[int, int], ...]],
                     n: int) -> tuple[tuple[int, ...], tuple[GF4Vector, ...]]:
    """Finish an echelon of `_insert` as (pivot columns, reduced rows).

    Back-substitution from the last pivot clears every pivot column
    outside its own row.  `echelon` is reduced in place, and its rows
    become vectors again only on return.
    """
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
            mlo, mhi = echelon[b][((1 if lo & b else 0) | (2 if hi & b else 0)) - 1]
            lo ^= mlo
            hi ^= mhi
        echelon[bit] = _multiples(lo, hi)
    return (tuple(b.bit_length() - 1 for b in bits),
            tuple(GF4Vector(n, *echelon[b][0]) for b in bits))


def rref(rows: Sequence[GF4Vector], n: int) -> tuple[tuple[int, ...], tuple[GF4Vector, ...]]:
    """Reduced row echelon form with deterministic leftmost pivots.

    Returns (pivot columns, reduced nonzero rows).  Pivot entries are 1 and
    are the only nonzero entries in their columns.  Every row must have
    length n.

    The reduction works on the rows' (lo, hi) bitplanes, never coordinate
    by coordinate.  Each row is inserted in turn into the pivot rows found
    so far (`_insert`), always eliminated at its lowest nonzero column,
    and `_back_substitute` finishes the echelon.
    """
    echelon: dict[int, tuple[tuple[int, int], ...]] = {}
    # The reduced form depends only on the row space, not on the order of
    # the rows.  Last first suits the bases dual() builds, one row per free
    # column in ascending order: each row then stops at its own free column
    # after at most one elimination per pivot of the primal code, instead
    # of picking up the free columns of the rows before it.
    for row in reversed(rows):
        _insert(echelon, row.lo, row.hi)
    return _back_substitute(echelon, n)


def _dual_rows(n: int, reduced: tuple[tuple[int, ...], tuple[GF4Vector, ...]],
               columns: int) -> list[GF4Vector]:
    """The hermitian dual's basis rows for the free columns set in `columns`.

    `reduced` is a code's (pivot columns, reduced rows).  The dual is the
    kernel of the conjugated generator matrix, whose reduced form is the
    conjugate of the code's own, with the same pivots: conjugation is a
    field automorphism fixing 0 and 1.  The row of free column f is 1 at f
    and, at the pivot of each reduced row r, conj(r[f]); characteristic 2
    leaves no sign.  Rows come in ascending order of their free columns.
    """
    pivots, rrows = reduced
    conjugated = [(1 << p, r.lo ^ r.hi, r.hi) for p, r in zip(pivots, rrows)]
    rows = []
    while columns:
        bit = columns & -columns
        columns ^= bit
        lo, hi = bit, 0
        for pbit, rlo, rhi in conjugated:
            if rlo & bit:
                lo |= pbit
            if rhi & bit:
                hi |= pbit
        rows.append(GF4Vector(n, lo, hi))
    return rows


def _owned_columns(rows: Sequence[GF4Vector]) -> int:
    """The mask of the columns where exactly one of `rows` is nonzero.

    Such a column is owned by that row, and is a multiple of e_r in the
    row's own coordinate r.  Rows that each own a column are independent:
    a combination with a nonzero coefficient on row r is nonzero at the
    column row r owns, and that coefficient is read there.  One OR/AND pass
    over the supports finds the mask.
    """
    seen = shared = 0
    for row in rows:
        support = row.lo | row.hi
        shared |= seen & support
        seen |= support
    return seen & ~shared


class LinearCode:
    """An [n, k] linear code over GF(4), held as a generator matrix.

    Rows are kept exactly as given; construction helpers and the catalog
    rely on the row layout surviving round trips.  Instances are immutable.

    Independence of the rows is proved at construction, by the cheapest
    means that works.  When every row owns a column, where no other row is
    nonzero, one pass over the bitplanes proves it; the mask of owned
    columns it finds is kept.  Otherwise the rows are reduced by `rref`,
    and dependent rows raise ValueError.  That is the one rule for the
    reduced row echelon form, used by `contains`, `same_row_space` and
    `dual`: it is computed at construction when the rows do not all own a
    column, else by `rref` on first read, and never twice.  `contains`
    reads it only when the rows do not all own a column.  The dual and
    the self-orthogonality test are likewise computed once per instance,
    and `doubling.OddDualVector.for_code` remembers the vectors it has
    validated against the code, in a dict made on its first use.  Pickling
    and copying keep only the rows, n and `dropped_rows`.

    A `dual()` code knows its k at once; its `rows`, one per free column
    of the primal, are built on first read from the primal's reduced form,
    which it holds instead of the primal itself.

    The zero code (k = 0) is representable by passing no rows and an
    explicit length; `from_rows` itself requires at least one row.
    """

    __slots__ = ("n", "k", "_rows", "dropped_rows", "_owned", "_reduced_form",
                 "_basis_of", "_dual", "_self_orthogonal", "_odd_vectors", "__weakref__")

    def __init__(self, rows: Sequence[GF4Vector], n: int | None = None,
                 dropped_rows: tuple[int, ...] = ()) -> None:
        rows = tuple(rows)
        if n is None:
            if not rows:
                raise ValueError("length required for a code with no rows")
            n = rows[0].n
        if n < 0:
            raise ValueError("code length must be nonnegative")
        for i, row in enumerate(rows):
            if row.n != n:
                raise ValueError(f"row {i} has length {row.n}, expected {n}")
        reduced = None
        owned = _owned_columns(rows)
        if not all((row.lo | row.hi) & owned for row in rows):
            reduced = rref(rows, n)
            if len(reduced[0]) != len(rows):
                raise ValueError("generator rows are linearly dependent")
        self._fill(n, len(rows), rows, dropped_rows, reduced, None, owned)

    def _fill(self, n: int, k: int, rows: tuple[GF4Vector, ...] | None,
              dropped_rows: tuple[int, ...],
              reduced: tuple[tuple[int, ...], tuple[GF4Vector, ...]] | None,
              basis_of: tuple[tuple[int, ...], tuple[GF4Vector, ...]] | None,
              owned: int | None) -> None:
        """Set every slot.  `reduced` is the rows' reduced form, or None
        until read.  With `rows` None, `basis_of` is the reduced form of
        the code whose hermitian dual this is, and the rows wait for it.
        `owned` is the rows' `_owned_columns` mask, or None until read."""
        self.n = n
        self.k = k
        self._rows = rows
        self.dropped_rows = dropped_rows
        self._owned = owned
        self._reduced_form = reduced
        self._basis_of = basis_of
        self._dual: LinearCode | None = None
        self._self_orthogonal: bool | None = None
        self._odd_vectors: dict[tuple[int, int, int], int] | None = None

    @property
    def rows(self) -> tuple[GF4Vector, ...]:
        """The generator rows; a dual's are built here on first read."""
        rows = self._rows
        if rows is None:
            n = self.n
            basis_of = self._basis_of
            pivot_mask = sum(1 << p for p in basis_of[0])
            rows = self._rows = tuple(_dual_rows(n, basis_of, ((1 << n) - 1) ^ pivot_mask))
            self._basis_of = None
        return rows

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __reduce__(self) -> tuple:
        # Rebuilt from its rows, so no cached form is pickled.
        return self.__class__, (self.rows, self.n, self.dropped_rows)

    @classmethod
    def from_rows(cls, rows: Iterable[GF4Vector]) -> "LinearCode":
        """Build a code from generator rows, dropping dependent ones.

        The rows go to the constructor as given, which proves them
        independent and keeps its proof.  Only if it finds them dependent
        does one forward pass insert each row into the pivot rows of the
        rows kept before it; a row that adds no pivot is dependent on them.
        The pass is the first half of `rref`.  Dependent rows are dropped
        with a warning; their input indices are recorded in `dropped_rows`
        on the result, which the constructor builds from the rows kept.
        """
        given = list(rows)
        if not given:
            raise MatrixFormatError("no generator rows given")
        n = given[0].n
        for row in given:
            if row.n != n:
                raise MatrixFormatError("ragged rows: lengths differ")
        try:
            return cls(given, n)
        except ValueError:
            pass
        echelon: dict[int, tuple[tuple[int, int], ...]] = {}
        kept: list[GF4Vector] = []
        dropped: list[int] = []
        for idx, row in enumerate(given):
            if _insert(echelon, row.lo, row.hi):
                kept.append(row)
            else:
                dropped.append(idx)
        warnings.warn(f"dropped {len(dropped)} dependent generator row(s) at indices {dropped}",
                      stacklevel=2)
        return cls(kept, n, tuple(dropped))

    def _reduced(self) -> tuple[tuple[int, ...], tuple[GF4Vector, ...]]:
        """(pivot columns, reduced rows) of the row space, by `rref` once."""
        if self._reduced_form is None:
            self._reduced_form = rref(self.rows, self.n)
        return self._reduced_form

    def _owned_mask(self) -> int:
        """The rows' `_owned_columns` mask, computed once."""
        if self._owned is None:
            self._owned = _owned_columns(self.rows)
        return self._owned

    def contains(self, v: GF4Vector) -> bool:
        """Membership of v in the row span.

        When every row owns a column, v's coefficient on row r can only be
        v[o] / G_r[o] at the lowest column o that row r owns, and taking
        that multiple of G_r leaves v alone at every other row's owned
        column.  So v is in the span exactly when subtracting those k
        multiples leaves 0.  When the rows do not all own a column, the
        reduced rows do: each owns its pivot column, where it is 1 and
        every other reduced row is 0.  The zero code has no rows, and v is
        in it exactly when v = 0.
        """
        if v.n != self.n:
            raise ValueError("length mismatch")
        owned = self._owned_mask()
        rows = self.rows
        if not all((row.lo | row.hi) & owned for row in rows):
            pivots, rows = self._reduced()
            owned = sum(1 << p for p in pivots)
        lo, hi = v.lo, v.hi
        for row in rows:
            bit = (row.lo | row.hi) & owned
            bit &= -bit
            c = _entry(lo, hi, bit)
            if c:
                # omega**e * G_r is c at bit, with e = log c - log G_r[bit].
                e = (c - _entry(row.lo, row.hi, bit)) % 3
                mlo, mhi = _multiples(row.lo, row.hi)[e]
                lo ^= mlo
                hi ^= mhi
        return not (lo | hi)

    def same_row_space(self, other: "LinearCode") -> bool:
        """Equality as codes, decided on canonical reduced forms."""
        return self.n == other.n and self._reduced() == other._reduced()

    def dual(self) -> "LinearCode":
        """The hermitian dual, an [n, n-k] code.

        v is orthogonal to every codeword iff the conjugated generator
        matrix sends v to zero, so the dual is the kernel of that matrix,
        one basis row per free column of the code's reduced form
        (`_dual_rows`).  The dual's k is n - k at once; its rows are built
        when first read.  Each basis row owns its free column, so the rows
        are independent without a reduction.
        """
        if self._dual is None:
            dual = LinearCode.__new__(LinearCode)
            dual._fill(self.n, self.n - self.k, None, (), None, self._reduced(), None)
            self._dual = dual
        return self._dual

    def _odd_dual_row(self) -> GF4Vector | None:
        """The first odd-weight row of the dual basis, built alone, or None.

        Dual row f has weight 1 plus the number of reduced rows nonzero at
        f, so it is odd exactly where the XOR of the reduced rows' supports
        has a 0 bit.  Each pivot column has a 1 bit there, being nonzero in
        its own row alone, so the lowest 0 bit is the first odd row's free
        column.
        """
        n = self.n
        reduced = self._reduced()
        parity = 0
        for row in reduced[1]:
            parity ^= row.lo | row.hi
        odd = ((1 << n) - 1) ^ parity
        if not odd:
            return None
        return _dual_rows(n, reduced, odd & -odd)[0]

    def is_hermitian_self_orthogonal(self) -> bool:
        """True iff every pair of generator rows has hermitian product 0.

        Computed once per instance.
        """
        if self._self_orthogonal is None:
            planes = [(row.lo, row.hi) for row in self.rows]
            self._self_orthogonal = all(
                _orthogonal(lo, hi, planes[i:]) for i, (lo, hi) in enumerate(planes))
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

    Rows in the layout `emit_matrix` writes, exactly k of them with n
    digits one space apart once comments and blank lines are skipped and
    each line is stripped, are read together by `_canonical_rows`; any
    other rows, and every error, are read line by line.
    """
    records = _records(text)
    for lineno, line in records:
        tokens = line.split()
        if len(tokens) != 2:
            raise MatrixFormatError(f"line {lineno}: expected header 'n k'")
        try:
            n, k = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: expected header 'n k'") from None
        if not 0 <= k <= n:
            raise MatrixFormatError(f"line {lineno}: header requires 0 <= k <= n")
        break
    else:
        raise MatrixFormatError("empty input: missing header line")
    lines = list(records)
    rows = _canonical_rows(lines, n, k)
    if rows is None:
        rows = []
        for lineno, line in lines:
            tokens = line.split()
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
        if len(rows) != k:
            raise MatrixFormatError(f"expected {k} rows, found only {len(rows)}")
    if not rows:
        return LinearCode((), n=n)
    return LinearCode.from_rows(rows)


def _canonical_rows(lines: list[tuple[int, str]], n: int, k: int) -> list[GF4Vector] | None:
    """The rows of `lines` if they are k >= 1 rows of n digits 0123 one
    space apart, else None.

    Such lines split into the same tokens as the line-by-line reader's, so
    they give the same rows.  Their digits, at the even positions, are
    joined and read by one `from_digits`, and the rows are cut from its
    bitplanes by shifts.  The lengths are checked first, so a huge n
    builds nothing.
    """
    if not lines or len(lines) != k or any(len(line) != 2 * n - 1 for _, line in lines):
        return None
    spaces = " " * (n - 1)
    if any(line[1::2] != spaces for _, line in lines):
        return None
    try:
        matrix = GF4Vector.from_digits("".join(line[::2] for _, line in lines))
    except ValueError:
        return None
    return [GF4Vector(n, matrix.lo >> s, matrix.hi >> s) for s in range(0, k * n, n)]


def emit_matrix(code: LinearCode) -> str:
    """Matrix text for a code; parse_matrix(emit_matrix(c)) returns c.

    The rows' digits come from one `to_digits` of the stacked matrix and
    are written into every other byte of a template of spaces and line
    ends.
    """
    n, rows = code.n, code.rows
    header = f"{n} {code.k}\n"
    if not rows:
        return header
    text = bytearray(b" " * (2 * n - 1) + b"\n") * len(rows)
    text[::2] = _stacked(rows, n).to_digits().encode()
    return header + text.decode("ascii")
