"""Exact weight enumerators, the MacWilliams transform, and distances.

Scalar multiples share a weight (wt(cx) = wt(x) for c in GF(4)*), so
enumeration counts only the (4**k - 1)/3 projective codewords: those whose
highest-index nonzero coefficient is 1.  Block r is row r plus the 4**r
combinations of rows 0..r-1, indexed in binary Gray order over their 2r
GF(2)-generators (each row and its omega multiple), and is cut into
aligned chunks of up to 4**7 words, each an offset plus the whole span of
the lowest generators.  One loop takes every chunk of every block, one at
a time, and counts it in one of two ways, both from its first word, row r
plus the generators its Gray index selects (`_word`).  A chunk that holds
at least 5 words per coordinate, where the two cost about the same, is
counted bitsliced: one 4**7-bit integer per coordinate, bit s set when
word s is nonzero there, read from the column's key in two parity tables
and summed by a carry-save adder into count planes, so it costs O(n)
big-integer operations instead of one loop step per word.  Every other
chunk is walked word by word, two XORs and a popcount on the bitplanes
each.  The counts are then tripled and the zero word added; the zero code
has no projective words, so it needs no special case.  The `partitions`
argument is checked and has no other effect: every count is the same.

The MacWilliams transform reads whole Krawtchouk columns, each built by the
exact three-term recurrence and cached per (n, i).

`dual_distance` reads small dual distances off the generator's columns
before it enumerates anything.  The dual distance is the least number of
linearly dependent columns of G (MacWilliams & Sloane, ch. 1): a zero
column gives 1 and two proportional columns give 2.  Two columns owned by
one row, nonzero in that row alone, are proportional, so a row that owns
two columns gives 2 in O(k) from the supports; failing that, one pass over
the columns, read as integer keys, decides in O(nk) where enumeration
costs 4**k/3 words.  Only d-dual >= 3 is enumerated and transformed, so
the MacWilliams exactness checks run on that path, on every `macwilliams`
call and on catalog validation, not on the codes the columns settle.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import index, mul

from .codes import LinearCode
from .errors import BudgetExceededError, ConsistencyError, FormatError, _Record
from .gf4 import GF4Vector, _entry, _multiples, _records, _stacked, conj

# 4**16 = 2**32 codewords, the default enumeration budget.
DEFAULT_MAX_DIM = 16


class WeightEnumerator(_Record):
    """Exact coefficients A_0..A_n counting codewords by weight."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def n(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, j: int) -> int:
        return self.coefficients[j]

    def total(self) -> int:
        return sum(self.coefficients)

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """(j, A_j) pairs for nonzero coefficients, ascending j."""
        return tuple((j, a) for j, a in enumerate(self.coefficients) if a)


def _check_budget(k: int, max_dim: int) -> None:
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    if k > max_dim:
        raise BudgetExceededError(
            f"dimension {k} exceeds the enumeration budget of 4^{max_dim} "
            f"codewords; raise max_dim to allow 4^{k}")


def weight_enumerator(code: LinearCode, *, max_dim: int = DEFAULT_MAX_DIM,
                      partitions: int = 1) -> WeightEnumerator:
    """Exact weight enumerator from the (4**k - 1)/3 projective codewords.

    `partitions` must be an integer >= 1 and does not change the count; it
    is kept so that existing callers and `wenum --partitions` still work.
    """
    if index(partitions) < 1:
        raise ValueError("partitions must be >= 1")
    _check_budget(code.k, max_dim)
    n, k = code.n, code.k
    counts = [0] * (n + 1)
    # GF(2)-generators as (lo, hi) bitplane pairs: each row and its omega
    # multiple.  The 2**(2k) subset sums are exactly the 4**k codewords.
    bg = [m for row in code.rows for m in _multiples(row.lo, row.hi)[:2]]
    inner = code.rows[:min(k - 1, _SLICE_MAX_ROWS)]
    if k and 1 << 2 * len(inner) >= _SLICE_MIN_WORDS_PER_COORD * n:
        # Bit t of a column's key is that coordinate of the constant plane
        # of generator t, and of its omega key, of the omega plane: 7 inner
        # rows fit 16-bit lanes.  Chunks grow with the block, so only when
        # the largest block's chunk qualifies can any chunk be sliced; a
        # smaller chunk reads the keys' low bits alone.
        packed = _column_lanes(inner, n, 2)
        keys = (_unpack_lanes(packed, n, 2), _unpack_lanes(_lane_omega(packed, n, 2), n, 2))
    for r in range(k):
        # Gray index j = h * 2**m + l has gray(j) = gray(h) << m, xor
        # gray(l), xor bit m - 1 when h is odd.  So the words of an aligned
        # chunk h are row r plus the outer generators at gray(h) plus the
        # whole span of the m inner ones.
        m = 2 * min(r, _SLICE_MAX_ROWS)
        sliced = 1 << m >= _SLICE_MIN_WORDS_PER_COORD * n
        for h in range(1 << 2 * r - m):
            lo, hi = _word(bg, r, h ^ h >> 1, m)
            if sliced:
                _sliced(counts, m, *keys, lo, hi, n)
            else:
                _walk(counts, bg, m, lo, hi)
    counts = [3 * c for c in counts]
    counts[0] = 1
    return WeightEnumerator(tuple(counts))


def _word(bg: list[tuple[int, int]], r: int, g: int, first: int) -> tuple[int, int]:
    """Row r plus generator first + t for each set bit t of g, as (lo, hi)."""
    lo, hi = bg[2 * r]
    while g:
        glo, ghi = bg[first + (g & -g).bit_length() - 1]
        lo ^= glo
        hi ^= ghi
        g &= g - 1
    return lo, hi


def _walk(counts: list[int], bg: list[tuple[int, int]], m: int, lo: int, hi: int) -> None:
    """Count the 2**m words (lo, hi) + span of generators 0..m-1, one at a time.

    Word j is word j - 1 plus generator t, the lowest set bit of j: the
    one bit where the Gray codes of j - 1 and j differ.
    """
    counts[(lo | hi).bit_count()] += 1
    for j in range(1, 1 << m):
        glo, ghi = bg[(j & -j).bit_length() - 1]
        lo ^= glo
        hi ^= ghi
        counts[(lo | hi).bit_count()] += 1


# A bitsliced chunk spans at most 4**7 words, so each plane is a 2 KiB
# integer and the parity tables of the largest chunk, kept for the life of
# the process, take 512 KiB.  A chunk beats the walk once it holds at least
# 5 words per coordinate, at any length from 13 to 800: its cost grows with
# the n planes, the walk's with the words.
_SLICE_MAX_ROWS = 7
_SLICE_MIN_WORDS_PER_COORD = 5
_DIGIT_VALUES = bytes.maketrans(b"0123", b"\x00\x01\x02\x03")
# Struct formats that unpack lanes of the machine widths.
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_width(k: int) -> int:
    """The least power-of-two byte count that holds a key of k base-4 digits."""
    width = 1
    while 8 * width < 2 * k:
        width *= 2
    return width


def _column_lanes(rows: Sequence[GF4Vector], n: int, width: int) -> int:
    """The key sum_r c_r(i) * 4**r of each column i of `rows`, in lane i.

    Lanes are `width` bytes, lane 0 lowest.  The digits of all rows come
    from one `to_digits` of the stacked matrix; each row's slice of them is
    spread one lane a coordinate by a slice assignment and shifted to digit
    r, so the matrix is transposed by a few big-integer operations per row.
    """
    digits = _stacked(rows, n).to_digits().encode().translate(_DIGIT_VALUES)
    lanes = bytearray(width * n)
    keys = 0
    for r in range(len(rows)):
        lanes[::width] = digits[r * n:(r + 1) * n]
        keys |= int.from_bytes(lanes, "little") << (2 * r)
    return keys


def _lane_omega(keys: int, n: int, width: int) -> int:
    """omega times every digit of every lane: (lo, hi) -> (hi, lo ^ hi)."""
    even = int.from_bytes(b"\x55" * (width * n), "little")
    lo, hi = keys & even, keys >> 1 & even
    return hi | (lo ^ hi) << 1


def _unpack_lanes(keys: int, n: int, width: int) -> Sequence[int]:
    """The n lanes of `keys` as integers, lane 0 first."""
    raw = keys.to_bytes(width * n, "little")
    if width in _LANE_FORMATS:
        return struct.unpack(f"<{n}{_LANE_FORMATS[width]}", raw)
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, width * n, width)]


@lru_cache(maxsize=None)
def _parity_tables(m: int) -> tuple[int, list[int], list[int]]:
    """(split, low, high) such that low[v % 2**split] ^ high[v >> split] is
    the 2**m-bit integer whose bit s is the parity of s & v, for v < 2**m.

    Each table is the span of the single-bit patterns of its half of the m
    bits, so a parity plane costs two lookups and one XOR.  Bit s of
    pattern t is bit t of s, so the top pattern is the upper half of the
    2**m bits, and pattern t is pattern t + 1 xor itself shifted down by
    2**t: adding 2**t to s flips bit t + 1 exactly when bit t is set.  m = 0
    has no patterns, and both its tables are [0].
    """
    patterns = [(1 << (1 << m)) - (1 << (1 << m >> 1))] if m else []
    for t in reversed(range(m - 1)):
        patterns.insert(0, patterns[0] ^ patterns[0] >> (1 << t))

    def span(base: list[int]) -> list[int]:
        table = [0]
        for pattern in base:
            table += [x ^ pattern for x in table]
        return table

    split = m >> 1
    return split, span(patterns[:split]), span(patterns[split:])


def _sliced(counts: list[int], m: int, keys: Sequence[int], omega_keys: Sequence[int],
            lo: int, hi: int, n: int) -> None:
    """Count the 2**m words (lo, hi) + span of generators 0..m-1 at once.

    Bit s of a coordinate's plane says whether that coordinate of word s is
    nonzero; word s adds generator t when bit t of s is set, so its
    constant and omega planes are parities of s against the column keys,
    complemented where (lo, hi) is nonzero.  A carry-save adder sums the
    planes as they are built, so it holds O(log n) of them at a time, not
    n.  Each plane takes one pass up the levels: a level holding one plane
    takes it, and a level holding two full-adds them with it, keeps the
    sum and passes the carry up to the next level.  One ripple of full
    adders, a level's one or two planes plus the carry from below, then
    gives the binary count planes, and the words of each weight are the
    ones in its pattern of count planes, split off one plane at a time.
    """
    ones = (1 << (1 << m)) - 1
    split, low, high = _parity_tables(m)
    low_mask, high_mask = (1 << split) - 1, (1 << (m - split)) - 1
    # pending[level] holds one or two planes of weight 2**level.
    pending: list[list[int]] = []
    offsets = GF4Vector(n, lo, hi).to_digits().encode()
    for key, omega_key, digit in zip(keys, omega_keys, offsets):
        plo = low[key & low_mask] ^ high[key >> split & high_mask]
        phi = low[omega_key & low_mask] ^ high[omega_key >> split & high_mask]
        if digit & 1:
            plo ^= ones
        if digit & 2:
            phi ^= ones
        plane = plo | phi
        for bucket in pending:
            if len(bucket) == 1:
                bucket.append(plane)
                break
            a, b = bucket
            t = a ^ b
            bucket[0] = t ^ plane
            del bucket[1]
            plane = a & b | t & plane
        else:
            pending.append([plane])
    planes = []
    carry = 0
    for bucket in pending:
        a, b = bucket if len(bucket) == 2 else (bucket[0], 0)
        t = a ^ b
        planes.append(t ^ carry)
        carry = a & b | t & carry
    if carry:
        planes.append(carry)
    groups = [(0, ones)]
    for level in reversed(range(len(planes))):
        plane = planes[level]
        split_groups = []
        for weight, words in groups:
            high_words = words & plane
            if high_words:
                split_groups.append((weight | 1 << level, high_words))
            if high_words != words:
                split_groups.append((weight, words ^ high_words))
        groups = split_groups
    for weight, words in groups:
        counts[weight] += words.bit_count()


@lru_cache(maxsize=None)
def _krawtchouk(n: int, i: int) -> tuple[int, ...]:
    # Column (K_0(i), ..., K_n(i)): K_j(i) is the coefficient of y**j in
    # (1 + 3y)**(n-i) * (1 - y)**i, built by the exact recurrence
    # (j+1) K_{j+1} = (3(n-j) + j - 4i) K_j - 3(n-j+1) K_{j-1}.
    col = [1, 3 * n - 4 * i][:n + 1]
    for j in range(1, n):
        col.append(((3 * (n - j) + j - 4 * i) * col[j]
                    - 3 * (n - j + 1) * col[j - 1]) // (j + 1))
    return tuple(col)


def macwilliams(w: WeightEnumerator, k: int) -> WeightEnumerator:
    """Enumerator of the dual of a linear [n, k] code with enumerator w.

    Evaluates A_j-dual = 4**(-k) * sum_i A_i * K_j(i) over exact integers.
    The scaling is 4**(-k) because a linear [n, k] code over GF(4) is an
    additive (n, 2**(2k)) code; the 2**(-k) form seen for additive (n, 2**k)
    codes reconciles as 2**(-2k).  The input must total 4**k.  Each column
    (K_0(i), ..., K_n(i)) with A_i nonzero comes from the three-term
    Krawtchouk recurrence and is cached per (n, i).  Every division must be
    exact and every output coefficient nonnegative, else the input
    enumerator or dimension is wrong.
    """
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    n = w.n
    denom = 1 << (2 * k)
    total = w.total()
    if total != denom:
        raise ConsistencyError(
            f"input enumerator totals {total}, not 4^{k} = {denom}; "
            "input enumerator and dimension are inconsistent")
    a = [ai for ai in w.coefficients if ai]
    columns = [_krawtchouk(n, i) for i, ai in enumerate(w.coefficients) if ai]
    out = []
    for j, col_j in enumerate(zip(*columns)):
        q, r = divmod(sum(map(mul, a, col_j)), denom)
        if r:
            raise ConsistencyError(
                f"MacWilliams coefficient A{j} is not divisible by 4^{k}; "
                "input enumerator and dimension are inconsistent")
        if q < 0:
            raise ConsistencyError(
                f"MacWilliams coefficient A{j} is negative; "
                "input enumerator and dimension are inconsistent")
        out.append(q)
    return WeightEnumerator(tuple(out))


def min_distance(w: WeightEnumerator) -> int:
    """Smallest j >= 1 with A_j > 0; the zero code yields sentinel n + 1."""
    for j in range(1, w.n + 1):
        if w.coefficients[j]:
            return j
    return w.n + 1


def _lead(key: int) -> int:
    """The first nonzero digit of a nonzero column key, row 0 first."""
    return key >> ((key & -key).bit_length() - 1 & ~1) & 3


def _zero_column(code: LinearCode) -> int:
    """The first column of G that is zero in every row, or n if none is."""
    support = 0
    for row in code.rows:
        support |= row.lo | row.hi
    return (~support & (support + 1)).bit_length() - 1


def _short_dual_words(code: LinearCode) -> Iterator[GF4Vector]:
    """Dual words of weight 1 or 2 read off the columns of G, lazily.

    d-dual is the least number of linearly dependent columns of G.  A zero
    column i, found from the union of the rows' supports, gives e_i, and
    is then the only word yielded.

    Otherwise the first word comes from the owned columns, those where one
    row alone is nonzero (`codes._owned_columns`), in O(k) and before any
    column key is built.  Two columns i < j owned by one row, a at i and b
    at j, are both multiples of e_r, so the word with conj(b) at i and
    conj(a) at j is orthogonal to every row; the first row that owns two
    columns gives it, from its two lowest.

    Then every column j = b*p whose class of proportional columns was
    first seen at column i = a*p, with p the multiple whose first nonzero
    digit is 1, gives the word with conj(b) at i and conj(a) at j; for
    col_j = lambda*col_i that is conj(a) times (conj(lambda) at i, 1 at
    j).  In each class these words span all the others, so they span
    every weight-2 dual word, with or without the owned pair before them.
    The columns are read all at once as integer keys (`_column_lanes`),
    with their omega and omega**2 multiples taken on the packed keys, and
    each class is named by the least of a column's three keys, so the scan
    itself is one min and one dict lookup per column.
    """
    n = code.n
    zero = _zero_column(code)
    if zero < n:
        yield GF4Vector(n, 1 << zero)
        return
    owned = code._owned_mask()
    for row in code.rows:
        mine = (row.lo | row.hi) & owned
        i = mine & -mine
        j = (mine ^ i) & -(mine ^ i)
        if j:
            a, b = (conj(_entry(row.lo, row.hi, bit)) for bit in (i, j))
            yield GF4Vector(n, (b & 1) * i | (a & 1) * j, (b >> 1) * i | (a >> 1) * j)
            break
    width = _lane_width(code.k)
    packed = _column_lanes(code.rows, n, width)
    by_omega = _lane_omega(packed, n, width)
    keys, *multiples = (_unpack_lanes(lanes, n, width)
                        for lanes in (packed, by_omega, _lane_omega(by_omega, n, width)))
    first: dict[int, int] = {}
    for j, point in enumerate(map(min, keys, *multiples)):
        i = first.setdefault(point, j)
        if i != j:
            a, b = conj(_lead(keys[i])), conj(_lead(keys[j]))
            yield GF4Vector(n, (b & 1) << i | (a & 1) << j, (b >> 1) << i | (a >> 1) << j)


def dual_distance(code: LinearCode, *, max_dim: int = DEFAULT_MAX_DIM) -> int:
    """Minimum distance of the hermitian dual.

    k = n gives the sentinel n + 1, and a zero column of G gives 1 and two
    proportional columns give 2 (`_short_dual_words`), all without
    enumeration.  A code with more columns than the (4**k - 1)/3 points of
    the projective space always has one or the other.  Otherwise the code
    is enumerated and its dual enumerator taken by MacWilliams; the dual
    itself is never enumerated, so this stays exact far past the
    enumeration budget of the dual dimension.
    """
    _check_budget(code.k, max_dim)
    if code.k == code.n:
        return code.n + 1
    # The zero code takes the general path, so a length too large for
    # memory fails there with the same error as always.
    if code.k:
        word = next(_short_dual_words(code), None)
        if word is not None:
            return word.weight()
    return min_distance(macwilliams(weight_enumerator(code, max_dim=max_dim), code.k))


def format_enumerator(w: WeightEnumerator, *, csv: bool = False) -> str:
    """Text form: one `j A_j` line per nonzero coefficient, ascending j."""
    sep = "," if csv else " "
    return "".join(f"{j}{sep}{a}\n" for j, a in w.nonzero())


def parse_enumerator(text: str, n: int) -> WeightEnumerator:
    """Parse `j A_j` lines (comma or whitespace separated) for a length-n code.

    Missing weights are zero.  Lines starting with ``#`` and blank lines
    are skipped.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    coeffs = [0] * (n + 1)
    seen: set[int] = set()
    for lineno, line in _records(text):
        tokens = line.replace(",", " ").split()
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'j A_j'")
        try:
            j, a = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: expected integers 'j A_j'") from None
        if not 0 <= j <= n:
            raise FormatError(f"line {lineno}: weight {j} outside 0..{n}")
        if j in seen:
            raise FormatError(f"line {lineno}: duplicate weight {j}")
        if a < 0:
            raise FormatError(f"line {lineno}: negative count {a}")
        seen.add(j)
        coeffs[j] = a
    return WeightEnumerator(tuple(coeffs))
