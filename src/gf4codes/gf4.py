"""GF(4) arithmetic and bitsliced vectors.

Field elements are the integers 0..3 encoding b + a*omega as (a << 1) | b:
0 = 0, 1 = 1, 2 = omega, 3 = omega**2 = omega + 1.  The field has
characteristic 2, so addition is XOR of encodings.

Vectors are stored as two bitplanes: bit i of ``lo`` holds the constant
coefficient of coordinate i and bit i of ``hi`` holds the omega
coefficient.  Vector addition is then two integer XORs and Hamming weight
is one popcount, which is what makes exhaustive codeword enumeration fast
enough for dimensions up to 16.

This module owns the bitplane formulas (`_multiples`, `_entry`,
conjugation, the inner products), and other modules call them on raw
(lo, hi) pairs instead of writing their own, save for three hot loops in
`codes` that write one out to spare a call per step: `_insert` and
`_back_substitute` read the entry at a bit as `_entry` does, once per
elimination, and `_dual_rows` conjugates each reduced row as the planes
(lo ^ hi, hi), without building a conjugated vector.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

OMEGA = 2
OMEGA_SQ = 3
ELEMENTS = (0, 1, 2, 3)

# omega * omega = omega + 1
MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

# Frobenius x -> x**2; the only nontrivial automorphism.  On nonzero
# elements it coincides with inversion since x**3 = 1.
CONJ = (0, 1, 3, 2)


def add(a: int, b: int) -> int:
    return a ^ b


def mul(a: int, b: int) -> int:
    return MUL[a][b]


def conj(a: int) -> int:
    return CONJ[a]


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(4)")
    return CONJ[a]


def trace(a: int) -> int:
    """Absolute trace Tr(x) = x + x**2, with values in {0, 1}."""
    # Tr kills {0, 1} and sends both omega and omega**2 to 1, which is
    # exactly the omega coefficient of x.
    return a >> 1


# Byte tables for the text form: a digit's constant and omega coefficients,
# and a written omega bit as the byte value it adds to a digit.
_LO_BITS = bytes.maketrans(b"0123", b"0101")
_HI_BITS = bytes.maketrans(b"0123", b"0011")
_HI_DIGITS = bytes.maketrans(b"01", b"\x00\x02")


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line neither blank nor a # comment.

    Lines end at CRLF, CR or LF only, as editors count them; the other
    breaks `str.splitlines` knows (form feed, U+2028, ...) are whitespace
    inside a line.
    """
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parity(v: int) -> int:
    return v.bit_count() & 1


def _multiples(lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """Bitplanes of x, omega*x and omega**2*x, given the bitplanes of x."""
    # omega * (a*omega + b) = (a + b)*omega + a
    return ((lo, hi), (hi, hi ^ lo), (hi ^ lo, lo))


def _entry(lo: int, hi: int, bit: int) -> int:
    """The coordinate of the bitplanes (lo, hi) at the single-bit mask `bit`."""
    return (1 if lo & bit else 0) | (2 if hi & bit else 0)


class GF4Vector:
    """A GF(4) vector of fixed length, held as two bitplanes.

    Instances are treated as immutable; all operations return new vectors.
    """

    __slots__ = ("n", "lo", "hi")

    def __init__(self, n: int, lo: int = 0, hi: int = 0) -> None:
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        mask = (1 << n) - 1
        self.n = n
        self.lo = lo & mask
        self.hi = hi & mask

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> "GF4Vector":
        lo = hi = 0
        n = 0
        for c in coords:
            if not 0 <= c <= 3:
                raise ValueError(f"not a GF(4) element: {c!r}")
            lo |= (c & 1) << n
            hi |= (c >> 1) << n
            n += 1
        return cls(n, lo, hi)

    @classmethod
    def from_digits(cls, digits: str) -> "GF4Vector":
        """Build a vector from a string of digits 0123, e.g. "10122".

        The whole string is converted at once: one byte translation per
        bitplane picks out the constant or the omega coefficient of every
        digit, and `int(..., 2)` reads the reversed result, since
        coordinate 0 is the lowest bit.
        """
        # Any other character, non-ASCII ones as "?", survives the deletion.
        raw = digits.encode("ascii", "replace")
        if raw.translate(None, b"0123"):
            raise ValueError(f"not a GF(4) digit string: {digits!r}")
        if not raw:
            return cls(0)
        return cls(len(raw), int(raw.translate(_LO_BITS)[::-1], 2),
                   int(raw.translate(_HI_BITS)[::-1], 2))

    def coords(self) -> tuple[int, ...]:
        return tuple(self[i] for i in range(self.n))

    def to_digits(self) -> str:
        """The digit string of the vector, inverse to `from_digits`.

        Each bitplane is written as n ASCII bits, the omega plane with its
        ones turned into 2s.  Read as big integers the two byte strings add
        without carries, giving the byte "0" + c at each coordinate c;
        writing the sum little-endian puts coordinate 0 first.
        """
        n = self.n
        if not n:
            return ""
        lo = format(self.lo, f"0{n}b").encode()
        hi = format(self.hi, f"0{n}b").encode().translate(_HI_DIGITS)
        total = int.from_bytes(lo, "big") + int.from_bytes(hi, "big")
        return total.to_bytes(n, "little").decode("ascii")

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError("coordinate out of range")
        return _entry(self.lo, self.hi, 1 << i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF4Vector):
            return NotImplemented
        return (self.n, self.lo, self.hi) == (other.n, other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.n, self.lo, self.hi))

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor, so every pickle protocol works.
        return self.__class__, (self.n, self.lo, self.hi)

    def __repr__(self) -> str:
        return f"GF4Vector({self.to_digits()!r})"

    def __add__(self, other: "GF4Vector") -> "GF4Vector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return GF4Vector(self.n, self.lo ^ other.lo, self.hi ^ other.hi)

    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def weight(self) -> int:
        return (self.lo | self.hi).bit_count()

    def scale(self, c: int) -> "GF4Vector":
        """Multiply every coordinate by the scalar c."""
        if c == 0:
            return GF4Vector(self.n)
        if c not in (1, OMEGA, OMEGA_SQ):
            raise ValueError(f"not a GF(4) element: {c!r}")
        return GF4Vector(self.n, *_multiples(self.lo, self.hi)[c - 1])

    def conjugate(self) -> "GF4Vector":
        """Apply x -> x**2 coordinatewise (swaps omega and omega**2)."""
        return GF4Vector(self.n, self.lo ^ self.hi, self.hi)


def hermitian_inner(x: GF4Vector, y: GF4Vector) -> int:
    """Hermitian inner product sum_i x_i * y_i**2, a GF(4) element.

    x_i * y_i**2 = (ad + bc)*omega + (ac + b(c + d)) for x_i = a*omega + b
    and y_i = c*omega + d; each coefficient sums as a parity of bitplanes.
    """
    if x.n != y.n:
        raise ValueError("length mismatch")
    omega_part = _parity((x.hi & y.lo) ^ (x.lo & y.hi))
    return (omega_part << 1) | _parity((x.hi & y.hi) ^ (x.lo & (y.lo ^ y.hi)))


def _orthogonal(lo: int, hi: int, planes: Iterable[tuple[int, int]]) -> bool:
    """True iff the bitplanes (lo, hi) have hermitian product 0 with every
    (lo, hi) pair in `planes`; the formulas of `hermitian_inner`, without
    its vectors or its length check."""
    for ylo, yhi in planes:
        if ((hi & ylo) ^ (lo & yhi)).bit_count() & 1 or \
                ((hi & yhi) ^ (lo & (ylo ^ yhi))).bit_count() & 1:
            return False
    return True


def trace_inner(x: GF4Vector, y: GF4Vector) -> int:
    """Trace inner product Tr(sum_i x_i * y_i**2), a GF(2) element."""
    return trace(hermitian_inner(x, y))


def _stacked(rows: Sequence[GF4Vector], n: int) -> GF4Vector:
    """The length-n `rows` laid end to end as one vector, row 0 first.

    Its digit string is the rows' digit strings joined, so a whole matrix
    is converted by one `to_digits` or `from_digits` call.
    """
    lo = hi = 0
    for row in reversed(rows):
        lo = lo << n | row.lo
        hi = hi << n | row.hi
    return GF4Vector(len(rows) * n, lo, hi)


def concat(x: GF4Vector, y: GF4Vector) -> GF4Vector:
    return GF4Vector(x.n + y.n, x.lo | (y.lo << x.n), x.hi | (y.hi << x.n))


def append(x: GF4Vector, c: int) -> GF4Vector:
    """Append one coordinate with value c."""
    if not 0 <= c <= 3:
        raise ValueError(f"not a GF(4) element: {c!r}")
    return GF4Vector(x.n + 1, x.lo | ((c & 1) << x.n), x.hi | ((c >> 1) << x.n))


def coordinate_sum(x: GF4Vector) -> int:
    """Sum of all coordinates, a GF(4) element."""
    return (_parity(x.hi) << 1) | _parity(x.lo)


def cyclic_shift(x: GF4Vector) -> GF4Vector:
    """Shift right by one position: coordinate i moves to i + 1 mod n."""
    n = x.n
    if n == 0:
        return x
    lo = ((x.lo << 1) | (x.lo >> (n - 1))) & ((1 << n) - 1)
    hi = ((x.hi << 1) | (x.hi >> (n - 1))) & ((1 << n) - 1)
    return GF4Vector(n, lo, hi)


def delete_coordinate(x: GF4Vector, i: int) -> GF4Vector:
    """Remove coordinate i, shortening the vector by one."""
    if not 0 <= i < x.n:
        raise IndexError("coordinate out of range")
    keep = (1 << i) - 1
    lo = (x.lo & keep) | ((x.lo >> (i + 1)) << i)
    hi = (x.hi & keep) | ((x.hi >> (i + 1)) << i)
    return GF4Vector(x.n - 1, lo, hi)
