"""Exact weight enumerators, the MacWilliams transform, and distances.

Scalar multiples share a weight (wt(cx) = wt(x) for c in GF(4)*), so
enumeration walks only the (4**k - 1)/3 projective codewords: those whose
highest-index nonzero coefficient is 1.  Block r starts at row r and walks
the 4**r combinations of rows 0..r-1 in binary Gray order over their 2r
GF(2)-generators (each row and its omega multiple), so each step is two
XORs and a popcount on the bitplanes.  The counts are then tripled and the
zero word added; the zero code has no projective words, so it needs no
special case.  The projective index range may be split into contiguous
partitions whose histograms are summed; the result is bit-identical for any
partition count.

The MacWilliams transform reads whole Krawtchouk columns, each built by the
exact three-term recurrence and cached per (n, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING

from .errors import BudgetExceededError, ConsistencyError, FormatError
from .gf4 import _multiples, _records

if TYPE_CHECKING:
    from .codes import LinearCode

# 4**16 = 2**32 codewords, the default enumeration budget.
DEFAULT_MAX_DIM = 16


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact coefficients A_0..A_n counting codewords by weight."""

    coefficients: tuple[int, ...]

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


def weight_enumerator(code: "LinearCode", *, max_dim: int = DEFAULT_MAX_DIM,
                      partitions: int = 1) -> WeightEnumerator:
    """Exact weight enumerator from the (4**k - 1)/3 projective codewords."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    _check_budget(code.k, max_dim)
    counts = [0] * (code.n + 1)
    k = code.k
    # GF(2)-generators as (lo, hi) bitplane pairs: each row and its omega
    # multiple.  The 2**(2k) subset sums are exactly the 4**k codewords.
    bg = [m for row in code.rows for m in _multiples(row.lo, row.hi)[:2]]
    total = ((1 << (2 * k)) - 1) // 3
    # Past `total` partitions every nonempty one holds a single word, as it
    # does with exactly `total`, and the rest are empty: walk only those.
    parts = min(partitions, total)
    for p in range(parts):
        a, b = total * p // parts, total * (p + 1) // parts
        # Block r holds projective indices first .. first + 4**r - 1, where
        # first = (4**r - 1)/3; walk this partition's share of each block.
        for r in range(k):
            first = ((1 << (2 * r)) - 1) // 3
            lo_j = max(a - first, 0)
            hi_j = min(b - first, 1 << (2 * r))
            if lo_j >= hi_j:
                continue
            # Start at row r plus the combination with Gray code lo_j.
            lo, hi = bg[2 * r]
            g = lo_j ^ (lo_j >> 1)
            for t in range(2 * r):
                if (g >> t) & 1:
                    glo, ghi = bg[t]
                    lo ^= glo
                    hi ^= ghi
            counts[(lo | hi).bit_count()] += 1
            for j in range(lo_j + 1, hi_j):
                glo, ghi = bg[(j & -j).bit_length() - 1]
                lo ^= glo
                hi ^= ghi
                counts[(lo | hi).bit_count()] += 1
    counts = [3 * c for c in counts]
    counts[0] = 1
    return WeightEnumerator(tuple(counts))


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


def dual_distance(code: "LinearCode", *, max_dim: int = DEFAULT_MAX_DIM) -> int:
    """Minimum distance of the hermitian dual, via MacWilliams.

    The dual itself is never enumerated, so this stays exact far past the
    enumeration budget of the dual dimension.
    """
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
