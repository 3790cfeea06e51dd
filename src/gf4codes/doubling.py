"""Doubling constructions for hermitian self-orthogonal codes.

From two self-orthogonal [n, k] codes C1, C2 and odd-weight vectors in
their hermitian duals, build:

* a self-orthogonal [2n+1, k+1] code with rows (g1 | g2 | 0) over the
  paired generators plus a bottom row (x1 | 0..0 | 1);
* a self-orthogonal [2n+2, k+2] code that appends one more column and a
  row (0..0 | x2 | 0 1);
* the auxiliary [n+1, k+1] codes spanned by (G | 0-column) plus (x | 1),
  whose dual distances bound the dual distances of the results.

All three are one step, `_adjoin`: rows (x_i | e_i) under (G | 0).  The
pair is checked on the inputs, as (g | g) rows are self-orthogonal even
when g is not: <(g | g), (g | g)> = 2<g, g> = 0 in characteristic 2.

Each fact is checked once.  The public entry points check their inputs;
a code's self-orthogonality is computed once per code, and each vector
`OddDualVector.for_code` validates is remembered on the code it was
checked against, so a repeat check is one lookup.  `_adjoin` then checks
only the adjoined rows against every row: the rows above them are
self-orthogonal because the inputs are, as the Gram matrix of the
(g1 | g2) rows is Gram(C1) + Gram(C2).

The `DoublingResult` that `double_pair` returns is the one place that
builds the auxiliary codes and evaluates both bounds, each only when it is
first read.  The dual of C22 is {(v | <v, x2>) : v in C2-dual}, so
d(C2-dual) <= d(C22-dual) <= d(C2-dual) + 1, and C22 is skipped when the
bound it enters is already decided.

The bottom rows are self-orthogonal exactly because wt(x) is odd:
the hermitian square of (x | 0..0 | 1) is wt(x) + 1 over GF(2), since
wt(v) = <v, v> (mod 2) for every v over GF(4).  The same fact lets
`find_odd_dual_vector` build x from at most two dual basis rows; no x
exists exactly when the dual is self-orthogonal.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .codes import LinearCode
from .enumerator import DEFAULT_MAX_DIM, dual_distance
from .errors import PreconditionError, _Record
from .gf4 import GF4Vector, _orthogonal, concat, hermitian_inner


class OddDualVector(_Record):
    """An odd-weight vector in the hermitian dual of some code."""

    __slots__ = ("vector", "weight")

    def __init__(self, vector: GF4Vector, weight: int) -> None:
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def for_code(cls, code: LinearCode, vector: GF4Vector) -> "OddDualVector":
        """Validate `vector` against `code` and wrap it.

        The code remembers the weight of each vector that passed, keyed by
        its length and bitplanes, so checking it again is one lookup.
        """
        if vector.n != code.n:
            raise PreconditionError(
                f"vector length {vector.n} does not match code length {code.n}")
        key = (vector.n, vector.lo, vector.hi)
        known = code._odd_vectors
        if known is not None and key in known:
            return cls(vector, known[key])
        weight = vector.weight()
        if weight % 2 == 0:
            raise PreconditionError(
                f"vector has even weight {weight}; an odd weight is required")
        if not _orthogonal(vector.lo, vector.hi, [(g.lo, g.hi) for g in code.rows]):
            raise PreconditionError("vector is not in the hermitian dual of the code")
        if known is None:
            known = code._odd_vectors = {}
        known[key] = weight
        return cls(vector, weight)


def _checked(c1: LinearCode, c2: LinearCode,
             *xs: GF4Vector | OddDualVector) -> tuple[OddDualVector, ...]:
    """Validate each x_i against C_i, then the pair; the validated vectors."""
    odd = tuple(OddDualVector.for_code(c, getattr(x, "vector", x)) for c, x in zip((c1, c2), xs))
    if (c1.n, c1.k) != (c2.n, c2.k):
        raise PreconditionError(
            f"input codes have different parameters [{c1.n},{c1.k}] and [{c2.n},{c2.k}]")
    for name, c in (("first", c1), ("second", c2)):
        if not c.is_hermitian_self_orthogonal():
            raise PreconditionError(f"{name} input code is not hermitian self-orthogonal")
    return odd


def _adjoin(rows: Sequence[GF4Vector], n: int, xs: Sequence[GF4Vector]) -> LinearCode:
    """Rows (g | 0..0) for each g, then (x_i | e_i), as a checked code of length n + len(xs).

    `LinearCode` either raises on dependent rows or takes one dimension per
    row, so the code has the k the construction promises.  The rows g are
    self-orthogonal, as every caller checked its inputs: (g | 0..0) rows of
    one code, or (g1 | g2) rows, whose Gram matrix is Gram(C1) + Gram(C2).
    So only the products of each (x_i | e_i) with every row, itself
    included, are checked, and the code is recorded as self-orthogonal.
    """
    m = n + len(xs)
    adjoined = [GF4Vector(m, g.lo, g.hi) for g in rows]
    adjoined += [GF4Vector(m, x.lo | 1 << (n + i), x.hi) for i, x in enumerate(xs)]
    # Post-construction verification: independence and self-orthogonality
    # are guaranteed by the preconditions, so a failure here means the
    # caller slipped past them.
    try:
        code = LinearCode(adjoined, n=m)
    except ValueError:
        raise PreconditionError("constructed generator matrix is rank-deficient") from None
    planes = [(row.lo, row.hi) for row in adjoined]
    if not all(_orthogonal(lo, hi, planes) for lo, hi in planes[len(rows):]):
        raise PreconditionError("constructed code failed the self-orthogonality check")
    code._self_orthogonal = True
    return code


def _double(c1: LinearCode, c2: LinearCode, *xs: GF4Vector | OddDualVector) -> LinearCode:
    """Rows (g1 | g2) over the paired generators, then (x_i in half i | e_i) per x_i."""
    n = c1.n
    placed = [GF4Vector(2 * n, x.vector.lo << i * n, x.vector.hi << i * n)
              for i, x in enumerate(_checked(c1, c2, *xs))]
    return _adjoin([concat(a, b) for a, b in zip(c1.rows, c2.rows)], 2 * n, placed)


def double_odd(c1: LinearCode, c2: LinearCode,
               x1: GF4Vector | OddDualVector) -> LinearCode:
    """The [2n+1, k+1] doubled code from (C1, C2) and x1."""
    return _double(c1, c2, x1)


def double_even(c1: LinearCode, c2: LinearCode,
                x1: GF4Vector | OddDualVector,
                x2: GF4Vector | OddDualVector) -> LinearCode:
    """The [2n+2, k+2] doubled code from (C1, C2) and (x1, x2)."""
    return _double(c1, c2, x1, x2)


def auxiliary_code(c: LinearCode, x: GF4Vector | OddDualVector) -> LinearCode:
    """The [n+1, k+1] code spanned by (G | 0-column) plus the row (x | 1)."""
    xo = OddDualVector.for_code(c, getattr(x, "vector", x))
    if not c.is_hermitian_self_orthogonal():
        raise PreconditionError("input code is not hermitian self-orthogonal")
    return _adjoin(c.rows, c.n, [xo.vector])


def find_odd_dual_vector(code: LinearCode) -> OddDualVector | None:
    """An odd-weight vector in the hermitian dual, or None if there is none.

    The all-one vector is preferred when it qualifies.  Otherwise, as
    wt(v) = <v, v> (mod 2), the first odd-weight row y_i of the dual basis
    is taken, found from a parity mask of the code's reduced rows and
    built alone (`LinearCode._odd_dual_row`).  Failing that, the basis is
    built and y_i + c*y_j is taken for the first pair i < j with
    <y_i, y_j> != 0.  For even rows wt(y_i + c*y_j) = Tr(conj(c) <y_i, y_j>)
    (mod 2), which is odd for two of the three nonzero c; the first of
    1, omega, omega**2 that gives an odd weight is used.  When no pair
    qualifies the dual is self-orthogonal, so every dual word is even and
    None is returned: for a self-orthogonal code, exactly when it is
    self-dual.
    """
    n = code.n
    ones = (1 << n) - 1
    if n % 2 == 1 and _orthogonal(ones, 0, [(g.lo, g.hi) for g in code.rows]):
        return OddDualVector(GF4Vector(n, ones), n)
    y = code._odd_dual_row()
    if y is not None:
        return OddDualVector(y, y.weight())
    ys = code.dual().rows
    for i, yi in enumerate(ys):
        for yj in ys[i + 1:]:
            if hermitian_inner(yi, yj) != 0:
                for c in (1, 2, 3):
                    v = yi + yj.scale(c)
                    if v.weight() % 2 == 1:
                        return OddDualVector(v, v.weight())
    return None


class DoublingResult:
    """Both doubled codes, the auxiliary codes, and the dual-distance bounds.

    `double_pair` validates the inputs and returns this; each attribute is
    built when first read and then kept.  So a caller that reads only the
    [2n+1, k+1] code and its bound never builds the [2n+2, k+2] code or
    C22, and one that reads only the [2n+2, k+2] side never enumerates C2.

    The dual distance of the [2n+1, k+1] code is at most
    min(d(C11-dual), d(C2-dual)), and that of the [2n+2, k+2] code at most
    min(d(C11-dual), d(C22-dual)).

    A word (v | t) is in the dual of C22 exactly when v is in the dual of
    C2 and t = <v, x2>, so d(C2-dual) <= d(C22-dual) <= d(C2-dual) + 1;
    the same holds for C11 and C1.  So when `bound_prime` has been read and
    d(C11-dual) <= d(C2-dual), `bound_double_prime` is d(C11-dual), and C22
    is neither built nor enumerated.  C11 has the dimension of C22 and is
    enumerated first, so the enumeration budget fails where it did.

    The inputs are checked once, by `double_pair`; the odd vectors are then
    remembered on their codes, and every code built here checks only its
    adjoined rows (see the module docstring).
    """

    def __init__(self, c1: LinearCode, c2: LinearCode, x1: OddDualVector,
                 x2: OddDualVector, max_dim: int) -> None:
        self._c1, self._c2, self._x1, self._x2 = c1, c2, x1, x2
        self._max_dim = max_dim

    @cached_property
    def code_prime(self) -> LinearCode:
        return double_odd(self._c1, self._c2, self._x1)

    @cached_property
    def code_double_prime(self) -> LinearCode:
        return double_even(self._c1, self._c2, self._x1, self._x2)

    @cached_property
    def c11(self) -> LinearCode:
        return auxiliary_code(self._c1, self._x1)

    @cached_property
    def c22(self) -> LinearCode:
        return auxiliary_code(self._c2, self._x2)

    @cached_property
    def _d11(self) -> int:
        return dual_distance(self.c11, max_dim=self._max_dim)

    @cached_property
    def _d2(self) -> int:
        return dual_distance(self._c2, max_dim=self._max_dim)

    @cached_property
    def bound_prime(self) -> int:
        return min(self._d11, self._d2)

    @cached_property
    def bound_double_prime(self) -> int:
        # d(C22-dual) >= d(C2-dual), so once bound_prime has read d(C2-dual)
        # and it is not below d(C11-dual), C22 cannot lower the minimum.
        if "_d2" in self.__dict__ and self._d11 <= self._d2:
            return self._d11
        return min(self._d11, dual_distance(self.c22, max_dim=self._max_dim))


def double_pair(c1: LinearCode, c2: LinearCode,
                x1: GF4Vector | OddDualVector,
                x2: GF4Vector | OddDualVector,
                *, max_dim: int = DEFAULT_MAX_DIM) -> DoublingResult:
    """Both doubled codes, the auxiliary codes C11 and C22, and the bounds.

    The inputs are validated here, so a bad pair or vector fails at once;
    the codes and bounds of the result are built when first read.
    """
    xo1, xo2 = _checked(c1, c2, x1, x2)
    return DoublingResult(c1, c2, xo1, xo2, max_dim)
