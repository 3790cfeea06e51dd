"""Quantum code parameters from self-orthogonal quaternary codes.

A hermitian (equivalently trace) self-orthogonal linear [n, k] code yields
a quantum [[n, n-2k, d]] code, where d is the smallest weight at which the
dual holds more words than the code itself, i.e. the minimum weight over
the dual words outside the code.  The quantum code is pure when d equals
the dual distance.  `quantum_params` returns d, the dual distance and both
flags in one `QuantumParams`.  Both enumerators come from the classical
side: the code's by direct enumeration, the dual's by MacWilliams, so the
dual is never enumerated.

The columns of G settle the low cases without either enumerator
(Calderbank-Rains-Shor-Sloane 1998 for the quantum side).  A zero column
puts a weight-1 word in the dual that the even code cannot hold, so
d = d-dual = 1.  Proportional columns give the weight-2 dual words, first
the one from two columns owned by one row, and if one lies outside the
code, d = d-dual = 2.  Both cases are pure.  A
self-dual code, or one whose weight-2 dual words all lie in it, or one
with d-dual >= 3, takes the full path, with its containment check.
"""

from __future__ import annotations

from .codes import LinearCode
from .enumerator import (DEFAULT_MAX_DIM, _check_budget, _short_dual_words, macwilliams,
                         min_distance, weight_enumerator)
from .errors import ConsistencyError, FormatError, PreconditionError, _Record
from .gf4 import _records


class QuantumParams(_Record):
    """Derived [[n, k, d]] parameters, the dual distance, and purity.

    `pure` is d == d_dual.  `degenerate` marks the self-dual input case
    C = C-dual, where the set difference defining d is empty; d is then
    reported as the minimum distance of C itself.
    """

    __slots__ = ("n", "k", "d", "d_dual", "pure", "degenerate")

    def __init__(self, n: int, k: int, d: int, d_dual: int, pure: bool,
                 degenerate: bool) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_dual", d_dual)
        object.__setattr__(self, "pure", pure)
        object.__setattr__(self, "degenerate", degenerate)


def quantum_params(code: LinearCode, *, max_dim: int = DEFAULT_MAX_DIM) -> QuantumParams:
    """Quantum [[n, n-2k, d]] parameters for a self-orthogonal [n, k] code."""
    if not code.is_hermitian_self_orthogonal():
        raise PreconditionError("code is not hermitian self-orthogonal")
    _check_budget(code.k, max_dim)
    if 0 < 2 * code.k < code.n:
        # Neither the zero code nor a self-dual one.  The words come
        # lightest first and span every dual word of weight at most 2, so
        # the first outside the code has weight d = d-dual.  A weight-1
        # word is never inside: the code is even.
        for word in _short_dual_words(code):
            d = word.weight()
            if d == 1 or not code.contains(word):
                return QuantumParams(n=code.n, k=code.n - 2 * code.k, d=d, d_dual=d,
                                     pure=True, degenerate=False)
    w = weight_enumerator(code, max_dim=max_dim)
    wd = macwilliams(w, code.k)
    surplus = [d - c for c, d in zip(w.coefficients, wd.coefficients)]
    if any(s < 0 for s in surplus):
        raise ConsistencyError(
            "dual enumerator is smaller than the code's somewhere; "
            "containment in the dual is violated")
    d_dual = min_distance(wd)
    degenerate = 2 * code.k == code.n
    if degenerate:
        d = min_distance(w)
    else:
        d = next((j for j in range(1, code.n + 1) if surplus[j] > 0), None)
        if d is None:
            raise ConsistencyError("dual equals the code but n != 2k")
    return QuantumParams(n=code.n, k=code.n - 2 * code.k, d=d, d_dual=d_dual,
                         pure=d == d_dual, degenerate=degenerate)


def parse_bounds_table(text: str) -> dict[tuple[int, int], tuple[int, int]]:
    """Parse a bounds table: CSV rows `n,k,d_lower,d_upper`.

    Used only to annotate derived parameters; nothing is recomputed from
    it.  Lines starting with ``#`` and blank lines are skipped.
    """
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, line in _records(text):
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) != 4:
            raise FormatError(f"line {lineno}: expected 'n,k,d_lower,d_upper'")
        try:
            n, k, lo, hi = (int(t) for t in tokens)
        except ValueError:
            raise FormatError(f"line {lineno}: expected four integers") from None
        if lo > hi:
            raise FormatError(f"line {lineno}: d_lower exceeds d_upper")
        table[(n, k)] = (lo, hi)
    return table
