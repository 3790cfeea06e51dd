"""Seeded inputs, tasks and answer checks for the benchmark workloads.

Every input code is hermitian self-orthogonal by construction: a random
subcode of a random self-dual code.  The self-dual code is a direct sum of
hexacode [6,3] and [8,4] blocks under a random monomial map; a column
permutation and nonzero column scalings keep every hermitian product,
because c * conj(c) = 1 for c != 0.  Each subcode row starts from its own
base row and mixes in random multiples of the base rows that no subcode row
starts from, so the rows are independent by construction and `from_rows`
never drops one.  The subcodes are never self-dual, so an odd-weight dual
vector always exists.

Tasks call the library through attributes of the `gf4codes` package at call
time, so the span wrappers of `spans.py` see every call.  The checkers use
their own GF(4) arithmetic and their own MacWilliams transform and never
the library's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gf4codes

# Multiplication on the package encoding b + a*omega = (a << 1) | b.
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))

_HEXACODE = ("100211", "010121", "001112")
_C8 = ("10000111", "01001011", "00101101", "00011110")

# enum_dense: k = 10 keeps the 4^k Gray walk above 95% of each task.  Two
# lengths fit one 30-bit CPython digit and five need several, so per-codeword
# cost shows on both sides of that line.  Costs rise in small steps from
# length to length: the machine's speed swings more than that between
# phases, so the median and the tail of a run move smoothly with the share of
# slow phases instead of jumping from one input class to the next.
ENUM_K = 10
ENUM_LENGTHS = (24, 30, 64, 96, 128, 160, 200)

# long_sweep: every k in 3..6 at n = 24, 48, 96 and 200, doubled up to
# n = 402, so row reduction, duals and MacWilliams on long codes carry the
# task and the enumerator is hit with many tiny calls.  The sixteen shapes'
# costs form the same kind of continuum; n = 200 alone fills the Krawtchouk
# cache for n = 402, the costliest part of set-up.
SWEEP_SHAPES = tuple((n, k) for n in (24, 48, 96, 200) for k in (3, 4, 5, 6))

# flagship_cli: the README pipeline, as a user types it.
CLI_DOUBLE = ("double", "--a", "catalog:c13_6_a", "--b", "catalog:c13_6_b",
              "--x1", "allones", "--x2", "allones", "--emit")
CLI_QUANTUM = ("quantum",)
CLI_DOUBLE_STDOUT = ("mode: even\n"
                     "inputs: [13,6] [13,6]\n"
                     "x1_weight: 13\n"
                     "x2_weight: 13\n"
                     "n: 28\n"
                     "k: 8\n"
                     "self_orthogonal: true\n"
                     "dual_distance: 6\n"
                     "bound: 6\n"
                     "emitted: {emit}\n")
CLI_QUANTUM_STDOUT = ("n: 28\n"
                      "k: 12\n"
                      "d: 6\n"
                      "pure: true\n"
                      "degenerate: false\n"
                      "[[28,12,6]] pure\n")
# Codewords whose weights the pipeline's answer needs: the two catalog
# [13,6] codes it validates, the two auxiliary [14,7] codes behind the
# bound, and the [28,8] code once in each process.
CLI_CODEWORDS = 2 * 4 ** 6 + 2 * 4 ** 7 + 2 * 4 ** 8


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _scale(c: int, lo: int, hi: int) -> tuple[int, int]:
    """c * x on bitplanes, for c in 1..3."""
    if c == 1:
        return lo, hi
    if c == 2:
        return hi, lo ^ hi
    return lo ^ hi, lo


def _block_lengths(rng: random.Random, n: int) -> list[int]:
    # Lengths 6 and 8 reach every even n >= 12; keep the remainder reachable.
    sizes = []
    rem = n
    while rem:
        fits = [b for b in (6, 8) if rem - b == 0 or (rem - b >= 6 and rem - b != 10)]
        sizes.append(rng.choice(fits))
        rem -= sizes[-1]
    return sizes


def self_dual_base(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Bitplanes (lo, hi) of the n/2 rows of a random self-dual [n, n/2] code."""
    if n % 2 or n < 12:
        raise ValueError(f"no block sum of length {n}")
    digit_rows = []
    offset = 0
    for size in _block_lengths(rng, n):
        for r in (_HEXACODE if size == 6 else _C8):
            digit_rows.append([0] * offset + [int(ch) for ch in r] + [0] * (n - offset - size))
        offset += size
    perm = rng.sample(range(n), n)
    scalars = [rng.choice((1, 2, 3)) for _ in range(n)]
    base = []
    for row in digit_rows:
        lo = hi = 0
        for j in range(n):
            c = _MUL[scalars[j]][row[perm[j]]]
            lo |= (c & 1) << j
            hi |= (c >> 1) << j
        base.append((lo, hi))
    return base


def self_orthogonal_rows(rng: random.Random, n: int, k: int) -> list[gf4codes.GF4Vector]:
    """k independent mixed rows spanning a self-orthogonal [n, k] code, k < n/2."""
    base = self_dual_base(rng, n)
    if not 1 <= k < len(base):
        raise ValueError(f"k must be in 1..{len(base) - 1}")
    starts = rng.sample(range(len(base)), k)
    rest = [j for j in range(len(base)) if j not in starts]
    rows = []
    for s in starts:
        lo, hi = base[s]
        for j in rest:
            c = rng.randrange(4)
            if c:
                slo, shi = _scale(c, *base[j])
                lo ^= slo
                hi ^= shi
        rows.append(gf4codes.GF4Vector(n, lo, hi))
    return rows


@dataclass(frozen=True)
class EnumInput:
    n: int
    k: int
    rows: tuple


@dataclass(frozen=True)
class SweepInput:
    n: int
    k: int
    rows1: tuple
    rows2: tuple


def enum_inputs(seed: int) -> list[EnumInput]:
    rng = random.Random(f"enum_dense/{seed}")
    return [EnumInput(n, ENUM_K, tuple(self_orthogonal_rows(rng, n, ENUM_K)))
            for n in ENUM_LENGTHS]


def sweep_inputs(seed: int) -> list[SweepInput]:
    rng = random.Random(f"long_sweep/{seed}")
    return [SweepInput(n, k, tuple(self_orthogonal_rows(rng, n, k)),
                       tuple(self_orthogonal_rows(rng, n, k)))
            for n, k in SWEEP_SHAPES]


# ---------------------------------------------------------------------------
# tasks: only library calls, timed by the caller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumAnswer:
    coefficients: tuple
    quantum: tuple  # (n, k, d, pure, degenerate)


@dataclass(frozen=True)
class SweepAnswer:
    parsed1: tuple
    parsed2: tuple
    dual_dims: tuple
    x1: tuple  # (lo, hi) of the odd-weight dual vector
    x2: tuple
    doubled_n: int
    doubled_rows: tuple  # (lo, hi) per row of the [2n+2, k+2] code
    bounds: tuple  # (bound_prime, bound_double_prime)
    quantum: tuple


def _quantum_tuple(q) -> tuple:
    return (q.n, q.k, q.d, q.pure, q.degenerate)


def _planes(v) -> tuple[int, int]:
    return (v.lo, v.hi)


def enum_task(inp: EnumInput) -> EnumAnswer:
    code = gf4codes.LinearCode.from_rows(inp.rows)
    w = gf4codes.weight_enumerator(code)
    q = gf4codes.quantum_params(code)
    return EnumAnswer(w.coefficients, _quantum_tuple(q))


def sweep_task(inp: SweepInput) -> SweepAnswer:
    c1 = gf4codes.LinearCode.from_rows(inp.rows1)
    c2 = gf4codes.LinearCode.from_rows(inp.rows2)
    dual_dims = (c1.dual().k, c2.dual().k)
    x1 = gf4codes.find_odd_dual_vector(c1)
    x2 = gf4codes.find_odd_dual_vector(c2)
    if x1 is None or x2 is None:
        raise RuntimeError("find_odd_dual_vector found no odd-weight dual vector")
    p1 = gf4codes.parse_matrix(gf4codes.emit_matrix(c1))
    p2 = gf4codes.parse_matrix(gf4codes.emit_matrix(c2))
    res = gf4codes.double_pair(p1, p2, x1, x2)
    doubled = res.code_double_prime
    q = gf4codes.quantum_params(doubled)
    return SweepAnswer(
        parsed1=tuple(_planes(r) for r in p1.rows),
        parsed2=tuple(_planes(r) for r in p2.rows),
        dual_dims=dual_dims,
        x1=_planes(x1.vector), x2=_planes(x2.vector),
        doubled_n=doubled.n,
        doubled_rows=tuple(_planes(r) for r in doubled.rows),
        bounds=(res.bound_prime, res.bound_double_prime),
        quantum=_quantum_tuple(q))


def enum_codewords(inp: EnumInput) -> int:
    """Codewords whose weights the answer needs: the code once."""
    return 4 ** inp.k


def sweep_codewords(inp: SweepInput) -> int:
    """Codewords the answer needs: C2 and both [n+1, k+1] auxiliary codes
    for the bounds, and the doubled [2n+2, k+2] code."""
    return 4 ** inp.k + 2 * 4 ** (inp.k + 1) + 4 ** (inp.k + 2)


# ---------------------------------------------------------------------------
# checks: independent arithmetic, never timed
# ---------------------------------------------------------------------------

def _herm(x: tuple[int, int], y: tuple[int, int]) -> int:
    """Hermitian product sum x_i * conj(y_i) of bitplane pairs, as 0..3."""
    b1, a1 = x
    # conj(a*omega + b) = a*omega + (a + b)
    b2, a2 = y[0] ^ y[1], y[1]
    aa = a1 & a2
    hi = aa ^ (a1 & b2) ^ (a2 & b1)
    lo = aa ^ (b1 & b2)
    return ((hi.bit_count() & 1) << 1) | (lo.bit_count() & 1)


def _weight(x: tuple[int, int]) -> int:
    return (x[0] | x[1]).bit_count()


def dual_enumerator(coeffs, k: int, upto: int | None = None) -> tuple[list[int] | None, str | None]:
    """MacWilliams: B(t) = 4^-k * sum_i A_i (1 - t)^i (1 + 3t)^(n - i).

    Built up as T_i = (1 + 3t) T_(i-1) + A_i (1 - t)^i over exact integers,
    keeping only the coefficients B_0..B_upto (all of them by default).
    Returns (B, None), or (None, reason) when a division is inexact or a
    coefficient is negative.
    """
    n = len(coeffs) - 1
    m = n if upto is None else min(upto, n)
    t = [coeffs[0]] + [0] * m
    p = [1] + [0] * m  # (1 - t)^i
    for i in range(1, n + 1):
        for j in range(m, 0, -1):
            t[j] += 3 * t[j - 1]
            p[j] -= p[j - 1]
        a = coeffs[i]
        if a:
            for j in range(m + 1):
                t[j] += a * p[j]
    denom = 4 ** k
    out = []
    for j, v in enumerate(t):
        q, r = divmod(v, denom)
        if r:
            return None, f"MacWilliams coefficient B_{j} is not divisible by 4^{k}"
        if q < 0:
            return None, f"MacWilliams coefficient B_{j} is negative"
        out.append(q)
    return out, None


def enumerate_weights(rows, n: int) -> list[int]:
    """Weight counts of the span of bitplane rows, by a Gray walk over the
    GF(2)-generators x and omega * x of each row."""
    gens = []
    for lo, hi in rows:
        gens += [(lo, hi), _scale(2, lo, hi)]
    counts = [0] * (n + 1)
    counts[0] = 1
    lo = hi = 0
    for j in range(1, 1 << len(gens)):
        glo, ghi = gens[(j & -j).bit_length() - 1]
        lo ^= glo
        hi ^= ghi
        counts[(lo | hi).bit_count()] += 1
    return counts


def check_enum(inp: EnumInput, ans: EnumAnswer) -> list[str]:
    """Invariants of the enumerator of a self-orthogonal [n, k] code, its
    exact MacWilliams transform, and the quantum parameters derived from
    both."""
    n, k, coeffs = inp.n, inp.k, ans.coefficients
    if len(coeffs) != n + 1:
        return [f"enumerator has {len(coeffs)} coefficients, expected {n + 1}"]
    problems = []
    if sum(coeffs) != 4 ** k:
        problems.append(f"enumerator total {sum(coeffs)} != 4^{k}")
    if coeffs[0] != 1:
        problems.append(f"A_0 = {coeffs[0]}, expected 1")
    # c * x has the weight of x for each of the 3 nonzero scalars c.
    off = [j for j in range(1, n + 1) if coeffs[j] % 3]
    if off:
        problems.append(f"A_j not divisible by 3 at j = {off[:5]}")
    dual, why = dual_enumerator(coeffs, k)
    if why:
        return problems + [why]
    d_dual = next((j for j in range(1, n + 1) if dual[j]), n + 1)
    d = next((j for j in range(1, n + 1) if dual[j] > coeffs[j]), None)
    want = (n, n - 2 * k, d, d == d_dual, False)
    if ans.quantum != want:
        problems.append(f"quantum_params {ans.quantum}, expected {want}")
    return problems


def check_sweep(inp: SweepInput, ans: SweepAnswer, reference: SweepAnswer | None) -> list[str]:
    """Check one long_sweep answer.

    With no reference, the doubled code is enumerated here and its realized
    dual distance must not exceed the double_pair bound; the answer then
    serves as the reference for later tasks on the same input, which must
    equal it.
    """
    n, k = inp.n, inp.k
    problems = []
    for name, rows, parsed in (("C1", inp.rows1, ans.parsed1), ("C2", inp.rows2, ans.parsed2)):
        if parsed != tuple(_planes(r) for r in rows):
            problems.append(f"{name}: emit/parse round trip changed the rows")
    if reference is not None:
        if ans != reference:
            problems.append("answer differs from the verified first answer on this input")
        return problems
    if ans.dual_dims != (n - k, n - k):
        problems.append(f"dual dimensions {ans.dual_dims}, expected {n - k}")
    for name, rows, x in (("x1", inp.rows1, ans.x1), ("x2", inp.rows2, ans.x2)):
        if _weight(x) % 2 == 0:
            problems.append(f"{name} has even weight")
        if any(_herm(x, _planes(r)) for r in rows):
            problems.append(f"{name} is not in the hermitian dual")
    nd, kd = 2 * n + 2, k + 2
    rows = ans.doubled_rows
    if (ans.doubled_n, len(rows)) != (nd, kd):
        problems.append(f"doubled code is [{ans.doubled_n},{len(rows)}], expected [{nd},{kd}]")
        return problems
    if any(_herm(x, y) for i, x in enumerate(rows) for y in rows[i:]):
        problems.append("doubled code is not hermitian self-orthogonal")
        return problems
    coeffs = enumerate_weights(rows, nd)
    bound = ans.bounds[1]
    # B_j for j up to the bound and the claimed d settle both checks.
    dual, why = dual_enumerator(coeffs, kd, upto=max(bound, ans.quantum[2] or 0) + 1)
    if why:
        return problems + [f"doubled code: {why}"]
    d_dual = next((j for j in range(1, len(dual)) if dual[j]), None)
    if d_dual is None:
        problems.append(f"no dual word of weight <= {bound}: the double_pair bound {bound} "
                        "is below the realized dual distance")
        return problems
    d = next((j for j in range(1, len(dual)) if dual[j] > coeffs[j]), None)
    want = (nd, nd - 2 * kd, d, d == d_dual, False)
    if ans.quantum != want:
        problems.append(f"quantum_params {ans.quantum}, expected {want}")
    if d_dual > bound:
        problems.append(f"realized dual distance {d_dual} exceeds the double_pair bound {bound}")
    return problems


def check_cli(step: str, returncode: int, stdout: str, stderr: str, expected: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"{step}: exit status {returncode}")
    if stderr:
        problems.append(f"{step}: stderr not empty: {stderr.strip()[:200]!r}")
    if stdout != expected:
        problems.append(f"{step}: stdout differs from the README: {stdout[:200]!r}")
    return problems
