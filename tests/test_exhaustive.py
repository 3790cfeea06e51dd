"""Exhaustive checks against the oracle on every linear code with n <= 4.

Every subspace of GF(4)^n is the row space of exactly one reduced row
echelon matrix, so `oracle.orref_matrices(n)` visits every linear code of
length n once: 1, 2, 7, 44 and 529 codes for n = 0..4.  Random codes up to
n = 9 then take every branch of the column rule for dual distances.
"""

import random
from collections import Counter

import pytest

from gf4codes import (LinearCode, dual_distance, find_odd_dual_vector, macwilliams,
                      quantum_params, weight_enumerator)

import oracle

# n -> how many codes of length n take each step of find_odd_dual_vector.
# The step counts sum to the number of codes, 1, 2, 7, 44 and 529.  A
# "pair" code has only even dual basis rows, so no parity-mask row.
STEPS = {
    0: {"none": 1},
    1: {"allones": 1, "none": 1},
    2: {"basis row": 3, "none": 4},
    3: {"allones": 7, "basis row": 20, "pair": 7, "none": 10},
    4: {"basis row": 393, "pair": 63, "none": 73},
}


def _odd_dual_step(found, n, dual_basis):
    """Which step of find_odd_dual_vector produced `found`."""
    if found is None:
        return "none"
    if found == (1,) * n:
        return "allones"
    if found in dual_basis:
        return "basis row"
    return "pair"


@pytest.mark.parametrize("n", sorted(STEPS))
def test_every_code_of_length_n_matches_the_oracle(n):
    steps = Counter()
    for rows in oracle.orref_matrices(n):
        k = len(rows)
        code = oracle.to_code(rows, n=n)
        words = oracle.ospan(rows, n)
        dual_words = oracle.odual_brute(rows, n)

        w = weight_enumerator(code)
        assert list(w.coefficients) == oracle.owenum(rows, n)
        assert list(macwilliams(w, k).coefficients) == \
            oracle.omacwilliams(list(w.coefficients), k)

        dual = code.dual()
        assert dual.k == n - k
        # The basis itself, row for row and in order, not only its span.
        assert [r.coords() for r in dual.rows] == oracle.odual_basis(rows, n)
        assert set(oracle.ospan([r.coords() for r in dual.rows], n)) == set(dual_words)

        for p in range(n):
            short = code.shorten(p)
            assert set(oracle.ospan([r.coords() for r in short.rows], n - 1)) == \
                {v[:p] + v[p + 1:] for v in words if v[p] == 0}

        # A linear code is even exactly when it is self-orthogonal.
        even = all(oracle.wt(v) % 2 == 0 for v in words)
        assert code.is_even() == even
        assert code.is_hermitian_self_orthogonal() == even
        # So is trace self-orthogonality, by the trace product of every pair.
        assert code.is_trace_self_orthogonal() == all(
            oracle.otrace_ip(u, v) == 0 for u in words for v in words) == even

        found = find_odd_dual_vector(code)
        got = None if found is None else found.vector.coords()
        assert got == oracle.ofind_odd_dual(rows, n)
        assert (found is None) == all(oracle.wt(v) % 2 == 0 for v in dual_words)
        if found is not None:
            assert found.weight == oracle.wt(got)
        steps[_odd_dual_step(got, n, oracle.odual_basis(rows, n))] += 1

        d_dual = min((oracle.wt(v) for v in dual_words if any(v)), default=n + 1)
        assert dual_distance(code) == d_dual
        if even:
            inside = set(words)
            outside = [oracle.wt(v) for v in dual_words if v not in inside]
            nonzero = [oracle.wt(v) for v in words if any(v)]
            d = min(outside) if outside else min(nonzero, default=n + 1)
            qp = quantum_params(code)
            assert (qp.n, qp.k, qp.d, qp.d_dual, qp.pure, qp.degenerate) == \
                (n, n - 2 * k, d, d_dual, d == d_dual, not outside)
    assert steps == STEPS[n]


# ---------------------------------------------------------------------------
# the column rule on random codes, n <= 9
# ---------------------------------------------------------------------------

def _oracle_params(rows, n):
    """(d, d_dual) from the oracle's enumerator of the code and its
    MacWilliams transform; d is None when the dual holds no word outside
    the code."""
    w = oracle.owenum(rows, n)
    wd = oracle.omacwilliams(w, len(rows))
    d_dual = next((j for j in range(1, n + 1) if wd[j]), n + 1)
    d = next((j for j in range(1, n + 1) if wd[j] > w[j]), None)
    return d, d_dual


def _with_column(rng, rows, n, column):
    """`rows` of length n - 1 with `column(cols)` inserted at a random place."""
    cols = list(zip(*rows))
    cols.insert(rng.randrange(n), column(cols))
    return [tuple(r) for r in zip(*cols)]


def test_dual_distance_column_rule_matches_the_oracle():
    rng = random.Random(9)
    branches = Counter()
    for _ in range(400):
        n = rng.randint(2, 9)
        kind = rng.choice(("k = 0", "k = n", "zero", "pair", "plain"))
        if kind == "k = 0":
            rows = []
        elif kind == "k = n":
            n = min(n, 5)
            rows = oracle.rand_code_rows(rng, n, n)
        elif kind == "plain":
            rows = oracle.rand_code_rows(rng, n, rng.randint(1, min(n - 1, 5)))
        else:
            shorter = oracle.rand_code_rows(rng, n - 1, rng.randint(1, min(n - 1, 5)))
            if kind == "zero":
                rows = _with_column(rng, shorter, n, lambda cols: (0,) * len(shorter))
            else:
                rows = _with_column(rng, shorter, n, lambda cols: oracle.vscale(
                    rng.choice((1, 2, 3)), rng.choice(cols)))
        _, d_dual = _oracle_params(rows, n)
        assert dual_distance(oracle.to_code(rows, n=n)) == d_dual, rows
        k = len(rows)
        branches["k = 0" if k == 0 else "k = n" if k == n else
                 f"d_dual = {d_dual}" if d_dual < 3 else "d_dual >= 3"] += 1
    assert set(branches) == {"k = 0", "k = n", "d_dual = 1", "d_dual = 2", "d_dual >= 3"}
    assert min(branches.values()) > 20, branches


def _rand_self_orthogonal(rng):
    """Rows and length of a random self-orthogonal code with n <= 9.

    A subcode of a random self-dual [m, m/2] code, m = 6 or 8, or of one of its
    shortened codes, which are self-orthogonal too and can have d_dual = 3.
    Then, room permitting, one of: a zero column; two multiples a*c, b*c of
    a column c, which add g_c conj(h_c) (a conj(a) + b conj(b)) = 0 to each
    product; or a direct summand {(x, y*x)} with y != 0, whose weight-2 dual
    words lie in the code.
    """
    m = rng.choice((6, 8))
    words = oracle.ospan(oracle.rand_self_dual_rows(rng, m), m)
    dim = m // 2
    if rng.random() < 0.7:
        p = rng.randrange(m)
        words = [v[:p] + v[p + 1:] for v in words if v[p] == 0]
        m, dim = m - 1, dim - 1
    rows = []
    for _ in range(rng.choice((dim, rng.randint(0, dim)))):
        while oracle.orank(rows + [v := rng.choice(words)]) == len(rows):
            pass
        rows.append(v)
    k = len(rows)
    cols = list(zip(*rows)) if rows else [()] * m
    extra = rng.choice(("none", "zero", "pair", "summand"))
    if extra == "zero":
        cols.append((0,) * k)
    elif extra == "pair" and m < 8:
        c = rng.choice(cols)
        cols += [oracle.vscale(rng.choice((1, 2, 3)), c) for _ in range(2)]
    elif extra == "summand" and m < 8:
        cols = [c + (0,) for c in cols] + [(0,) * k + (1,), (0,) * k + (rng.choice((1, 2, 3)),)]
    rng.shuffle(cols)
    return [tuple(r) for r in zip(*cols)], len(cols)


def test_quantum_params_column_rule_matches_the_oracle():
    rng = random.Random(10)
    branches = Counter()
    for _ in range(500):
        rows, n = _rand_self_orthogonal(rng)
        k = len(rows)
        d, d_dual = _oracle_params(rows, n)
        degenerate = 2 * k == n
        if degenerate:
            d = min(oracle.wt(v) for v in oracle.ospan(rows, n) if any(v))
        code = oracle.to_code(rows, n=n)
        qp = quantum_params(code)
        assert (qp.n, qp.k, qp.d, qp.d_dual, qp.pure, qp.degenerate) == \
            (n, n - 2 * k, d, d_dual, d == d_dual, degenerate), rows
        assert dual_distance(code) == d_dual
        if degenerate:
            branches["self-dual"] += 1
        elif d_dual <= 2:
            # d > 2 here means every weight-2 dual word lies in the code.
            branches[f"d_dual = {d_dual}, d {'=' if d == d_dual else '>'} d_dual"] += 1
        else:
            branches["d_dual >= 3"] += 1
    assert set(branches) == {"self-dual", "d_dual = 1, d = d_dual", "d_dual = 2, d = d_dual",
                             "d_dual = 2, d > d_dual", "d_dual >= 3"}
    assert min(branches.values()) > 20, branches


def test_quantum_params_on_reduced_rows_matches_the_oracle():
    # The same codes through their reduced rows, which own their pivot
    # columns, so a row often owns two columns and its pair is tested
    # first: inside the code (a summand {(x, y*x)}, say) or outside it.
    rng = random.Random(11)
    branches = Counter()
    for _ in range(400):
        rows, n = _rand_self_orthogonal(rng)
        rows = list(oracle.orref(rows, n)[1])
        k = len(rows)
        if not 0 < 2 * k < n:
            continue
        d, d_dual = _oracle_params(rows, n)
        code = oracle.to_code(rows, n=n)
        qp = quantum_params(code)
        assert (qp.n, qp.k, qp.d, qp.d_dual, qp.pure, qp.degenerate) == \
            (n, n - 2 * k, d, d_dual, d == d_dual, False), rows
        assert dual_distance(code) == d_dual
        pair = oracle.oowned_pair(rows, n)
        if pair is None or any(not any(col) for col in zip(*rows)):
            branches["no owned pair first"] += 1
        else:
            inside = pair in set(oracle.ospan(rows, n))
            branches[f"owned pair {'inside' if inside else 'outside'}, d {d}"] += 1
    assert set(branches) == {"no owned pair first", "owned pair outside, d 2",
                             "owned pair inside, d 2", "owned pair inside, d 3"}, branches
    assert min(branches.values()) > 5, branches
