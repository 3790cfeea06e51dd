"""Exhaustive checks against the oracle on every linear code with n <= 4.

Every subspace of GF(4)^n is the row space of exactly one reduced row
echelon matrix, so `oracle.orref_matrices(n)` visits every linear code of
length n once: 1, 2, 7, 44 and 529 codes for n = 0..4.
"""

from collections import Counter

import pytest

from gf4codes import (find_odd_dual_vector, macwilliams, quantum_params,
                      weight_enumerator)

import oracle

# n -> how many codes of length n take each step of find_odd_dual_vector.
# The step counts sum to the number of codes, 1, 2, 7, 44 and 529.
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

        if even:
            inside = set(words)
            outside = [oracle.wt(v) for v in dual_words if v not in inside]
            nonzero = [oracle.wt(v) for v in words if any(v)]
            d = min(outside) if outside else min(nonzero, default=n + 1)
            d_dual = min((oracle.wt(v) for v in dual_words if any(v)), default=n + 1)
            qp = quantum_params(code)
            assert (qp.n, qp.k, qp.d, qp.d_dual, qp.pure, qp.degenerate) == \
                (n, n - 2 * k, d, d_dual, d == d_dual, not outside)
    assert steps == STEPS[n]
