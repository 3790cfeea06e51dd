"""Quantum [[n, k, d]] parameter derivation and purity analysis."""

import random

import pytest

from gf4codes import (ConsistencyError, FormatError, GF4Vector, LinearCode, PreconditionError,
                      QuantumParams, WeightEnumerator, catalog, double_even, double_odd,
                      double_pair, dual_distance, parse_bounds_table, quantum, quantum_params)

import oracle
from test_doubling import shortened_so_pair


def allones(n):
    return GF4Vector.from_coords((1,) * n)


def doubled_family():
    """The six doubled codes, smallest first."""
    pairs = (("c5_2", "c5_2", 5),
             ("c8_4_shortened", "c8_4_shortened", 7),
             ("c13_6_a", "c13_6_b", 13))
    out = []
    for a_name, b_name, n in pairs:
        a = catalog.get(a_name).code
        b = catalog.get(b_name).code
        out.append(double_odd(a, b, allones(n)))
        out.append(double_even(a, b, allones(n), allones(n)))
    return out


# ---------------------------------------------------------------------------
# frozen derived parameters
# ---------------------------------------------------------------------------

def test_frozen_quantum_parameters():
    # n, k, d, d_dual, pure, degenerate
    expected = [QuantumParams(11, 5, 3, 3, True, False),
                QuantumParams(12, 4, 4, 4, True, False),
                QuantumParams(15, 7, 3, 3, True, False),
                QuantumParams(16, 6, 4, 4, True, False),
                QuantumParams(27, 13, 5, 5, True, False),
                QuantumParams(28, 12, 6, 6, True, False)]
    assert [quantum_params(c) for c in doubled_family()] == expected


def test_frozen_purity_reports():
    # (d, d_dual, pure) of the doubled family
    expected = [(3, 3, True), (4, 4, True), (3, 3, True),
                (4, 4, True), (5, 5, True), (6, 6, True)]
    got = [quantum_params(c) for c in doubled_family()]
    assert [(q.d, q.d_dual, q.pure) for q in got] == expected


def test_self_dual_inputs_are_degenerate():
    cases = (("hexacode", QuantumParams(6, 0, 4, 4, True, True)),
             ("c8_4", QuantumParams(8, 0, 4, 4, True, True)),
             ("c14_7", QuantumParams(14, 0, 6, 6, True, True)))
    for name, expect in cases:
        assert quantum_params(catalog.get(name).code) == expect, name


# ---------------------------------------------------------------------------
# the parameter arithmetic
# ---------------------------------------------------------------------------

def test_doubling_parameter_formulas():
    # A self-orthogonal [n, k] pair yields quantum codes on 2n+1 and 2n+2
    # qubits encoding 2n-2k-1 and 2n-2k-2 logical qudits.
    rng = random.Random(60)
    for _ in range(8):
        length = rng.choice((6, 8, 10))
        c1, x1 = shortened_so_pair(rng, length)
        c2, x2 = shortened_so_pair(rng, length)
        res = double_pair(c1, c2, x1, x2)
        n, k = c1.n, c1.k
        qp = quantum_params(res.code_prime)
        qpp = quantum_params(res.code_double_prime)
        assert (qp.n, qp.k) == (2 * n + 1, 2 * n - 2 * k - 1)
        assert (qpp.n, qpp.k) == (2 * n + 2, 2 * n - 2 * k - 2)
        assert qp.d >= 1 and qpp.d >= 1


def test_non_self_orthogonal_input_rejected():
    full = LinearCode([GF4Vector.from_digits("10"), GF4Vector.from_digits("01")])
    with pytest.raises(PreconditionError, match="self-orthogonal"):
        quantum_params(full)


def test_distance_counts_dual_words_outside_the_code():
    # cross-check d against a brute-force scan of the dual for short codes
    rng = random.Random(61)
    for _ in range(10):
        length = rng.choice((6, 8))
        code, _ = shortened_so_pair(rng, length)
        words = oracle.odual_brute([r.coords() for r in code.rows], code.n)
        inside = set(oracle.ospan([r.coords() for r in code.rows], code.n))
        outside = [w for w in words if w not in inside]
        qp = quantum_params(code)
        assert qp.d_dual == min(oracle.wt(w) for w in words if any(w))
        if outside:
            assert qp.d == min(oracle.wt(w) for w in outside)
            assert not qp.degenerate
        else:
            assert qp.degenerate


def test_weight_two_dual_words_inside_the_code():
    # {(a, a)} plus c13_6_a: columns 0 and 1 are the only proportional pair,
    # and the dual words they give, the multiples of (1, 1, 0, ..., 0), lie
    # in the code.  So d_dual = 2 but d comes from the full enumeration.
    rows = [GF4Vector.from_digits("11" + "0" * 13)]
    rows += [GF4Vector.from_digits("00" + r.to_digits()) for r in catalog.get("c13_6_a").code.rows]
    code = LinearCode(rows)
    assert dual_distance(code) == 2
    assert quantum_params(code) == QuantumParams(15, 1, 5, 2, False, False)


@pytest.mark.parametrize("dual, message", [
    # Fewer weight-4 words in the dual than in the code.
    (lambda w: WeightEnumerator((1,) + (0,) * w.n), "dual enumerator is smaller than the code's"),
    (lambda w: w, "dual equals the code but n != 2k"),
])
def test_inconsistent_dual_enumerators_are_internal_errors(monkeypatch, dual, message):
    # c5_2 has d_dual = 3, so both enumerators are read.
    monkeypatch.setattr(quantum, "macwilliams", lambda w, k: dual(w))
    with pytest.raises(ConsistencyError, match=message):
        quantum_params(catalog.get("c5_2").code)


# ---------------------------------------------------------------------------
# bounds tables
# ---------------------------------------------------------------------------

def test_parse_bounds_table():
    text = ("# distance records\n"
            "\n"
            "28,12,6,8\n"
            "27, 13, 5, 7\n"
            "11,5,3,3\n")
    assert parse_bounds_table(text) == {(28, 12): (6, 8),
                                        (27, 13): (5, 7),
                                        (11, 5): (3, 3)}


def test_parse_bounds_table_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_bounds_table("28,12,6\n")
    with pytest.raises(FormatError, match="four integers"):
        parse_bounds_table("a,b,c,d\n")
    with pytest.raises(FormatError, match="exceeds"):
        parse_bounds_table("28,12,8,6\n")
