"""Acceptance gate: the eight release criteria, one test each.

Every test prints one PASS line with the measured facts when it succeeds,
so a verbose run reads as a checklist.  All values are exact integer
comparisons; the only tolerance anywhere is the one-second ceiling on the
headline enumeration.
"""

import random
import subprocess
import sys
import time

from gf4codes import (GF4Vector, catalog, double_even, double_odd,
                      double_pair, dual_distance, macwilliams, quantum_params,
                      weight_enumerator)

import oracle
from test_doubling import gram_is_zero, shortened_so_pair

TABLE_28_8 = {0: 1, 12: 39, 14: 6, 16: 3198, 18: 9204, 20: 18213,
              22: 22854, 24: 10569, 26: 1248, 28: 204}

DUAL_PREFIX_28_8 = (1, 0, 0, 0, 0, 0, 6240, 37128, 314223, 2044848, 11883768)

_cache = {}


def allones(n):
    return GF4Vector.from_coords((1,) * n)


def doubled_28_8():
    if "cpp" not in _cache:
        a = catalog.get("c13_6_a").code
        b = catalog.get("c13_6_b").code
        _cache["cpp"] = double_even(a, b, allones(13), allones(13))
    return _cache["cpp"]


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    code = doubled_28_8()
    w = weight_enumerator(code)
    elapsed = time.perf_counter() - start
    assert (code.n, code.k) == (28, 8)
    expected = tuple(TABLE_28_8.get(j, 0) for j in range(29))
    assert w.coefficients == expected
    assert w.total() == 65536
    assert elapsed < 1.0
    print(f"PASS criterion 1: [28,8] enumerator matches the reference table "
          f"exactly, sum 65536, in {elapsed * 1000:.1f} ms")


def test_criterion_2_dual_enumerator_prefix():
    w = weight_enumerator(doubled_28_8())
    wd = macwilliams(w, 8)
    assert wd.coefficients[:11] == DUAL_PREFIX_28_8
    assert wd.total() == 4 ** 20
    print("PASS criterion 2: dual enumerator prefix through weight 10 "
          "matches exactly, with zero coefficients at weights 1..5")


def test_criterion_3_quantum_parameter_suite():
    pairs = (("c5_2", "c5_2", 5),
             ("c8_4_shortened", "c8_4_shortened", 7),
             ("c13_6_a", "c13_6_b", 13))
    got = []
    for a_name, b_name, n in pairs:
        a = catalog.get(a_name).code
        b = catalog.get(b_name).code
        got.append(quantum_params(double_odd(a, b, allones(n))))
        got.append(quantum_params(double_even(a, b, allones(n), allones(n))))
    params = [(q.n, q.k, q.d) for q in got]
    assert params == [(11, 5, 3), (12, 4, 4), (15, 7, 3),
                      (16, 6, 4), (27, 13, 5), (28, 12, 6)]
    assert all(q.pure for q in got)
    print("PASS criterion 3: all six quantum codes hit [[11,5,3]] [[12,4,4]] "
          "[[15,7,3]] [[16,6,4]] [[27,13,5]] [[28,12,6]], all pure")


def test_criterion_4_doubling_property_suite():
    rng = random.Random(401)
    lengths = (6, 8, 10, 12, 14)
    pairs = violations = 0
    for length in lengths * 20:
        c1, x1 = shortened_so_pair(rng, length)
        c2, x2 = shortened_so_pair(rng, length)
        n, k = c1.n, c1.k
        res = double_pair(c1, c2, x1, x2)
        cp, cpp = res.code_prime, res.code_double_prime
        bp, bpp = res.bound_prime, res.bound_double_prime
        ok = ((cp.n, cp.k) == (2 * n + 1, k + 1)
              and (cpp.n, cpp.k) == (2 * n + 2, k + 2)
              and gram_is_zero(cp)
              and gram_is_zero(cpp)
              and dual_distance(cp) <= bp
              and dual_distance(cpp) <= bpp)
        pairs += 1
        violations += 0 if ok else 1
    assert pairs >= 100
    assert violations == 0
    print(f"PASS criterion 4: {pairs} randomized doubling pairs (lengths 6-14) "
          "all self-orthogonal with correct parameters and bounds; 0 violations")


def test_criterion_5_macwilliams_consistency():
    rng = random.Random(402)
    codes = [catalog.get(name).code for name in catalog.names()]
    while len(codes) < len(catalog.names()) + 20:
        n = rng.randrange(2, 13)
        k = rng.randrange(1, n + 1)
        if k > 8 or n - k > 8:
            continue
        codes.append(oracle.to_code(oracle.rand_code_rows(rng, n, k)))
    for code in codes:
        w = weight_enumerator(code)
        wd = macwilliams(w, code.k)          # raises on any inexact division
        assert macwilliams(wd, code.n - code.k) == w
        assert wd == weight_enumerator(code.dual())
    print(f"PASS criterion 5: MacWilliams involution and direct-dual agreement "
          f"on {len(codes)} codes (catalog plus randomized), all divisions exact")


def test_criterion_6_self_orthogonality_equivalences():
    rng = random.Random(403)
    codes = [catalog.get(name).code for name in catalog.names()]
    for _ in range(60):
        if rng.randrange(3) == 0:
            code, _ = shortened_so_pair(rng, rng.choice((6, 8, 10)))
        else:
            n = rng.randrange(1, 11)
            k = rng.randrange(1, min(n, 5) + 1)
            code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        codes.append(code)
    counterexamples = 0
    so_seen = 0
    for code in codes:
        herm = code.is_hermitian_self_orthogonal()
        if herm != code.is_trace_self_orthogonal():
            counterexamples += 1
        if herm:
            so_seen += 1
            # even: no codeword of odd weight
            if any(weight_enumerator(code).coefficients[1::2]):
                counterexamples += 1
    assert counterexamples == 0
    assert so_seen >= 20  # the equivalence was exercised on both sides
    print(f"PASS criterion 6: hermitian <-> trace self-orthogonality and "
          f"self-orthogonal -> even on {len(codes)} codes "
          f"({so_seen} self-orthogonal); 0 counterexamples")


def test_criterion_7_partition_determinism():
    code = doubled_28_8()
    w1 = weight_enumerator(code, partitions=1)
    w2 = weight_enumerator(code, partitions=2)
    w8 = weight_enumerator(code, partitions=8)
    assert w1 == w2 == w8
    print("PASS criterion 7: [28,8] enumerator identical with 1, 2, and 8 "
          "partitions")


def test_criterion_8_cli_pipeline(tmp_path):
    def pipeline():
        out = tmp_path / "doubled.txt"
        double = subprocess.run(
            [sys.executable, "-m", "gf4codes", "double",
             "--a", "catalog:c13_6_a", "--b", "catalog:c13_6_b",
             "--x1", "allones", "--x2", "allones", "--emit", str(out)],
            capture_output=True, text=True)
        quantum = subprocess.run(
            [sys.executable, "-m", "gf4codes", "quantum", str(out)],
            capture_output=True, text=True)
        return double, quantum

    first = pipeline()
    second = pipeline()
    for double, quantum in (first, second):
        assert double.returncode == 0
        assert quantum.returncode == 0
        assert quantum.stdout.endswith("[[28,12,6]] pure\n")
    assert first[0].stdout == second[0].stdout
    assert first[1].stdout == second[1].stdout
    print("PASS criterion 8: CLI double -> quantum pipeline exits 0, reports "
          "[[28,12,6]] pure, byte-identical across two runs")
