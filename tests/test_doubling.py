"""Doubling constructions, auxiliary codes, odd dual vectors, bounds."""

import copy
import pickle
import random

import pytest

from gf4codes import (GF4Vector, LinearCode, OddDualVector, PreconditionError,
                      append, auxiliary_code, catalog, double_even, double_odd,
                      double_pair, doubling, dual_distance, emit_matrix,
                      find_odd_dual_vector, hermitian_inner)

import oracle


def allones(n):
    return GF4Vector.from_coords((1,) * n)


def c5_2():
    return catalog.get("c5_2").code


def shortened_so_pair(rng, length):
    """A self-orthogonal code plus a guaranteed odd-weight dual vector.

    Shortening a random self-dual [length, length/2] code at a coordinate
    drops the dimension by one, and the dual of the shortened code is the
    parent punctured there.  Any parent row nonzero at that coordinate
    punctures to an odd-weight dual vector (even weight minus one).
    """
    parent = oracle.rand_self_dual_rows(rng, length)
    pos = rng.randrange(length)
    code = oracle.to_code(parent).shorten(pos)
    row = next(r for r in parent if r[pos] != 0)
    x = GF4Vector.from_coords(row[:pos] + row[pos + 1:])
    return code, x


# ---------------------------------------------------------------------------
# OddDualVector validation
# ---------------------------------------------------------------------------

def test_odd_dual_vector_accepts_allones_for_c5_2():
    xo = OddDualVector.for_code(c5_2(), allones(5))
    assert xo.weight == 5
    assert xo.vector == allones(5)


def test_odd_dual_vector_rejections():
    code = c5_2()
    with pytest.raises(PreconditionError, match="length"):
        OddDualVector.for_code(code, allones(4))
    with pytest.raises(PreconditionError, match="even weight"):
        OddDualVector.for_code(code, GF4Vector.from_digits("11000"))
    with pytest.raises(PreconditionError, match="not in the hermitian dual"):
        OddDualVector.for_code(code, GF4Vector.from_digits("10000"))


def test_validated_vector_is_still_rejected_for_another_code():
    code = c5_2()
    x = allones(5)
    OddDualVector.for_code(code, x)
    other = LinearCode([GF4Vector.from_digits("11100")])
    with pytest.raises(PreconditionError, match="not in the hermitian dual"):
        OddDualVector.for_code(other, x)


def test_validated_planes_at_another_length_still_fail_the_length_check():
    code = c5_2()
    x = allones(5)
    OddDualVector.for_code(code, x)
    with pytest.raises(PreconditionError, match="length 6 does not match code length 5"):
        OddDualVector.for_code(code, GF4Vector(6, x.lo, x.hi))


def test_a_wrong_weight_is_replaced_by_the_true_one():
    code = c5_2()
    x = allones(5)
    res = double_pair(code, code, OddDualVector(x, 3), OddDualVector(x, 1))
    assert (res._x1.weight, res._x2.weight) == (5, 5)
    assert OddDualVector.for_code(code, x).weight == 5
    with pytest.raises(PreconditionError, match="even weight"):
        double_pair(code, code, OddDualVector(GF4Vector.from_digits("11000"), 1), x)


def test_pickled_and_copied_codes_start_without_remembered_vectors():
    code = LinearCode(c5_2().rows)
    OddDualVector.for_code(code, allones(5))
    assert code._odd_vectors == {(5, 0b11111, 0): 5}
    for dup in (pickle.loads(pickle.dumps(code)), copy.copy(code), copy.deepcopy(code)):
        assert dup == code
        assert dup._odd_vectors is None


# ---------------------------------------------------------------------------
# the constructions, row by row
# ---------------------------------------------------------------------------

def test_double_odd_row_layout():
    cp = double_odd(c5_2(), c5_2(), allones(5))
    assert emit_matrix(cp) == ("11 3\n"
                               "1 0 1 2 2 1 0 1 2 2 0\n"
                               "0 1 2 2 1 0 1 2 2 1 0\n"
                               "1 1 1 1 1 0 0 0 0 0 1\n")
    assert cp.is_hermitian_self_orthogonal()
    assert dual_distance(cp) == 3


def test_double_even_row_layout():
    cpp = double_even(c5_2(), c5_2(), allones(5), allones(5))
    assert emit_matrix(cpp) == ("12 4\n"
                                "1 0 1 2 2 1 0 1 2 2 0 0\n"
                                "0 1 2 2 1 0 1 2 2 1 0 0\n"
                                "1 1 1 1 1 0 0 0 0 0 1 0\n"
                                "0 0 0 0 0 1 1 1 1 1 0 1\n")
    assert cpp.is_hermitian_self_orthogonal()
    assert dual_distance(cpp) == 4


def catalog_pairs():
    """Ordered catalog pairs of equal [n, k] whose codes both have an odd
    dual vector, with the vectors `find_odd_dual_vector` picks."""
    found = {name: (catalog.get(name).code, find_odd_dual_vector(catalog.get(name).code))
             for name in catalog.names()}
    return [(c1, c2, x1, x2) for c1, x1 in found.values() for c2, x2 in found.values()
            if x1 is not None and x2 is not None and (c1.n, c1.k) == (c2.n, c2.k)]


def test_every_construction_adjoins_rows_under_the_generators():
    pairs = catalog_pairs()
    assert len(pairs) == 9
    for c1, c2, x1, x2 in pairs:
        n = c1.n
        # Shortening the [2n+2] code at its last column drops the row
        # (0 | x2 | 0 1) and leaves the [2n+1] code, row for row.
        assert double_even(c1, c2, x1, x2).shorten(2 * n + 1) == double_odd(c1, c2, x1)
        for c, x in ((c1, x1), (c2, x2)):
            assert auxiliary_code(c, x).rows == (tuple(append(g, 0) for g in c.rows)
                                                 + (append(x.vector, 1),))


def test_double_accepts_prevalidated_vectors():
    xo = OddDualVector.for_code(c5_2(), allones(5))
    assert double_odd(c5_2(), c5_2(), xo) == double_odd(c5_2(), c5_2(), allones(5))


def test_double_13_6_pair():
    a = catalog.get("c13_6_a").code
    b = catalog.get("c13_6_b").code
    cp = double_odd(a, b, allones(13))
    cpp = double_even(a, b, allones(13), allones(13))
    assert (cp.n, cp.k) == (27, 7)
    assert (cpp.n, cpp.k) == (28, 8)
    assert dual_distance(cp) == 5
    assert dual_distance(cpp) == 6


def test_auxiliary_code_structure():
    code = catalog.get("c13_6_a").code
    aux = auxiliary_code(code, allones(13))
    assert (aux.n, aux.k) == (14, 7)
    rng = random.Random(50)
    words = [r.coords() for r in code.rows]
    for _ in range(20):
        word = (0,) * 13
        for r in code.rows:
            if rng.randrange(2):
                word = oracle.vadd(word, oracle.vscale(rng.randrange(1, 4), r.coords()))
        words.append(word)
    for w in words:
        assert aux.contains(GF4Vector.from_coords(w + (0,)))
    assert aux.contains(GF4Vector.from_coords((1,) * 13 + (1,)))


def gram_is_zero(code):
    rows = [r.coords() for r in code.rows]
    return all(oracle.oherm(a, b) == 0 for a in rows for b in rows)


def test_adjoin_rejects_an_adjoined_row_that_is_not_orthogonal():
    code = c5_2()
    outside = GF4Vector.from_digits("10000")  # odd weight, not in the dual
    even = next(GF4Vector.from_coords(v) for v in oracle.odual_brute(
        [r.coords() for r in code.rows], 5) if oracle.wt(v) and oracle.wt(v) % 2 == 0)
    for x in (outside, even):
        with pytest.raises(PreconditionError,
                           match="constructed code failed the self-orthogonality check"):
            doubling._adjoin(code.rows, 5, [x])
    # The second of two adjoined rows is checked as well.
    with pytest.raises(PreconditionError,
                       match="constructed code failed the self-orthogonality check"):
        doubling._adjoin(code.rows, 5, [allones(5), outside])


def test_adjoin_rejects_dependent_rows():
    row = c5_2().rows[0]
    with pytest.raises(PreconditionError,
                       match="^constructed generator matrix is rank-deficient$"):
        doubling._adjoin([row, row], 5, [])


def test_auxiliary_of_c5_2_is_self_dual():
    aux = auxiliary_code(c5_2(), allones(5))
    assert (aux.n, aux.k) == (6, 3)
    assert aux.is_self_dual()


# ---------------------------------------------------------------------------
# precondition failures
# ---------------------------------------------------------------------------

def test_mismatched_parameters_rejected():
    hexa = catalog.get("hexacode").code
    with pytest.raises(PreconditionError, match="different parameters"):
        double_odd(c5_2(), hexa, allones(5))
    # Same length, different dimension.
    with pytest.raises(PreconditionError, match="different parameters"):
        double_odd(c5_2(), LinearCode(c5_2().rows[:1]), allones(5))


def test_non_self_orthogonal_inputs_rejected():
    bad = LinearCode([GF4Vector.from_digits("100")])
    x = GF4Vector.from_digits("010")  # odd weight, in the dual of `bad`
    with pytest.raises(PreconditionError, match="self-orthogonal"):
        double_odd(bad, bad, x)
    with pytest.raises(PreconditionError, match="self-orthogonal"):
        auxiliary_code(bad, x)


def test_bad_x_vectors_rejected():
    code = c5_2()
    with pytest.raises(PreconditionError, match="even weight"):
        double_odd(code, code, GF4Vector.from_digits("11000"))
    with pytest.raises(PreconditionError, match="not in the hermitian dual"):
        double_even(code, code, allones(5), GF4Vector.from_digits("10000"))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_frozen_values():
    res = double_pair(c5_2(), c5_2(), allones(5), allones(5))
    assert (res.bound_prime, res.bound_double_prime) == (3, 4)
    a = catalog.get("c13_6_a").code
    b = catalog.get("c13_6_b").code
    res = double_pair(a, b, allones(13), allones(13))
    assert (res.bound_prime, res.bound_double_prime) == (5, 6)


def test_realized_dual_distances_meet_bounds():
    for a_name, b_name, n in (("c5_2", "c5_2", 5), ("c13_6_a", "c13_6_b", 13)):
        a = catalog.get(a_name).code
        b = catalog.get(b_name).code
        res = double_pair(a, b, allones(n), allones(n))
        assert dual_distance(res.code_prime) <= res.bound_prime
        assert dual_distance(res.code_double_prime) <= res.bound_double_prime


def test_dual_words_extend_into_doubled_duals():
    # Words (w | t) of the auxiliary dual embed as (w | 0^n | t) into the
    # dual of the [2n+1] code, and words of C22's dual embed as
    # (0^n | w | 0 | t) into the dual of the [2n+2] code.  This is the
    # mechanism behind the upper bounds.
    a = catalog.get("c13_6_a").code
    b = catalog.get("c13_6_b").code
    res = double_pair(a, b, allones(13), allones(13))
    n = 13
    for w in res.c11.dual().rows:
        c = w.coords()
        emb = GF4Vector.from_coords(c[:n] + (0,) * n + (c[n],))
        assert all(hermitian_inner(emb, g) == 0 for g in res.code_prime.rows)
    for w in res.c22.dual().rows:
        c = w.coords()
        emb = GF4Vector.from_coords((0,) * n + c[:n] + (0,) + (c[n],))
        assert all(hermitian_inner(emb, g) == 0 for g in res.code_double_prime.rows)


# ---------------------------------------------------------------------------
# find_odd_dual_vector
# ---------------------------------------------------------------------------

def test_search_prefers_allones():
    xo = find_odd_dual_vector(c5_2())
    assert xo is not None and xo.vector == allones(5) and xo.weight == 5
    xo13 = find_odd_dual_vector(catalog.get("c13_6_a").code)
    assert xo13 is not None and xo13.vector == allones(13)


def test_search_on_even_length_without_allones():
    code = LinearCode([GF4Vector.from_digits("110000"),
                       GF4Vector.from_digits("001100")])
    xo = find_odd_dual_vector(code)
    assert xo is not None
    assert xo.weight % 2 == 1
    OddDualVector.for_code(code, xo.vector)  # must revalidate cleanly
    assert find_odd_dual_vector(code).vector == xo.vector  # deterministic


def test_search_exhausts_even_codes():
    # the hexacode is self-dual with every word of even weight, so no odd
    # dual vector exists
    assert find_odd_dual_vector(catalog.get("hexacode").code) is None


# ---------------------------------------------------------------------------
# double_pair and randomized structural checks
# ---------------------------------------------------------------------------

def test_double_pair_matches_parts():
    a = catalog.get("c13_6_a").code
    b = catalog.get("c13_6_b").code
    x = allones(13)
    res = double_pair(a, b, x, x)
    assert res.code_prime == double_odd(a, b, x)
    assert res.code_double_prime == double_even(a, b, x, x)
    assert res.c11 == auxiliary_code(a, x)
    assert res.c22 == auxiliary_code(b, x)
    d11 = dual_distance(res.c11)
    assert (res.bound_prime, res.bound_double_prime) == (5, 6)
    assert res.bound_prime == min(d11, dual_distance(b))
    assert res.bound_double_prime == min(d11, dual_distance(res.c22))


def test_double_pair_rejects_a_negative_budget_at_once():
    # The budget is checked at the call, before any bound is read.
    code, x = c5_2(), allones(5)
    with pytest.raises(ValueError, match="max_dim must be nonnegative, got -1"):
        double_pair(code, code, x, x, max_dim=-1)
    assert double_pair(code, code, x, x, max_dim=0).code_prime.k == 3


def test_randomized_doubles():
    rng = random.Random(51)
    for _ in range(10):
        length = rng.choice((6, 8, 10))
        c1, x1 = shortened_so_pair(rng, length)
        c2, x2 = shortened_so_pair(rng, length)
        res = double_pair(c1, c2, x1, x2)
        n, k = c1.n, c1.k
        assert (res.code_prime.n, res.code_prime.k) == (2 * n + 1, k + 1)
        assert (res.code_double_prime.n, res.code_double_prime.k) == (2 * n + 2, k + 2)
        assert res.code_prime.is_hermitian_self_orthogonal()
        assert res.code_double_prime.is_hermitian_self_orthogonal()
        for built in (res.code_prime, res.code_double_prime, res.c11, res.c22):
            assert gram_is_zero(built)
        assert dual_distance(res.code_prime) <= res.bound_prime
        assert dual_distance(res.code_double_prime) <= res.bound_double_prime


# ---------------------------------------------------------------------------
# the bounds against the oracle, in every read order
# ---------------------------------------------------------------------------

def so_code(rng, length, m, pos):
    """m rows of a random self-dual code of this length, shortened at pos
    unless pos is None: a self-orthogonal code."""
    code = oracle.to_code(rng.sample(oracle.rand_self_dual_rows(rng, length), m))
    return code if pos is None else code.shorten(pos)


def so_pairs(rng, count):
    """Self-orthogonal [n, k] pairs, n <= 9 and n - k <= 5, with the odd dual
    vectors `oracle.ofind_odd_dual` picks, as tuples."""
    out = []
    while len(out) < count:
        length = rng.choice((4, 6, 8, 10))
        m = rng.randint(1, length // 2)
        pos = rng.randrange(length) if length == 10 or rng.random() < 0.5 else None
        c1 = so_code(rng, length, m, pos)
        if c1.k == 0 or c1.n - c1.k > 5:
            continue
        c2 = next((c for c in (so_code(rng, length, m, pos) for _ in range(10))
                   if c.k == c1.k), None)
        if c2 is None:
            continue
        xs = [oracle.ofind_odd_dual([r.coords() for r in c.rows], c.n) for c in (c1, c2)]
        if None not in xs:
            out.append((c1, c2, *xs))
    return out


def odual_distance(rows, n):
    """Least weight of a nonzero word of the dual, by enumerating the oracle's dual basis."""
    return min(oracle.wt(w) for w in oracle.ospan(oracle.odual_basis(rows, n), n) if any(w))


READ_ORDERS = (("bound_prime", "bound_double_prime"), ("bound_double_prime", "bound_prime"),
               ("bound_prime",), ("bound_double_prime",))


def test_bounds_match_the_oracle_in_every_read_order(monkeypatch):
    built = []
    real = doubling.auxiliary_code

    def recording(c, x):
        built.append(c)
        return real(c, x)

    monkeypatch.setattr(doubling, "auxiliary_code", recording)
    shortcuts = 0
    for c1, c2, x1, x2 in so_pairs(random.Random(52), 16):
        n = c1.n
        r1, r2 = ([r.coords() for r in c.rows] for c in (c1, c2))
        d1, d2 = odual_distance(r1, n), odual_distance(r2, n)
        d11, d22 = (odual_distance([r + (0,) for r in rows] + [x + (1,)], n + 1)
                    for rows, x in ((r1, x1), (r2, x2)))
        # C11-dual and C22-dual are the duals of C1 and C2, each word
        # extended by one coordinate.
        assert d1 <= d11 <= d1 + 1
        assert d2 <= d22 <= d2 + 1
        expected = {"bound_prime": min(d11, d2), "bound_double_prime": min(d11, d22)}
        for order in READ_ORDERS:
            res = double_pair(c1, c2, GF4Vector.from_coords(x1), GF4Vector.from_coords(x2))
            built.clear()
            assert {name: getattr(res, name) for name in order} == \
                {name: expected[name] for name in order}, order
            # C22 is built only for a bound_double_prime that d(C2-dual),
            # already read and not below d(C11-dual), does not decide.
            shortcut = order == READ_ORDERS[0] and d11 <= d2
            shortcuts += shortcut
            needs_c22 = "bound_double_prime" in order and not shortcut
            assert built == ([c1, c2] if needs_c22 else [c1]), order
    assert 0 < shortcuts < 16
