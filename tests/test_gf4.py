"""Field arithmetic and bitsliced vectors, cross-checked per entry."""

import random
from itertools import product

import pytest

from gf4codes import (CONJ, ELEMENTS, MUL, OMEGA, OMEGA_SQ, GF4Vector, add,
                      append, concat, conj, coordinate_sum, cyclic_shift,
                      delete_coordinate, hermitian_inner, inv, mul, trace,
                      trace_inner)
from gf4codes.gf4 import _orthogonal

import oracle


def rand_vector(rng, n):
    coords = oracle.rand_vec(rng, n)
    return GF4Vector.from_coords(coords), coords


# The empty vector, one coordinate, both sides of a 64-bit word, and a long
# vector; then every vector of length 2.
EDGE_LENGTHS = (0, 1, 63, 64, 65, 200)
ALL_N2 = [(GF4Vector.from_coords(c), c) for c in product(ELEMENTS, repeat=2)]


def edge_vectors(rng):
    for n in EDGE_LENGTHS:
        for _ in range(5):
            yield rand_vector(rng, n)
    yield from ALL_N2


def edge_pairs(rng):
    """Random pairs at each edge length, then all 16 x 16 pairs at n = 2."""
    for n in EDGE_LENGTHS:
        for _ in range(5):
            yield rand_vector(rng, n) + rand_vector(rng, n)
    for x, xc in ALL_N2:
        for y, yc in ALL_N2:
            yield x, xc, y, yc


# ---------------------------------------------------------------------------
# field axioms, exhaustive over all element tuples
# ---------------------------------------------------------------------------

def test_add_characteristic_two():
    for a in ELEMENTS:
        assert add(a, a) == 0
        assert add(a, 0) == a
        for b in ELEMENTS:
            assert add(a, b) == add(b, a) == oracle.oadd(a, b)


def test_mul_matches_polynomial_arithmetic():
    for a in ELEMENTS:
        assert mul(a, 0) == 0
        assert mul(a, 1) == a
        for b in ELEMENTS:
            assert mul(a, b) == mul(b, a) == oracle.omul(a, b)
            assert MUL[a][b] == oracle.omul(a, b)


def test_nonzero_elements_form_group_of_order_three():
    assert mul(OMEGA, OMEGA) == OMEGA_SQ
    assert mul(OMEGA, OMEGA_SQ) == 1
    for a in (1, OMEGA, OMEGA_SQ):
        assert mul(mul(a, a), a) == 1


def test_associativity_and_distributivity():
    for a in ELEMENTS:
        for b in ELEMENTS:
            for c in ELEMENTS:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_conjugate_is_squaring():
    assert CONJ == (0, 1, 3, 2)
    for a in ELEMENTS:
        assert conj(a) == mul(a, a)
        assert conj(conj(a)) == a
        for b in ELEMENTS:
            assert conj(mul(a, b)) == mul(conj(a), conj(b))
            assert conj(add(a, b)) == add(conj(a), conj(b))


def test_inverse():
    for a in (1, OMEGA, OMEGA_SQ):
        assert mul(a, inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        inv(0)


def test_trace_values():
    assert tuple(trace(a) for a in ELEMENTS) == (0, 0, 1, 1)
    for a in ELEMENTS:
        # Tr(x) = x + x**2 lands in the prime subfield
        assert trace(a) == add(a, mul(a, a))


# ---------------------------------------------------------------------------
# vector construction and round trips
# ---------------------------------------------------------------------------

def test_coords_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(0, 40)
        v, coords = rand_vector(rng, n)
        assert len(v) == n
        assert v.coords() == coords
        assert all(v[i] == coords[i] for i in range(n))


def test_digits_roundtrip():
    v = GF4Vector.from_digits("0123103")
    assert v.to_digits() == "0123103"
    assert GF4Vector.from_digits("") == GF4Vector(0)
    with pytest.raises(ValueError):
        GF4Vector.from_digits("0124")
    with pytest.raises(ValueError):
        GF4Vector.from_coords([4])
    with pytest.raises(ValueError, match="^vector length must be nonnegative$"):
        GF4Vector(-1)


@pytest.mark.parametrize("n", (0, 1, 29, 30, 31, 60, 61, 64, 65, 130, 402))
def test_digits_match_coordinates(n):
    rng = random.Random(2000 + n)
    for _ in range(5):
        v, coords = rand_vector(rng, n)
        digits = "".join(str(c) for c in coords)
        assert v.to_digits() == digits
        assert GF4Vector.from_digits(digits) == v


def test_from_digits_takes_only_ascii_digits_0123():
    # int() reads other Unicode digits, "_" and signs; none is a GF(4) digit.
    for bad in ("4", "01a", " 1", "1 ", "1_0", "+1", "-1", "\u0663", "\uff11", "1\n"):
        with pytest.raises(ValueError, match="not a GF\\(4\\) digit string"):
            GF4Vector.from_digits(bad)


def test_getitem_bounds():
    v = GF4Vector.from_digits("012")
    with pytest.raises(IndexError):
        v[3]
    with pytest.raises(IndexError):
        v[-1]


def test_equality_and_hash():
    a = GF4Vector.from_digits("0123")
    b = GF4Vector.from_digits("0123")
    assert a == b and hash(a) == hash(b)
    assert a != GF4Vector.from_digits("01230")
    assert a != GF4Vector.from_digits("0122")
    assert a.__eq__(a.coords()) is NotImplemented
    assert a != a.coords() and a != "0123"


# ---------------------------------------------------------------------------
# bitsliced operations against the naive per-entry oracle
# ---------------------------------------------------------------------------

def test_add_matches_naive():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(1, 40)
        x, xc = rand_vector(rng, n)
        y, yc = rand_vector(rng, n)
        assert (x + y).coords() == oracle.vadd(xc, yc)
    with pytest.raises(ValueError):
        GF4Vector(3) + GF4Vector(4)


def test_scale_matches_naive():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 40)
        x, xc = rand_vector(rng, n)
        for c in ELEMENTS:
            assert x.scale(c).coords() == oracle.vscale(c, xc)
    for x, xc in edge_vectors(rng):
        for c in ELEMENTS:
            assert x.scale(c).coords() == oracle.vscale(c, xc)
    assert GF4Vector.from_digits("123").scale(0).is_zero()
    for bad in (4, -1):
        with pytest.raises(ValueError):
            GF4Vector(3).scale(bad)


def test_conjugate_matches_naive():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 40)
        x, xc = rand_vector(rng, n)
        assert x.conjugate().coords() == tuple(oracle.oconj(c) for c in xc)
        assert x.conjugate().conjugate() == x


def test_weight_matches_naive():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randrange(0, 40)
        x, xc = rand_vector(rng, n)
        assert x.weight() == oracle.wt(xc)
        assert 0 <= x.weight() <= n
        assert (x.weight() == 0) == x.is_zero()


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_hermitian_inner_matches_naive():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 40)
        x, xc = rand_vector(rng, n)
        y, yc = rand_vector(rng, n)
        assert hermitian_inner(x, y) == oracle.oherm(xc, yc)
    for x, xc, y, yc in edge_pairs(rng):
        assert hermitian_inner(x, y) == oracle.oherm(xc, yc)
    for m, n in ((3, 4), (0, 1), (65, 64)):
        with pytest.raises(ValueError):
            hermitian_inner(GF4Vector(m), GF4Vector(n))


def test_orthogonal_planes_match_hermitian_inner():
    rng = random.Random(71)
    cases = [(x, [y]) for x, _, y, _ in edge_pairs(rng)]
    for _ in range(300):
        n = rng.randrange(0, 70)
        cases.append((rand_vector(rng, n)[0],
                      [rand_vector(rng, n)[0] for _ in range(rng.randrange(0, 3))]))
    outcomes = set()
    for x, ys in cases:
        want = all(hermitian_inner(x, y) == 0 for y in ys)
        assert _orthogonal(x.lo, x.hi, [(y.lo, y.hi) for y in ys]) == want
        outcomes.add((len(ys), want))
    assert {(1, True), (1, False), (2, True), (2, False), (0, True)} <= outcomes


def test_hermitian_inner_sesquilinear():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(1, 30)
        x, _ = rand_vector(rng, n)
        y, _ = rand_vector(rng, n)
        z, _ = rand_vector(rng, n)
        assert hermitian_inner(x, y) == conj(hermitian_inner(y, x))
        for c in ELEMENTS:
            assert (hermitian_inner(x.scale(c) + z, y)
                    == add(mul(c, hermitian_inner(x, y)), hermitian_inner(z, y)))


def test_hermitian_self_product_of_odd_binary_vector():
    # vectors with entries in {0, 1} and odd support pair with themselves to 1
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(1, 30)
        coords = [rng.choice((0, 1)) for _ in range(n)]
        if oracle.wt(coords) % 2 == 0:
            if not any(coords):
                coords[0] = 1
            else:
                coords[coords.index(1)] = 0
        v = GF4Vector.from_coords(coords)
        assert hermitian_inner(v, v) == 1


def test_trace_inner_properties():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(1, 40)
        x, xc = rand_vector(rng, n)
        y, yc = rand_vector(rng, n)
        t = trace_inner(x, y)
        assert t == oracle.otrace_ip(xc, yc)
        assert t in (0, 1)
        assert t == trace(hermitian_inner(x, y))
        assert t == trace_inner(y, x)
        assert trace_inner(x, x) == 0
    for x, xc, y, yc in edge_pairs(rng):
        assert trace_inner(x, y) == oracle.otrace_ip(xc, yc)
    with pytest.raises(ValueError):
        trace_inner(GF4Vector(3), GF4Vector(4))


def test_trace_inner_vanishes_when_hermitian_does():
    rng = random.Random(11)
    checked = 0
    for _ in range(500):
        n = rng.randrange(1, 20)
        x, _ = rand_vector(rng, n)
        y, _ = rand_vector(rng, n)
        if hermitian_inner(x, y) == 0:
            assert trace_inner(x, y) == 0
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def test_concat_append_delete():
    rng = random.Random(12)
    for _ in range(100):
        x, xc = rand_vector(rng, rng.randrange(0, 20))
        y, yc = rand_vector(rng, rng.randrange(0, 20))
        assert concat(x, y).coords() == xc + yc
        for c in ELEMENTS:
            assert append(x, c).coords() == xc + (c,)
        if len(x):
            i = rng.randrange(len(x))
            assert delete_coordinate(x, i).coords() == xc[:i] + xc[i + 1:]
    with pytest.raises(ValueError):
        append(GF4Vector(2), 4)
    with pytest.raises(IndexError):
        delete_coordinate(GF4Vector(2), 2)


def test_cyclic_shift():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(1, 20)
        x, xc = rand_vector(rng, n)
        assert cyclic_shift(x).coords() == (xc[-1],) + xc[:-1]
    # n applications restore the vector
    v = GF4Vector.from_digits("010233")
    w = v
    for _ in range(6):
        w = cyclic_shift(w)
    assert w == v
    empty = GF4Vector(0)
    assert cyclic_shift(empty) is empty


def test_coordinate_sum_matches_naive():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randrange(0, 30)
        x, xc = rand_vector(rng, n)
        acc = 0
        for c in xc:
            acc = oracle.oadd(acc, c)
        assert coordinate_sum(x) == acc
