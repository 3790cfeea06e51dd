"""Code construction, duals, predicates, shortening, matrix text format."""

import gc
import random
import warnings
import weakref
from collections import Counter
from itertools import product

import pytest

from gf4codes import (ConsistencyError, GF4Vector, LinearCode, MatrixFormatError, append,
                      circulant, emit_matrix, find_odd_dual_vector, hermitian_inner,
                      parse_matrix, rref)
from gf4codes.codes import _insert
from gf4codes.gf4 import _multiples

import oracle

C5_2_TEXT = "5 2\n1 0 1 2 2\n0 1 2 2 1\n"


def c5_2():
    return oracle.to_code([(1, 0, 1, 2, 2), (0, 1, 2, 2, 1)])


def rand_so_code(rng):
    """Random self-orthogonal code: a shortened random self-dual code."""
    length = rng.choice((6, 8, 10, 12, 14))
    parent = oracle.to_code(oracle.rand_self_dual_rows(rng, length))
    return parent.shorten(rng.randrange(length))


# ---------------------------------------------------------------------------
# matrix text format
# ---------------------------------------------------------------------------

def test_parse_emit_roundtrip_canonical_text():
    code = parse_matrix(C5_2_TEXT)
    assert (code.n, code.k) == (5, 2)
    assert code.rows == tuple(c5_2().rows)
    assert emit_matrix(code) == C5_2_TEXT


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\n5 2\n# rows follow\n1 0 1 2 2\n\n0 1 2 2 1\n# done\n"
    assert parse_matrix(text).rows == c5_2().rows


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("5\n")
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("five two\n")
    with pytest.raises(MatrixFormatError, match="line 2"):
        parse_matrix("3 1\n1 0\n")
    with pytest.raises(MatrixFormatError, match="line 2"):
        parse_matrix("2 1\n1 4\n")
    with pytest.raises(MatrixFormatError, match="line 4"):
        parse_matrix("2 2\n1 0\n0 1\n1 1\n")


def test_parse_header_bounds():
    with pytest.raises(MatrixFormatError):
        parse_matrix("2 3\n1 0\n0 1\n1 1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2 -1\n")
    with pytest.raises(MatrixFormatError, match="more than 0 rows"):
        parse_matrix("2 0\n1 1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError, match="found only"):
        parse_matrix("2 2\n1 0\n")


def test_emit_parse_roundtrip_random():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randrange(1, 12)
        k = rng.randrange(1, n + 1)
        code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        again = parse_matrix(emit_matrix(code))
        assert again.rows == code.rows and again.n == code.n


def test_zero_code_round_trips():
    for n in (0, 1, 4, 70):
        text = emit_matrix(LinearCode((), n=n))
        assert text == f"{n} 0\n"
        again = parse_matrix(text)
        assert (again.n, again.k, again.rows) == (n, 0, ())


# ---------------------------------------------------------------------------
# construction and rank
# ---------------------------------------------------------------------------

def test_from_rows_keeps_given_rows():
    code = LinearCode.from_rows([GF4Vector.from_digits("10122"),
                                 GF4Vector.from_digits("01221")])
    assert code.rows == (GF4Vector.from_digits("10122"),
                         GF4Vector.from_digits("01221"))
    assert (code.n, code.k) == (5, 2)
    assert code.dropped_rows == ()


def test_from_rows_drops_dependent_rows_with_warning():
    g = GF4Vector.from_digits("1012")
    with pytest.warns(UserWarning, match="dependent"):
        code = LinearCode.from_rows([g, g, g.scale(2)])
    assert code.k == 1
    assert code.dropped_rows == (1, 2)


def test_from_rows_rejects_bad_input():
    with pytest.raises(MatrixFormatError):
        LinearCode.from_rows([])
    with pytest.raises(MatrixFormatError):
        LinearCode.from_rows([GF4Vector(3), GF4Vector(4)])


def test_direct_constructor_names_a_row_of_the_wrong_length():
    with pytest.raises(ValueError, match="^row 0 has length 3, expected 4$"):
        LinearCode([GF4Vector(3, 1)], n=4)
    with pytest.raises(ValueError, match="^row 1 has length 5, expected 4$"):
        LinearCode([GF4Vector(4, 1), GF4Vector(5, 2)])


def test_direct_constructor_needs_a_length_it_can_hold():
    with pytest.raises(ValueError, match="^length required for a code with no rows$"):
        LinearCode(())
    with pytest.raises(ValueError, match="^code length must be nonnegative$"):
        LinearCode([], n=-1)


def test_code_equality_against_another_type_is_false():
    code = LinearCode([GF4Vector.from_digits("123")])
    assert code.__eq__(code.rows) is NotImplemented
    assert code != code.rows and code != "3 1\n1 2 3\n"


def test_direct_constructor_rejects_dependent_rows():
    g = GF4Vector.from_digits("123")
    with pytest.raises(ValueError):
        LinearCode([g, g.scale(3)])


def test_rank_matches_naive():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randrange(1, 10)
        k = rng.randrange(1, n + 2)
        rows = [oracle.rand_vec(rng, n) for _ in range(k)]
        if all(oracle.wt(r) == 0 for r in rows):
            rows[0] = (1,) + rows[0][1:]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = LinearCode.from_rows([GF4Vector.from_coords(r) for r in rows])
        assert code.k == oracle.orank(rows)


def test_rref_is_canonical():
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, n + 1)
        rows = [GF4Vector.from_coords(r) for r in oracle.rand_code_rows(rng, n, k)]
        pivots, reduced = rref(rows, n)
        assert len(pivots) == k
        for i, p in enumerate(pivots):
            for j, row in enumerate(reduced):
                assert row[p] == (1 if i == j else 0)
        # scrambling the basis leaves the reduced form unchanged
        scrambled = [rows[0].scale(rng.choice((1, 2, 3)))] + \
            [r + rows[0].scale(rng.randrange(4)) for r in rows[1:]]
        rng.shuffle(scrambled)
        assert rref(scrambled, n) == (pivots, reduced)


def rref_coords(rows, n):
    """rref on tuple rows, with the reduced rows read back as tuples."""
    pivots, reduced = rref([GF4Vector.from_coords(r) for r in rows], n)
    assert all(row.n == n for row in reduced)
    return pivots, tuple(row.coords() for row in reduced)


def test_rref_matches_oracle_on_every_two_row_matrix():
    for n in range(4):
        vectors = list(product(range(4), repeat=n))
        for a in vectors:
            for b in vectors:
                assert rref_coords([a, b], n) == oracle.orref([a, b], n)


# 31 and 65 columns need more than one 30-bit CPython digit and more than
# one 64-bit machine word per bitplane; 402 is the longest doubled code the
# benchmark sweep builds.
WIDE_LENGTHS = (31, 65, 130, 402)


@pytest.mark.parametrize("n", WIDE_LENGTHS)
def test_rref_matches_oracle_on_wide_rows(n):
    rng = random.Random(n)
    for _ in range(6):
        rows = [oracle.rand_vec(rng, n) for _ in range(rng.randrange(1, 9))]
        # a dependent row, a sparse row and a zero row
        rows.append(oracle.vadd(rows[0], oracle.vscale(rng.randrange(1, 4), rows[-1])))
        rows.append(tuple(x if rng.random() < 0.05 else 0 for x in oracle.rand_vec(rng, n)))
        rows.append((0,) * n)
        rng.shuffle(rows)
        assert rref_coords(rows, n) == oracle.orref(rows, n)


@pytest.mark.parametrize("n", WIDE_LENGTHS)
def test_dual_on_wide_rows(n):
    rng = random.Random(1000 + n)
    for k in (1, 3, rng.randrange(4, 9)):
        code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        dual = code.dual()
        assert (dual.n, dual.k) == (n, n - k)
        for g in code.rows:
            for h in dual.rows:
                assert hermitian_inner(g, h) == 0
        assert dual.dual().same_row_space(code)
        if n <= 65:
            # the tall dual basis, n - k rows, against the oracle too
            rows = [h.coords() for h in dual.rows]
            assert rref_coords(rows, n) == oracle.orref(rows, n)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_contains_basics():
    code = c5_2()
    assert code.contains(GF4Vector(5))
    for g in code.rows:
        assert code.contains(g)
        assert code.contains(g.scale(2))
    assert not code.contains(GF4Vector.from_digits("11111"))
    with pytest.raises(ValueError):
        code.contains(GF4Vector(4))


def test_contains_matches_naive_span():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        rows = oracle.rand_code_rows(rng, n, k)
        code = oracle.to_code(rows)
        span = set(oracle.ospan(rows, n))
        for _ in range(30):
            v = oracle.rand_vec(rng, n)
            assert code.contains(GF4Vector.from_coords(v)) == (v in span)


@pytest.mark.parametrize("n", range(5))
def test_contains_matches_the_oracle_on_every_code_up_to_length_4(n):
    # Every subspace of GF(4)^n, the zero code included, asked about every
    # vector of GF(4)^n through three generator matrices: its reduced rows,
    # which own their pivot columns; row i plus omega times the sum of the
    # rows, nonzero at every pivot column (I + omega*J is invertible over
    # GF(4) for every k); and its lazy dual's rows, which own their free
    # columns.  With k rows, v lies in the span exactly when
    # orank(rows + [v]) == k, that is, when it is in the oracle's span.
    vectors = list(product(range(4), repeat=n))
    planes = [GF4Vector.from_coords(v) for v in vectors]
    paths = Counter()
    for rows in oracle.orref_matrices(n):
        total = (0,) * n
        for row in rows:
            total = oracle.vadd(total, row)
        mixed = [oracle.vadd(row, oracle.vscale(2, total)) for row in rows]
        span = set(oracle.ospan(rows, n))
        dual_span = set(oracle.ospan(oracle.odual_basis(rows, n), n))
        for code, words in ((oracle.to_code(rows, n=n), span),
                            (oracle.to_code(mixed, n=n), span),
                            (oracle.to_code(rows, n=n).dual(), dual_span)):
            assert [code.contains(v) for v in planes] == [v in words for v in vectors], rows
            # contains reads the rows when each owns a column, as the zero
            # code's no rows do, and else the reduced rows at their pivots.
            owns = owns_columns([r.coords() for r in code.rows], n)
            paths["rows" if owns else "pivots"] += 1
    # From n = 2 the mixed rows of a k >= 2 code are nonzero at every pivot.
    assert paths["rows"] and (paths["pivots"] or n < 2), paths


@pytest.mark.parametrize("n", (1, 2, 5, 8, 12, 70, 130))
def test_contains_on_rows_that_own_columns_matches_the_oracle(monkeypatch, n):
    from gf4codes import codes
    calls = []
    real = codes.rref
    monkeypatch.setattr(codes, "rref", lambda rows, m: calls.append(m) or real(rows, m))
    rng = random.Random(2600 + n)
    for _ in range(12 if n <= 12 else 4):
        k = rng.randint(1, min(n, 8))
        rows = oracle.rand_owning_rows(rng, n, k)
        probes = [oracle.rand_vec(rng, n) for _ in range(3)]
        for _ in range(4):
            word = (0,) * n
            for row in rows:
                word = oracle.vadd(word, oracle.vscale(rng.randrange(4), row))
            moved = list(word)
            moved[rng.randrange(n)] ^= rng.randrange(1, 4)
            probes += [word, tuple(moved)]
        want = [oracle.orank(rows + [v]) == k for v in probes]
        vectors = [GF4Vector.from_coords(r) for r in rows]
        for code in (LinearCode(vectors), LinearCode.from_rows(vectors)):
            assert [code.contains(GF4Vector.from_coords(v)) for v in probes] == want, rows
    # Neither construction nor membership reduced anything.
    assert not calls


@pytest.mark.parametrize("n", (12, 70, 130))
def test_contains_on_rows_that_do_not_own_columns_matches_the_oracle(monkeypatch, n):
    # Rows nonzero at every column own none of them, so the constructor
    # reduces them, and contains reads each coefficient at a reduced row's
    # pivot without reducing again.
    from gf4codes import codes
    calls = []
    real = codes.rref
    monkeypatch.setattr(codes, "rref", lambda rows, m: calls.append(m) or real(rows, m))
    rng = random.Random(2700 + n)
    for _ in range(6 if n <= 12 else 3):
        k = rng.randint(2, 8)
        rows = [tuple(rng.randrange(1, 4) for _ in range(n)) for _ in range(k)]
        assert oracle.orank(rows) == k and not owns_columns(rows, n)
        probes = [oracle.rand_vec(rng, n) for _ in range(3)]
        for _ in range(4):
            word = (0,) * n
            for row in rows:
                word = oracle.vadd(word, oracle.vscale(rng.randrange(4), row))
            moved = list(word)
            moved[rng.randrange(n)] ^= rng.randrange(1, 4)
            probes += [word, tuple(moved)]
        want = [oracle.orank(rows + [v]) == k for v in probes]
        vectors = [GF4Vector.from_coords(r) for r in rows]
        for code in (LinearCode(vectors), LinearCode.from_rows(vectors)):
            calls.clear()
            assert [code.contains(GF4Vector.from_coords(v)) for v in probes] == want, rows
            assert not calls


def test_from_rows_of_rows_that_own_columns_keeps_no_echelon():
    # Such rows are independent, so from_rows drops none and reduces
    # nothing; its reduced form comes from rref on first read.  The same
    # rows and one dependent row take the forward pass instead, which
    # drops that row and keeps the others, and both reach the one
    # canonical reduced form, so the dual and the odd dual vector agree.
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randrange(1, 40)
        k = rng.randint(1, min(n, 8))
        vectors = [GF4Vector.from_coords(r) for r in oracle.rand_owning_rows(rng, n, k)]
        code = LinearCode.from_rows(vectors)
        assert code._reduced_form is None
        assert code.dropped_rows == () and code.rows == tuple(vectors)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            forward = LinearCode.from_rows(vectors + [vectors[0].scale(2)])
        assert forward.dropped_rows == (k,) and forward.rows == tuple(vectors)
        assert find_odd_dual_vector(code) == find_odd_dual_vector(forward)
        assert code.dual().rows == forward.dual().rows
        assert code._reduced() == forward._reduced() == rref(code.rows, n)


def test_from_rows_attributes_the_dropped_rows_warning_to_its_caller():
    g = GF4Vector.from_digits("1203")
    for rows in ([g, g.scale(2)],
                 # Every row but the dependent last one owns a column.
                 [GF4Vector.from_digits("1000"), GF4Vector.from_digits("0100"),
                  GF4Vector.from_digits("1100")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            LinearCode.from_rows(rows)
        assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def test_dual_dimension_and_orthogonality():
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randrange(1, 12)
        k = rng.randrange(1, n + 1)
        code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        dual = code.dual()
        assert dual.n == n and dual.k == n - k
        for g in code.rows:
            for h in dual.rows:
                assert hermitian_inner(g, h) == 0
        assert code.dual().dual().same_row_space(code)


def test_dual_matches_brute_force():
    rng = random.Random(25)
    for _ in range(15):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, n + 1)
        rows = oracle.rand_code_rows(rng, n, k)
        dual = oracle.to_code(rows).dual()
        dual_words = set(oracle.ospan([r.coords() for r in dual.rows], n))
        assert dual_words == set(oracle.odual_brute(rows, n))


def test_dual_of_full_space_is_zero_code():
    eye = [GF4Vector.from_coords([1 if j == i else 0 for j in range(4)])
           for i in range(4)]
    dual = LinearCode(eye).dual()
    assert (dual.n, dual.k) == (4, 0)
    assert dual.dual().same_row_space(LinearCode(eye))


def test_dual_contains_self_orthogonal_code():
    code = c5_2()
    dual = code.dual()
    assert dual.k == 3
    for g in code.rows:
        assert dual.contains(g)


# ---------------------------------------------------------------------------
# self-orthogonality and evenness predicates
# ---------------------------------------------------------------------------

def test_hermitian_self_orthogonal_cases():
    assert c5_2().is_hermitian_self_orthogonal()
    assert not oracle.to_code([(1,)]).is_hermitian_self_orthogonal()
    assert oracle.to_code([(1, 1)]).is_hermitian_self_orthogonal()


def test_trace_predicate_needs_scaled_generators():
    # the span of (1) has trace product 0 on its lone generator row, but
    # the codeword pair (1, omega) has trace product 1, so a literal
    # generator-row check would get this wrong
    single = oracle.to_code([(1,)])
    assert not single.is_trace_self_orthogonal()
    assert not single.is_hermitian_self_orthogonal()


def test_trace_equals_hermitian_predicate_randomized():
    # The predicate reads the hermitian answer; check it against the trace
    # product of every codeword pair, so k <= 3 keeps the spans small.
    rng = random.Random(26)
    agreed = Counter()
    for i in range(100):
        if i % 3 == 0:
            # A subcode of a self-orthogonal code is self-orthogonal.
            code = LinearCode(rand_so_code(rng).rows[:rng.randrange(1, 4)])
        else:
            n = rng.randrange(1, 10)
            k = rng.randrange(1, min(n, 3) + 1)
            code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        words = oracle.ospan([r.coords() for r in code.rows], code.n)
        brute = all(oracle.otrace_ip(u, v) == 0 for u in words for v in words)
        assert code.is_trace_self_orthogonal() == brute
        agreed[brute] += 1
    assert min(agreed[True], agreed[False]) > 20


def test_is_even():
    assert c5_2().is_even()
    assert not oracle.to_code([(1, 0)]).is_even()
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randrange(1, 9)
        k = rng.randrange(1, n + 1)
        code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        words = oracle.ospan([r.coords() for r in code.rows], n)
        assert code.is_even() == all(oracle.wt(w) % 2 == 0 for w in words)


def test_is_self_dual():
    hexacode = oracle.to_code(oracle.HEXACODE_ROWS)
    assert hexacode.is_self_dual()
    assert not c5_2().is_self_dual()
    assert not oracle.to_code([(1, 0), (0, 1)]).is_self_dual()


# ---------------------------------------------------------------------------
# shortening
# ---------------------------------------------------------------------------

def test_shorten_hexacode_every_coordinate():
    hexacode = oracle.to_code(oracle.HEXACODE_ROWS)
    for pos in range(6):
        short = hexacode.shorten(pos)
        assert (short.n, short.k) == (5, 2)
        assert short.is_hermitian_self_orthogonal()
        words = oracle.ospan([r.coords() for r in short.rows], 5)
        assert min(oracle.wt(w) for w in words if any(w)) == 4


def test_shorten_matches_naive_definition():
    rng = random.Random(28)
    for _ in range(25):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        rows = oracle.rand_code_rows(rng, n, k)
        pos = rng.randrange(n)
        short = oracle.to_code(rows).shorten(pos)
        expect = {w[:pos] + w[pos + 1:]
                  for w in oracle.ospan(rows, n) if w[pos] == 0}
        got = set(oracle.ospan([r.coords() for r in short.rows], n - 1))
        assert got == expect


def test_shorten_at_always_zero_coordinate_keeps_dimension():
    base = c5_2()
    padded = LinearCode([append(r, 0) for r in base.rows])
    short = padded.shorten(5)
    assert short.k == base.k
    assert short.rows == base.rows


def test_shorten_bounds():
    with pytest.raises(IndexError):
        c5_2().shorten(5)
    with pytest.raises(IndexError):
        c5_2().shorten(-1)


def test_shorten_preserves_self_orthogonality():
    rng = random.Random(29)
    for _ in range(20):
        code = rand_so_code(rng)
        assert code.is_hermitian_self_orthogonal()
        short = code.shorten(rng.randrange(code.n))
        assert short.is_hermitian_self_orthogonal()


# ---------------------------------------------------------------------------
# circulant construction
# ---------------------------------------------------------------------------

def test_circulant_rows_are_right_shifts():
    first = (0, 0, 0, 0, 1, 0, 0, 2, 1, 0, 2, 3, 3)
    code = circulant(GF4Vector.from_coords(first), 6)
    assert code.k == 6
    row = list(first)
    for got in code.rows:
        assert got.coords() == tuple(row)
        row = [row[-1]] + row[:-1]


def test_circulant_single_row():
    v = GF4Vector.from_digits("123")
    assert circulant(v, 1).rows == (v,)


def test_circulant_range_check():
    v = GF4Vector.from_digits("123")
    with pytest.raises(ValueError):
        circulant(v, 0)
    with pytest.raises(ValueError):
        circulant(v, 4)


def test_circulant_dependent_shifts_warn():
    with pytest.warns(UserWarning, match="dependent"):
        code = circulant(GF4Vector.from_digits("111"), 3)
    assert code.k == 1


# ---------------------------------------------------------------------------
# row-space comparison
# ---------------------------------------------------------------------------

def test_same_row_space():
    code = c5_2()
    scrambled = LinearCode([code.rows[0].scale(3),
                            code.rows[1] + code.rows[0].scale(2)])
    assert code.same_row_space(scrambled)
    assert not code.same_row_space(code.dual())
    assert not code.same_row_space(LinearCode([code.rows[0]]))


# ---------------------------------------------------------------------------
# each code reduced once: owned columns, the lazy reduced form, whole rows
# ---------------------------------------------------------------------------

# One word past 30 and 64 bits on either side, and the longest doubled code
# the benchmark sweep builds.
TEXT_LENGTHS = (0, 1, 29, 30, 31, 60, 61, 64, 65, 130, 402)


def oracle_text(rows, n):
    return "".join(f"{line}\n" for line in
                   [f"{n} {len(rows)}"] + [" ".join(str(x) for x in r) for r in rows])


@pytest.mark.parametrize("n", TEXT_LENGTHS)
def test_emit_parse_round_trip_against_the_oracle(n):
    rng = random.Random(3000 + n)
    for k in sorted({0, min(n, 1), min(n, 3), min(n, 7)}):
        rows = oracle.rand_code_rows(rng, n, k) if k else []
        code = oracle.to_code(rows, n=n)
        text = emit_matrix(code)
        assert text == oracle_text(rows, n)
        again = parse_matrix(text)
        assert (again.n, again.k) == (n, k)
        assert [r.coords() for r in again.rows] == rows


@pytest.mark.parametrize("text, message", [
    ("3 1\n1 0\n", "line 2: expected 3 entries, found 2"),
    ("3 1\n1 0 1 1\n", "line 2: expected 3 entries, found 4"),
    ("2 1\n01 1\n", "line 2: invalid digit '01'"),
    ("2 1\n1 01\n", "line 2: invalid digit '01'"),
    ("3 1\n1 4 0\n", "line 2: invalid digit '4'"),
    ("3 1\n1 x 4\n", "line 2: invalid digit 'x'"),
    ("3 1\n1 ٣ 0\n", "line 2: invalid digit '٣'"),
    ("3 1\n1 -1 0\n", "line 2: invalid digit '-1'"),
    ("3 1\n1 _ 0\n", "line 2: invalid digit '_'"),
    ("# c\n3 2\n1 0 0\n\n1 2 3a\n", "line 5: invalid digit '3a'"),
    ("2 2\n1 0\n0 1\n1 1\n", "line 4: more than 2 rows"),
    # Near misses of the layout emit_matrix writes, which parse_matrix
    # reads all at once; each must fail as the line-by-line reader fails.
    pytest.param("3 2\n1 0 1\n1\t4\t0\n", "line 3: invalid digit '4'", id="tabs"),
    pytest.param("3 2\n1 0 1\n1  0\n", "line 3: expected 3 entries, found 2",
                 id="double-spaces"),
    pytest.param("3 2\n1 0 1 \n1 0 \n", "line 3: expected 3 entries, found 2",
                 id="trailing-spaces"),
    pytest.param("3 2\n1 0 1\n1 0 11\n", "line 3: invalid digit '11'", id="multi-digit"),
    pytest.param("3 2\n1 0 1\n1 2 x\n", "line 3: invalid digit 'x'", id="even-position"),
    pytest.param("3 2\n1 0 1\n1,0,1\n", "line 3: expected 3 entries, found 1", id="commas"),
    pytest.param("3 1\n101 1\n", "line 2: expected 3 entries, found 2",
                 id="multi-digit-at-row-length"),
    pytest.param("3 2\r\n1 0 1\r\n1 2\r\n", "line 3: expected 3 entries, found 2", id="crlf"),
    pytest.param("# c\n3 2\n\n1 0 1\n# c\n\n1 2 4\n", "line 7: invalid digit '4'",
                 id="comments-and-blanks"),
    pytest.param("3 2\n1 0 1\n", "expected 2 rows, found only 1", id="too-few-rows"),
    pytest.param(f"{10 ** 20} 1\n1 0 1\n", f"line 2: expected {10 ** 20} entries, found 3",
                 id="huge-header"),
    pytest.param("3 1\n1 0 1\n1 0 1\n", "line 3: more than 1 rows", id="too-many-rows"),
])
def test_malformed_rows_keep_their_messages(text, message):
    with pytest.raises(MatrixFormatError) as info:
        parse_matrix(text)
    assert str(info.value) == message


# Texts that parse, in the layout emit_matrix writes and around it.
PARSED = {
    "canonical": "3 2\n1 0 1\n0 1 2\n",
    "tabs": "3 2\n1\t0\t1\n0\t1\t2\n",
    "double-spaces": "3 2\n1  0 1\n0 1  2\n",
    "trailing-spaces": "3 2\n1 0 1 \n  0 1 2\t\n",
    "crlf": "3 2\r\n1 0 1\r\n0 1 2\r\n",
    "comments-and-blanks": "# c\n3 2\n\n1 0 1\n# c\n\n0 1 2\n# done\n",
    "no-final-newline": "3 2\n1 0 1\n0 1 2",
    "dependent-row": "3 3\n1 0 1\n0 1 2\n1 1 3\n",
    "one-column": "1 1\n3\n",
    "zero-code": "4 0\n",
}


def parse_outcome(text):
    """The length, rows and dropped rows parse_matrix gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = parse_matrix(text)
    return code.n, code.rows, code.dropped_rows


@pytest.mark.parametrize("text", PARSED.values(), ids=PARSED)
def test_parse_fast_and_general_paths_agree(monkeypatch, text):
    # The malformed rows above check the errors of both paths: a fast path
    # that took any of them would not raise.
    from gf4codes import codes
    fast = parse_outcome(text)
    monkeypatch.setattr(codes, "_canonical_rows", lambda lines, n, k: None)
    assert fast == parse_outcome(text)


@pytest.mark.parametrize("n", (1, 2, 9, 64, 65, 200, 402))
def test_emitted_rows_take_the_fast_path(monkeypatch, n):
    from gf4codes import codes
    real = codes._canonical_rows
    taken = []
    monkeypatch.setattr(codes, "_canonical_rows",
                        lambda lines, n, k: taken.append(real(lines, n, k)) or taken[-1])
    rng = random.Random(4100 + n)
    for k in range(1, min(n, 8) + 1):
        rows = oracle.rand_code_rows(rng, n, k)
        again = parse_matrix(emit_matrix(oracle.to_code(rows)))
        assert taken[-1] is not None
        assert [r.coords() for r in again.rows] == rows


@pytest.mark.parametrize("n", (1, 2, 9, 63, 64, 65, 200, 402))
def test_emit_matrix_matches_the_per_row_form(n):
    rng = random.Random(4000 + n)
    for k in range(min(n, 8) + 1):
        code = oracle.to_code(oracle.rand_code_rows(rng, n, k) if k else [], n=n)
        lines = [f"{n} {k}"] + [" ".join(row.to_digits()) for row in code.rows]
        assert emit_matrix(code) == "\n".join(lines) + "\n"
    assert emit_matrix(LinearCode((), n=0)) == "0 0\n"


def owns_columns(rows, n):
    """True if each row is nonzero at a column where every other row is 0."""
    return all(any(r[c] and not any(s[c] for j, s in enumerate(rows) if j != i)
                   for c in range(n))
               for i, r in enumerate(rows))


def test_codes_with_and_without_owned_columns_agree_with_the_oracle():
    rng = random.Random(31)
    seen = set()
    for trial in range(120):
        n = rng.choice((3, 5, 8, 31, 65))
        k = rng.randrange(1, min(n, 4) + 1)
        if trial % 2:
            # Nonzero everywhere: no row owns a column once k >= 2.
            rows = [tuple(rng.randrange(1, 4) for _ in range(n)) for _ in range(k)]
            if oracle.orank(rows) < k:
                continue
        else:
            rows = oracle.rand_code_rows(rng, n, k)
        seen.add(owns_columns(rows, n))
        code = oracle.to_code(rows)
        for _ in range(6):
            v = rng.choice((oracle.rand_vec(rng, n),
                            oracle.vadd(rows[0], oracle.vscale(2, rows[-1]))))
            assert code.contains(GF4Vector.from_coords(v)) == (oracle.orank(rows + [v]) == k)
        other = rows[1:] + [oracle.vadd(rows[0], oracle.vscale(3, rows[-1]))]
        if rng.random() < 0.5:
            other[0] = oracle.rand_vec(rng, n)
        if oracle.orank(other) == k:
            assert code.same_row_space(oracle.to_code(other)) == \
                (oracle.orref(rows, n) == oracle.orref(other, n))
    assert seen == {True, False}


def test_dependent_and_zero_rows_still_raise():
    g = GF4Vector.from_digits("1203")
    h = GF4Vector.from_digits("0110")
    for rows in ([GF4Vector(4)], [g, GF4Vector(4)], [GF4Vector(4), g],
                 [g, h, g + h.scale(2)], [g, g.scale(3)],
                 # Every row but the dependent last one owns a column.
                 [GF4Vector.from_digits("1000"), GF4Vector.from_digits("0100"),
                  GF4Vector.from_digits("1100")]):
        with pytest.raises(ValueError, match="linearly dependent"):
            LinearCode(rows)


def test_insert_rejects_a_pivot_row_that_is_not_1_at_its_pivot():
    # An echelon row scaled to omega or omega**2 at its pivot bit cannot
    # clear that bit: the row would cycle through its multiples forever.
    for bad in _multiples(1, 0)[1:]:
        for c in (1, 2, 3):
            row = _multiples(0b101, 0)[c - 1]
            with pytest.raises(ConsistencyError, match="pivot row of column 0"):
                _insert({1: _multiples(*bad)}, *row)


def test_from_rows_drops_exactly_the_rows_the_oracle_rank_ignores():
    rng = random.Random(32)
    for _ in range(60):
        n = rng.choice((2, 4, 7, 31, 65))
        base = [oracle.rand_vec(rng, n) for _ in range(rng.randrange(1, 5))]
        rows = list(base)
        for _ in range(rng.randrange(0, 4)):
            a, b = rng.choice(base), rng.choice(rows)
            rows.insert(rng.randrange(len(rows) + 1),
                        rng.choice((oracle.vadd(a, oracle.vscale(rng.randrange(4), b)),
                                    (0,) * n)))
        if not any(oracle.wt(r) for r in rows):
            continue
        kept, dropped = [], []
        for i, r in enumerate(rows):
            if oracle.orank(kept + [r]) > len(kept):
                kept.append(r)
            else:
                dropped.append(i)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = LinearCode.from_rows([GF4Vector.from_coords(r) for r in rows])
        assert [r.coords() for r in code.rows] == kept
        assert code.dropped_rows == tuple(dropped)
        messages = [str(w.message) for w in caught]
        if dropped:
            assert messages == [f"dropped {len(dropped)} dependent generator "
                                f"row(s) at indices {dropped}"]
        else:
            assert messages == []


def test_dual_reduces_only_the_codes_own_rows(monkeypatch):
    from gf4codes import codes
    calls = []
    real = codes.rref

    def counting(rows, n):
        calls.append(len(rows))
        return real(rows, n)

    monkeypatch.setattr(codes, "rref", counting)
    rng = random.Random(33)
    for n, k in ((8, 3), (31, 5), (130, 4), (402, 6)):
        calls.clear()
        rows = oracle.rand_code_rows(rng, n, k)
        dual = oracle.to_code(rows).dual()
        assert calls.count(n - k) == 0 and len(calls) <= 1
        assert [h.coords() for h in dual.rows] == oracle.odual_basis(rows, n)
        # Each dual row owns its free column, so membership reads the
        # coefficients there and reduces nothing.
        before = len(calls)
        assert dual.contains(dual.rows[-1])
        assert len(calls) == before
        # The dual's own reduced form is made when first needed.
        dual._reduced()
        assert calls[-1] == n - k and len(calls) == before + 1


# ---------------------------------------------------------------------------
# the lazy dual basis and the parity-mask odd row
# ---------------------------------------------------------------------------

def test_dual_rows_match_the_oracle_basis_for_every_k():
    rng = random.Random(37)
    for n in range(13):
        for k in range(n + 1):
            rows = oracle.rand_code_rows(rng, n, k)
            code = oracle.to_code(rows, n=n)
            dual = code.dual()
            assert (dual.n, dual.k) == (n, n - k)
            assert [h.coords() for h in dual.rows] == oracle.odual_basis(rows, n), rows
            found = find_odd_dual_vector(code)
            got = None if found is None else found.vector.coords()
            assert got == oracle.ofind_odd_dual(rows, n), rows


def test_dual_k_and_the_odd_row_build_no_basis(monkeypatch):
    from gf4codes import codes
    real = codes._dual_rows

    def refuse(n, reduced, columns):
        raise AssertionError("a dual row was built")

    def one_row_only(n, reduced, columns):
        if columns & (columns - 1):
            raise AssertionError("more than one dual row was built")
        return real(n, reduced, columns)

    rng = random.Random(38)
    odd_rows = 0
    for _ in range(40):
        n = rng.randrange(2, 30, 2)  # even n: the all-one vector never qualifies
        k = rng.randrange(0, n)
        rows = oracle.rand_code_rows(rng, n, k)
        basis = oracle.odual_basis(rows, n)
        first_odd = next((y for y in basis if oracle.wt(y) % 2 == 1), None)
        monkeypatch.setattr(codes, "_dual_rows", refuse)
        assert oracle.to_code(rows, n=n).dual().k == n - k
        if first_odd is None:
            continue
        monkeypatch.setattr(codes, "_dual_rows", one_row_only)
        found = find_odd_dual_vector(oracle.to_code(rows, n=n))
        assert found.vector.coords() == first_odd
        odd_rows += 1
    assert odd_rows >= 20


def test_lazy_dual_agrees_with_a_code_built_from_its_rows():
    rng = random.Random(39)
    for n, k in ((1, 0), (3, 3), (5, 2), (8, 4), (12, 1), (40, 6)):
        rows = oracle.rand_code_rows(rng, n, k)

        def lazy():
            # A fresh primal each time, so every call reads an unbuilt dual.
            return oracle.to_code(rows, n=n).dual()

        eager = LinearCode(lazy().rows, n=n)
        assert lazy() == eager and eager == lazy()
        assert hash(lazy()) == hash(eager)
        assert repr(lazy()) == repr(eager) == f"LinearCode([{n},{n - k}])"
        probes = [GF4Vector.from_coords(oracle.rand_vec(rng, n)) for _ in range(10)]
        probes += eager.rows
        for v in probes:
            assert lazy().contains(v) == eager.contains(v)
        assert lazy().same_row_space(eager) and eager.same_row_space(lazy())
        assert emit_matrix(lazy()) == emit_matrix(eager)
        if eager.k:
            assert parse_matrix(emit_matrix(lazy())) == eager
        assert lazy().dual() == eager.dual()
        assert lazy().dual().same_row_space(oracle.to_code(rows, n=n))


def test_dual_keeps_no_reference_to_its_code():
    rng = random.Random(40)
    rows = oracle.rand_code_rows(rng, 20, 5)
    gc.disable()
    try:
        code = oracle.to_code(rows)
        dual = code.dual()
        ref = weakref.ref(code)
        del code
        # Only reference counting runs: a cycle would keep the code alive.
        assert ref() is None
        assert [h.coords() for h in dual.rows] == oracle.odual_basis(rows, 20)
    finally:
        gc.enable()


def test_from_rows_finishes_its_own_reduction():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(1, 40)
        rows = oracle.rand_code_rows(rng, n, rng.randrange(1, min(n, 8) + 1))
        rows.append(oracle.vadd(rows[0], rows[-1]))
        rng.shuffle(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = LinearCode.from_rows([GF4Vector.from_coords(r) for r in rows])
        reduced = code._reduced()
        assert reduced == rref(code.rows, n)
        assert [tuple(r.coords()) for r in reduced[1]] == list(oracle.orref(rows, n)[1])


def test_contains_before_and_after_the_reduced_form_is_read():
    # A from_rows code that dropped a row answers contains the same on
    # every call, and its reduced form, computed once, is rref's of the
    # rows it kept.
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(1, 40)
        k = rng.randrange(1, min(n, 6) + 1)
        rows = oracle.rand_code_rows(rng, n, k)
        given = rows + [oracle.vadd(rows[0], oracle.vscale(2, rows[-1]))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = LinearCode.from_rows([GF4Vector.from_coords(r) for r in given])
        probes = [oracle.rand_vec(rng, n) for _ in range(6)]
        probes += [oracle.vadd(rows[0], oracle.vscale(3, rows[-1])), (0,) * n]
        want = [oracle.orank(rows + [p]) == k for p in probes]
        vectors = [GF4Vector.from_coords(p) for p in probes]
        assert [code.contains(v) for v in vectors] == want
        assert [code.contains(v) for v in vectors] == want
        assert code._reduced() == rref(code.rows, n)
        assert [code.contains(v) for v in vectors] == want
        assert code._reduced() == rref(code.rows, n)
