"""Weight enumeration, MacWilliams transform, distance extraction."""

import random
import tracemalloc

import pytest

from gf4codes import (BudgetExceededError, ConsistencyError, FormatError,
                      GF4Vector, LinearCode, WeightEnumerator, catalog,
                      dual_distance, format_enumerator, macwilliams,
                      QuantumParams, min_distance, parse_enumerator, quantum_params,
                      weight_enumerator)
from gf4codes import enumerator
from gf4codes.gf4 import hermitian_inner

import oracle

FROZEN_PROFILES = {
    "c5_2": (1, 0, 0, 0, 15, 0),
    "hexacode_shortened": (1, 0, 0, 0, 15, 0),
    "hexacode": (1, 0, 0, 0, 45, 0, 18),
    "c8_4": (1, 0, 0, 0, 42, 0, 168, 0, 45),
    "c8_4_shortened": (1, 0, 0, 0, 21, 0, 42, 0),
    "c13_6_a": (1, 0, 0, 0, 0, 0, 156, 0, 1053, 0, 2028, 0, 858, 0),
    "c13_6_b": (1, 0, 0, 0, 0, 0, 156, 0, 1053, 0, 2028, 0, 858, 0),
    "c14_7": (1, 0, 0, 0, 0, 0, 273, 0, 2457, 0, 7098, 0, 6006, 0, 549),
}

FROZEN_DUAL_DISTANCES = {
    "c5_2": 3,
    "hexacode_shortened": 3,
    "hexacode": 4,
    "c8_4": 4,
    "c8_4_shortened": 3,
    "c13_6_a": 5,
    "c13_6_b": 5,
    "c14_7": 6,
}


def identity_code(n):
    return LinearCode([GF4Vector.from_coords([1 if j == i else 0 for j in range(n)])
                       for i in range(n)])


# ---------------------------------------------------------------------------
# weight_enumerator
# ---------------------------------------------------------------------------

def test_frozen_catalog_profiles():
    for name, profile in FROZEN_PROFILES.items():
        code = catalog.get(name).code
        w = weight_enumerator(code)
        assert w.coefficients == profile, name
        assert w.total() == 4 ** code.k
        assert w[0] == 1


def test_zero_code_enumerator():
    # No projective words: the general walk alone gives (1, 0, ..., 0).
    for n in (0, 1, 5, 65):
        for partitions in (1, 2, 7):
            w = weight_enumerator(LinearCode((), n=n), partitions=partitions)
            assert w.coefficients == (1,) + (0,) * n


def test_full_space_enumerator():
    w = weight_enumerator(identity_code(4))
    from math import comb
    assert w.coefficients == tuple(comb(4, j) * 3 ** j for j in range(5))


def test_matches_naive_enumeration():
    rng = random.Random(40)
    for _ in range(50):
        n = rng.randrange(1, 11)
        k = rng.randrange(1, min(n, 4) + 1)
        rows = oracle.rand_code_rows(rng, n, k)
        got = weight_enumerator(oracle.to_code(rows))
        assert list(got.coefficients) == oracle.owenum(rows, n)


def test_partition_counts_are_equivalent():
    # `partitions` is accepted and changes nothing, also past the 85
    # projective codewords of a [65,4] code.
    rng = random.Random(41)
    codes = [oracle.to_code(oracle.rand_code_rows(rng, 9, 3)),
             oracle.to_code(oracle.rand_code_rows(rng, 65, 4)),
             catalog.get("c13_6_a").code]
    for code in codes:
        base = weight_enumerator(code, partitions=1)
        for parts in (2, 3, 5, 7, 8, 64, 85, 86, 1000):
            assert weight_enumerator(code, partitions=parts) == base


def test_partitions_past_the_projective_words_cost_nothing():
    # c5_2 has 5 projective words; a larger partition count changes nothing.
    code = catalog.get("c5_2").code
    base = weight_enumerator(code)
    for parts in (5, 6, 3_000_000, 10 ** 12):
        assert weight_enumerator(code, partitions=parts) == base


def test_matches_naive_enumeration_past_a_machine_word():
    # bitplanes wider than 64 bits
    rng = random.Random(46)
    for n in (65, 130):
        for k in (1, 2, 3, 4):
            rows = oracle.rand_code_rows(rng, n, k)
            got = weight_enumerator(oracle.to_code(rows))
            assert list(got.coefficients) == oracle.owenum(rows, n), (n, k)


def test_bitsliced_chunks_match_naive_enumeration(monkeypatch):
    # Chunks of 4^2 words: blocks past row 2 take several chunks with outer
    # offsets, and each is counted at every length once sliced (threshold
    # 0) and once walked (a threshold no chunk meets), so both paths of the
    # chunked count are taken.  Every length up to 70 sums its planes to
    # every count depth up to 7, including the lengths 2^j - 1, 2^j and
    # 2^j + 1 where the count gains a plane.  A code whose length is a
    # multiple of 3 and exceeds k has a zero column, whose plane and
    # carries are zero.
    monkeypatch.setattr(enumerator, "_SLICE_MAX_ROWS", 2)
    rng = random.Random(47)
    for n in range(1, 71):
        k = rng.randrange(1, min(n, 5) + 1)
        if n % 3 or k == n:
            rows = oracle.rand_code_rows(rng, n, k)
        else:
            zero = rng.randrange(n)
            rows = [r[:zero] + (0,) + r[zero:] for r in oracle.rand_code_rows(rng, n - 1, k)]
        code = oracle.to_code(rows)
        want = oracle.owenum(rows, n)
        for threshold in (0, 10 ** 9):
            monkeypatch.setattr(enumerator, "_SLICE_MIN_WORDS_PER_COORD", threshold)
            assert list(weight_enumerator(code).coefficients) == want, (n, threshold)


def test_bitsliced_blocks_match_the_walk(monkeypatch):
    # The default threshold chunks the large blocks of these codes, past a
    # machine word too; a threshold no chunk meets walks every chunk word
    # by word.
    rng = random.Random(48)
    for n, k in ((5, 5), (13, 6), (40, 6), (70, 7), (130, 7)):
        code = oracle.to_code(oracle.rand_code_rows(rng, n, k))
        sliced = weight_enumerator(code)
        with monkeypatch.context() as patch:
            patch.setattr(enumerator, "_SLICE_MIN_WORDS_PER_COORD", 10 ** 9)
            assert weight_enumerator(code) == sliced, (n, k)


def test_parity_tables_match_the_division_formula():
    # Pattern t as runs of 2**t zeros and ones, one division of the 2**m-bit
    # all-ones integer each: the closed form the halving replaces.
    def span(base):
        table = [0]
        for pattern in base:
            table += [x ^ pattern for x in table]
        return table

    for m in range(15):
        ones = (1 << (1 << m)) - 1
        patterns = [(((1 << (1 << t)) - 1) << (1 << t)) * (ones // ((1 << (2 << t)) - 1))
                    for t in range(m)]
        split = m // 2
        assert enumerator._parity_tables(m) == (
            split, span(patterns[:split]), span(patterns[split:])), m


def test_bitsliced_count_holds_few_planes_at_once():
    # 4^7 >= 5 * 3000, so block 7 of a [3000, 8] code is one sliced chunk
    # of 2 KiB planes.  The adder holds at most two planes a level, and the
    # call peaks under 1 MiB; holding all 3000 planes at once takes 6 MiB.
    rng = random.Random(49)
    code = LinearCode([GF4Vector(3000, rng.getrandbits(3000), rng.getrandbits(3000))
                       for _ in range(8)])
    weight_enumerator(code)  # the parity tables are built once per process
    tracemalloc.start()
    try:
        weight_enumerator(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_partition_validation():
    with pytest.raises(ValueError):
        weight_enumerator(catalog.get("c5_2").code, partitions=0)
    # A count that is not an integer fails on every code, whether or not
    # the code has a block to count.
    for code in (catalog.get("c5_2").code, LinearCode([GF4Vector.from_digits("11")]),
                 LinearCode((), n=3)):
        for partitions in (2.5, 1.0, "2"):
            with pytest.raises(TypeError):
                weight_enumerator(code, partitions=partitions)


def test_budget_enforcement():
    with pytest.raises(BudgetExceededError, match="budget"):
        weight_enumerator(identity_code(17))
    with pytest.raises(BudgetExceededError):
        weight_enumerator(identity_code(3), max_dim=2)
    # raising the cap unlocks the computation
    assert weight_enumerator(identity_code(3), max_dim=3).total() == 64


def test_column_rule_on_keys_wider_than_a_machine_word():
    # 40 rows take 16-byte column keys, past the widths struct unpacks.
    # Column 59 is omega times column 3, so they give the one weight-2
    # dual word, and a budget of 40 lets the column rule settle it.
    rng = random.Random(49)
    rows = [list(r) for r in oracle.rand_code_rows(rng, 60, 40)]
    for row in rows:
        row[59] = (0, 2, 3, 1)[row[3]]
    code = oracle.to_code(rows)
    word = next(enumerator._short_dual_words(code))
    assert [j for j in range(60) if word[j]] == [3, 59]
    assert all(hermitian_inner(word, g) == 0 for g in code.rows)
    assert dual_distance(code, max_dim=40) == 2


def expected_short_words(rows, n):
    """The words `_short_dual_words` yields for a code with no zero column,
    in order: the owned pair, if a row owns two columns, then each column j
    paired with the first column i of its class, conj(b) at i and conj(a)
    at j for first nonzero digits a and b."""
    cols = list(zip(*rows))
    pair = oracle.oowned_pair(rows, n)
    want = [] if pair is None else [pair]
    first = {}
    for j, col in enumerate(cols):
        lead = next(c for c in col if c)
        i = first.setdefault(tuple(oracle.vscale(oracle.oinv(lead), col)), j)
        if i != j:
            word = [0] * n
            word[i], word[j] = oracle.oconj(lead), oracle.oconj(next(c for c in cols[i] if c))
            want.append(tuple(word))
    return want


def test_column_classes_fill_every_lane_width():
    # Keys of k = 4, 8, 16 and 32 digits fill a 1-, 2-, 4- and 8-byte lane
    # exactly, and one digit more takes the next width.  Columns are scaled
    # copies of a few points whose last digit is 2 or 3, so the keys use
    # their highest digit, and every word must pair a column with the
    # first of its class, as the columns themselves say, after the owned
    # pair if the last row owns two columns.
    rng = random.Random(50)
    for k in (3, 4, 5, 8, 9, 16, 17, 32, 33):
        while True:
            points = [oracle.rand_vec(rng, k - 1) + (rng.choice((2, 3)),) for _ in range(k)]
            cols = [oracle.vscale(rng.randrange(1, 4), rng.choice(points)) for _ in range(3 * k)]
            rows = [tuple(col[r] for col in cols) for r in range(k)]
            if oracle.orank(rows) == k:
                break
        got = [word.coords() for word in enumerator._short_dual_words(oracle.to_code(rows))]
        assert got == expected_short_words(rows, 3 * k), k


def test_owned_pair_comes_first_and_every_word_is_a_short_dual_word():
    # Random codes whose rows own columns, where a row often owns two, and
    # random codes, where one rarely does.  Every word has weight 2, is
    # orthogonal to every row and pairs two proportional columns; the owned
    # pair comes first and the scan's words follow it unchanged.  A zero
    # column gives its weight-1 word alone.
    rng = random.Random(51)
    firsts = {"zero column": 0, "owned pair": 0, "scan": 0}
    for _ in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(n, 4))
        rows = (oracle.rand_owning_rows if rng.random() < 0.7 else oracle.rand_code_rows)(
            rng, n, k)
        cols = list(zip(*rows))
        code = oracle.to_code(rows)
        words = [word.coords() for word in enumerator._short_dual_words(code)]
        assert all(oracle.oherm(w, g) == 0 for w in words for g in rows)
        w = oracle.owenum(rows, n)
        wd = oracle.omacwilliams(w, k)
        d_dual = next((j for j in range(1, n + 1) if wd[j]), n + 1)
        assert dual_distance(code) == d_dual, rows
        if (0,) * k in cols:
            zero = cols.index((0,) * k)
            assert words == [tuple(int(c == zero) for c in range(n))]
            firsts["zero column"] += 1
            continue
        for word in words:
            i, j = (c for c in range(n) if word[c])
            assert any(oracle.vscale(c, cols[i]) == cols[j] for c in (1, 2, 3))
        assert words == expected_short_words(rows, n)
        assert (d_dual == 2) == bool(words)
        firsts["scan" if oracle.oowned_pair(rows, n) is None else "owned pair"] += 1
    assert min(firsts.values()) > 20, firsts


def test_owned_pair_settles_the_dual_distance_without_column_keys(monkeypatch):
    # 3n <= 4**k - 1, so the columns need not hold two proportional ones,
    # and no column is zero.
    rng = random.Random(52)
    code = None
    while code is None:
        rows = oracle.rand_owning_rows(rng, 12, 3)
        if all(any(col) for col in zip(*rows)) and oracle.oowned_pair(rows, 12):
            code = oracle.to_code(rows)

    def no_keys(*args):
        raise AssertionError("column keys built")

    monkeypatch.setattr(enumerator, "_column_lanes", no_keys)
    assert dual_distance(code) == 2
    assert next(enumerator._short_dual_words(code)).coords() == oracle.oowned_pair(rows, 12)


def test_owned_pair_inside_the_code_leaves_the_scan_to_decide():
    # Row 0 owns columns 0 and 1, and its pair (1, 1, 0, 0, 0, 0) is row 0
    # itself; the scan then pairs column 2 with columns 3..5, outside it.
    code = LinearCode([GF4Vector.from_digits("110000"), GF4Vector.from_digits("001111")])
    first = next(enumerator._short_dual_words(code))
    assert first.to_digits() == "110000" and code.contains(first)
    assert quantum_params(code) == QuantumParams(6, 2, 2, 2, True, False)


def test_zero_column_comes_before_the_owned_pair():
    # Row 0 owns columns 0 and 1, but column 2 is zero.
    code = LinearCode([GF4Vector.from_digits("11000")])
    assert [w.to_digits() for w in enumerator._short_dual_words(code)] == ["00100"]
    assert dual_distance(code) == 1
    assert quantum_params(code) == QuantumParams(5, 3, 1, 1, True, False)


@pytest.mark.parametrize("k", (1, 3, 4, 7, 8, 15, 16, 31, 32, 33))
def test_column_lanes_match_a_per_row_transpose(k):
    # Every lane width from the least that holds k digits, 1 to 8 bytes and
    # the wider fallback, against keys summed column by column.
    rng = random.Random(5000 + k)
    for n in (1, 5, 64, 130):
        rows = [oracle.rand_vec(rng, n) for _ in range(k)]
        vectors = [GF4Vector.from_coords(r) for r in rows]
        for width in (1, 2, 4, 8, 16):
            if width < enumerator._lane_width(k):
                continue
            want = 0
            for i in range(n):
                key = sum(row[i] << 2 * r for r, row in enumerate(rows))
                want |= key << 8 * width * i
            assert enumerator._column_lanes(vectors, n, width) == want, (n, width)


def test_dual_distance_past_the_projective_points():
    # With 3n > 4**k - 1 the columns outnumber the points of PG(k-1, 4):
    # the answer is 1 with a zero column, else 2, from the zero column, the
    # owned pair or the key scan.
    rng = random.Random(51)
    seen = set()
    sizes = [(n, k) for n in range(2, 10) for k in (1, 2)] + [(n, 3) for n in range(22, 31)]
    for n, k in sizes:
        if 3 * n > 4 ** k - 1:
            for trial in range(12):
                rows = oracle.rand_code_rows(rng, n, k)
                if trial % 3 == 0:
                    zero = rng.randrange(n)
                    rows = [r[:zero] + (0,) + r[zero + 1:] for r in rows]
                    if oracle.orank(rows) < k:
                        continue
                dual = oracle.omacwilliams(oracle.owenum(rows, n), k)
                want = next(j for j in range(1, n + 1) if dual[j])
                assert dual_distance(oracle.to_code(rows)) == want, rows
                seen.add(want)
    assert seen == {1, 2}


def test_budget_is_checked_before_the_column_rule():
    # Column 2 is zero, which alone settles d_dual = d = 1.
    code = LinearCode([GF4Vector.from_digits("110")])
    for call in (dual_distance, quantum_params):
        with pytest.raises(BudgetExceededError, match="budget"):
            call(code, max_dim=0)
    assert dual_distance(code, max_dim=1) == quantum_params(code, max_dim=1).d == 1


def test_negative_budget_is_rejected():
    code = catalog.get("c5_2").code
    for call in (weight_enumerator, dual_distance, quantum_params):
        with pytest.raises(ValueError, match="max_dim must be nonnegative, got -1"):
            call(code, max_dim=-1)
    with pytest.raises(ValueError, match="max_dim must be nonnegative, got -1"):
        weight_enumerator(LinearCode((), n=3), max_dim=-1)


# ---------------------------------------------------------------------------
# macwilliams
# ---------------------------------------------------------------------------

def test_krawtchouk_columns_match_the_closed_form():
    for n in range(41):
        for i in range(n + 1):
            assert enumerator._krawtchouk(n, i) == tuple(
                oracle.okrawtchouk(n, j, i) for j in range(n + 1)), (n, i)


def test_matches_naive_macwilliams_on_self_orthogonal_codes():
    # any rows of a self-dual code span a self-orthogonal code
    rng = random.Random(48)
    for length in (2, 6, 8, 14, 20, 66, 130):
        for _ in range(3):
            rows = oracle.rand_self_dual_rows(rng, length)
            k = rng.randrange(1, min(len(rows), 4) + 1)
            rows = rng.sample(rows, k)
            w = WeightEnumerator(tuple(oracle.owenum(rows, length)))
            got = macwilliams(w, k)
            assert list(got.coefficients) == oracle.omacwilliams(list(w.coefficients), k)
            assert got.total() == 4 ** (length - k)


def test_frozen_dual_of_c5_2():
    w = weight_enumerator(catalog.get("c5_2").code)
    assert macwilliams(w, 2).coefficients == (1, 0, 0, 30, 15, 18)


def test_zero_code_dual_is_full_space():
    from math import comb
    w = WeightEnumerator((1, 0, 0, 0, 0, 0))
    assert macwilliams(w, 0).coefficients == tuple(
        comb(5, j) * 3 ** j for j in range(6))


def test_matches_naive_macwilliams():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(1, 11)
        k = rng.randrange(1, min(n, 4) + 1)
        w = weight_enumerator(oracle.to_code(oracle.rand_code_rows(rng, n, k)))
        got = macwilliams(w, k)
        assert list(got.coefficients) == oracle.omacwilliams(list(w.coefficients), k)
        assert got.total() == 4 ** (n - k)


def test_involution():
    rng = random.Random(44)
    cases = [catalog.get(name).code for name in catalog.names()]
    for _ in range(20):
        n = rng.randrange(1, 10)
        k = rng.randrange(1, n + 1)
        cases.append(oracle.to_code(oracle.rand_code_rows(rng, n, k)))
    for code in cases:
        w = weight_enumerator(code)
        assert macwilliams(macwilliams(w, code.k), code.n - code.k) == w


def test_inexact_division_is_an_error():
    # totals 4^2, but B_1 = 15 - 14 - 5 = -4 is not divisible by 16
    tampered = WeightEnumerator((1, 0, 0, 0, 14, 1))
    with pytest.raises(ConsistencyError, match="A1 is not divisible"):
        macwilliams(tampered, 2)


def test_total_must_be_four_to_the_k():
    w = weight_enumerator(catalog.get("c5_2").code)
    tampered = WeightEnumerator(w.coefficients[:4] + (14, 0))
    with pytest.raises(ConsistencyError, match=r"totals 15, not 4\^2 = 16"):
        macwilliams(tampered, 2)
    with pytest.raises(ConsistencyError, match=r"totals 16, not 4\^3 = 64"):
        macwilliams(w, 3)
    with pytest.raises(ConsistencyError, match=r"totals 0, not 4\^0 = 1"):
        macwilliams(WeightEnumerator((0, 0, 0)), 0)


def test_negative_coefficient_is_an_error():
    # a lone weight-1 word cannot be a linear code's enumerator
    with pytest.raises(ConsistencyError):
        macwilliams(WeightEnumerator((0, 1)), 0)
    with pytest.raises(ValueError):
        macwilliams(WeightEnumerator((1, 3)), -1)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_min_distance_frozen():
    for name, profile in FROZEN_PROFILES.items():
        d = catalog.get(name).expected.d
        assert min_distance(WeightEnumerator(profile)) == d, name


def test_min_distance_sentinel_and_full_space():
    assert min_distance(WeightEnumerator((1, 0, 0, 0, 0, 0))) == 6
    assert min_distance(weight_enumerator(identity_code(4))) == 1


def test_dual_distance_frozen():
    for name, expect in FROZEN_DUAL_DISTANCES.items():
        assert dual_distance(catalog.get(name).code) == expect, name


def test_dual_distance_equals_direct_dual_enumeration():
    for name in catalog.names():
        code = catalog.get(name).code
        via_transform = macwilliams(weight_enumerator(code), code.k)
        direct = weight_enumerator(code.dual())
        assert via_transform == direct, name
        assert dual_distance(code) == min_distance(direct)


def test_dual_distance_of_full_space_hits_sentinel():
    assert dual_distance(identity_code(4)) == 5


# ---------------------------------------------------------------------------
# enumerator text format
# ---------------------------------------------------------------------------

def test_format_enumerator_shapes():
    w = WeightEnumerator((1, 0, 0, 0, 15, 0))
    assert format_enumerator(w) == "0 1\n4 15\n"
    assert format_enumerator(w, csv=True) == "0,1\n4,15\n"


def test_parse_enumerator_roundtrip():
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randrange(1, 12)
        k = rng.randrange(1, n + 1)
        w = weight_enumerator(oracle.to_code(oracle.rand_code_rows(rng, n, k)))
        assert parse_enumerator(format_enumerator(w), n) == w
        assert parse_enumerator(format_enumerator(w, csv=True), n) == w


def test_parse_enumerator_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_enumerator("0 1 2\n", 5)
    with pytest.raises(FormatError, match="duplicate"):
        parse_enumerator("0 1\n0 2\n", 5)
    with pytest.raises(FormatError, match="outside"):
        parse_enumerator("6 1\n", 5)
    with pytest.raises(FormatError, match="negative"):
        parse_enumerator("3 -2\n", 5)
    with pytest.raises(FormatError):
        parse_enumerator("x y\n", 5)
    with pytest.raises(ValueError, match="^length must be nonnegative$"):
        parse_enumerator("0 1\n", -1)
