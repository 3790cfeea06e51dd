"""Catalog entries: resolution, validation, provenance of derived codes."""

import pytest

from gf4codes import (CatalogKeyError, ConsistencyError, GF4Vector, LinearCode, catalog,
                      circulant, cyclic_shift, dual_distance, min_distance,
                      weight_enumerator)

REQUIRED = {"c5_2", "c13_6_a", "c13_6_b", "hexacode_shortened"}


def test_names_sorted_and_complete():
    names = catalog.names()
    assert names == tuple(sorted(names))
    assert REQUIRED <= set(names)
    assert catalog.names() == names  # stable across calls


def test_all_entries_resolve_and_match_expectations():
    for name in catalog.names():
        entry = catalog.get(name)
        code = entry.code
        exp = entry.expected
        assert entry.name == name
        assert (code.n, code.k) == (exp.n, exp.k)
        w = weight_enumerator(code)
        assert min_distance(w) == exp.d
        assert dual_distance(code) == exp.dual_distance
        if exp.self_dual:
            assert code.is_self_dual()
        else:
            assert code.is_hermitian_self_orthogonal()
        assert entry.provenance


def test_c5_2_rows_are_the_embedded_literals():
    code = catalog.get("c5_2").code
    assert [r.coords() for r in code.rows] == [(1, 0, 1, 2, 2), (0, 1, 2, 2, 1)]


def test_circulant_entries_regenerate():
    for name, first in (("c13_6_a", "0000100210233"),
                        ("c13_6_b", "0000113023002")):
        code = catalog.get(name).code
        rebuilt = circulant(GF4Vector.from_digits(first), 6)
        assert code.rows == rebuilt.rows


def test_c13_6_entries_span_one_cyclic_code():
    # Two generator matrices of one code: the rows differ, the row space
    # does not, and it is closed under the cyclic shift.
    a = catalog.get("c13_6_a").code
    b = catalog.get("c13_6_b").code
    assert a.same_row_space(b)
    assert a != b
    for code in (a, b):
        for row in a.rows + b.rows:
            assert code.contains(cyclic_shift(row))


def test_shortened_entries_derive_from_parents():
    cases = (("hexacode_shortened", "hexacode"), ("c8_4_shortened", "c8_4"))
    for name, parent in cases:
        code = catalog.get(name).code
        assert code.same_row_space(catalog.get(parent).code.shorten(0))


def test_c14_7_extends_the_dual_of_c13_6_a():
    code = catalog.get("c14_7").code
    dual = catalog.get("c13_6_a").code.dual()
    for row in code.rows:
        coords = row.coords()
        assert dual.contains(GF4Vector.from_coords(coords[:13]))
    assert code.is_self_dual()


def test_unknown_name_reports_available_entries():
    with pytest.raises(CatalogKeyError, match="c13_6_a"):
        catalog.get("no_such_code")
    with pytest.raises(LookupError):
        catalog.get("")


def test_entries_are_cached():
    assert catalog.get("c5_2") is catalog.get("c5_2")
    assert catalog.get("hexacode").code is catalog.get("hexacode").code


def test_validation_enumerates_each_entry_once(monkeypatch):
    from gf4codes import enumerator
    calls = []
    real = enumerator.weight_enumerator

    def counting(code, **kwargs):
        calls.append(code.k)
        return real(code, **kwargs)

    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.setattr(catalog, "weight_enumerator", counting)
    monkeypatch.setattr(enumerator, "weight_enumerator", counting)
    for name in ("c5_2", "c13_6_a", "c8_4"):
        calls.clear()
        entry = catalog.get(name)
        assert calls == [entry.code.k]


@pytest.mark.parametrize("rows, expected, message", [
    (("10122", "01221"), catalog.Expected(5, 3, 4, 3), r"built \[5,2\], expected \[5,3\]"),
    (("10122", "01221"), catalog.Expected(5, 2, 4, 3, self_dual=True), "expected self-dual"),
    (("10", "01"), catalog.Expected(2, 2, 1, 3), "expected self-orthogonal"),
    (("10122", "01221"), catalog.Expected(5, 2, 3, 3), "minimum distance 4, expected 3"),
    (("10122", "01221"), catalog.Expected(5, 2, 4, 2), "dual distance 3, expected 2"),
])
def test_validation_rejects_an_entry_that_misses_its_expectations(monkeypatch, rows, expected,
                                                                  message):
    # A fresh name, so that nothing built here reaches the cache.
    def build():
        return LinearCode([GF4Vector.from_digits(r) for r in rows]), "test entry", expected

    monkeypatch.setitem(catalog._BUILDERS, "broken_entry", build)
    with pytest.raises(ConsistencyError, match=f"^catalog entry broken_entry: {message}$"):
        catalog.get("broken_entry")
    assert "broken_entry" not in catalog._cache
