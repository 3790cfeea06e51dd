"""Named built-in codes.

Two kinds of entries: literal generator matrices embedded digit-for-digit,
and derived companions (the self-dual [6,3,4], [8,4,4] and [14,7,6] codes
plus their shortenings) built from standard constructions.  Every entry is
validated at first access against its expected parameters: rank,
self-orthogonality or self-duality, minimum distance and dual distance.
Both distances come from one enumeration, the dual's by MacWilliams.

Digits follow the package encoding: 2 = omega, 3 = omega**2.
"""

from __future__ import annotations

from .codes import LinearCode, circulant
from .enumerator import macwilliams, min_distance, weight_enumerator
from .errors import CatalogKeyError, ConsistencyError, _Record
from .gf4 import GF4Vector, append, coordinate_sum


class Expected(_Record):
    """Parameters an entry must exhibit at load time."""

    __slots__ = ("n", "k", "d", "dual_distance", "self_dual")

    def __init__(self, n: int, k: int, d: int, dual_distance: int,
                 self_dual: bool = False) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "dual_distance", dual_distance)
        object.__setattr__(self, "self_dual", self_dual)


class CatalogEntry(_Record):
    __slots__ = ("name", "code", "provenance", "expected")

    def __init__(self, name: str, code: LinearCode, provenance: str,
                 expected: Expected) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "expected", expected)


def _rows(*digit_rows: str) -> list[GF4Vector]:
    return [GF4Vector.from_digits(d) for d in digit_rows]


def _c5_2() -> tuple[LinearCode, str, Expected]:
    code = LinearCode(_rows("10122", "01221"))
    return code, "embedded literal generator matrix", Expected(5, 2, 4, 3)


def _c13_6_a() -> tuple[LinearCode, str, Expected]:
    code = circulant(GF4Vector.from_digits("0000100210233"), 6)
    return code, "circulant from embedded first row", Expected(13, 6, 6, 5)


def _c13_6_b() -> tuple[LinearCode, str, Expected]:
    code = circulant(GF4Vector.from_digits("0000113023002"), 6)
    return code, "circulant from embedded first row", Expected(13, 6, 6, 5)


def _hexacode() -> tuple[LinearCode, str, Expected]:
    code = LinearCode(_rows("100211", "010121", "001112"))
    return (code, "derived: identity block bordered by circulant(2 1 1)",
            Expected(6, 3, 4, 4, self_dual=True))


def _hexacode_shortened() -> tuple[LinearCode, str, Expected]:
    code = get("hexacode").code.shorten(0)
    return code, "derived: hexacode shortened at coordinate 0", Expected(5, 2, 4, 3)


def _c8_4() -> tuple[LinearCode, str, Expected]:
    code = LinearCode(_rows("10000111", "01001011", "00101101", "00011110"))
    return (code, "derived: identity block bordered by all-ones minus identity",
            Expected(8, 4, 4, 4, self_dual=True))


def _c8_4_shortened() -> tuple[LinearCode, str, Expected]:
    code = get("c8_4").code.shorten(0)
    return code, "derived: c8_4 shortened at coordinate 0", Expected(7, 3, 4, 3)


def _c14_7() -> tuple[LinearCode, str, Expected]:
    # Appending the coordinate sum is linear, so extending a dual basis
    # row by row extends the whole dual code.
    dual = get("c13_6_a").code.dual()
    rows = [append(r, coordinate_sum(r)) for r in dual.rows]
    code = LinearCode(rows, n=14)
    return (code, "derived: hermitian dual of c13_6_a extended by coordinate sums",
            Expected(14, 7, 6, 6, self_dual=True))


_BUILDERS = {
    "c5_2": _c5_2,
    "c13_6_a": _c13_6_a,
    "c13_6_b": _c13_6_b,
    "hexacode": _hexacode,
    "hexacode_shortened": _hexacode_shortened,
    "c8_4": _c8_4,
    "c8_4_shortened": _c8_4_shortened,
    "c14_7": _c14_7,
}

_cache: dict[str, CatalogEntry] = {}


def names() -> tuple[str, ...]:
    """All entry names, sorted."""
    return tuple(sorted(_BUILDERS))


def _validate(name: str, code: LinearCode, expected: Expected) -> None:
    if (code.n, code.k) != (expected.n, expected.k):
        raise ConsistencyError(
            f"catalog entry {name}: built [{code.n},{code.k}], "
            f"expected [{expected.n},{expected.k}]")
    if expected.self_dual:
        if not code.is_self_dual():
            raise ConsistencyError(f"catalog entry {name}: expected self-dual")
    elif not code.is_hermitian_self_orthogonal():
        raise ConsistencyError(f"catalog entry {name}: expected self-orthogonal")
    w = weight_enumerator(code)
    d = min_distance(w)
    if d != expected.d:
        raise ConsistencyError(
            f"catalog entry {name}: minimum distance {d}, expected {expected.d}")
    dd = min_distance(macwilliams(w, code.k))
    if dd != expected.dual_distance:
        raise ConsistencyError(
            f"catalog entry {name}: dual distance {dd}, expected {expected.dual_distance}")


def get(name: str) -> CatalogEntry:
    """Look up and validate a catalog entry by name."""
    if name in _cache:
        return _cache[name]
    builder = _BUILDERS.get(name)
    if builder is None:
        raise CatalogKeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}")
    code, provenance, expected = builder()
    _validate(name, code, expected)
    entry = CatalogEntry(name=name, code=code, provenance=provenance, expected=expected)
    _cache[name] = entry
    return entry
