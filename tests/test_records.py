"""The five immutable record types: repr, equality, hashing, construction,
immutability, pickling, copying and pattern matching, pinned as snapshots."""

import copy
import pickle

import pytest

from gf4codes import (GF4Vector, LinearCode, OddDualVector, QuantumParams, WeightEnumerator,
                      catalog)
from gf4codes.catalog import CatalogEntry, Expected

ODD = GF4Vector.from_digits("10123")
ENTRY = catalog.get("c5_2")

# (record, its field tuple, its exact repr)
SNAPSHOTS = [
    (WeightEnumerator((1, 0, 3)), ((1, 0, 3),),
     "WeightEnumerator(coefficients=(1, 0, 3))"),
    (QuantumParams(28, 12, 6, 6, True, False), (28, 12, 6, 6, True, False),
     "QuantumParams(n=28, k=12, d=6, d_dual=6, pure=True, degenerate=False)"),
    (OddDualVector(ODD, 4), (ODD, 4),
     "OddDualVector(vector=GF4Vector('10123'), weight=4)"),
    (Expected(5, 2, 4, 3), (5, 2, 4, 3, False),
     "Expected(n=5, k=2, d=4, dual_distance=3, self_dual=False)"),
    (ENTRY, (ENTRY.name, ENTRY.code, ENTRY.provenance, ENTRY.expected),
     "CatalogEntry(name='c5_2', code=LinearCode([5,2]), "
     "provenance='embedded literal generator matrix', "
     "expected=Expected(n=5, k=2, d=4, dual_distance=3, self_dual=False))"),
]

FIELDS = {
    WeightEnumerator: ("coefficients",),
    QuantumParams: ("n", "k", "d", "d_dual", "pure", "degenerate"),
    OddDualVector: ("vector", "weight"),
    Expected: ("n", "k", "d", "dual_distance", "self_dual"),
    CatalogEntry: ("name", "code", "provenance", "expected"),
}

IDS = [type(r).__name__ for r, _, _ in SNAPSHOTS]


@pytest.mark.parametrize("record, values, text", SNAPSHOTS, ids=IDS)
def test_repr_is_pinned(record, values, text):
    assert repr(record) == text
    assert str(record) == text


@pytest.mark.parametrize("record, values, text", SNAPSHOTS, ids=IDS)
def test_fields_in_order(record, values, text):
    names = FIELDS[type(record)]
    assert tuple(getattr(record, name) for name in names) == values
    assert type(record).__match_args__ == names


@pytest.mark.parametrize("record, values, text", SNAPSHOTS, ids=IDS)
def test_construction_positional_and_keyword(record, values, text):
    cls = type(record)
    names = FIELDS[cls]
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    required = values[:4] if cls is Expected else values
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, 0)


def test_expected_self_dual_defaults_to_false():
    assert Expected(6, 3, 4, 4).self_dual is False
    assert Expected(6, 3, 4, 4, True).self_dual is True
    assert Expected(6, 3, 4, 4, self_dual=True) == Expected(6, 3, 4, 4, True)
    assert Expected(6, 3, 4, 4) != Expected(6, 3, 4, 4, True)


@pytest.mark.parametrize("record, values, text", SNAPSHOTS, ids=IDS)
def test_equality_and_hash(record, values, text):
    cls = type(record)
    same = cls(*values)
    assert same == record and not (same != record)
    assert hash(same) == hash(record) == hash(values)
    # One field changed makes an unequal record.
    other = cls(*values[:-1], "changed")
    assert other != record and not (other == record)
    # A plain tuple of the same fields is not equal, either way round.
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented
    # Nor is an instance of a subclass, which inherits the same fields.
    sub = type("Sub", (cls,), {"__slots__": ()})(*values)
    assert sub != record and record != sub
    assert record.__eq__(sub) is NotImplemented
    assert repr(sub) == "Sub" + text[len(cls.__name__):]
    assert sub == type(sub)(*values) and hash(sub) == hash(values)


def test_records_of_different_types_are_never_equal():
    records = [r for r, _, _ in SNAPSHOTS]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b and b != a


def test_records_work_as_dict_keys_and_set_members():
    records = [r for r, _, _ in SNAPSHOTS]
    copies = [type(r)(*v) for r, v, _ in SNAPSHOTS]
    assert set(records) == set(copies)
    assert {r: i for i, r in enumerate(records)}[copies[2]] == 2


@pytest.mark.parametrize("record, values, text", SNAPSHOTS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, values, text):
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert tuple(getattr(record, name) for name in FIELDS[type(record)]) == values


@pytest.mark.parametrize("record, values, text", SNAPSHOTS, ids=IDS)
def test_pickle_and_copy_round_trip(record, values, text):
    # Every protocol, for the records holding a GF4Vector or a LinearCode too.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert back == record and repr(back) == text and hash(back) == hash(record)
    for dup in (copy.copy(record), copy.deepcopy(record)):
        assert type(dup) is type(record)
        assert dup == record and repr(dup) == text


def _codes():
    rows = [GF4Vector.from_digits(d) for d in ("1012", "0112", "1100")]
    with pytest.warns(UserWarning, match="dependent"):
        dropped = LinearCode.from_rows(rows)
    return {"vector": GF4Vector.from_digits("10123"), "empty-vector": GF4Vector(0),
            "long-vector": GF4Vector(402, 3 << 200, 1 << 401),
            "code": ENTRY.code, "zero-code": LinearCode((), n=7),
            "dropped-rows": dropped, "lazy-dual": catalog.get("c8_4_shortened").code.dual()}


@pytest.mark.parametrize("name", ("vector", "empty-vector", "long-vector", "code", "zero-code",
                                  "dropped-rows", "lazy-dual"))
def test_vectors_and_codes_pickle_and_copy_round_trip(name):
    # A code is rebuilt from its rows, n and dropped rows alone: whatever it
    # has cached (reduced form, owned columns, dual) is not pickled.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        fresh = _codes()[name]
        data = pickle.dumps(fresh, protocol)
        if isinstance(fresh, LinearCode):
            assert fresh._rows is not None
            if fresh.k and fresh.k < fresh.n:
                fresh.contains(fresh.rows[0])
                fresh.dual().rows
            assert pickle.dumps(fresh, protocol) == data
        back = pickle.loads(data)
        assert type(back) is type(fresh) and back == fresh and hash(back) == hash(fresh)
        if isinstance(fresh, LinearCode):
            assert (back.n, back.k, back.dropped_rows) == (fresh.n, fresh.k, fresh.dropped_rows)
            assert back.same_row_space(fresh)
    for dup in (copy.copy(fresh), copy.deepcopy(fresh)):
        assert type(dup) is type(fresh) and dup == fresh


def test_positional_pattern_matching():
    match QuantumParams(28, 12, 6, 6, True, False):
        case QuantumParams(n, k, d, d_dual, pure, degenerate):
            assert (n, k, d, d_dual, pure, degenerate) == (28, 12, 6, 6, True, False)
        case _:
            pytest.fail("QuantumParams did not match positionally")
    match QuantumParams(28, 12, 6, 6, True, False):
        case QuantumParams(n, k, d):
            assert (n, k, d) == (28, 12, 6)
        case _:
            pytest.fail("QuantumParams did not match on a prefix of its fields")
    match ENTRY:
        case CatalogEntry(name, _, _, Expected(n, k, d, dd, self_dual)):
            assert (name, n, k, d, dd, self_dual) == ("c5_2", 5, 2, 4, 3, False)
        case _:
            pytest.fail("CatalogEntry did not match positionally")
    match WeightEnumerator((1, 0, 3)):
        case WeightEnumerator((1, *rest)):
            assert rest == [0, 3]
        case _:
            pytest.fail("WeightEnumerator did not match positionally")
    match OddDualVector(ODD, 4):
        case OddDualVector(vector, weight=4):
            assert vector == ODD
        case _:
            pytest.fail("OddDualVector did not match")
