"""Map representations, evaluation, and the JSON wire format."""

import pytest
from hypothesis import given, strategies as st
from strategies import descending_maps, finite_maps, nat_maps

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    InvalidMap,
    OutOfDomain,
    ParseError,
    named_map,
    parse_map,
    serialize_map,
)
from quasinv.orbits import orbit_profile, table_graph
from quasinv.selfmap import map_from_obj, point_index


def test_eval_succ():
    assert named_map("succ")(5) == 6


def test_eval_conjugate_map():
    # prefix sends 0 to 2; odd points shift +3, even points shift -1
    conj = DescribedNatMap((2,), 2, (-1, 3))
    assert conj(0) == 2
    assert conj(1) == 4
    assert conj(2) == 1


def test_eval_finite_table():
    assert FiniteTable((1, 2, 0))(2) == 0


def test_eval_out_of_domain():
    with pytest.raises(OutOfDomain):
        FiniteTable((1, 2, 0))(3)
    with pytest.raises(OutOfDomain):
        named_map("succ")(-1)


def test_iterate():
    succ = named_map("succ")
    assert succ.iterate(0, 4) == 4
    assert succ.iterate(7, 0) == 7
    conj = DescribedNatMap((2,), 2, (-1, 3))
    assert conj.iterate(0, 3) == 4  # 0 -> 2 -> 1 -> 4


def test_parse_finite():
    sm = parse_map(b'{"kind":"finite","size":3,"table":[1,2,0]}')
    assert sm == FiniteTable((1, 2, 0))


def test_parse_nat():
    sm = parse_map('{"kind":"nat","prefix":[2],"modulus":2,"shifts":[-1,3]}')
    assert sm == DescribedNatMap((2,), 2, (-1, 3))


def test_parse_rejects_bad_entries():
    with pytest.raises(InvalidMap):
        parse_map('{"kind":"finite","size":2,"table":[0,5]}')
    with pytest.raises(InvalidMap):
        parse_map('{"kind":"finite","size":3,"table":[0,1]}')
    with pytest.raises(InvalidMap):
        # the shift would push 0 below zero
        parse_map('{"kind":"nat","modulus":1,"shifts":[-1]}')
    with pytest.raises(ParseError):
        parse_map("not json")
    with pytest.raises(ParseError):
        parse_map('{"kind":"weird"}')
    with pytest.raises(ParseError):
        parse_map('{"kind":"nat","modulus":1,"shifts":[0],"extra":1}')


any_map = st.one_of(finite_maps, nat_maps)


@given(any_map)
def test_serialize_roundtrip(sm):
    assert map_from_obj(__import__("json").loads(serialize_map(sm))) == sm
    assert serialize_map(parse_map(serialize_map(sm))) == serialize_map(sm)


@given(any_map, st.integers(0, 4), st.integers(0, 50), st.integers(0, 50))
def test_iterate_addition_law(sm, x, a, b):
    if isinstance(sm, FiniteTable):
        x = x % sm.size
    assert sm.iterate(x, a + b) == sm.iterate(sm.iterate(x, a), b)


@given(nat_maps, st.integers(0, 40))
def test_described_eval_matches_rule(sm, x):
    n = sm.prefix_len
    if x < n:
        assert sm(x) == sm.prefix[x]
    else:
        assert sm(x) == x + sm.shifts[x % sm.modulus]


@given(st.one_of(finite_maps, nat_maps, descending_maps), st.data())
def test_points_off_the_domain_raise(sm, data):
    # a negative point must not wrap round to the end of a table
    outside = st.integers(-(10**18), -1)
    if isinstance(sm, FiniteTable):
        outside = st.one_of(outside, st.integers(sm.size, 10**18))
    with pytest.raises(OutOfDomain):
        sm(data.draw(outside))


@given(st.one_of(finite_maps, nat_maps, descending_maps), st.booleans(), st.integers(0, 10**12))
def test_point_index_matches_scan(sm, fixed, far):
    idx = point_index(sm, fixed=fixed)
    # two whole periods past the prefix show every residue twice
    window = sm.size if isinstance(sm, FiniteTable) else sm.prefix_len + 2 * sm.modulus
    scan = [x for x in range(window) if (sm(x) == x) == fixed]
    for x in range(window + 1):
        assert idx.below(x) == sum(1 for p in scan if p < x)
    assert [idx.nth(n) for n in range(len(scan))] == scan
    with pytest.raises(IndexError):
        idx.nth(-1)
    if idx.finite:
        assert idx.below(window + far) == len(scan)
        with pytest.raises(IndexError):
            idx.nth(len(scan) + far)
        return
    # far up, the n-th point is such a point and exactly n of them lie below it
    n = len(scan) + far
    p = idx.nth(n)
    assert (sm(p) == p) == fixed
    assert idx.below(p) == n and idx.below(p + 1) == n + 1
    assert idx.nth(idx.below(window + far)) >= window + far


def test_equal_maps_hash_alike_and_share_profiles():
    pairs = [
        (DescribedNatMap((3, 0), 2, (2, -1)), DescribedNatMap([3, 0], 2, [2, -1])),
        (FiniteTable((1, 2, 0)), FiniteTable([1, 2, 0])),
    ]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
    # a described map's profiles are cached; a table's views share its graph
    (described, described_too), (table, table_too) = pairs
    assert orbit_profile(described_too, 1) is orbit_profile(described, 1)
    assert table_graph(table_too) is table_graph(table)
    assert orbit_profile(table_too, 1)._graph is orbit_profile(table, 1)._graph
    assert DescribedNatMap((3, 0), 2, (2, -1)) != DescribedNatMap((3, 1), 2, (2, -1))
