"""Subset and interval one-removal classifications plus their selectors."""

import pytest
from hypothesis import given, settings, strategies as st

from quasinv import (
    DescribedNatMap,
    DomainTooSmall,
    FiniteTable,
    NotNatDomain,
    classify_intervals_1qi,
    classify_strict_intervals_1qi,
    classify_subsets_1qi,
    named_map,
)
from quasinv.oracle import brute_force_interval_w, brute_force_w_table, named_corpus

from strategies import descending_maps, nat_maps, pivot_maps

SUCC = named_map("succ")
IDENT = named_map("id")


def _all_subsets(n):
    for mask in range(1, 1 << n):
        yield {x for x in range(n) if mask >> x & 1}


def test_identity_is_chain_pattern():
    cls, sel = classify_subsets_1qi(FiniteTable((0, 1, 2, 3)))
    assert cls.case == 1 and cls.a == cls.b == cls.c == 0
    assert sel.choose({1, 3}) == 1


def test_three_cycle_patch_is_case_two():
    sm = FiniteTable((1, 2, 0, 3, 4))
    cls, sel = classify_subsets_1qi(sm)
    assert cls.case == 2 and (cls.a, cls.b, cls.c) == (0, 1, 2)
    for s in _all_subsets(5):
        w = sel.choose(s)
        assert w in s and all(sm(x) in s for x in s if x != w)


def test_shifted_chain_absent():
    # moves three points but is not a three-cycle
    assert classify_subsets_1qi(FiniteTable((1, 2, 3, 3))) is None


def test_two_point_chain_case_one():
    sm = FiniteTable((0, 2, 3, 3))
    cls, sel = classify_subsets_1qi(sm)
    assert cls.case == 1 and (cls.a, cls.b, cls.c) == (1, 2, 3)
    for s in _all_subsets(4):
        w = sel.choose(s)
        assert w in s and all(sm(x) in s for x in s if x != w)


def test_swap_is_case_one():
    cls, _ = classify_subsets_1qi(FiniteTable((1, 0, 2)))
    assert cls.case == 1


def test_domain_too_small():
    with pytest.raises(DomainTooSmall):
        classify_subsets_1qi(FiniteTable((1, 0)))


def test_described_map_with_moving_tail_is_absent():
    assert classify_subsets_1qi(SUCC) is None


def test_nat_patch_classifies():
    sm = DescribedNatMap((2, 1, 0), 1, (0,))  # the three-cycle 0 -> 2 -> 0? no: 0->2,1->1? check below
    # 0 -> 2, 1 -> 1, 2 -> 0: a two-cycle on {0, 2}
    cls, _ = classify_subsets_1qi(sm)
    assert cls.case == 1


def test_matches_bruteforce_on_all_four_point_maps():
    import itertools

    for table in itertools.product(range(4), repeat=4):
        sm = FiniteTable(table)
        present = classify_subsets_1qi(sm) is not None
        assert present == (brute_force_w_table(sm) is not None), table


def test_interval_cases():
    cls, _ = classify_intervals_1qi(SUCC)
    assert cls.case == 1 and cls.n_star is None
    cls, _ = classify_intervals_1qi(IDENT)
    assert cls.case == 1
    pivot = DescribedNatMap((1, 2, 3, 0), 1, (-1,))
    cls, _ = classify_intervals_1qi(pivot)
    assert cls.case == 2 and cls.n_star == 2
    case3 = DescribedNatMap((2,), 1, (-1,))
    cls, _ = classify_intervals_1qi(case3)
    assert cls.case == 3 and cls.n_star == -1
    assert classify_intervals_1qi(DescribedNatMap((), 1, (2,))) is None


def test_interval_b_sequence_access():
    pivot = DescribedNatMap((1, 2, 3, 0), 1, (-1,))
    cls, _ = classify_intervals_1qi(pivot)
    assert [cls.b(n) for n in range(5)] == [0, 1, 2, 3, 4]
    roundup = DescribedNatMap((), 2, (0, 1))
    res = classify_intervals_1qi(roundup)
    assert res is not None
    assert [res[0].b(n) for n in range(3)] == [1, 3, 5]


def nonfixed_in(cls, lo, hi):
    """(index, point) pairs for the non-fixed points inside [lo, hi]."""
    first, end = cls.moved.below(lo), cls.moved.below(hi + 1)
    return [(i, cls.moved.nth(i)) for i in range(first, end)]


def listing_choose(cls, lo, hi):
    """Reference for ``choose``: list every non-fixed point in [lo, hi] and
    test each one's image, in O(hi - lo) work."""
    sm = cls.sm
    bs = nonfixed_in(cls, lo, hi)
    if cls.case == 1:
        up = [x for _, x in bs if sm(x) > hi]
        assert len(up) <= 1
        return up[0] if up else lo
    up_top = cls.n_star + (1 if cls.case == 3 else 0)
    up = [x for i, x in bs if i <= up_top and sm(x) > hi]
    down = [x for i, x in bs if i > up_top and sm(x) < lo]
    assert len(up) <= 1 and len(down) <= 1 and not (up and down)
    return up[0] if up else down[0] if down else lo


def test_interval_selector_answers_at_any_height():
    # case3 moves every point: b(n) = n, and above 1 every point steps down
    cls, sel = classify_intervals_1qi(named_corpus()["case3"])
    top = 10**18
    assert sel.choose(top, top + 3) == top
    assert cls.b(top) == top and nonfixed_in(cls, top, top + 1) == [(top, top), (top + 1, top + 1)]
    # roundup moves the odd points only: b(n) = 2n + 1
    cls, sel = classify_intervals_1qi(named_corpus()["roundup"])
    assert cls.b(top // 2) == top + 1
    assert nonfixed_in(cls, top, top + 3) == [(top // 2, top + 1), (top // 2 + 1, top + 3)]
    assert sel.choose(top, top + 3) == top + 3


@pytest.mark.parametrize("lo", [0, 10**18])
def test_interval_selector_on_wide_intervals(lo):
    # all 10^6 + 1 points of [lo, lo + 10^6] move; at 0 none escapes, at
    # 10^18 the bottom one steps out below, and either way w is lo
    sm = named_corpus()["case3"]
    _, sel = classify_intervals_1qi(sm)
    hi = lo + 10**6
    w = sel.choose(lo, hi)
    assert w == lo
    assert all(lo <= sm(x) <= hi for x in range(lo, hi + 1) if x != w)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(nat_maps, descending_maps, pivot_maps),
    st.one_of(st.integers(0, 40), st.integers(0, 10**4), st.integers(10**18, 10**18 + 100)),
    st.integers(0, 3000),
)
def test_interval_selector_matches_listing(sm, lo, width):
    res = classify_intervals_1qi(sm)
    if res is None:
        return
    cls, sel = res
    assert sel.choose(lo, lo + width) == listing_choose(cls, lo, lo + width)


def test_interval_selector_sound_and_matches_oracle():
    maps = [
        SUCC,
        IDENT,
        DescribedNatMap((1, 2, 3, 0), 1, (-1,)),
        DescribedNatMap((2,), 1, (-1,)),
        DescribedNatMap((1, 2, 5), 1, (-1,)),
        DescribedNatMap((), 2, (0, 1)),
        DescribedNatMap((4,), 2, (2, -1)),
    ]
    for sm in maps:
        res = classify_intervals_1qi(sm)
        bad = brute_force_interval_w(sm, 30)
        assert (res is not None) == (bad is None), sm
        if res is None:
            continue
        _, sel = res
        for lo in range(31):
            for hi in range(lo, 31):
                w = sel.choose(lo, hi)
                assert lo <= w <= hi
                assert all(lo <= sm(x) <= hi for x in range(lo, hi + 1) if x != w)


def test_interval_requires_nat_domain():
    with pytest.raises(NotNatDomain):
        classify_intervals_1qi(FiniteTable((0, 1)))
    with pytest.raises(NotNatDomain):
        classify_strict_intervals_1qi(FiniteTable((0, 1)))


def test_strict_families():
    assert classify_strict_intervals_1qi(SUCC).kind == "succ"
    res = classify_strict_intervals_1qi(DescribedNatMap((1, 2, 5), 1, (-1,)))
    assert (res.kind, res.n_star, res.u) == ("pivot", 2, 5)
    res = classify_strict_intervals_1qi(DescribedNatMap((3,), 1, (-1,)))
    assert (res.kind, res.n_star, res.u) == ("pivot", 0, 3)
    assert classify_strict_intervals_1qi(IDENT) is None
    assert classify_strict_intervals_1qi(DescribedNatMap((), 1, (2,))) is None
    # pivot must move its pivot point
    assert classify_strict_intervals_1qi(DescribedNatMap((1, 1), 1, (-1,))) is None
