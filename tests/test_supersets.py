"""Finite invariant supersets and the max-condition profiles."""

import pytest

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    InfiniteOrbitError,
    NotNatDomain,
    ProfileInvalid,
    analyze_maxcond,
    build_G_orbit_union,
    check_superset_closure,
    interval_superset_bounds,
    named_map,
)

EVENS = DescribedNatMap((6, 4), 2, (0, 1))  # fixed points 2,4,6,...; 0->6, 1->4
ROUNDUP = DescribedNatMap((), 2, (0, 1))  # odd points round up to the next even


def test_orbit_union_examples():
    sm = FiniteTable((1, 2, 0, 3))
    assert build_G_orbit_union(sm, (3,)) == (3,)
    assert build_G_orbit_union(sm, (0,)) == (0, 1, 2)
    assert build_G_orbit_union(sm, (0,), (3,)) == (0, 1, 2, 3)


def test_orbit_union_rejects_infinite():
    with pytest.raises(InfiniteOrbitError) as exc:
        build_G_orbit_union(named_map("succ"), (0,))
    assert exc.value.point == 0
    # repeated starts and starts already in the union change nothing
    sm = FiniteTable((1, 2, 0, 3, 0))
    assert build_G_orbit_union(sm, (4,)) == (0, 1, 2, 4)
    assert build_G_orbit_union(sm, (4, 4, 0), (1, 2, 4)) == (0, 1, 2, 4)
    # the error names the start whose orbit is infinite, not a finite one
    zero_fix = DescribedNatMap((0,), 1, (1,))  # 0 is fixed, every other point climbs
    for istar, h in (((0, 5), ()), ((0,), (0, 5))):
        with pytest.raises(InfiniteOrbitError) as exc:
            build_G_orbit_union(zero_fix, istar, h)
        assert exc.value.point == 5


def test_closure_check():
    sm = FiniteTable((1, 2, 0))
    assert check_superset_closure(sm, (0,), (0, 1, 2))
    assert not check_superset_closure(sm, (0,), (0, 1))
    assert check_superset_closure(named_map("id"), (4, 7), (4, 7))


def test_maxcond_profiles():
    prof = analyze_maxcond(ROUNDUP)
    assert prof is not None
    assert [prof.b(n) for n in range(4)] == [0, 2, 4, 6]
    assert prof.j(3) == 2 == prof.r(3)
    assert analyze_maxcond(named_map("succ")) is None
    ident = analyze_maxcond(named_map("id"))
    assert ident is not None and ident.b(5) == 5 and ident.j(5) == 5


def test_maxcond_indices_at_any_height():
    # the fixed points of EVENS are 2, 4, 6, ...: b(n) = 2n + 2
    prof = analyze_maxcond(EVENS)
    top = 10**18
    assert prof.b(top // 2 - 1) == top
    assert prof.r(top) == top // 2 == prof.r(top + 1)
    assert prof.j(top + 1) == top // 2  # alpha(10^18 + 1) = 10^18 + 2 = b(10^18 / 2)
    assert prof.j(top) == top // 2 - 1


def test_maxcond_requires_nat():
    with pytest.raises(NotNatDomain):
        analyze_maxcond(FiniteTable((0, 1)))


def test_maxcond_rejects_bad_shapes():
    # 3 maps below itself
    assert analyze_maxcond(DescribedNatMap((0, 1, 2, 1), 1, (0,))) is None
    # 0 maps to 1, but 1 is not a fixed point
    assert analyze_maxcond(DescribedNatMap((1, 2), 1, (0,))) is None
    # a nonzero shift landing on a moving residue
    assert analyze_maxcond(DescribedNatMap((), 2, (1, 1))) is None


def test_interval_bounds_worked_map():
    prof = analyze_maxcond(EVENS)
    assert prof is not None
    assert [prof.b(n) for n in range(3)] == [2, 4, 6]
    assert interval_superset_bounds(prof, (0,)) == (0, 0, 6)
    assert interval_superset_bounds(prof, (1,)) == (1, 1, 4)
    # every admissible start yields a closed interval
    for istar in [(0,), (1,), (0, 1), (3,), (1, 5)]:
        u_star, u_max, v = interval_superset_bounds(prof, istar)
        assert v == max(EVENS(a) for a in istar)
        for u in range(u_star, u_max + 1):
            assert check_superset_closure(EVENS, istar, range(u, v + 1))
        if u_star > 0:
            g_bad = set(range(u_star - 1, v + 1))
            ok = check_superset_closure(EVENS, istar, g_bad) and max(g_bad) in {
                EVENS(a) for a in istar
            }
            assert not ok


def test_interval_bounds_identity():
    # with every point fixed the first fixed point is 0, so the lower bound collapses
    prof = analyze_maxcond(named_map("id"))
    assert interval_superset_bounds(prof, (5,)) == (0, 5, 5)


def test_interval_bounds_rejects_increasing_head():
    # 0 -> 4 and 1 -> 6 break the non-increasing-image requirement below the
    # first fixed point (which is 2)
    sm = DescribedNatMap((4, 6), 2, (0, 1))
    prof = analyze_maxcond(sm)
    assert prof is not None
    with pytest.raises(ProfileInvalid):
        interval_superset_bounds(prof, (0,))
