"""Orbit decomposition, certificates, hitting times, intersection, and the shared point."""

import pytest
from hypothesis import example, given, settings, strategies as st
from strategies import descending_maps, finite_maps, nat_maps

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    OrbitTooLong,
    check_p_tilde,
    hitting_time,
    in_D_phi,
    named_map,
    orbit,
    orbits_intersect,
    solve_P1,
    xi,
)
from quasinv import orbits as orbits_mod
from quasinv.orbits import (
    all_orbits_infinite,
    exists_cofinite_orbit,
    is_orbit_cofinite,
    least_finite_point,
    lock_height,
    orbit_profile,
    orbit_summary,
    p_tilde_witness,
    tail_structure,
)

SUCC = named_map("succ")
BULLET = DescribedNatMap((2,), 1, (1,))
CONJ = DescribedNatMap((2,), 2, (-1, 3))
SHIFT2 = DescribedNatMap((), 1, (2,))
ZERO_FIX = DescribedNatMap((0,), 1, (1,))


def test_orbit_three_cycle():
    res = orbit(FiniteTable((1, 2, 0)), 0)
    assert res.is_finite
    assert res.tail == () and res.cycle == (0, 1, 2)


def test_orbit_succ_infinite():
    res = orbit(SUCC, 0)
    assert not res.is_finite
    res.certificate.validate(SUCC)


def test_bullet_orbit_omits_exactly_one():
    res = orbit(BULLET, 0)
    assert not res.is_finite
    covered = orbit_profile(BULLET, 0).points_upto(100)
    assert set(range(101)) - covered == {1}


def test_orbit_tail_then_cycle():
    res = orbit(FiniteTable((1, 2, 1, 0)), 3)
    assert res.tail == (3, 0) and res.cycle == (1, 2)


def test_hitting_time():
    assert hitting_time(SUCC, 2, 5) == 3
    assert hitting_time(SUCC, 5, 2) is None
    assert hitting_time(FiniteTable((1, 2, 0)), 0, 2) == 2


def test_hitting_time_infinite_progressions():
    # orbit of 0 under the conjugate map walks 0,2,1,4,3,6,5,...
    assert hitting_time(CONJ, 0, 5) == 6
    assert hitting_time(CONJ, 2, 0) is None


def test_orbits_intersect():
    assert orbits_intersect(SUCC, 0, 3) == (3, 3, 0)
    assert orbits_intersect(SHIFT2, 0, 1) is None
    assert orbits_intersect(FiniteTable((1, 0, 3, 2)), 0, 2) is None


def test_orbits_intersect_finite_and_infinite_never_meet():
    assert orbits_intersect(ZERO_FIX, 0, 1) is None


def test_xi_examples():
    z = xi(SUCC, (2, 5))
    assert z.point == 5 and z.hitting_times == {2: 3, 5: 0}
    z = xi(FiniteTable((1, 2, 0)), (0, 1))
    assert z.point == 1 and z.hitting_times == {0: 1, 1: 0}
    z = xi(SHIFT2, (7,))
    assert z.point == 7 and z.hitting_times == {7: 0}


def test_xi_absent_on_disjoint_orbits():
    assert xi(SHIFT2, (0, 1)) is None
    assert in_D_phi(SHIFT2, (0, 1)) is False
    assert in_D_phi(ZERO_FIX, (0, 1)) is False
    assert in_D_phi(SUCC, (0, 4, 9)) is True


def test_p_tilde():
    assert check_p_tilde(FiniteTable((1, 0))) is True
    assert check_p_tilde(SUCC) is True
    assert check_p_tilde(SHIFT2) is False
    assert check_p_tilde(BULLET) is True
    assert check_p_tilde(CONJ) is True


def test_p_tilde_witness_is_disjoint_infinite_pair():
    wit = p_tilde_witness(SHIFT2)
    a, b = wit
    assert not orbit_profile(SHIFT2, a).finite
    assert not orbit_profile(SHIFT2, b).finite
    assert orbits_intersect(SHIFT2, a, b) is None
    assert p_tilde_witness(SUCC) is None
    # two separate upward residue classes
    two_up = DescribedNatMap((), 2, (2, 2))
    wit = p_tilde_witness(two_up)
    assert wit is not None and orbits_intersect(two_up, *wit) is None


def test_tail_structure_drift_multiple_of_modulus():
    for sm in (SUCC, CONJ, SHIFT2, DescribedNatMap((0, 3), 3, (2, -1, 0))):
        for cyc in tail_structure(sm).cycles:
            assert cyc.drift % sm.modulus == 0


def test_cofinite_detection():
    assert exists_cofinite_orbit(SUCC)
    assert exists_cofinite_orbit(BULLET)
    assert not exists_cofinite_orbit(SHIFT2)
    assert is_orbit_cofinite(BULLET, 0)
    assert not is_orbit_cofinite(SHIFT2, 0)


def test_all_orbits_infinite():
    assert all_orbits_infinite(SUCC)
    assert all_orbits_infinite(CONJ)
    assert not all_orbits_infinite(ZERO_FIX)
    assert not all_orbits_infinite(FiniteTable((1, 0)))


# prefix values up to 40 and shifts of either sign: finite and infinite
# orbits side by side, and descents that pass below the lock height
mixed_maps = st.tuples(st.integers(1, 4), st.integers(0, 5)).flatmap(
    lambda mn: st.builds(
        DescribedNatMap,
        prefix=st.lists(st.integers(0, 40), min_size=mn[1], max_size=mn[1]).map(tuple),
        modulus=st.just(mn[0]),
        shifts=st.lists(st.integers(-mn[1], 6), min_size=mn[0], max_size=mn[0]).map(tuple),
    )
)


def _all_orbits_infinite_per_point(sm):
    """The reference: one profile per point up to a residue period above
    the lock height."""
    return all(not orbit_profile(sm, x).finite for x in range(lock_height(sm) + sm.modulus + 1))


@settings(max_examples=300, deadline=None)
@given(mixed_maps)
def test_all_orbits_infinite_matches_per_point_reference(sm):
    assert all_orbits_infinite(sm) == _all_orbits_infinite_per_point(sm)
    # the least finite point lies in that window: none further up is less
    far = lock_height(sm) + 4 * sm.modulus + 40
    assert least_finite_point(sm, {}) == next(
        (x for x in range(far) if orbit_profile(sm, x).finite), None
    )


def test_all_orbits_infinite_builds_no_profile():
    # maps no other test uses, so a profile built here would be a miss
    for sm, want in (
        (DescribedNatMap((9, 4, 17, 3), 3, (2, -4, 6)), False),
        (DescribedNatMap((8, 8, 19), 2, (-1, 5)), True),
    ):
        misses = orbit_profile.cache_info().misses
        assert all_orbits_infinite.__wrapped__(sm) is want
        assert orbit_profile.cache_info().misses == misses
        assert _all_orbits_infinite_per_point(sm) is want


def test_infinite_profile_membership_agrees_with_simulation():
    for sm in (CONJ, BULLET, SHIFT2, DescribedNatMap((5, 0), 2, (1, 3))):
        prof = orbit_profile(sm, 0)
        if prof.finite:
            continue
        seen = {}
        y = 0
        for k in range(120):
            seen.setdefault(y, k)
            y = sm(y)
        for target in range(60):
            expected = seen.get(target)
            got = prof.hitting(target)
            if expected is not None:
                assert got == expected
        for k in range(120):
            assert prof.point_at(k) == sm.iterate(0, k)


def test_profile_points_upto_matches_simulation():
    prof = orbit_profile(CONJ, 3)
    direct = set()
    y = 3
    for _ in range(200):
        if y <= 60:
            direct.add(y)
        y = CONJ(y)
    assert prof.points_upto(60) == direct


# ---------------------------------------------------------------------------
# Run-length profiles against naive walks
# ---------------------------------------------------------------------------


def _naive(sm, x, steps):
    """The orbit of x up to its first repeated point or ``steps`` points, each
    point's first step, and whether a point repeated."""
    walk, first = [], {}
    for k in range(steps):
        if x in first:
            return walk, first, True
        walk.append(x)
        first[x] = k
        x = sm(x)
    return walk, first, False


def _listing_bound(prof):
    """The orbit's length plus two periods of its cycle or tail run."""
    period = prof.length - prof.mu if prof.finite else len(prof.tail_run.phases.sums)
    return prof.length + 2 * period


@settings(max_examples=150, deadline=None)
@given(nat_maps, st.integers(0, 10**12), st.integers(0, 10**6))
def test_profile_matches_naive_walk(sm, x, n_draw):
    # shifts are nonnegative here: a finite orbit closes within a few steps,
    # and an infinite one climbs by at least one per step on average, so
    # 2000 steps show every point at or below 200
    prof = orbit_profile(sm, x)
    walk, first, closed = _naive(sm, x, 2000)
    assert prof.finite == closed
    # the first n points, past the start of an infinite orbit's tail
    bound = _listing_bound(prof)
    for n in (n_draw % (bound + 1), bound):
        assert prof.points(n) == tuple(walk[:n])
    y = x
    for k in range(2000):
        assert prof.point_at(k) == y
        y = sm(y)
    for k, y in enumerate(walk):
        assert prof.hitting(y) == k
    assert prof.points_upto(200) == {p for p in walk if p <= 200}
    for y in range(201):
        assert prof.hitting(y) == first.get(y)


@settings(max_examples=150, deadline=None)
@given(
    descending_maps,
    st.one_of(st.integers(0, 5000), st.integers(0, 10**12)),
    st.lists(st.integers(0, 10**13), max_size=5),
    st.integers(0, 10**6),
)
def test_descending_profile_matches_naive_walk(sm, x, far_steps, n_draw):
    prof = orbit_profile(sm, x)
    walk, first, closed = _naive(sm, x, 30_000)
    # the first n points, as far as the walk went
    bound = _listing_bound(prof) if closed else min(_listing_bound(prof), len(walk))
    for n in (n_draw % (bound + 1), bound):
        assert prof.points(n) == tuple(walk[:n])
    for k in range(min(2000, len(walk))):
        assert prof.point_at(k) == walk[k]
        assert prof.hitting(walk[k]) == k
    # far along the orbit the runs must still follow the map, step by step,
    # and each point's hitting time must lead back to it
    for k in far_steps:
        y = prof.point_at(k)
        assert sm(y) == prof.point_at(k + 1)
        assert prof.point_at(prof.hitting(y)) == y
    if closed:  # the whole orbit was walked
        assert prof.finite and prof.length == len(walk) and prof.mu == first[sm(walk[-1])]
        assert prof.points() == tuple(walk)
        assert prof.points_upto(200) == {p for p in walk if p <= 200}
        for y in range(201):
            assert prof.hitting(y) == first.get(y)
    else:
        for p in prof.points_upto(200):
            assert prof.point_at(prof.hitting(p)) == p
        for y in set(range(201)) - prof.points_upto(200):
            assert prof.hitting(y) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(nat_maps, descending_maps), st.permutations(range(41)))
@example(DescribedNatMap((0, 1, 2, 40), 2, (1, -3)), list(range(41)))  # a descent tops out past its start
def test_orbit_summary_matches_profile(sm, window):
    # one memo for the whole window, filled in a drawn order; every point a
    # walk entered in it must carry its profile's facts too
    memo = {}
    for x in window:
        orbit_summary(sm, x, memo)
    for x, s in memo.items():
        prof = orbit_profile(sm, x)
        assert s.finite == prof.finite
        assert s.top == prof.max_point()
        if prof.finite:
            assert s.threshold is None and s.residues is None
        else:
            assert s.threshold == prof.asymptotic_threshold()
            assert s.residues == prof.tail_run.phases.residue_set


STEP_DOWN = DescribedNatMap((0,), 1, (-1,))
STEP_DOWN3 = DescribedNatMap((0, 1, 2), 3, (-3, -3, -3))


@pytest.mark.parametrize("x", [10**18, 10**18 + 2124231790572604, 10**18 + 2])
def test_start_near_1e18_closed_forms(x):
    # every point steps down by one to 0
    assert hitting_time(STEP_DOWN, x, 0) == x
    prof = orbit_profile(STEP_DOWN, x)
    assert prof.finite and prof.length == x + 1 and prof.mu == x
    assert prof.point_at(x // 2) == x - x // 2 and prof.point_at(5 * x) == 0
    # residues step down by three to their own fixed point 0, 1 or 2
    assert hitting_time(STEP_DOWN3, x, 0) == (x // 3 if x % 3 == 0 else None)
    assert hitting_time(STEP_DOWN3, x, x % 3) == x // 3
    # the descent is one run: a constant number of points walked
    for sm in (STEP_DOWN, STEP_DOWN3):
        assert len(orbit_profile(sm, x).seq) == 1 and len(orbit_profile(sm, x).runs) == 1


def test_orbit_too_long_to_list():
    for sm in (STEP_DOWN, STEP_DOWN3):
        with pytest.raises(OrbitTooLong):
            orbit(sm, 10**18)


def test_listing_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(orbits_mod, "MAX_LISTED_POINTS", 1000)
    with pytest.raises(OrbitTooLong):
        orbit(STEP_DOWN, 1000)  # 1001 points
    res = orbit(STEP_DOWN, 999)
    assert len(res.tail) + len(res.cycle) == 1000
    with pytest.raises(OrbitTooLong):
        orbit_profile(STEP_DOWN, 5000).points()
    with pytest.raises(OrbitTooLong):
        orbit_profile(named_map("succ"), 0).points(1001)
    # a finite orbit shorter than the limit lists whole, however many points are asked for
    assert orbit_profile(STEP_DOWN, 999).points(5000) == tuple(range(999, -1, -1))


# 0 -> 1 -> ... -> 5 -> 0, and 6 + j -> j + 1: each point of the cycle has a
# second preimage, so putting p + 6 in the listing for p breaks only the link into p
TWIN_CYCLE = FiniteTable(tuple((i + 1) % 6 for i in range(12)))


@pytest.mark.parametrize(
    "wrong",
    [1, 4, 0],
    ids=["first link", "link across the block edge", "closing link back to mu"],
)
def test_orbit_checks_every_link_of_the_listing(monkeypatch, wrong):
    monkeypatch.setattr(orbits_mod, "BLOCK_POINTS", 4)  # blocks [0, 4) and [4, 6)
    listing = orbit_profile(TWIN_CYCLE, 0).points()
    assert listing == (0, 1, 2, 3, 4, 5) and orbit(TWIN_CYCLE, 0).cycle == listing
    corrupt = listing[:wrong] + (listing[wrong] + 6,) + listing[wrong + 1 :]
    monkeypatch.setattr(orbits_mod.OrbitProfile, "points", lambda self, n=None: corrupt)
    with pytest.raises(AssertionError):
        orbit(TWIN_CYCLE, 0)


def test_orbit_of_a_long_descent_lists_every_link():
    res = orbit(STEP_DOWN3, 10**6 + 1)
    assert res.cycle == (2,) and res.tail == tuple(range(10**6 + 1, 2, -3))


def test_descent_closing_inside_an_earlier_run():
    # 0 -> 10^6, then down by one: from 100 the orbit descends to 0, jumps to
    # 10^6 and descends again into its own start
    sm = DescribedNatMap((10**6,), 1, (-1,))
    for x in (100, 30):
        prof = orbit_profile(sm, x)
        assert prof.finite and prof.mu == 0 and prof.length == 10**6 + 1
        assert prof.hitting(10**6) == x + 1 and prof.hitting(x + 1) == 10**6
        assert prof.hitting(10**6 + 1) is None
        res = orbit(sm, x)
        assert res.tail == () and res.cycle[: x + 2] == tuple(range(x, -1, -1)) + (10**6,)
    # from far above, the descent closes on the cycle at 10^6
    prof = orbit_profile(sm, 10**12)
    assert prof.mu == 10**12 - 10**6 and prof.length == 10**12 + 1


def test_multi_residue_descent_at_large_start():
    # even points step down by one, odd ones by three: a residue cycle of drift -4
    sm = DescribedNatMap((0, 1, 2), 2, (-1, -3))
    x = 10**12 + 7
    prof = orbit_profile(sm, x)
    assert prof.finite and len(prof.seq) < 10
    for k in (0, 1, 2, 3, 10**9, 10**9 + 1, prof.length - 2):
        assert sm(prof.point_at(k)) == prof.point_at(k + 1)
    assert prof.max_point() == x


# ---------------------------------------------------------------------------
# The shared point against a walk of every orbit
# ---------------------------------------------------------------------------


def _reference_xi(sm, istar, steps):
    """(point, hitting times) minimizing (sum of first-visit steps, point)
    over the points every walk visits, or None when they share none.  Each
    distinct start counts once."""
    firsts = [_naive(sm, a, steps)[1] for a in dict.fromkeys(istar)]
    common = set(firsts[0]).intersection(*firsts[1:])
    if not common:
        return None
    z = min(common, key=lambda y: (sum(f[y] for f in firsts), y))
    return z, tuple(f[z] for f in firsts)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        finite_maps.map(lambda sm: (sm, 2000)),
        nat_maps.map(lambda sm: (sm, 2000)),
        descending_maps.map(lambda sm: (sm, 40_000)),
    ),
    st.lists(st.integers(0, 40), min_size=1, max_size=3),
)
def test_xi_matches_walked_orbits(sm_steps, draws):
    # a finite orbit closes within its walk; infinite orbits that meet do so
    # within it, and at their shared point first
    sm, steps = sm_steps
    istar = tuple(a % sm.size for a in draws) if isinstance(sm, FiniteTable) else tuple(draws)
    z = xi(sm, istar)
    ref = _reference_xi(sm, istar, steps)
    if ref is None:
        assert z is None
    else:
        assert (z.point, tuple(z.hitting_times[a] for a in dict.fromkeys(istar))) == ref


# The answers below are worked by hand; at such starts no orbit can be listed.
LARGE_START_CASES = [
    (STEP_DOWN, (10**18, 5), 5, (10**18 - 5, 0)),
    # even points above the prefix step down by two to 0 -> 3, odd ones climb by two
    (DescribedNatMap((3, 3), 2, (-2, 2)), (10**18, 3), 3, (5 * 10**17 + 1, 0)),
    (DescribedNatMap((3, 3), 2, (-2, 2)), (10**18, 10**18 + 1), 10**18 + 1, (10**18, 0)),
    # 0 -> 10^18, then down by one: every orbit ends on that one cycle
    (DescribedNatMap((10**18,), 1, (-1,)), (0, 3), 0, (0, 3)),
    (DescribedNatMap((10**18,), 1, (-1,)), (7, 3), 3, (4, 0)),
]


@pytest.mark.parametrize("sm, istar, point, times", LARGE_START_CASES)
def test_shared_point_at_large_starts(sm, istar, point, times):
    z = xi(sm, istar)
    assert z.point == point and tuple(z.hitting_times[a] for a in istar) == times
    assert orbits_intersect(sm, *istar) == (point, *times)


def test_p1_removal_point_at_a_large_start():
    assert solve_P1(DescribedNatMap((3, 3), 2, (-2, 2))).u((10**18, 3)) == 3
