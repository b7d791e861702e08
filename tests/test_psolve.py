"""Superset-preservation predicates, solvers, the reachability order, and indivisibility."""

import os
import subprocess
import sys
from itertools import combinations, count
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from strategies import descending_maps, finite_maps, huge_prefix_maps, nat_maps

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    GenParams,
    NotAP2Solution,
    OrbitTooLong,
    StructureViolation,
    check_P,
    decompose_HHH,
    has_full_orbit,
    indivisibility_check,
    is_total_order,
    named_map,
    random_described_map,
    solve_P1,
    solve_P2,
)
from quasinv.orbits import (
    hitting_time,
    least_finite_point,
    lock_height,
    orbit_profile,
    orbit_summary,
    shift_magnitude,
    table_graph,
    tail_structure,
)
from quasinv.oracle import enumerate_finite_maps
from quasinv.psolve import (
    SCOPE_ALL,
    SCOPE_INFINITE,
    _ClassGroup,
    _comparable,
    _descend_entry,
    _first_incomparable,
    _is_chain,
    total_order_witness,
)
from quasinv.selfmap import parse_map

SUCC = named_map("succ")
IDENT = named_map("id")
BULLET = DescribedNatMap((2,), 1, (1,))
CONJ = DescribedNatMap((2,), 2, (-1, 3))
SHIFT2 = DescribedNatMap((), 1, (2,))
ZERO_FIX = DescribedNatMap((0,), 1, (1,))


def test_check_P_examples():
    assert check_P("P2", SUCC, range(5), 4, (1, 4))
    assert not check_P("P2", SUCC, range(5), 1, (1, 4))
    sm = FiniteTable((0, 1, 2))
    assert check_P("P1", sm, (1,), 1, (1,))


def test_decompose_examples():
    dec = decompose_HHH(ZERO_FIX, (0, 1, 2, 3), 3)
    assert (dec.h, dec.h_bar, dec.h_tilde) == ((1, 2, 3), (), (0,))
    dec = decompose_HHH(FiniteTable((1, 2, 0)), (0, 1, 2), 0)
    assert (dec.h, dec.h_bar, dec.h_tilde) == ((), (0, 1, 2), ())
    dec = decompose_HHH(SUCC, (0, 1, 2, 3), 3)
    assert dec.h == (0, 1, 2, 3) and dec.case == "infinite"


def test_decompose_rejects_bad_shapes():
    with pytest.raises(StructureViolation):
        decompose_HHH(SUCC, (0, 1, 2, 3), 1)  # removal point not the shared point
    with pytest.raises(StructureViolation):
        decompose_HHH(SUCC, (0, 1, 3), 3)  # a gap breaks the segment shape
    with pytest.raises(StructureViolation):
        decompose_HHH(FiniteTable((1, 2, 0)), (0, 1), 5)


def test_total_order():
    assert is_total_order(SUCC, SCOPE_ALL)
    assert not is_total_order(SHIFT2, SCOPE_ALL)
    assert not is_total_order(BULLET, SCOPE_ALL)
    assert is_total_order(CONJ, SCOPE_ALL)
    assert not is_total_order(ZERO_FIX, SCOPE_ALL)
    assert is_total_order(ZERO_FIX, SCOPE_INFINITE)
    assert is_total_order(FiniteTable((1, 2, 0)), SCOPE_ALL)
    assert not is_total_order(FiniteTable((1, 0, 3, 2)), SCOPE_ALL)
    assert is_total_order(FiniteTable((1, 0, 3, 2)), SCOPE_INFINITE)
    # descending staircase reaches every smaller point
    assert is_total_order(DescribedNatMap((0,), 1, (-1,)), SCOPE_ALL)


def test_total_order_witnesses_verify():
    for sm in (SHIFT2, BULLET, ZERO_FIX, DescribedNatMap((), 2, (2, 2))):
        wit = total_order_witness(sm, SCOPE_ALL)
        assert wit is not None
        x, y = wit
        assert hitting_time(sm, x, y) is None and hitting_time(sm, y, x) is None
    wit = total_order_witness(SHIFT2, SCOPE_INFINITE)
    assert wit is not None
    assert not orbit_profile(SHIFT2, wit[0]).finite


def test_total_order_deep_obstructions():
    # residues 1 and 3 feed the even cycle; far-apart odd points never meet
    sm = DescribedNatMap((), 4, (2, 1, 2, 1))
    assert not is_total_order(sm, SCOPE_ALL)
    wit = total_order_witness(sm, SCOPE_ALL)
    assert hitting_time(sm, wit[0], wit[1]) is None
    assert hitting_time(sm, wit[1], wit[0]) is None
    # mixed rising and falling residues glued through the prefix stay total:
    # odd points descend through 1 -> 0 and then climb the even chain
    mixed = DescribedNatMap((2, 0), 2, (2, -2))
    assert is_total_order(mixed, SCOPE_ALL)
    # the same glue missing the zero leaves (0, odd) incomparable
    broken = DescribedNatMap((2, 2), 2, (2, -2))
    assert not is_total_order(broken, SCOPE_ALL)
    wit = total_order_witness(broken, SCOPE_ALL)
    assert hitting_time(broken, wit[0], wit[1]) is None
    assert hitting_time(broken, wit[1], wit[0]) is None


any_map = st.one_of(nat_maps, descending_maps, finite_maps)


def _domain(sm, bound):
    return range(sm.size) if isinstance(sm, FiniteTable) else range(bound + 1)


@settings(max_examples=200, deadline=None)
@given(
    any_map.flatmap(
        lambda sm: st.tuples(
            st.just(sm), st.lists(st.sampled_from(_domain(sm, 40)), max_size=8, unique=True)
        )
    )
)
@example((SUCC, [5, 0, 3]))
@example((DescribedNatMap((0,), 1, (-1,)), [4, 9, 0, 2]))
@example((DescribedNatMap((0,), 1, (-1,)), [0, 1, 2, 3, 4, 5, 6, 7]))  # a new candidate at every point
@example((SHIFT2, [0, 2, 1]))
@example((FiniteTable((1, 0, 3, 2)), [0, 1, 2]))
def test_chain_test_agrees_with_pairwise_scan(case):
    sm, pts = case
    pairs = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1 :]]
    first = next(((x, y) for x, y in pairs if not _comparable(sm, x, y)), None)
    assert _is_chain(sm, pts) == (first is None)
    assert _first_incomparable(sm, pts) == first


@pytest.mark.parametrize(
    "sm, scope, witness",
    [
        (IDENT, SCOPE_ALL, (6, 13)),  # zero-drift residue
        (ZERO_FIX, SCOPE_ALL, (0, 11)),  # finite orbit below a rising one
        (DescribedNatMap((), 2, (4, 6)), SCOPE_ALL, (80, 165)),  # two positive cycles
        (SHIFT2, SCOPE_ALL, (16, 35)),  # drift off the modulus
        (DescribedNatMap((), 2, (3, 2)), SCOPE_ALL, (36, 74)),  # rising residue feeding a cycle
        (DescribedNatMap((8, 14), 2, (-2, 1)), SCOPE_ALL, (33, 63)),  # falling feeder
        (DescribedNatMap((22, 26), 1, (-2,)), SCOPE_ALL, (28, 49)),  # far-apart classes
        (DescribedNatMap((30, 33, 19, 34, 26, 14), 1, (-5,)), SCOPE_ALL, (45, 86)),
        (DescribedNatMap((1, 17, 1, 34, 3, 14), 2, (-6, 2)), SCOPE_INFINITE, (84, 164)),
        (DescribedNatMap((1, 18), 1, (-1,)), SCOPE_ALL, (0, 44)),  # low point
        (DescribedNatMap((9, 2), 2, (2, -2)), SCOPE_INFINITE, (0, 59)),
        (BULLET, SCOPE_ALL, (0, 1)),  # window
        (DescribedNatMap((0, 10**9, 0), 1, (-1,)), SCOPE_ALL, (1, 10**9 + 21)),  # low point, long descent
        # the finite orbit of 1 tops out at 99, above rep_base (31), so the
        # witness's second point clears that top
        (DescribedNatMap((4, 99, 1), 2, (2, -2)), SCOPE_ALL, (1, 112)),
        # prefix value 10^18: every entry orbit descends from it
        (DescribedNatMap((0, 10**18), 1, (-1,)), SCOPE_ALL, (0, 2 * 10**18 + 8)),
        (DescribedNatMap((0, 10**18), 1, (-1,)), SCOPE_INFINITE, None),
    ],
)
def test_total_order_witness_values(sm, scope, witness):
    # the first incomparable pair each stage of the decider finds, pinned
    assert total_order_witness(sm, scope) == witness


def _period_map(ks):
    # the benchmark's drift-period maps: m - 1 fixed residues falling by k*m,
    # one rising by m, over an identity prefix
    m = len(ks) + 1
    shifts = tuple([-k * m for k in ks] + [m])
    return DescribedNatMap(tuple(range(max(k * m for k in ks))), m, shifts)


@pytest.mark.parametrize(
    "ks, witness",
    [
        ((5, 7), (0, 497)),
        ((3, 4, 5), (0, 839)),
        ((4, 5, 7), (0, 1615)),
        ((5, 7, 8), (0, 2803)),
        ((5, 7, 9), (0, 3151)),
        ((5, 7, 9, 11), (0, 35829)),
    ],
)
def test_period_maps_total_on_infinite_orbits(ks, witness):
    sm = _period_map(ks)
    if ks == (5, 7, 9, 11):  # period 17325, also run from the command line in CI
        data = Path(__file__).parent / "data" / "period_17325.json"
        assert parse_map(data.read_text()) == sm
        # the window stage reads orbit summaries, so it caches no profile per
        # window point (78,125 of them); the decider runs uncached here
        orbit_profile.cache_clear()
        assert total_order_witness.__wrapped__(sm, SCOPE_INFINITE) is None
        assert orbit_profile.cache_info().currsize < 1000
    assert total_order_witness(sm, SCOPE_INFINITE) is None
    assert solve_P2(sm) is not None
    assert total_order_witness(sm, SCOPE_ALL) == witness


def test_prefix_1e18_map_solves():
    # also run from the command line in CI; every orbit is finite, and the
    # entry orbit of the one deep class descends from 10^18
    sm = parse_map((Path(__file__).parent / "data" / "prefix_1e18.json").read_text())
    assert sm == DescribedNatMap((0, 0, 0, 0, 0, 0, 10**18), 1, (-1,))
    assert total_order_witness(sm, SCOPE_ALL) == (0, 2 * 10**18 + 8)
    sol = solve_P2(sm)
    assert sol is not None and sol.G((2, 5)) == (0, 2, 5)


@pytest.mark.parametrize(
    "sm, witness",
    [
        (DescribedNatMap((5, 2, 1), 1, (1,)), (1, 13)),  # 1 -> 2 -> 1 is the least finite orbit
        (DescribedNatMap((6, 3, 3, 7), 2, (1, 3)), (44, 90)),  # every orbit infinite
    ],
)
def test_finite_point_search_builds_no_profile(sm, witness):
    # no residue descends, so the decider builds no entry profile either;
    # run uncached, on maps no other test uses
    misses = orbit_profile.cache_info().misses
    assert total_order_witness.__wrapped__(sm, SCOPE_ALL) == witness
    assert orbit_profile.cache_info().misses == misses
    assert not _comparable(sm, *witness)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_library_caches_stay_bounded():
    # the probe's peak at 1,000 and 4,000 maps (22 and 28 MB with its 64-entry
    # tables, whose graphs fill the 16 MB graph budget near 7,000 maps; 20
    # and 23 MB without them; 37 and 94 MB with unbounded caches and a
    # profile per point for finiteness)
    import quasinv

    probe = Path(__file__).parent / "cache_probe.py"
    env = {**os.environ, "PYTHONPATH": str(Path(quasinv.__file__).parent.parent)}
    peaks = [
        int(subprocess.run([sys.executable, str(probe), str(n)], env=env, capture_output=True,
                           text=True, timeout=120, check=True).stdout)
        for n in (1000, 4000)
    ]
    assert peaks[1] - peaks[0] < 10 * 1024, peaks


def _per_point_witness(sm, scope):
    """The total-order decider with its window read point by point: a
    summary for every point up to w_base, each low point against every deep
    class, a chain over the mid-range of deep pairs and a chain over every
    in-scope point up to w_final.  Linear in the largest prefix value, so
    only for small ones."""
    ts, m = tail_structure(sm), sm.modulus
    kinds = ["pos" if d > 0 else "zero" if d == 0 else "neg" for d in (ts.fate(r).drift for r in range(m))]

    def rep_at(value_class, base, mod):
        return base + (value_class - base) % mod

    c, deep = shift_magnitude(sm) + 1, lock_height(sm)
    period = lcm(m, *(abs(cy.drift) for cy in ts.cycles if cy.drift != 0))
    rep_base = deep + 2 * period + 2 * m * c
    delta_bound = 4 * m * c + 2 * period
    far = period * (1 + delta_bound // period)
    beyond = far + period
    groups = []
    for r, kind in enumerate(kinds):
        if kind != "neg":
            groups.append(_ClassGroup(r, m, r, kind))
            continue
        stride = abs(ts.fate(r).drift)
        for anchor in range(r, stride, m):
            entry = _descend_entry(sm, rep_at(anchor, rep_base, period), deep)
            groups.append(_ClassGroup(anchor, stride, r, kind, orbit_profile(sm, entry)))
    groups.sort(key=lambda g: g.anchor)
    exc = max([rep_base] + [g.entry_profile.max_point() for g in groups if g.kind == "neg"])
    x0_base = w_base = exc + period
    w_final = w_base + 2 * m * c + period + max(sm.prefix, default=0) + m
    if scope == SCOPE_ALL and "zero" in kinds:
        x0 = rep_at(kinds.index("zero"), rep_base, m)
        return (x0, x0 + far)
    memo = {}
    pos_cycles = ts.positive_cycles()
    pos_residues = frozenset()
    if "pos" in kinds:
        x_fin = least_finite_point(sm, memo) if scope == SCOPE_ALL else None
        if x_fin is not None:
            return (x_fin, rep_at(pos_cycles[0].residues[0], max(rep_base, memo[x_fin].top + 2 * m * c + 1), m))
        if len(pos_cycles) > 1:
            a = rep_at(pos_cycles[0].residues[0], rep_base, m)
            b = rep_at(pos_cycles[1].residues[0], rep_base, m)
            return (a, b + far) if a <= b else (b, a + far)
        drift = pos_cycles[0].drift
        if drift != m:
            x0 = rep_at(pos_cycles[0].residues[0], rep_base, m)
            return (x0, x0 + next(k * m for k in range(far // m, far // m + drift) if (k * m) % drift))
        for r in range(m):
            if kinds[r] == "pos" and not ts.on_cycle(r):
                x0 = rep_at(r, rep_base, m)
                return (x0, x0 + far)
        pos_residues = pos_cycles[0].residue_set
    scoped = [g for g in groups if g.in_scope(scope)]

    def hits(upper, lower_value):
        ph = ts.phases[upper.residue]
        q = None if ph is None else ph.phase_of.get(lower_value % m)
        return q is not None and (lower_value - upper.anchor - ph.sums[q]) % abs(ph.drift) == 0

    def tail_residues(g):
        return frozenset() if g.entry_profile.finite else g.entry_profile.tail_run.phases.residue_set

    for g in scoped:
        if g.kind == "neg" and not ts.on_cycle(g.residue):
            x0 = rep_at(g.anchor, x0_base, period)
            return (x0, x0 + far)
    for low in scoped:
        for high in scoped:
            up = high.residue in (pos_residues if low.kind == "pos" else tail_residues(low) if low.kind == "neg" else ())
            down = high.kind == "neg" and (hits(high, low.anchor) or low.anchor % m in tail_residues(high))
            if not (up or down):
                x0 = rep_at(low.anchor, x0_base, period)
                return (x0, x0 + (high.anchor - low.anchor) % period + beyond)
    mid_top = x0_base + period + delta_bound
    mid = sorted(y for g in scoped for y in range(rep_at(g.anchor, x0_base, g.stride), mid_top + 1, g.stride))
    pair = _first_incomparable(sm, mid)
    if pair is not None:
        return pair
    summaries = [orbit_summary(sm, x, memo) for x in range(w_base + 1)]
    w_final = max([w_final] + [s.threshold for s in summaries if not s.finite])
    in_scope = [x for x in range(w_final + 1) if scope == SCOPE_ALL or not orbit_summary(sm, x, memo).finite]
    for x in in_scope:
        if x > w_base:
            break
        s = summaries[x]
        for g in scoped:
            if not s.finite and g.residue in s.residues:
                continue
            if g.kind == "neg" and ((x >= deep and hits(g, x)) or g.entry_profile.hitting(x) is not None):
                continue
            return (x, rep_at(g.anchor, max(w_final, s.top, x + m * c) + 1, period))
    return _first_incomparable(sm, in_scope)


@settings(max_examples=60, deadline=None)
@given(descending_maps)
@example(DescribedNatMap((0, 4000), 1, (-1,)))
@example(DescribedNatMap((4, 99, 1), 2, (2, -2)))
@example(DescribedNatMap((2, 4999, 0, 7), 3, (-4, 3, -4)))
@example(DescribedNatMap((0, 4, 0), 1, (1,)))  # the first pair reaches the upper half of [0, deep)
# the benchmark's drift-period maps: fixed residues falling by k*m, one rising
# by m, under an identity prefix of length max(k*m), for periods 105 to 1260
@example(DescribedNatMap(tuple(range(21)), 3, (-15, -21, 3)))
@example(DescribedNatMap(tuple(range(20)), 4, (-12, -16, -20, 4)))
@example(DescribedNatMap(tuple(range(28)), 4, (-16, -20, -28, 4)))
@example(DescribedNatMap(tuple(range(32)), 4, (-20, -28, -32, 4)))
@example(DescribedNatMap(tuple(range(36)), 4, (-20, -28, -36, 4)))
def test_decider_matches_per_point_reference(sm):
    # the per-run window, without the mid-range stage, names the same first
    # pair as the point-by-point reading in both scopes
    for scope in (SCOPE_ALL, SCOPE_INFINITE):
        assert total_order_witness(sm, scope) == _per_point_witness(sm, scope), scope


@settings(max_examples=60, deadline=None)
@given(huge_prefix_maps, st.sampled_from([SCOPE_ALL, SCOPE_INFINITE]))
@example(DescribedNatMap((5, 10**18, 2), 1, (-1,)), SCOPE_ALL)
@example(DescribedNatMap((10**18,), 1, (-1,)), SCOPE_ALL)
@example(DescribedNatMap((3, 10**18, 7), 1, (-1,)), SCOPE_INFINITE)
def test_decider_cost_ignores_prefix_values(sm, scope):
    # at prefix values up to 10^18 the decider answers from a bounded number
    # of profiles, and its witness is an in-scope incomparable pair
    misses = orbit_profile.cache_info().misses
    wit = total_order_witness.__wrapped__(sm, scope)
    assert orbit_profile.cache_info().misses - misses < 1000
    if wit is not None:
        x, y = wit
        assert x < y and hitting_time(sm, x, y) is None and hitting_time(sm, y, x) is None
        if scope == SCOPE_INFINITE:
            assert not orbit_profile(sm, x).finite and not orbit_profile(sm, y).finite


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 3000))
def test_descend_entry_matches_a_step_by_step_walk(seed, pick, lift):
    # from above the lock height on a residue with a falling fate, the walk
    # by legs lands on the first point below it, as stepping the map does;
    # the map is the first from the drawn seed on with such a residue (about
    # one map in four has one)
    for seed in count(seed):
        sm = random_described_map(seed, GenParams(4, 3, 3, 12))
        ts, floor, m = tail_structure(sm), lock_height(sm), sm.modulus
        falling = [r for r in range(m) if ts.fate(r).drift < 0]
        if falling:
            break
    r = falling[pick % len(falling)]
    y = z = floor + (r - floor) % m + lift * m
    while z >= floor:
        z = sm(z)
    assert _descend_entry(sm, y, floor) == z


@settings(max_examples=150, deadline=None)
@given(any_map, st.sampled_from([SCOPE_ALL, SCOPE_INFINITE]))
def test_witness_in_scope_and_incomparable(sm, scope):
    def in_scope(x):
        return scope == SCOPE_ALL or not orbit_profile(sm, x).finite

    wit = total_order_witness(sm, scope)
    if wit is not None:
        x, y = wit
        assert x < y and in_scope(x) and in_scope(y)
        assert hitting_time(sm, x, y) is None and hitting_time(sm, y, x) is None
        return
    pts = [x for x in _domain(sm, 30) if in_scope(x)]
    assert all(_comparable(sm, x, y) for x, y in combinations(pts, 2))


def test_solve_p1():
    sol = solve_P1(SUCC)
    assert sol.G((2, 5)) == (2, 3, 4, 5) and sol.u((2, 5)) == 5
    # segments are listed in closed form, and bounded like every listing
    assert sol.G((0, 10**6)) == tuple(range(10**6 + 1))
    with pytest.raises(OrbitTooLong):
        sol.G((0, 10**9))
    assert solve_P1(SHIFT2) is None
    assert solve_P1(FiniteTable((1, 2, 0, 0))) is not None
    assert solve_P1(BULLET) is not None


def test_solve_p2():
    sol = solve_P2(SUCC)
    assert sol.u((1, 4)) == 4
    assert set(sol.G((1, 4))) >= {1, 2, 3, 4}
    with pytest.raises(OrbitTooLong):
        sol.G((0, 10**9))  # an initial segment of the full orbit of 0
    assert solve_P2(BULLET) is None
    assert solve_P2(ZERO_FIX) is not None
    assert solve_P2(FiniteTable((1, 2, 0))) is not None


def test_solutions_verify_on_samples():
    from itertools import combinations

    istars = [c for s in (1, 2, 3) for c in combinations(range(9), s)]
    for sm in (SUCC, CONJ, ZERO_FIX, IDENT, FiniteTable((1, 2, 0, 3, 3))):
        for mode, solver in (("P1", solve_P1), ("P2", solve_P2)):
            sol = solver(sm)
            if sol is None:
                continue
            for istar in istars:
                if isinstance(sm, FiniteTable) and max(istar) >= sm.size:
                    continue
                assert check_P(mode, sm, sol.G(istar), sol.u(istar), istar), (mode, istar)


def test_full_orbit():
    assert has_full_orbit(SUCC) == 0
    assert has_full_orbit(CONJ) == 0
    assert has_full_orbit(BULLET) is None
    assert has_full_orbit(SHIFT2) is None
    assert has_full_orbit(IDENT) is None
    assert has_full_orbit(FiniteTable((1, 2, 0))) == 0
    assert has_full_orbit(FiniteTable((1, 2, 1))) == 0  # tadpole covering everything
    assert has_full_orbit(FiniteTable((0, 1))) is None


def _full_orbit_by_every_start(sm):
    """The first start whose walk visits every point of the table, or None."""
    for a in range(sm.size):
        seen, y = set(), a
        while y not in seen:
            seen.add(y)
            y = sm(y)
        if len(seen) == sm.size:
            return a
    return None


def test_full_orbit_on_every_small_table():
    for n in range(1, 6):
        for sm in enumerate_finite_maps(n):
            assert has_full_orbit(sm) == _full_orbit_by_every_start(sm), sm.table


def test_full_orbit_on_a_table_walks_one_candidate():
    # tables no other test builds: the walk from the one candidate marks
    # points until it closes, and neither a graph nor a profile is cached
    n = 3000
    path = FiniteTable(tuple(max(x - 1, 0) for x in range(n)))
    two_cycles = FiniteTable(tuple((x + 2) % n for x in range(n)))
    rho = FiniteTable(tuple(x + 1 if x < n - 1 else n // 2 for x in range(n)))
    graphs, profiles = table_graph.cache_info(), orbit_profile.cache_info()
    assert has_full_orbit(path) == n - 1
    assert has_full_orbit(two_cycles) is None
    assert has_full_orbit(rho) == 0
    assert table_graph.cache_info().currsize == graphs.currsize
    assert table_graph.cache_info().misses == graphs.misses
    assert orbit_profile.cache_info().misses == profiles.misses


def test_indivisibility_succ():
    report = indivisibility_check(SUCC, solve_P2(SUCC), 5)
    assert report.identity_only
    assert report.candidates_checked == 720


def test_indivisibility_rejects_transposition():
    # any non-identity permutation breaks containment on the singleton supersets
    sol = solve_P2(SUCC)
    g0 = sol.G((0,))
    assert g0 == (0,)  # alpha(0) must stay put, killing the (0,1) swap


def test_indivisibility_requires_p2():
    sol = solve_P2(SUCC)
    bad = type(sol)("P2", sol.G, lambda istar: min(istar) - 1 if min(istar) else 0, "broken")
    with pytest.raises(NotAP2Solution):
        indivisibility_check(SUCC, bad, 3)
