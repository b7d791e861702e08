"""Superset-preservation predicates, solvers, the reachability order, and indivisibility."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from strategies import descending_maps, finite_maps, nat_maps

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    NotAP2Solution,
    OrbitTooLong,
    StructureViolation,
    check_P,
    decompose_HHH,
    has_full_orbit,
    indivisibility_check,
    is_total_order,
    named_map,
    solve_P1,
    solve_P2,
)
from quasinv.orbits import hitting_time, orbit_profile
from quasinv.psolve import (
    SCOPE_ALL,
    SCOPE_INFINITE,
    _comparable,
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
    # the probe's peak at 1,000 and 4,000 maps (20 and 23 MB; 37 and 94 MB
    # with unbounded caches and a profile per point for finiteness)
    import quasinv

    probe = Path(__file__).parent / "cache_probe.py"
    env = {**os.environ, "PYTHONPATH": str(Path(quasinv.__file__).parent.parent)}
    peaks = [
        int(subprocess.run([sys.executable, str(probe), str(n)], env=env, capture_output=True,
                           text=True, timeout=120, check=True).stdout)
        for n in (1000, 4000)
    ]
    assert peaks[1] - peaks[0] < 10 * 1024, peaks


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
