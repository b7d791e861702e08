"""Finite-table queries, read from the table and from one functional-graph
decomposition per table, against a walk of every start's orbit and against
evaluating the map point by point."""

import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quasinv import FiniteTable, OutOfDomain, hitting_time, in_D_phi, orbit, xi
from quasinv import orbits as orbits_mod
from quasinv.oracle import enumerate_finite_maps
from quasinv.orbits import all_orbits_infinite, orbit_profile, table_graph
from quasinv.psolve import (
    SCOPE_ALL,
    SCOPE_INFINITE,
    has_full_orbit,
    is_total_order,
    solve_P2,
    total_order_witness,
)
from quasinv.quasi import external_quasi_invariant, internal_quasi_invariant
from quasinv.supersets import build_G_orbit_union, check_superset_closure, orbit_union


# ---------------------------------------------------------------------------
# The reference: one walk per start, with the step at which it meets each
# point, evaluating the map point by point (so a point outside the table
# raises OutOfDomain)
# ---------------------------------------------------------------------------


def _walk(sm, x):
    """The points of x's orbit in step order, and each one's first step."""
    seq, first = [], {}
    while x not in first:
        first[x] = len(seq)
        seq.append(x)
        x = sm(x)
    return seq, first


def _ref_hitting(sm, x, y):
    return _walk(sm, x)[1].get(y)


def _ref_xi(sm, istar):
    firsts = [_walk(sm, a)[1] for a in dict.fromkeys(istar)]
    common = set(firsts[0]).intersection(*firsts[1:])
    if not common:
        return None
    z = min(common, key=lambda y: (sum(f[y] for f in firsts), y))
    return z, tuple(f[z] for f in firsts)


def _ref_orbit(sm, x):
    seq, first = _walk(sm, x)
    mu = first[sm.table[seq[-1]]]
    return tuple(seq[:mu]), tuple(seq[mu:])


def _ref_union(sm, whole, cut, v):
    pts = set()
    for a in whole:
        pts.update(_walk(sm, a)[0])
    for a in cut:
        seq, first = _walk(sm, a)
        pts.update(seq[: first[v] + 1])
    return tuple(sorted(pts))


def _ref_full_orbit(sm):
    return next((a for a in range(sm.size) if len(_walk(sm, a)[0]) == sm.size), None)


def _ref_order_witness(sm):
    n = sm.size
    for x, y in itertools.combinations(range(n), 2):
        if _ref_hitting(sm, x, y) is None and _ref_hitting(sm, y, x) is None:
            return (x, y)
    return None


def _check_table(sm, istars):
    """Every table query on sm against the reference; xi, in_D_phi and the
    unions over the sets ``istars``."""
    n = sm.size
    for x in range(n):
        for y in range(-1, n + 1):  # -1 and n lie outside: never read from a tuple's end
            assert hitting_time(sm, x, y) == _ref_hitting(sm, x, y), (sm.table, x, y)
        res = orbit(sm, x)
        assert (tuple(res.tail), tuple(res.cycle)) == _ref_orbit(sm, x), (sm.table, x)
    for istar in istars:
        z, ref = xi(sm, istar), _ref_xi(sm, istar)
        got = None if z is None else (z.point, tuple(z.hitting_times[a] for a in dict.fromkeys(istar)))
        assert got == ref, (sm.table, istar)
        assert in_D_phi(sm, istar) == (ref is not None), (sm.table, istar)
        assert orbit_union(sm, istar) == _ref_union(sm, istar, (), None), (sm.table, istar)
        # segments of every start that reaches v, with the other starts whole
        for v in {p for a in istar for p in _walk(sm, a)[0]}:
            cut = [a for a in istar if _ref_hitting(sm, a, v) is not None]
            whole = [a for a in istar if a not in cut]
            assert orbit_union(sm, whole, cut, v) == _ref_union(sm, whole, cut, v), (
                sm.table, whole, cut, v,
            )
    assert has_full_orbit(sm) == _ref_full_orbit(sm), sm.table
    witness = _ref_order_witness(sm)
    assert total_order_witness(sm, SCOPE_ALL) == witness, sm.table
    assert is_total_order(sm, SCOPE_ALL) == (witness is None), sm.table


def test_every_table_up_to_four_points():
    for n in range(1, 5):
        istars = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
        for sm in enumerate_finite_maps(n):
            _check_table(sm, istars)


# ---------------------------------------------------------------------------
# Random tables and shaped ones, their points relabelled at random
# ---------------------------------------------------------------------------


def _path(n):
    return [max(x - 1, 0) for x in range(n)]


def _rho(n, period):
    """A path of n - period points into a cycle of ``period``."""
    return [(x + 1) % period if x < period else x - 1 for x in range(n)]


def _star(n, period):
    """Every point off a cycle of ``period`` maps to the cycle's first point."""
    return [(x + 1) % period if x < period else 0 for x in range(n)]


@st.composite
def tables(draw):
    n = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(["random", "path", "rho", "star", "permutation"]))
    period = draw(st.integers(1, n))
    if shape == "random":
        table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    elif shape == "path":
        table = _path(n)
    elif shape == "rho":
        table = _rho(n, period)
    elif shape == "star":
        table = _star(n, period)
    else:
        table = draw(st.permutations(range(n)))
    # relabel by a random permutation, so cycles and trees lie anywhere
    label = draw(st.permutations(range(n)))
    out = [0] * n
    for x in range(n):
        out[label[x]] = label[table[x]]
    return FiniteTable(tuple(out))


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=4), max_size=4))
def test_table_queries_match_the_walks(sm, draws):
    istars = [tuple(a % sm.size for a in d) for d in draws]
    _check_table(sm, istars)


def test_a_start_outside_the_table_raises():
    sm = FiniteTable((1, 2, 0))
    for x in (-1, 3):
        for k in (0, 3):
            for lam in ((0, x), {x, 1}):
                with pytest.raises(OutOfDomain):
                    internal_quasi_invariant(sm, lam, k)
                with pytest.raises(OutOfDomain):
                    external_quasi_invariant(sm, lam, k)
        assert not check_superset_closure(sm, (x,), (0, 1, 2))  # not inside: nothing read
        with pytest.raises(OutOfDomain):
            check_superset_closure(sm, (x,), (0, 1, 2, x))
        with pytest.raises(OutOfDomain):
            check_superset_closure(sm, (0,), (0, 1, 2, x))
        with pytest.raises(OutOfDomain):
            build_G_orbit_union(sm, (0,), (x,))
        with pytest.raises(OutOfDomain):
            hitting_time(sm, x, 0)
        with pytest.raises(OutOfDomain):
            xi(sm, (0, x))
        with pytest.raises(OutOfDomain):
            in_D_phi(sm, (x,))
        with pytest.raises(OutOfDomain):
            orbit_union(sm, (x,))
        with pytest.raises(OutOfDomain):
            orbit(sm, x)


# ---------------------------------------------------------------------------
# Table reads against evaluating the map point by point
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """What fn returns, or OutOfDomain when it raises that."""
    try:
        return fn(*args)
    except OutOfDomain:
        return OutOfDomain


def _ref_internal(sm, lam, k):
    pts = set(lam)
    escapes = tuple(sorted(x for x in pts if sm(x) not in pts))
    return (True, "internal", escapes) if len(escapes) <= k else (False, "internal", None)


def _ref_external(sm, lam, k):
    pts = set(lam)
    excess = tuple(sorted({sm(x) for x in pts} - pts))
    return (len(excess) <= k, "external", excess)


def _ref_closure(sm, istar, g):
    g = set(g)
    # every point of the set is read, so one outside the table always raises
    return set(istar) <= g and all([sm(x) in g for x in g])


@st.composite
def table_and_points(draw):
    """A random table on n <= 8 points and two tuples of points, drawn from
    the table or from [-2, n + 2), which holds points on either side of it."""
    n = draw(st.integers(1, 8))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    lo, hi = draw(st.sampled_from([(0, n - 1), (-2, n + 1)]))
    points = st.lists(st.integers(lo, hi), min_size=1, max_size=5).map(tuple)
    return FiniteTable(tuple(table)), draw(points), draw(points)


@settings(max_examples=400, deadline=None)
@given(table_and_points())
def test_table_reads_match_per_point_evaluation(drawn):
    sm, lam, other = drawn
    for k in range(4):
        for pts in (lam, set(lam)):
            got = _outcome(internal_quasi_invariant, sm, pts, k)
            assert got == _outcome(_ref_internal, sm, lam, k), (sm.table, pts, k)
            got = _outcome(external_quasi_invariant, sm, pts, k)
            assert got == _outcome(_ref_external, sm, lam, k), (sm.table, pts, k)
    union = _outcome(_ref_union, sm, lam + other, (), None)
    assert _outcome(build_G_orbit_union, sm, lam, other) == union, (sm.table, lam, other)
    pairs = [(lam, other), (lam[:1], lam), (lam, lam + other)]
    if union is not OutOfDomain:
        pairs.append((lam, union))
    for istar, g in pairs:
        got = _outcome(check_superset_closure, sm, istar, g)
        assert got == _outcome(_ref_closure, sm, istar, g), (sm.table, istar, g)
    ref = _outcome(_ref_xi, sm, lam)
    z = _outcome(xi, sm, lam)
    if z not in (None, OutOfDomain):
        z = (z.point, tuple(z.hitting_times[a] for a in dict.fromkeys(lam)))
    assert z == ref, (sm.table, lam)
    meet = ref if ref is OutOfDomain else ref is not None
    assert _outcome(in_D_phi, sm, lam) == meet, (sm.table, lam)
    assert _outcome(in_D_phi, sm, iter(lam)) == meet, (sm.table, lam)
    for x in lam:
        res = _outcome(orbit, sm, x)
        if res is not OutOfDomain:
            res = (tuple(res.tail), tuple(res.cycle))
        assert res == _outcome(_ref_orbit, sm, x), (sm.table, x)


# ---------------------------------------------------------------------------
# A 2 * 10^4-entry path in bounded memory
# ---------------------------------------------------------------------------

PATH_QUERIES = """
import resource, sys
from quasinv import FiniteTable, is_total_order, xi
from quasinv.psolve import SCOPE_ALL, total_order_witness
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
n = int(sys.argv[1])
sm = FiniteTable(tuple(max(x - 1, 0) for x in range(n)))
assert is_total_order(sm, SCOPE_ALL) and total_order_witness(sm, SCOPE_ALL) is None
z = xi(sm, (n - 1, n - 2))
assert z.point == n - 2 and z.hitting_times == {n - 1: 1, n - 2: 0}, z
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="limits the address space")
def test_path_table_queries_run_in_bounded_memory():
    # a profile per start held the whole path's tail: 160 MB at n = 2,000
    import quasinv

    env = {**os.environ, "PYTHONPATH": str(Path(quasinv.__file__).parent.parent)}
    subprocess.run(
        [sys.executable, "-c", PATH_QUERIES, str(2 * 10**4)], env=env, timeout=60, check=True
    )


# ---------------------------------------------------------------------------
# One graph per table, in a cache bounded by bytes
# ---------------------------------------------------------------------------


def test_graph_arrays_are_the_narrowest_that_hold_the_table():
    # a 10-cycle and a 5-cycle; above them each point steps down by one, but
    # every thousandth jumps to a random lower point
    n, rng = 70_000, random.Random(7)
    table = [(x + 1) % 10 for x in range(10)] + [10 + (x - 9) % 5 for x in range(10, 15)]
    table += [x - 1 if x % 1000 else rng.randrange(x) for x in range(15, n)]
    sm = FiniteTable(tuple(table))
    g = table_graph(sm)
    # pre and post reach n, above 2^16: four bytes a point, not eight
    assert {a.itemsize for a in (g.comp, g.depth, g.pos, g.pre, g.post)} == {4}
    starts = (n - 1, n - 2, n // 2, 12_345, 1_000, 999, 14, 3)
    firsts = {a: _walk(sm, a)[1] for a in starts}
    for a in starts:
        for y in (*starts, 0, 9, 10, 2_000, n - 1000):
            assert g.hitting(a, y) == firsts[a].get(y), (a, y)
            assert hitting_time(sm, a, y) == firsts[a].get(y), (a, y)
    for istar in itertools.combinations(starts, 2):
        z, ref = xi(sm, istar), _ref_xi(sm, istar)
        assert (None if z is None else (z.point, tuple(z.hitting_times.values()))) == ref, istar


def _fresh_tables(count, n, seed):
    """Seeded random tables that no other test builds."""
    rng = random.Random(seed)
    return [FiniteTable(tuple(rng.randrange(n) for _ in range(n))) for _ in range(count)]


def test_table_queries_leave_the_map_caches_alone():
    caches = (orbit_profile, all_orbits_infinite, total_order_witness)
    before = [c.cache_info() for c in caches]
    for sm in _fresh_tables(20, 12, seed=101):
        for x in range(sm.size):
            orbit_profile(sm, x).points()
            orbit(sm, x)
            hitting_time(sm, x, 0)
        xi(sm, (0, 5, 11))
        in_D_phi(sm, (1, 2))
        all_orbits_infinite(sm)
        for scope in (SCOPE_ALL, SCOPE_INFINITE):
            total_order_witness(sm, scope)
        solve_P2(sm)
    assert [c.cache_info() for c in caches] == before


@pytest.fixture
def small_graph_budget(monkeypatch):
    """A 20 kB graph budget over an empty graph cache."""
    monkeypatch.setattr(orbits_mod, "TABLE_GRAPH_BYTES", 20_000)
    table_graph.cache_clear()
    yield 20_000
    table_graph.cache_clear()


def test_graph_cache_charges_stay_within_the_budget(small_graph_budget):
    tables = dict.fromkeys(_fresh_tables(40, 40, seed=202) + _fresh_tables(40, 3, seed=203))
    for i, sm in enumerate(tables, 1):
        g = table_graph(sm)
        assert table_graph(sm) is g  # kept until the cache next overflows
        info = table_graph.cache_info()
        assert info.maxbytes == small_graph_budget
        assert info.nbytes <= small_graph_budget
        kept = orbits_mod._graphs.values()
        assert info.nbytes == sum(map(orbits_mod._graph_bytes, kept))
        assert (info.hits, info.misses, info.currsize) == (i, i, len(kept))
    assert table_graph.cache_info().currsize < len(tables)  # the cache overflowed


def test_a_graph_above_the_whole_budget_is_returned_but_not_kept(small_graph_budget):
    small, big = FiniteTable((1, 0)), FiniteTable(tuple(range(1, 3000)) + (0,))
    kept = table_graph(small)
    g = table_graph(big)
    assert orbits_mod._graph_bytes(g) > small_graph_budget
    assert g.hitting(0, 2999) == 2999 and orbit(big, 0).cycle[:3] == (0, 1, 2)
    info = table_graph.cache_info()
    assert (info.misses, info.currsize, info.nbytes) == (3, 1, orbits_mod._graph_bytes(kept))
    assert table_graph(small) is kept and table_graph(big) is not g


def test_a_dropped_tables_graph_dies_with_the_cache():
    sm = _fresh_tables(1, 30, seed=303)[0]
    graph = weakref.ref(table_graph(sm))
    for x in range(sm.size):  # views, verdicts and shared points hold no graph once read
        orbit_profile(sm, x)
    xi(sm, (0, 1))
    total_order_witness(sm, SCOPE_ALL)
    gc.collect()
    assert graph() is not None  # the cache keeps it
    table_graph.cache_clear()
    gc.collect()
    assert graph() is None
