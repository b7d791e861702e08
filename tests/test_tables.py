"""Finite-table queries, read from the table and from one functional-graph
decomposition per table, against a walk of every start's orbit and against
evaluating the map point by point."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quasinv import FiniteTable, OutOfDomain, hitting_time, in_D_phi, orbit, xi
from quasinv.oracle import enumerate_finite_maps
from quasinv.psolve import SCOPE_ALL, has_full_orbit, is_total_order, total_order_witness
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
