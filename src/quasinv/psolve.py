"""Superset-preservation-up-to-one-removal: the two problem variants and their solvers.

Variant one allows the removed point anywhere in the superset; it is solvable
exactly when every two infinite orbits intersect.  Variant two forces the
removed point into the queried set; it is solvable exactly when orbit
reachability totally orders the infinite-orbit points.  Both solvers build
computable selectors (superset builder G, removal point u), and a bounded
search harness refutes nontrivial factorizations of the map through a
superset-preserving bijection.

Deciding the total order over the whole of the naturals reduces to finite
work: deep points (above the prefix-influence band) behave periodically in
their residue class modulo a global period, so one representative per class
pins down every far-apart pair, and a window check settles the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable, Optional

from .errors import NotAP2Solution, StructureViolation
from .orbits import (
    OrbitProfile,
    OrbitSummary,
    TableGraph,
    _described_cache,
    _leg,
    all_orbits_infinite,
    check_p_tilde,
    hitting_time,
    least_finite_point,
    lock_height,
    orbit_profile,
    orbit_summaries,
    shift_magnitude,
    table_graph,
    tail_structure,
    xi,
)
from .selfmap import DescribedNatMap, FiniteTable, SelfMap
from .supersets import orbit_union

SCOPE_ALL = "all"
SCOPE_INFINITE = "infinite_only"

# Bound of the verdict cache, in (described map, scope) pairs: 135 in the
# theorem suite at its defaults, 800 per repetition of the benchmark's
# "queries" workload.  A finite table's verdict is not cached: it is O(n) from
# the table's graph, which the graph cache holds.
TOTAL_ORDER_CACHE = 1024


# ---------------------------------------------------------------------------
# The reachability order
# ---------------------------------------------------------------------------


def _comparable(sm: SelfMap, x: int, y: int) -> bool:
    return hitting_time(sm, x, y) is not None or hitting_time(sm, y, x) is not None


def _is_chain(sm: SelfMap, points: list[int]) -> bool:
    """Are the points pairwise comparable?

    They are iff one of them reaches all the others: two points of one orbit
    are comparable, and a finite total preorder has a least element.  One
    pass finds the only candidate, a second checks that it reaches every
    point: 2|S| hitting queries instead of |S|^2 / 2.  The candidate reaches
    every point seen so far; it gives way to a point y its orbit misses.  In
    a chain y then reaches the candidate, and with it every point seen so
    far.  Profiles are built for candidates only.
    """
    if not points:
        return True
    prof = orbit_profile(sm, points[0])
    for y in points[1:]:
        if prof.hitting(y) is None:
            prof = orbit_profile(sm, y)
    return all(prof.hitting(y) is not None for y in points)


def _first_incomparable(sm: SelfMap, points: list[int]) -> Optional[tuple[int, int]]:
    """The first incomparable pair of ``points`` in scan order, or None."""
    if _is_chain(sm, points):
        return None
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            if not _comparable(sm, x, y):
                return (x, y)
    raise AssertionError("points that form no chain have an incomparable pair")


@dataclass
class _ClassGroup:
    """The deep classes (values modulo the global period) congruent to
    ``anchor`` modulo ``stride``, which behave alike.

    A rising or zero-drift class depends only on its residue, so its stride
    is the modulus.  A descending class depends on its residue and on where
    its descent enters the band, which is fixed by the value modulo the
    |drift| of its residue's cycle (a start |drift| higher passes through the
    lower one after one cycle period), so its stride is that |drift|.  The
    anchor lies below the stride: it is the group's smallest class.
    """

    anchor: int
    stride: int
    residue: int
    kind: str  # "pos" | "zero" | "neg"
    entry_profile: Optional[OrbitProfile] = None  # orbit after descending, neg kind only

    def in_scope(self, scope: str) -> bool:
        if scope == SCOPE_ALL:
            return True
        if self.kind == "pos":
            return True
        if self.kind == "zero":
            return False
        return not self.entry_profile.finite


def _descend_entry(sm: DescribedNatMap, y: int, floor: int) -> int:
    """First trajectory point below ``floor``, a height at or above the
    prefix; caller guarantees descent.  The walk takes a profile's legs
    (``_leg``) with ``floor`` for the prefix, so whole periods of a falling
    cycle that stay at or above ``floor`` are skipped at once."""
    phases = tail_structure(sm).phases
    while y >= floor:
        ph, periods = _leg(sm, phases, y, floor)
        y = y + periods * ph.drift if periods else sm(y)
    return y


def _check_scope(scope: str) -> None:
    if scope not in (SCOPE_ALL, SCOPE_INFINITE):
        raise ValueError(f"unknown scope {scope!r}")


@lru_cache(maxsize=TOTAL_ORDER_CACHE)
def _described_witness(sm: DescribedNatMap, scope: str) -> Optional[tuple[int, int]]:
    _check_scope(scope)
    return _described_total_order_witness(sm, scope)


@_described_cache(_described_witness)
def total_order_witness(sm: SelfMap, scope: str = SCOPE_ALL) -> Optional[tuple[int, int]]:
    """An incomparable in-scope pair, or None when reachability totally orders the scope.

    Every negative verdict is certified by a concrete pair; callers can
    re-verify it with two hitting-time queries.  A described map's verdict
    is cached; a finite table's is read afresh from its graph.
    """
    if sm.__class__ is not DescribedNatMap and isinstance(sm, FiniteTable):
        _check_scope(scope)
        # a finite table has no infinite orbit
        return None if scope == SCOPE_INFINITE else _table_total_order_witness(table_graph(sm))
    return _described_witness(sm, scope)


def _table_total_order_witness(g: TableGraph) -> Optional[tuple[int, int]]:
    """The first incomparable pair of a table's points in scan order, or
    None, in O(n) with the graph's O(1) reachability.

    Call a point universal when it is comparable with every point.  With
    more than one component none is; with one, a cycle point is, and a
    point x off the cycle is iff its subtree in the in-forest and the
    depth[x] - 1 points on its way to the cycle hold all n - L points off
    it.  The first pair's x is the least point that is not universal: every
    point below it is universal, and a point incomparable with x is not, so
    lies above x.  Its y is the least point above x that x does not compare
    with.
    """
    n, depth, pre, post = len(g.table), g.depth, g.pre, g.post
    one = len(g.cycles) == 1
    off = n - g.period(0)  # the points off the cycle, when there is one

    def universal(x: int) -> bool:
        return one and (not depth[x] or post[x] - pre[x] + depth[x] - 1 == off)

    x = next((x for x in range(n) if not universal(x)), None)
    if x is None:
        return None
    y = next(y for y in range(x + 1, n) if g.hitting(x, y) is None and g.hitting(y, x) is None)
    return (x, y)


def is_total_order(sm: SelfMap, scope: str = SCOPE_ALL) -> bool:
    """Is every pair (in scope) comparable under orbit reachability?

    Scope ``all`` quantifies over the whole domain, ``infinite_only`` over
    the points with infinite orbit.
    """
    return total_order_witness(sm, scope) is None


def _described_total_order_witness(sm: DescribedNatMap, scope: str) -> Optional[tuple[int, int]]:
    """The stages below, each returning the first pair it finds: zero-drift
    and rising classes, far-apart class pairs, low points against deep
    classes, and the final pass over the window [0, w_final].

    The window is read below deep, the lock height, whatever its top.
    Lemma: once the far-apart stage passes, two in-scope points at or above
    deep are incomparable only if one, x, rises and the other falls, and x
    is off the falling group's entry orbit.  Rising points all lie on the
    one positive cycle, of drift m, whose tail from x holds every point of
    its residues from an offset on, so of two rising points one reaches the
    other.  Falling in-scope points all lie on one falling cycle and their
    groups meet pairwise (``desc_class_hits``), so the higher of two falling
    points descends through the lower, or the lower passes the higher
    within its first period.  A falling orbit meets rising residues only in
    its entry orbit.  A rising point at or above prefix_len + m*c starts
    its tail at once, so an orbit holds such points of one residue only as
    an upper set, and the point y of x's residue in [prefix_len + m*c, deep)
    is off the entry orbit too.  Hence:

    * a falling point at or above deep passes the low-point test, and a
      rising one x fails it only if y does, so that test reads the points
      below deep; once it passes, all deep pairs are comparable;
    * every deep falling point reaches a low point x, which the low-point
      test put on its entry orbit, and a deep rising point z is
      incomparable with x only if the point of z's residue in
      [prefix_len + m*c, deep), which climbs to z, is too; so the final
      pass's first pair lies below deep;
    * a point x from deep up to w_base starts a tail within 2*m*c above x,
      below w_final's starting value, or takes the threshold of its
      trajectory's first point below deep, so w_final reads the thresholds
      below deep;
    * no stage reads a mid-range of deep pairs.

    So the decider reads prefix_len + 2*m*c points, and its cost depends on
    the prefix length, the modulus, the shifts and the period, not on the
    prefix values.
    """
    ts = tail_structure(sm)
    m = sm.modulus
    kinds = []
    for r in range(m):
        d = ts.fate(r).drift
        kinds.append("pos" if d > 0 else "zero" if d == 0 else "neg")

    def rep_at(value_class: int, base: int, mod: int) -> int:
        return base + (value_class - base) % mod

    # Bounds.  A step moves a point above the prefix by less than c, and a
    # residue path or a cycle period takes at most m steps, so it moves a
    # point by less than m*c.
    c = shift_magnitude(sm) + 1
    # deep: the lock height, where the prefix-influence band ends.
    deep = lock_height(sm)
    # period: the modulus and every cycle's |drift| divide it, so deep points
    # behave periodically modulo it; a class is a value modulo period.
    period = lcm(m, *(abs(cy.drift) for cy in ts.cycles if cy.drift != 0))
    # rep_base: class representatives lie two periods and two residue paths
    # above the band, so a representative and the point one period (or one
    # |drift|) higher follow the same residues down to the same entry point.
    rep_base = deep + 2 * period + 2 * m * c
    # delta_bound: four residue paths and two periods, room for both points
    # of a pair to settle into their classes' behaviour; wider gaps are
    # settled by classes alone.
    delta_bound = 4 * m * c + 2 * period
    # far, beyond: the least multiple of the period above delta_bound, and
    # one period more; jumps by them keep the class and clear every
    # transient, and beyond leaves a period for a witness's offset into its
    # high class.
    far = period * (1 + delta_bound // period)
    beyond = far + period
    # Deep classes, grouped by the key their verdicts depend on (see
    # _ClassGroup): one descent per key, each checked to be the same from
    # one period higher.
    groups: list[_ClassGroup] = []
    for r, kind in enumerate(kinds):
        if kind != "neg":
            groups.append(_ClassGroup(r, m, r, kind))
            continue
        stride = abs(ts.fate(r).drift)
        for anchor in range(r, stride, m):
            rep = rep_at(anchor, rep_base, period)
            entry = _descend_entry(sm, rep, deep)
            assert _descend_entry(sm, rep + period, deep) == entry, "entry point must stabilize"
            groups.append(_ClassGroup(anchor, stride, r, kind, orbit_profile(sm, entry)))
    groups.sort(key=lambda g: g.anchor)
    # exc: the exceptional-channel bound, the top of every entry orbit; below
    # it concrete orbits may add stray comparabilities, at or above it only
    # class-periodic channels act.
    exc = max([rep_base] + [g.entry_profile.max_point() for g in groups if g.kind == "neg"])
    # x0_base = w_base: one period above exc, so each class has a
    # representative in [x0_base, x0_base + period) for far-apart witnesses;
    # the points up to w_base are the low points, checked against every
    # deep class.
    x0_base = w_base = exc + period
    # w_final: the top of the window whose pairs the final pass checks,
    # two residue paths, a period, the largest prefix value and a modulus
    # above w_base; the window stage raises it to the asymptotic threshold
    # of every infinite orbit from a low point.
    w_final = w_base + 2 * m * c + period + max(sm.prefix, default=0) + m

    if scope == SCOPE_ALL and "zero" in kinds:
        # two far-apart deep points of a zero-drift residue have disjoint finite orbits
        r = kinds.index("zero")
        x0 = rep_at(r, rep_base, m)
        return (x0, x0 + far)

    # orbit summaries, from one pass over the points in increasing order
    # (orbit_summaries) with one memo for this call only
    memo: dict[int, OrbitSummary] = {}
    pos_cycles = ts.positive_cycles()
    pos_residues = frozenset()
    if any(k == "pos" for k in kinds):
        x_fin = least_finite_point(sm, memo) if scope == SCOPE_ALL else None
        if x_fin is not None:
            top = memo[x_fin].top + 2 * m * c + 1
            y = rep_at(pos_cycles[0].residues[0], max(rep_base, top), m)
            return (x_fin, y)
        if len(pos_cycles) > 1:
            a = rep_at(pos_cycles[0].residues[0], rep_base, m)
            b = rep_at(pos_cycles[1].residues[0], rep_base, m)
            return (a, b + far) if a <= b else (b, a + far)
        if pos_cycles[0].drift != m:
            # a deep orbit covers only every (drift/m)-th point of each
            # residue class, so same-class points fall out of step
            drift = pos_cycles[0].drift
            x0 = rep_at(pos_cycles[0].residues[0], rep_base, m)
            delta = next(k * m for k in range(far // m, far // m + drift) if (k * m) % drift)
            return (x0, x0 + delta)
        for r in range(m):
            if kinds[r] == "pos" and not ts.on_cycle(r):
                x0 = rep_at(r, rep_base, m)
                return (x0, x0 + far)
        pos_residues = pos_cycles[0].residue_set

    scoped = [g for g in groups if g.in_scope(scope)]

    def desc_class_hits(upper: _ClassGroup, lower_value: int) -> bool:
        """Does the descent of every deep point of ``upper`` pass through
        every deep point congruent to ``lower_value``?"""
        ph = ts.phases[upper.residue]
        q = None if ph is None else ph.phase_of.get(lower_value % m)
        if q is None:
            return False
        return (lower_value - upper.anchor - ph.sums[q]) % abs(ph.drift) == 0

    def covers_up(low: _ClassGroup, high: _ClassGroup) -> bool:
        """Do the orbits of deep ``low`` points eventually contain every
        sufficiently large point of ``high``'s class?"""
        if low.kind == "pos":
            return high.residue in pos_residues
        if low.kind == "neg" and not low.entry_profile.finite:
            return high.residue in low.entry_profile.tail_run.phases.residue_set
        return False

    def covers_down(high: _ClassGroup, low_anchor: int) -> bool:
        """Do the orbits of deep ``high`` points contain every deep point of
        the class ``low_anchor`` lying far below them?"""
        if high.kind != "neg":
            return False
        if desc_class_hits(high, low_anchor):
            return True
        entry = high.entry_profile
        return not entry.finite and low_anchor % m in entry.tail_run.phases.residue_set

    def class_rep(anchor: int) -> int:
        return rep_at(anchor, x0_base, period)

    # deep residues must all land on their own cycles: a residue feeding a
    # cycle from outside yields same-class deep points that never meet
    for g in scoped:
        if g.kind == "neg" and not ts.on_cycle(g.residue):
            x0 = class_rep(g.anchor)
            return (x0, x0 + far)

    # far-apart deep pairs, one condition per ordered class pair.  The classes
    # of a group meet every other group alike: desc_class_hits reads the low
    # anchor only when the low residue lies on the high residue's cycle, and
    # then only modulo that cycle's |drift|, which is the low group's stride.
    for low in scoped:
        for high in scoped:
            if not (covers_up(low, high) or covers_down(high, low.anchor)):
                x0 = class_rep(low.anchor)
                delta = (high.anchor - low.anchor) % period + beyond
                return (x0, x0 + delta)

    # window: transitional pairs and everything below the deep band.  The
    # points below deep stand for the whole window (see the docstring).
    lows = list(enumerate(orbit_summaries(sm, deep, memo)))
    w_final = max([w_final] + [s.threshold for _, s in lows if not s.finite])
    lows = [(x, s) for x, s in lows if scope == SCOPE_ALL or not s.finite]

    # each low point against every deep class far above the window
    for x, s in lows:
        for g in scoped:
            if not s.finite and g.residue in s.residues:
                continue  # the orbit of x eventually swallows the whole class
            if g.kind == "neg" and (
                (x >= deep and desc_class_hits(g, x))
                or g.entry_profile.hitting(x) is not None
            ):
                continue
            y = rep_at(g.anchor, max(w_final, s.top, x + m * c) + 1, period)
            return (x, y)

    return _first_incomparable(sm, [x for x, _ in lows])


# ---------------------------------------------------------------------------
# Predicates and structure
# ---------------------------------------------------------------------------


def check_P(
    mode: str, sm: SelfMap, g_value: Iterable[int], u_value: int, istar: Iterable[int]
) -> bool:
    """Verify one instance of the chosen predicate on concrete values."""
    g = set(g_value)
    i = set(istar)
    if mode == "P1":
        if u_value not in g:
            return False
    elif mode == "P2":
        if u_value not in i:
            return False
    else:
        raise ValueError(f"mode must be 'P1' or 'P2', got {mode!r}")
    if not i <= g:
        return False
    return all(sm(x) in g for x in g if x != u_value)


@dataclass(frozen=True)
class HDecomposition:
    """Partition of a superset into infinite-orbit, through-v, and leftover parts."""

    h: tuple[int, ...]
    h_bar: tuple[int, ...]
    h_tilde: tuple[int, ...]
    case: str  # "infinite" | "finite"


def decompose_HHH(sm: SelfMap, g_value: Iterable[int], v_value: int) -> HDecomposition:
    """Split a candidate superset into the canonical three parts and verify its shape.

    Raises StructureViolation when the shape fails, which signals that the
    pair (G, v) cannot come from a valid variant-one solution.
    """
    g = sorted(set(g_value))
    if v_value not in g:
        raise StructureViolation(f"removal point {v_value} is not in the superset")
    profs = {a: orbit_profile(sm, a) for a in g}
    h = tuple(a for a in g if not profs[a].finite)
    fin = [a for a in g if profs[a].finite]
    h_bar = tuple(a for a in fin if v_value in profs[a])
    h_tilde = tuple(a for a in fin if v_value not in profs[a])

    if h:
        if h_bar:
            raise StructureViolation("finite orbits may not pass through the removal point")
        z = xi(sm, h)
        if z is None or z.point != v_value:
            raise StructureViolation("the removal point must be the shared point of the infinite part")
        cut, case = h, "infinite"
    elif h_bar:
        cut, case = h_bar, "finite"
    else:
        raise StructureViolation("some element's orbit must pass through the removal point")
    if orbit_union(sm, h_tilde, cut, v_value) != tuple(g):
        raise StructureViolation("superset is not the prescribed union of orbits and segments")
    return HDecomposition(h, h_bar, h_tilde, case)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@dataclass
class PSolution:
    """Computable selectors witnessing one of the two predicates everywhere."""

    mode: str
    G: Callable[[Iterable[int]], tuple[int, ...]]
    u: Callable[[Iterable[int]], int]
    description: str


def _split_by_orbit(sm: SelfMap, istar: tuple[int, ...]) -> tuple[list[int], list[int]]:
    inf: list[int] = []
    fin: list[int] = []
    for a in istar:
        (fin if orbit_profile(sm, a).finite else inf).append(a)
    return inf, fin


def _normalize(istar: Iterable[int]) -> tuple[int, ...]:
    pts = tuple(sorted(set(istar)))
    if not pts:
        raise ValueError("the queried set must be nonempty")
    return pts


def _orbit_solution(sm: SelfMap, mode: str, description: str) -> PSolution:
    """Orbit unions for finite-orbit points, segments of the infinite-orbit
    points to their shared point, which is the removal point (or the smallest
    queried point when every orbit is finite).  Variant two asserts that the
    shared point lies in the queried set."""

    def split(pts: tuple[int, ...]) -> tuple[list[int], list[int], Optional[int]]:
        inf, fin = _split_by_orbit(sm, pts)
        if not inf:
            return inf, fin, None
        z = xi(sm, tuple(inf))
        assert z is not None and (mode == "P1" or z.point in pts)
        return inf, fin, z.point

    def g_sel(istar: Iterable[int]) -> tuple[int, ...]:
        inf, fin, v = split(_normalize(istar))
        return orbit_union(sm, fin, inf, v)

    def u_sel(istar: Iterable[int]) -> int:
        pts = _normalize(istar)
        v = split(pts)[2]
        return pts[0] if v is None else v

    return PSolution(mode, g_sel, u_sel, description)


def solve_P1(sm: SelfMap) -> Optional[PSolution]:
    """Selectors for the removed-point-anywhere variant; present iff every two
    infinite orbits intersect."""
    if not check_p_tilde(sm):
        return None
    return _orbit_solution(
        sm, "P1", "orbit unions for finite-orbit points, segments to the shared point otherwise"
    )


def has_full_orbit(sm: SelfMap) -> Optional[int]:
    """A point whose forward orbit is the whole domain, or None.

    Every other point of a full orbit has its predecessor on it as a
    preimage, so the start must be the unique point without preimage, and
    candidates are pinned down exactly and then verified by coverage.  A
    table with no such point is a permutation, whose full orbit, if any, is
    one cycle through 0.  On a table the start's orbit is walked, each point
    marked, until it closes; no graph is built and no profile kept.
    """
    if isinstance(sm, FiniteTable):
        table = sm.table
        unhit = set(range(sm.size)).difference(table)
        if len(unhit) > 1:
            return None
        start = x = min(unhit, default=0)
        seen = bytearray(sm.size)
        while not seen[x]:
            seen[x] = 1
            x = table[x]
        return None if 0 in seen else start
    if not all_orbits_infinite(sm):
        return None
    m, n0 = sm.modulus, sm.prefix_len
    if {(r + sm.shifts[r]) % m for r in range(m)} != set(range(m)):
        # some residue class is never hit from the tail: infinitely many
        # points lack preimages, and a full orbit tolerates at most one
        return None
    v0 = n0 + max(max(sm.shifts), 0)

    def has_preimage(v: int) -> bool:
        if any(p == v for p in sm.prefix):
            return True
        return any(
            v - cr >= n0 and (v - cr) % m == r for r, cr in enumerate(sm.shifts)
        )

    candidates = [v for v in range(v0) if not has_preimage(v)]
    if len(candidates) != 1:
        return None
    start = candidates[0]
    prof = orbit_profile(sm, start)
    if prof.finite or not prof.is_cofinite():
        return None
    if all(x in prof for x in range(prof.asymptotic_threshold())):
        return start
    return None


def solve_P2(sm: SelfMap) -> Optional[PSolution]:
    """Selectors for the removed-point-inside variant; present iff the
    reachability order is total on the infinite-orbit points."""
    if not is_total_order(sm, SCOPE_INFINITE):
        return None

    start = has_full_orbit(sm)
    if start is not None:
        sprof = orbit_profile(sm, start)

        def g_chain(istar: Iterable[int]) -> tuple[int, ...]:
            pts = _normalize(istar)
            n = max(sprof.hitting(a) for a in pts)
            return tuple(sorted(sprof.points(n + 1)))

        def u_chain(istar: Iterable[int]) -> int:
            pts = _normalize(istar)
            n = max(sprof.hitting(a) for a in pts)
            return sprof.point_at(n)

        return PSolution("P2", g_chain, u_chain, f"initial segments of the full orbit of {start}")

    return _orbit_solution(
        sm, "P2", "orbit unions for finite-orbit points, segments to the in-set shared point otherwise"
    )


# ---------------------------------------------------------------------------
# Indivisibility harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndivisibilityReport:
    """Survivors of the bounded factorization search; the identity must be alone."""

    search_bound: int
    candidates_checked: int
    istar_count: int
    survivors: tuple[tuple[int, ...], ...]

    @property
    def identity_only(self) -> bool:
        ident = tuple(range(self.search_bound + 1))
        return self.survivors == (ident,)


def _compose_after_inverse(sm: SelfMap, perm: tuple[int, ...]) -> SelfMap:
    """The map x -> sm(perm^{-1}(x)), as a described (or finite) map."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    if isinstance(sm, FiniteTable):
        return FiniteTable(tuple(sm(inv[x]) if x < len(perm) else sm(x) for x in range(sm.size)))
    n2 = max(sm.prefix_len, len(perm))
    prefix = tuple(sm(inv[x]) if x < len(perm) else sm(x) for x in range(n2))
    return DescribedNatMap(prefix, sm.modulus, sm.shifts)


def indivisibility_check(
    sm: SelfMap, solution: PSolution, search_bound: int
) -> IndivisibilityReport:
    """Enumerate identity-patch bijections that preserve every sampled superset
    and leave an infinite-orbit factor; report the survivors.

    A survivor is a permutation of [0, search_bound] fixing everything above
    it, preserving G(I*) for every I* in the sample, such that the factor
    through its inverse keeps an infinite orbit inside each sampled G(I*).
    """
    if isinstance(sm, FiniteTable) and search_bound >= sm.size:
        raise ValueError("search bound exceeds the finite domain")
    points = range(search_bound + 1)
    istars = [
        istar
        for size in (1, 2, 3)
        for istar in itertools.combinations(points, size)
    ]
    gsets = []
    for istar in istars:
        g = solution.G(istar)
        u = solution.u(istar)
        if not check_P("P2", sm, g, u, istar):
            raise NotAP2Solution(f"solution fails on {istar}")
        members = tuple(x for x in g if x <= search_bound)
        gsets.append((members, frozenset(g), g))
    # small supersets reject candidates earliest
    gsets.sort(key=lambda t: len(t[0]))

    survivors = []
    checked = 0
    for perm in itertools.permutations(points):
        checked += 1
        ok = True
        for members, gset, _ in gsets:
            for x in members:
                if perm[x] not in gset:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        beta = _compose_after_inverse(sm, perm)
        if all(
            any(not orbit_profile(beta, x).finite for x in g_full) for _, _, g_full in gsets
        ):
            survivors.append(perm)
    return IndivisibilityReport(search_bound, checked, len(istars), tuple(survivors))
