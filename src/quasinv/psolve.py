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
    all_orbits_infinite,
    check_p_tilde,
    cycle_phases,
    hitting_time,
    lock_height,
    orbit_profile,
    shift_magnitude,
    tail_structure,
    xi,
)
from .selfmap import DescribedNatMap, FiniteTable, SelfMap

SCOPE_ALL = "all"
SCOPE_INFINITE = "infinite_only"


# ---------------------------------------------------------------------------
# The reachability order
# ---------------------------------------------------------------------------


def _comparable(sm: SelfMap, x: int, y: int) -> bool:
    return hitting_time(sm, x, y) is not None or hitting_time(sm, y, x) is not None


@dataclass
class _DeepClass:
    """Behavior of deep points congruent to ``anchor`` modulo the global period."""

    anchor: int  # class representative value modulo the period
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
    """First trajectory point below ``floor``; caller guarantees descent."""
    while y >= floor:
        y = sm(y)
    return y


@lru_cache(maxsize=None)
def total_order_witness(sm: SelfMap, scope: str = SCOPE_ALL) -> Optional[tuple[int, int]]:
    """An incomparable in-scope pair, or None when reachability totally orders the scope.

    Every negative verdict is certified by a concrete pair; callers can
    re-verify it with two hitting-time queries.
    """
    if scope not in (SCOPE_ALL, SCOPE_INFINITE):
        raise ValueError(f"unknown scope {scope!r}")
    if isinstance(sm, FiniteTable):
        if scope == SCOPE_INFINITE:
            return None
        pts = range(sm.size)
        for x in pts:
            for y in pts:
                if x < y and not _comparable(sm, x, y):
                    return (x, y)
        return None
    return _described_total_order_witness(sm, scope)


def is_total_order(sm: SelfMap, scope: str = SCOPE_ALL) -> bool:
    """Is every pair (in scope) comparable under orbit reachability?

    Scope ``all`` quantifies over the whole domain, ``infinite_only`` over
    the points with infinite orbit.
    """
    return total_order_witness(sm, scope) is None


def _described_total_order_witness(sm: DescribedNatMap, scope: str) -> Optional[tuple[int, int]]:
    ts = tail_structure(sm)
    m = sm.modulus
    c = shift_magnitude(sm) + 1
    deep = lock_height(sm)  # prefix-influence band ends here

    kinds = []
    for r in range(m):
        d = ts.fate(r).drift
        kinds.append("pos" if d > 0 else "zero" if d == 0 else "neg")

    period = lcm(m, *(abs(cy.drift) for cy in ts.cycles if cy.drift != 0))
    rep_base = deep + 2 * period + 2 * m * c
    far = period * (1 + (4 * m * c + 2 * period) // period)  # beyond every transient

    def rep_at(value_class: int, base: int, mod: int) -> int:
        return base + (value_class - base) % mod

    if scope == SCOPE_ALL and "zero" in kinds:
        # two far-apart deep points of a zero-drift residue have disjoint finite orbits
        r = kinds.index("zero")
        x0 = rep_at(r, rep_base, m)
        return (x0, x0 + far)

    pos_cycles = ts.positive_cycles()
    pos_residues = frozenset()
    if any(k == "pos" for k in kinds):
        if scope == SCOPE_ALL and not all_orbits_infinite(sm):
            bound = lock_height(sm) + m
            x_fin = next(x for x in range(bound + 1) if orbit_profile(sm, x).finite)
            top = orbit_profile(sm, x_fin).max_point() + 2 * m * c + 1
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
        pos_residues = frozenset(pos_cycles[0].residues)

    # deep classes modulo the period, with entry orbits for descending ones
    classes: list[_DeepClass] = []
    for q in range(period):
        r = q % m
        dc = _DeepClass(q, r, kinds[r])
        if dc.kind == "neg":
            rep = rep_at(q, rep_base, period)
            entry = _descend_entry(sm, rep, deep)
            assert _descend_entry(sm, rep + period, deep) == entry, "entry point must stabilize"
            dc.entry_profile = orbit_profile(sm, entry)
        classes.append(dc)

    scoped = [dc for dc in classes if dc.in_scope(scope)]

    # exceptional-channel bound: below it, concrete orbits may add stray
    # comparabilities; at or above it only class-periodic channels act
    exc = rep_base
    for dc in classes:
        if dc.entry_profile is not None:
            exc = max(exc, dc.entry_profile.max_point())

    def desc_class_hits(upper: _DeepClass, lower_value: int) -> bool:
        """Does the descent of every deep point of ``upper`` pass through
        every deep point congruent to ``lower_value``?"""
        r_lo = lower_value % m
        cyc = ts.fate(upper.residue)
        if not ts.on_cycle(upper.residue) or r_lo not in cyc.residues:
            return False
        ph = cycle_phases(sm)[upper.residue]
        offset = ph.sums[ph.phase_of[r_lo]]
        return (lower_value - upper.anchor - offset) % abs(cyc.drift) == 0

    def covers_up(low: _DeepClass, high: _DeepClass) -> bool:
        """Do the orbits of deep ``low`` points eventually contain every
        sufficiently large point of ``high``'s class?"""
        if low.kind == "pos":
            return high.residue in pos_residues
        if low.kind == "neg" and not low.entry_profile.finite:
            return high.residue in low.entry_profile.cycle_residue_set()
        return False

    def covers_down(high: _DeepClass, low: _DeepClass) -> bool:
        """Do the orbits of deep ``high`` points contain every deep point of
        ``low``'s class lying far below them?"""
        if high.kind != "neg":
            return False
        if desc_class_hits(high, low.anchor):
            return True
        return not high.entry_profile.finite and low.residue in high.entry_profile.cycle_residue_set()

    x0_base = exc + period

    def class_rep(dc: _DeepClass) -> int:
        return rep_at(dc.anchor, x0_base, period)

    # deep residues must all land on their own cycles: a residue feeding a
    # cycle from outside yields same-class deep points that never meet
    for dc in scoped:
        if dc.kind == "neg" and not ts.on_cycle(dc.residue):
            x0 = class_rep(dc)
            return (x0, x0 + far)

    # far-apart deep pairs, one condition per ordered class pair
    delta_bound = 4 * m * c + 2 * period
    beyond = period * (delta_bound // period + 2)  # class-preserving jump past every transient
    for low in scoped:
        for high in scoped:
            if not (covers_up(low, high) or covers_down(high, low)):
                x0 = class_rep(low)
                delta = (high.anchor - low.anchor) % period + beyond
                return (x0, x0 + delta)

    # mid-range deep pairs via representatives above the exceptional bound
    for lowc in scoped:
        x0 = class_rep(lowc)
        for highc in scoped:
            delta0 = (highc.anchor - lowc.anchor) % period
            for delta in range(delta0 or period, delta_bound + 1, period):
                if not _comparable(sm, x0, x0 + delta):
                    return (x0, x0 + delta)

    # window: transitional pairs and everything below the deep band
    max_prefix = max(sm.prefix, default=0)
    w_base = exc + period
    w_final = w_base + 2 * m * c + period + max_prefix + m
    profiles = {x: orbit_profile(sm, x) for x in range(w_base + 1)}
    top_of = {}
    for x, p in profiles.items():
        top_of[x] = p.max_point()
        if not p.finite:
            w_final = max(w_final, p.asymptotic_threshold())

    def in_scope_pt(x: int) -> bool:
        return scope == SCOPE_ALL or not orbit_profile(sm, x).finite

    # each low point against every deep class far above the window
    for x in range(w_base + 1):
        if not in_scope_pt(x):
            continue
        p = profiles[x]
        for dc in scoped:
            if not p.finite and dc.residue in p.cycle_residue_set():
                continue  # the orbit of x eventually swallows the whole class
            if dc.kind == "neg" and (
                (x >= deep and desc_class_hits(dc, x))
                or dc.entry_profile.hitting(x) is not None
            ):
                continue
            y = rep_at(dc.anchor, max(w_final, top_of[x], x + m * c) + 1, period)
            return (x, y)

    scoped_window = [x for x in range(w_final + 1) if in_scope_pt(x)]
    for i, x in enumerate(scoped_window):
        for y in scoped_window[i + 1 :]:
            if not _comparable(sm, x, y):
                return (x, y)
    return None


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


def _segment_to(sm: SelfMap, a: int, target: int) -> set[int]:
    prof = orbit_profile(sm, a)
    k = prof.hitting(target)
    assert k is not None
    return {prof.point_at(i) for i in range(k + 1)}


def _orbit_union(
    sm: SelfMap, whole: Iterable[int], cut: Iterable[int], v: Optional[int]
) -> set[int]:
    """The full orbits of ``whole`` plus the orbit segments of ``cut`` up to ``v``."""
    out: set[int] = set()
    for a in whole:
        out.update(orbit_profile(sm, a).points())
    for a in cut:
        out.update(_segment_to(sm, a, v))
    return out


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
    if _orbit_union(sm, h_tilde, cut, v_value) != set(g):
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
        return tuple(sorted(_orbit_union(sm, fin, inf, v)))

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

    On the naturals such a start must be the unique point without preimage,
    so candidates are pinned down exactly and then verified by coverage.
    """
    if isinstance(sm, FiniteTable):
        for a in range(sm.size):
            if orbit_profile(sm, a).length == sm.size:
                return a
        return None
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
            return tuple(sorted(sprof.point_at(i) for i in range(n + 1)))

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
