"""Finite invariant supersets and the max-condition structures on the naturals.

A finite set has a finite invariant superset exactly when the orbits of its
elements are finite; the canonical superset is the union of those orbits.
The max-condition variants describe idempotent, point-dominating maps whose
images are fixed points; their supersets are unions of {a, alpha(a)} pairs,
or intervals when the superset must be one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import InfiniteOrbitError, NotNatDomain, ProfileInvalid
from .orbits import orbit_profile, table_graph
from .selfmap import DescribedNatMap, FiniteTable, PointIndex, SelfMap, point_index


def orbit_union(
    sm: SelfMap, whole: Iterable[int], cut: Iterable[int] = (), v: Optional[int] = None
) -> tuple[int, ...]:
    """The whole orbits of ``whole`` plus the orbit segments of ``cut`` up to
    ``v``, sorted.

    A start already in the union of whole orbits adds nothing, since that
    union is closed under the map, so it is skipped.  Raises
    InfiniteOrbitError on a start of ``whole`` with an infinite orbit, and
    OrbitTooLong when an orbit or a segment has more than MAX_LISTED_POINTS
    points.  A finite table's union is walked in the table (``_table_union``).
    """
    if isinstance(sm, FiniteTable):
        return _table_union(sm, whole, cut, v)
    pts: set[int] = set()
    for a in whole:
        if a in pts:
            continue
        prof = orbit_profile(sm, a)
        if not prof.finite:
            raise InfiniteOrbitError(a)
        pts.update(prof.points())
    for a in cut:
        prof = orbit_profile(sm, a)
        k = prof.hitting(v)
        assert k is not None, "a segment must end on its orbit"
        pts.update(prof.points(k + 1))
    return tuple(sorted(pts))


def _table_union(
    sm: FiniteTable, whole: Iterable[int], cut: Iterable[int] = (), v: Optional[int] = None
) -> tuple[int, ...]:
    """``orbit_union`` on a finite table: each walk stops at v or at a point
    already in the union.  From such a point the rest of a whole orbit is in
    the union, which holds that point's whole orbit or its segment up to v;
    the rest of a segment is in it too, since a segment's points before v
    lead to v first."""
    whole, cut = tuple(whole), tuple(cut)
    table = sm._table_on(whole + cut)
    pts: set[int] = set()
    for a in whole:
        while a not in pts:
            pts.add(a)
            a = table[a]
    for a in cut:
        assert table_graph(sm).hitting(a, v) is not None, "a segment must end on its orbit"
        while a not in pts:
            pts.add(a)
            if a == v:
                break
            a = table[a]
    return tuple(sorted(pts))


def build_G_orbit_union(
    sm: SelfMap, istar: Iterable[int], h: Iterable[int] = ()
) -> tuple[int, ...]:
    """Union of the orbits over ``istar`` and ``h``; invariant and contains
    ``istar``.  A finite table's is walked in the table directly."""
    if isinstance(sm, FiniteTable):
        return _table_union(sm, (*istar, *h))
    return orbit_union(sm, [*istar, *h])


def check_superset_closure(sm: SelfMap, istar: Iterable[int], g_value: Iterable[int]) -> bool:
    """True iff ``istar`` is contained in the set and the set's image stays inside."""
    g = set(g_value)
    if not set(istar) <= g:
        return False
    f = sm._table_on(g).__getitem__ if isinstance(sm, FiniteTable) else sm
    return g.issuperset(map(f, g))


@dataclass(frozen=True)
class MaxCondProfile:
    """Fixed-point sequence plus index maps for a map with alpha(alpha(n)) = alpha(n) >= n.

    ``b(n)`` enumerates the fixed points in increasing order, ``j(a)`` is the
    index with alpha(a) = b(j(a)), and ``r(a)`` the least index with
    b(r(a)) > a.
    """

    sm: DescribedNatMap
    fixed: PointIndex = field(repr=False, compare=False)

    def b(self, n: int) -> int:
        return self.fixed.nth(n)

    def j(self, a: int) -> int:
        # alpha(a) is a fixed point, so the fixed points below it give its index
        return self.fixed.below(self.sm(a))

    def r(self, a: int) -> int:
        """Least n with b(n) > a, i.e. the number of fixed points <= a."""
        return self.fixed.below(a + 1)


def analyze_maxcond(sm: SelfMap) -> Optional[MaxCondProfile]:
    """Profile for maps whose every image is a dominating fixed point.

    Checks alpha(alpha(n)) = alpha(n) >= n structurally: prefix entries are
    verified pointwise, and each nonzero shift must be nonnegative and land
    on a residue whose shift is zero.
    """
    if not isinstance(sm, DescribedNatMap):
        raise NotNatDomain("max-condition analysis needs a map on the naturals")
    for i, v in enumerate(sm.prefix):
        if v < i or sm(v) != v:
            return None
    for r, c in enumerate(sm.shifts):
        if c < 0:
            return None
        if c != 0 and sm.shifts[(r + c) % sm.modulus] != 0:
            return None
    return MaxCondProfile(sm, point_index(sm, fixed=True))


def interval_superset_bounds(
    profile: MaxCondProfile, istar: Iterable[int]
) -> tuple[int, int, int]:
    """Bounds (u_star, u_max, v) for interval supersets [u, v] with max in alpha(istar).

    Every u in [u_star, u_max] yields a closed interval; below u_star the
    image of u escapes past the maximum.  Requires the image indices to be
    non-increasing below the first fixed point.
    """
    pts = sorted(set(istar))
    if not pts:
        raise ValueError("the set must be nonempty")
    sm = profile.sm
    b0 = profile.b(0)
    alphas = [sm(x) for x in range(b0)]
    if any(alphas[i] < alphas[i + 1] for i in range(len(alphas) - 1)):
        raise ProfileInvalid("image values must be non-increasing below the first fixed point")
    v = max(sm(a) for a in pts)
    u_star = next(n for n in range(b0 + 1) if v >= sm(n))
    u_max = pts[0]
    return (u_star, u_max, v)
