"""Classify maps whose finite subsets (or intervals) all stay inside after one removal.

Subset side: the only such maps deviate from the identity on at most three
points, in one of two patterns (a two-step chain, or a three-cycle).  The
interval side on the naturals splits into an all-ascending pattern and two
pivot patterns where non-fixed points ascend up to a pivot index and step
down gently afterwards.  Each classification carries a selector ``w``
choosing the removal point for a queried set or interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import DomainTooSmall, NotNatDomain
from .selfmap import DescribedNatMap, FiniteTable, PointIndex, SelfMap, point_index


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetClassification:
    case: int  # 1 = chain pattern, 2 = three-cycle pattern
    a: int
    b: int
    c: int


class SubsetWitnessSelector:
    """Removal-point selector for a classified map; total on nonempty finite sets.

    Determined branches follow the classification's case tables; on free
    branches the smallest element is returned.
    """

    def __init__(self, sm: SelfMap, cls: SubsetClassification):
        self.sm = sm
        self.cls = cls

    def choose(self, subset: Iterable[int]) -> int:
        pts = sorted(set(subset))
        if not pts:
            raise ValueError("the set must be nonempty")
        s = set(pts)
        a, b, c = self.cls.a, self.cls.b, self.cls.c
        if self.cls.case == 1:
            if a in s and b in s:
                return b
            if a in s:
                return a
            if b in s:
                return b
            return pts[0]
        ins = (a in s, b in s, c in s)
        if ins == (True, False, False):
            return a
        if ins == (False, True, False):
            return b
        if ins == (False, False, True):
            return c
        if ins == (True, True, False):
            return b
        if ins == (True, False, True):
            return a
        if ins == (False, True, True):
            return c
        return pts[0]


def classify_subsets_1qi(
    sm: SelfMap,
) -> Optional[tuple[SubsetClassification, SubsetWitnessSelector]]:
    """Decide whether every finite subset admits a one-point removal witness.

    Present exactly when the map matches one of the two patterns; the
    identity is reported as the chain pattern with a = b = c = 0.
    """
    if isinstance(sm, FiniteTable) and sm.size < 3:
        raise DomainTooSmall("the subset classification needs at least three points")
    moved = point_index(sm, fixed=False)
    nf = moved.head if moved.finite else None
    cls = None
    if nf is not None:
        if len(nf) == 0:
            anchor = 0
            cls = SubsetClassification(1, anchor, anchor, anchor)
        elif len(nf) == 1:
            p = nf[0]
            b = sm(p)
            cls = SubsetClassification(1, p, b, sm(b))
        elif len(nf) == 2:
            p, q = nf
            if sm(p) == q:
                cls = SubsetClassification(1, p, q, sm(q))
            elif sm(q) == p:
                cls = SubsetClassification(1, q, p, sm(p))
        elif len(nf) == 3:
            a = nf[0]
            b = sm(a)
            c = sm(b)
            if {a, b, c} == set(nf) and sm(c) == a and len({a, b, c}) == 3:
                cls = SubsetClassification(2, a, b, c)
    if cls is None:
        return None
    return cls, SubsetWitnessSelector(sm, cls)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def _nth_or_none(moved: PointIndex, n: int) -> Optional[int]:
    try:
        return moved.nth(n)
    except IndexError:
        return None


@dataclass(frozen=True)
class IntervalClassification:
    """Case data for the interval family; ``moved`` indexes the non-fixed points.

    ``n_star`` is the pivot index into the increasing sequence of non-fixed
    points (None for the all-ascending case; -1 means the very first
    non-fixed point already descends).
    """

    sm: DescribedNatMap
    case: int  # 1, 2, or 3
    n_star: Optional[int]
    moved: PointIndex = field(repr=False, compare=False)

    def b(self, n: int) -> int:
        """The n-th non-fixed point (0-based); IndexError when there are fewer."""
        return self.moved.nth(n)


class IntervalWitnessSelector:
    """Removal-point selector for classified interval families."""

    def __init__(self, cls: IntervalClassification):
        self.cls = cls

    def choose(self, lo: int, hi: int) -> int:
        """The removal point for [lo, hi]: the point whose image escapes, else lo.

        Write x_i for the i-th non-fixed point, so [lo, hi] holds x_first up
        to x_last.  Indices up to ``up_top`` form the upward branch, the rest
        the downward one, and each branch has one point that can escape, so
        the answer takes constant work at any height and width:

        * An ascending index has x_i < f(x_i) <= x_{i+1}: its point never
          escapes below lo, and escapes above hi only if x_{i+1} > hi, so the
          upward branch's only candidate is x_min(last, up_top).
        * A descending index has x_{i-1} <= f(x_i) < x_i: its point never
          escapes above hi, and escapes below lo only if x_{i-1} < lo, so the
          downward branch's only candidate is x_max(first, up_top + 1).
        * The pivot, index n_star + 1, may jump anywhere on its side.  In the
          third pattern it ascends and is the top of the upward branch
          (up_top = n_star + 1); in the second it descends and is the bottom
          of the downward one (up_top = n_star).  Either way, when it lies in
          [lo, hi] it is its branch's candidate.

        In the all-ascending first pattern every index is upward (up_top =
        last).
        """
        if lo > hi:
            raise ValueError("empty interval")
        sm, moved, case = self.cls.sm, self.cls.moved, self.cls.case
        first, last = moved.below(lo), moved.below(hi + 1) - 1
        up_top = last if case == 1 else self.cls.n_star + (1 if case == 3 else 0)
        up_i, down_i = min(last, up_top), max(first, up_top + 1)
        up = first <= up_i and sm(moved.nth(up_i)) > hi
        down = down_i <= last and sm(moved.nth(down_i)) < lo
        assert not (up and down), "the two pivot branches cannot both fire"
        if up:
            return moved.nth(up_i)
        if down:
            return moved.nth(down_i)
        return lo


def classify_intervals_1qi(
    sm: SelfMap,
) -> Optional[tuple[IntervalClassification, IntervalWitnessSelector]]:
    """Decide whether every finite interval admits a one-point removal witness.

    All structural facts live in a finite window: beyond the prefix the
    non-fixed pattern and the step sizes repeat with the modulus, so one
    full period of representatives decides the tail.
    """
    if not isinstance(sm, DescribedNatMap):
        raise NotNatDomain("interval classification needs a map on the naturals")
    moved = point_index(sm, fixed=False)
    window = sm.prefix_len + 2 * sm.modulus
    explicit = [moved.nth(i) for i in range(moved.below(window + 1))]

    def asc_ok(i: int, x: int) -> bool:
        v = sm(x)
        nx = _nth_or_none(moved, i + 1)
        return x < v and (nx is None or v <= nx)

    def desc_ok(i: int, x: int) -> bool:
        v = sm(x)
        pv = _nth_or_none(moved, i - 1)
        return v < x and (pv is None or pv <= v)

    first_bad = next((i for i, x in enumerate(explicit) if not asc_ok(i, x)), None)
    if first_bad is None:
        # tail residues repeat the in-window representatives, so ascending holds globally
        cls = IntervalClassification(sm, 1, None, moved)
        return cls, IntervalWitnessSelector(cls)

    pivot = explicit[first_bad]
    v = sm(pivot)
    nx = _nth_or_none(moved, first_bad + 1)
    if v < pivot:
        case = 2
    elif nx is not None and v > nx:
        case = 3
    else:
        return None
    for i in range(first_bad + 1, len(explicit)):
        if not desc_ok(i, explicit[i]):
            return None
    if not moved.finite:
        # tail beyond the window: every non-fixed residue must step down
        # gently, by at most the gap back to the previous non-fixed residue
        res = moved.residues
        for r, prev in zip(res, res[-1:] + res[:-1]):
            c = sm.shifts[r]
            if not (c < 0 and -c <= ((r - prev) % sm.modulus or sm.modulus)):
                return None
    cls = IntervalClassification(sm, case, first_bad - 1, moved)
    return cls, IntervalWitnessSelector(cls)


# ---------------------------------------------------------------------------
# Strict interval variant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrictIntervalResult:
    kind: str  # "succ" | "pivot"
    n_star: Optional[int] = None
    u: Optional[int] = None


def classify_strict_intervals_1qi(sm: SelfMap) -> Optional[StrictIntervalResult]:
    """Recognize the two families of the strict (image-escapes) interval variant.

    Either the successor map, or the pivot family: up-by-one below a pivot
    point, the pivot mapping to some u != pivot, down-by-one above it.
    """
    if not isinstance(sm, DescribedNatMap):
        raise NotNatDomain("the strict classification needs a map on the naturals")
    window = sm.prefix_len + 2 * sm.modulus + 1
    if all(c == 1 for c in sm.shifts) and all(sm(x) == x + 1 for x in range(window + 1)):
        return StrictIntervalResult("succ")
    if all(c == -1 for c in sm.shifts):
        n_star = next((x for x in range(window + 1) if sm(x) != x + 1), None)
        if n_star is None:
            return None
        u = sm(n_star)
        if u == n_star:
            return None
        if all(sm(x) == x - 1 for x in range(n_star + 1, window + 2)):
            return StrictIntervalResult("pivot", n_star, u)
    return None
