"""Invariance and k-quasi-invariance predicates, plus the identity characterizations.

A finite set L is invariant when its image stays inside it; internally
k-quasi-invariant when removing at most k points makes the image stay
inside; externally k-quasi-invariant when the image leaves by at most k
points.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotNatDomain
from .orbits import shift_magnitude
from .selfmap import DescribedNatMap, FiniteTable, SelfMap


class QuasiInvarianceReport(NamedTuple):
    """Verdict plus witness: the removal set (internal) or the excess (external).

    A NamedTuple, as one is built per query and a tuple builds in under half
    a frozen dataclass's time.  Being a tuple, it also compares equal to the
    plain tuple ``(holds, kind, witness)``.  The predicates below build a
    report with ``tuple.__new__(QuasiInvarianceReport, (...))``, which skips
    the generated ``__new__``, a Python function, in about half its time;
    every failing internal verdict is the one immutable ``_NOT_INTERNAL``."""

    holds: bool
    kind: str  # "internal" | "external"
    witness: tuple[int, ...] | None


_NOT_INTERNAL = QuasiInvarianceReport(False, "internal", None)


def is_invariant(sm: SelfMap, lam: tuple[int, ...]) -> bool:
    """True iff the image of the set is contained in the set."""
    pts = set(lam)
    return all(sm(x) in pts for x in pts)


def _interval_candidates(sm: SelfMap, lam: range):
    """The points of an interval, given as a ``range``, whose image can leave it.

    Above the prefix x maps to x + s with |s| <= reach = shift_magnitude, so
    a point at least reach above lo and below hi keeps its image inside, and
    only the prefix points of the interval and the reach points at either end
    can escape, O(prefix_len + reach) of them at any width.  A finite table's
    domain is no larger than its table, so there every point is a candidate.
    """
    if lam.step != 1:
        raise ValueError("an interval is a range of step 1")
    if isinstance(sm, FiniteTable):
        return lam
    lo, hi = lam[0], lam[-1]
    reach = shift_magnitude(sm)
    low = range(lo, min(hi + 1, max(sm.prefix_len, lo + reach)))
    return {*low, *range(max(lo, hi - reach + 1), hi + 1)}


def internal_quasi_invariant(
    sm: SelfMap, lam: tuple[int, ...] | range, k: int
) -> QuasiInvarianceReport:
    """Can removing at most k points of the set make its image stay inside?

    The minimal removal set is exactly the points whose images escape, so the
    verdict is a size comparison and the witness is unique.  An interval
    given as a ``range`` costs the same at any width.
    """
    if not lam:
        raise ValueError("the set must be nonempty")
    if k < 0:
        raise ValueError("k must be a natural number")
    if isinstance(lam, range):
        escapes = [x for x in _interval_candidates(sm, lam) if sm(x) not in lam]
    else:
        pts = set(lam)
        if isinstance(sm, FiniteTable):
            table = sm._table_on(pts)  # read directly after one domain check
            escapes = [x for x in pts if table[x] not in pts]
        else:
            escapes = [x for x in pts if sm(x) not in pts]
    if len(escapes) > k:
        return _NOT_INTERNAL
    escapes.sort()
    return tuple.__new__(QuasiInvarianceReport, (True, "internal", tuple(escapes)))


def external_quasi_invariant(
    sm: SelfMap, lam: tuple[int, ...] | range, k: int
) -> QuasiInvarianceReport:
    """Does the image leave the set by at most k points?

    An interval given as a ``range`` costs the same at any width.
    """
    if not lam:
        raise ValueError("the set must be nonempty")
    if k < 0:
        raise ValueError("k must be a natural number")
    if isinstance(lam, range):
        images = {sm(x) for x in _interval_candidates(sm, lam)}
        excess = tuple(sorted(y for y in images if y not in lam))
    else:
        pts = set(lam)
        if isinstance(sm, FiniteTable):
            table = sm._table_on(pts)
            images = {table[x] for x in pts}
        else:
            images = set(map(sm, pts))
        excess = tuple(sorted(images - pts))
    return tuple.__new__(QuasiInvarianceReport, (len(excess) <= k, "external", excess))


def _is_identity(sm: SelfMap) -> bool:
    if isinstance(sm, FiniteTable):
        return all(v == i for i, v in enumerate(sm.table))
    return all(v == i for i, v in enumerate(sm.prefix)) and all(c == 0 for c in sm.shifts)


def identity_decision(sm: SelfMap, scope: str, k: int) -> bool:
    """Is every finite set of size >= k (resp. every interval of length >= k) invariant?

    Subsets: a non-identity map moves some point, and a large enough set
    containing that point but not its image witnesses failure; so the answer
    is "map is the identity", except that on a finite domain with k equal to
    the domain size the only set quantified over is the whole domain, which
    every map preserves.

    Intervals: a point x with f(x) < x fails on the interval starting at x;
    one with f(x) > x is held by every interval of length >= k through x iff
    it is held by the one reaching least far right, [0, max(x, k - 1)].  So
    the answer is "every moved point x has x < f(x) < k", which a nonzero
    shift breaks on the infinitely many points of its residue class.
    """
    if scope == "subsets":
        if isinstance(sm, FiniteTable):
            if not 1 <= k <= sm.size:
                raise ValueError(f"k must lie in [1, {sm.size}]")
            if k == sm.size:
                return True
        elif k < 1:
            raise ValueError("k must be at least 1")
        return _is_identity(sm)
    if scope == "intervals":
        if not isinstance(sm, DescribedNatMap):
            raise NotNatDomain("interval scope needs a map on the naturals")
        if k < 1:
            raise ValueError("k must be at least 1")
        return all(c == 0 for c in sm.shifts) and all(
            v == x or x < v < k for x, v in enumerate(sm.prefix)
        )
    raise ValueError(f"unknown scope {scope!r}")
