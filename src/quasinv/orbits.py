"""Forward-orbit machinery.

Tail/cycle decomposition for finite orbits, certified infinitude for maps on
the naturals, hitting times, orbit intersection, the shared-point selector
``xi`` (a sum-of-hitting-times minimizer over the intersection of orbits),
and the pairwise-intersection predicate over infinite orbits.

The crucial fact for maps in described form: above the prefix, the residue
``r = x % m`` evolves as ``r -> (r + shifts[r]) % m``, a functional graph on
``m`` nodes.  Every trajectory that stays above the prefix long enough locks
onto one of that graph's cycles; the cycle's net height drift per period is
always a multiple of ``m`` (a full loop returns to the same residue), and its
sign decides infinitude.  All "infinite" questions below reduce to finite
arithmetic on those cycles.

``xi`` minimizes over the orbits' common segment starts and lists no orbit,
so shared-point queries answer at any start value; only listings raise
OrbitTooLong.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .errors import OrbitTooLong, OutOfDomain
from .selfmap import BLOCK_POINTS, DescribedNatMap, FiniteTable, SelfMap

# Bounds of the library caches, in entries.  Each lies above the working set
# of the benchmark run that needs the most entries, so no workload evicts:
# the theorem suite at its defaults ("suite") and one repetition of the
# "queries" workload, which asks its battery about 400 maps twice.
TAIL_STRUCTURE_CACHE = 1024  # maps: 98 in the suite, 400 per queries repetition
PROFILE_CACHE = 32768  # (map, start) pairs: 18,144 in the suite, about 6.5k per queries repetition
VERDICT_CACHE = 1024  # maps asked all_orbits_infinite: 98 in the suite, 400 per queries repetition

# ---------------------------------------------------------------------------
# Residue structure of a described map's tail
# ---------------------------------------------------------------------------


class CyclePhases(NamedTuple):
    """One period of a cycle of the residue map r -> (r + shifts[r]) % m,
    started at one of its residues.

    Phase q of the period is at residue ``residues[q]``, at height offset
    ``sums[q]`` from the period's first point (``sums[0] == 0``); a whole
    period changes the height by ``drift``, always a multiple of the modulus.
    """

    residues: tuple[int, ...]
    sums: tuple[int, ...]
    phase_of: dict[int, int]  # residue -> phase
    drift: int
    modulus: int
    residue_set: frozenset[int]  # the residues, for membership tests


@dataclass(frozen=True)
class TailStructure:
    """Cycle decomposition of the residue map, with per-residue fate."""

    cycles: tuple[CyclePhases, ...]  # each started from its smallest residue
    cycle_index: tuple[int, ...]  # residue -> index into cycles
    path_len: tuple[int, ...]  # residue -> steps before reaching its cycle
    phases: tuple[CyclePhases | None, ...]  # residue -> its cycle started there, off-cycle None

    def fate(self, r: int) -> CyclePhases:
        return self.cycles[self.cycle_index[r]]

    def on_cycle(self, r: int) -> bool:
        return self.path_len[r] == 0

    def positive_cycles(self) -> list[CyclePhases]:
        return [c for c in self.cycles if c.drift > 0]


@lru_cache(maxsize=TAIL_STRUCTURE_CACHE)
def tail_structure(sm: DescribedNatMap) -> TailStructure:
    m = sm.modulus
    step = [(r + sm.shifts[r]) % m for r in range(m)]

    order = [-1] * m  # visit order within current walk
    cycle_of = [-1] * m
    dist = [-1] * m
    phases: list[CyclePhases | None] = [None] * m
    cycles: list[CyclePhases] = []

    for start in range(m):
        if cycle_of[start] >= 0:
            continue
        walk: list[int] = []
        r = start
        while cycle_of[r] < 0 and order[r] < 0:
            order[r] = len(walk)
            walk.append(r)
            r = step[r]
        if cycle_of[r] < 0:
            # closed a new cycle at r
            k = order[r]
            cyc = walk[k:]
            drift = sum(sm.shifts[q] for q in cyc)
            assert drift % m == 0, "cycle drift must be a multiple of the modulus"
            for i, q in enumerate(cyc):
                ordered = tuple(cyc[i:] + cyc[:i])
                sums = tuple(itertools.accumulate((sm.shifts[p] for p in ordered[:-1]), initial=0))
                phase_of = {p: j for j, p in enumerate(ordered)}
                phases[q] = CyclePhases(ordered, sums, phase_of, drift, m, frozenset(ordered))
                cycle_of[q] = len(cycles)
                dist[q] = 0
            cycles.append(phases[min(cyc)])
            tail = walk[:k]
        else:
            tail = walk
        for i in range(len(tail) - 1, -1, -1):
            q = tail[i]
            cycle_of[q] = cycle_of[step[q]]
            dist[q] = dist[step[q]] + 1
        for q in walk:
            order[q] = -1

    return TailStructure(tuple(cycles), tuple(cycle_of), tuple(dist), tuple(phases))


def shift_magnitude(sm: DescribedNatMap) -> int:
    return max((abs(c) for c in sm.shifts), default=0)


def lock_height(sm: DescribedNatMap) -> int:
    """Height above which trajectories provably never re-enter the prefix.

    Any trajectory point at or above this height whose residue sits on a
    positive-drift cycle stays above the prefix forever; a point here whose
    residue leads to a non-positive cycle descends through this band.
    """
    c = shift_magnitude(sm) + 1
    return sm.prefix_len + 2 * sm.modulus * c


# ---------------------------------------------------------------------------
# Orbit results and profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftCertificate:
    """Finite evidence that an orbit never repeats.

    From ``entry_height`` the trajectory follows the shift rule around
    ``residue_cycle`` forever, gaining ``drift`` per period and never
    dipping below the prefix.
    """

    entry_height: int
    residue_cycle: tuple[int, ...]
    drift: int

    def validate(self, sm: DescribedNatMap) -> None:
        assert self.drift > 0
        h = self.entry_height
        for r in self.residue_cycle:
            assert h >= sm.prefix_len and h % sm.modulus == r
            h += sm.shifts[r]
        assert h - self.entry_height == self.drift


@dataclass(frozen=True)
class OrbitResult:
    """Either an exact tail/cycle decomposition or an infinitude certificate."""

    tail: tuple[int, ...] | None = None
    cycle: tuple[int, ...] | None = None
    certificate: DriftCertificate | None = None

    @property
    def is_finite(self) -> bool:
        return self.certificate is None


# Listing an orbit point by point stops above this many points.  At the
# limit, points() of prefix [0], shift -1 peaks at 0.41 GB resident (VmHWM,
# Python 3.11): the points and the one tuple that holds them, filled from
# ranges.  orbit() peaks at 0.49 GB, adding the tail it slices from that
# tuple; its link check holds one block of images at a time.
MAX_LISTED_POINTS = 10**7


class _Run(NamedTuple):
    """A stretch of an orbit that follows one residue cycle above the prefix.

    The point at step ``base + q + j * period`` is ``v0 + sums[q] + j * drift``
    for each phase q of ``phases``; the run covers ``count`` steps, or every
    later step when ``count`` is None (the tail of an infinite orbit).
    """

    base: int
    v0: int
    phases: CyclePhases
    count: int | None

    def at(self, t: int) -> int:
        ph = self.phases
        j, q = divmod(t, len(ph.sums))
        return self.v0 + ph.sums[q] + j * ph.drift

    def step_of(self, y: int) -> int | None:
        """The t >= 0 with ``at(t) == y``, or None; ``count`` is not checked."""
        ph = self.phases
        q = ph.phase_of.get(y % ph.modulus)
        if q is None:
            return None
        j, rem = divmod(y - self.v0 - ph.sums[q], ph.drift)
        if rem or j < 0:
            return None
        return q + j * len(ph.sums)

    def listed(self, count: int) -> Sequence[int]:
        """The run's first ``count`` points in step order.  A run of one
        phase gives them as a range, so a listing copies them only into its
        result; a longer period interleaves its phases in a list."""
        sums, drift = self.phases.sums, self.phases.drift
        if len(sums) == 1:
            return range(self.v0, self.v0 + count * drift, drift)
        period = len(sums)
        out = [0] * count
        for q, s in enumerate(sums):
            n = len(range(q, count, period))
            out[q::period] = range(self.v0 + s, self.v0 + s + n * drift, drift)
        return out


def _starts_tail(ph: CyclePhases, x: int, n0: int) -> bool:
    """Does an infinite orbit's tail start at x, a point at or above the
    prefix ``n0`` whose residue lies on the cycle ``ph``?  It does when the
    cycle rises and the run from x never dips below the prefix."""
    return ph.drift > 0 and x + min(ph.sums) >= n0


def _descent_periods(ph: CyclePhases, x: int, n0: int) -> int:
    """How many whole periods a descent from x along the falling cycle
    ``ph`` stays at or above the prefix ``n0``; 0 when it dips below it
    within the first."""
    low = x + min(ph.sums)
    return 0 if low < n0 else (low - n0) // -ph.drift + 1


class OrbitProfile:
    """Full description of one forward orbit, exact membership included.

    The orbit is kept as segments in step order.  Points walked one at a
    time are in ``seq``, and ``_index`` maps each to its step.  The rest are
    arithmetic runs (``runs``): above the prefix a trajectory moves by whole
    periods of its residue cycle, so a descent along a negative-drift cycle
    is one run for as many whole periods as stay above the prefix, and an
    infinite orbit ends in an unbounded run along a positive-drift cycle.
    Each descent ends below the prefix, at a prefix point the orbit has not
    visited before, or where the orbit closes, so there are D <= prefix_len
    + 1 of them and W = O(prefix_len * m * c) walked points.  Each walked
    point is tested against every run and each descent against every walked
    point and run top, so a profile costs O(W * D) = O(prefix_len^2 * m * c)
    whatever the start value.  Membership, hitting times and the k-th point
    are range and congruence tests.
    """

    def __init__(self, sm: SelfMap, start: int):
        self.sm = sm
        self.start = start
        self.finite: bool
        self.seq: tuple[int, ...]  # the points walked one at a time
        self.runs: tuple[_Run, ...] = ()
        self.tail_run: _Run | None = None  # infinite orbits: the last, unbounded run
        self.length: int  # finite: number of points; infinite: steps before the tail
        self.mu: int | None = None  # finite: tail length
        self._index: dict[int, int] = {}
        self._walk(sm, start)

    def _walk(self, sm: SelfMap, start: int) -> None:
        seq: list[int] = []
        index = self._index
        nat = isinstance(sm, DescribedNatMap)
        if nat:
            phases, n0 = tail_structure(sm).phases, sm.prefix_len
        x, k = start, 0  # x is the point at step k
        while True:
            i = index.get(x)
            if i is None and self.runs:
                i = self.hitting(x)
            if i is not None:
                self.finite, self.mu, self.length = True, i, k
                break
            ph = phases[x % sm.modulus] if nat and x >= n0 else None
            if ph is not None and _starts_tail(ph, x, n0):
                self.tail_run = _Run(k, x, ph, None)
                self.runs += (self.tail_run,)
                self.finite, self.length = False, k
                break
            if ph is not None and ph.drift < 0:
                run = self._descent(_Run(k, x, ph, None), n0, seq)
                if run is not None:
                    self.runs += (run,)
                    x, k = run.at(run.count), k + run.count
                    continue
            index[x] = k
            seq.append(x)
            k += 1
            x = sm(x)
        self.seq = tuple(seq)

    def _descent(self, run: _Run, n0: int, seq: list[int]) -> _Run | None:
        """The descent from ``run.v0`` as a run, or None when it would not
        stay above the prefix for one whole period.

        The run takes the whole periods that stay at or above the prefix, and
        stops where it would meet a point already on the orbit.  The first
        such point is a walked one or the top of an earlier run: within a
        residue cycle each residue has one predecessor, and the shift rule
        is injective on a residue class.
        """
        ph = run.phases
        count = _descent_periods(ph, run.v0, n0) * len(ph.sums)
        if not count:
            return None
        for p in itertools.chain(seq, (r.v0 for r in self.runs)):
            t = run.step_of(p)
            if t is not None:
                count = min(count, t)
        return run._replace(count=count)

    # -- queries ------------------------------------------------------------

    def hitting(self, y: int) -> int | None:
        """Least k with iterate(start, k) == y, or None when unreachable."""
        i = self._index.get(y)
        if i is not None or not self.runs:
            return i
        # _Run.step_of inlined: hitting is the hot path (1.4M calls on the
        # benchmark's period-1260 map), where the call cost about 6%
        for run in self.runs:
            ph = run.phases
            q = ph.phase_of.get(y % ph.modulus)
            if q is None:
                continue
            j, rem = divmod(y - run.v0 - ph.sums[q], ph.drift)
            t = q + j * len(ph.sums)
            if not rem and j >= 0 and (run.count is None or t < run.count):
                return run.base + t
        return None

    def __contains__(self, y: int) -> bool:
        return self.hitting(y) is not None

    def point_at(self, k: int) -> int:
        if self.finite and k >= self.length:
            k = self.mu + (k - self.mu) % (self.length - self.mu)
        if not self.runs or k < self.runs[0].base:
            return self.seq[k]
        walked = k  # index into seq once the runs before step k are skipped
        for run in self.runs:
            if k < run.base:
                break
            if run.count is None or k - run.base < run.count:
                return run.at(k - run.base)
            walked -= run.count
        return self.seq[walked]

    def points(self, n: int | None = None) -> tuple[int, ...]:
        """The orbit's first n points in step order, all of them when a
        finite orbit has fewer.  By default, every point of a finite orbit,
        or the points before an infinite orbit's tail.

        Raises OrbitTooLong above MAX_LISTED_POINTS points.
        """
        if n is None or (self.finite and n > self.length):
            if len(self.seq) == self.length:
                return self.seq
            n = self.length
        elif n <= len(self.seq) and (not self.runs or n <= self.runs[0].base):
            return self.seq[:n]
        if n > MAX_LISTED_POINTS:
            raise OrbitTooLong(
                f"listing {n} points of the orbit of {self.start} exceeds "
                f"the limit of {MAX_LISTED_POINTS}"
            )
        parts: list[Sequence[int]] = []
        k = walked = 0  # points listed so far, and how many of them were walked
        for run in self.runs:
            if run.base >= n:
                break
            parts.append(self.seq[walked : walked + run.base - k])
            walked += run.base - k
            k = min(n, run.base + run.count) if run.count is not None else n
            parts.append(run.listed(k - run.base))
        parts.append(self.seq[walked : walked + n - k])
        return tuple(itertools.chain.from_iterable(parts))

    def starts(self) -> Iterator[int]:
        """The first point of every segment: each walked point, and each
        point of a run's first period."""
        yield from self.seq
        for run in self.runs:
            yield from (run.v0 + s for s in run.phases.sums[: run.count])

    def max_point(self) -> int:
        """Largest point of a finite orbit; for an infinite one, the largest
        before the first period of the tail ends."""
        top = max(self.seq, default=0)
        for run in self.runs:
            top = max(top, run.v0 + max(run.phases.sums[: run.count]))
        return top

    def points_upto(self, bound: int) -> frozenset[int]:
        """All orbit points with value <= bound (exact, not step-count-bounded)."""
        pts = {p for p in self.seq if p <= bound}
        pts.update(*self.runs_upto(bound))
        return frozenset(pts)

    def runs_upto(self, bound: int) -> list[range]:
        """The runs' points with value <= bound, as one ascending range per
        run phase; with the walked points ``seq``, the orbit up to bound."""
        out = []
        for run in self.runs:
            sums, drift = run.phases.sums, run.phases.drift
            for q, s in enumerate(sums):
                top = run.v0 + s
                if run.count is None:
                    out.append(range(top, bound + 1, drift))
                    continue
                n = len(range(q, run.count, len(sums)))
                if n:  # a descent: its lowest point in this phase first
                    out.append(range(top + (n - 1) * drift, min(top, bound) + 1, -drift))
        return out

    def asymptotic_threshold(self) -> int:
        """Every class-covered point at or above this value is in the orbit."""
        assert not self.finite
        return self.tail_run.v0 + max(self.tail_run.phases.sums)

    def is_cofinite(self) -> bool:
        if self.finite:
            return False
        ph = self.tail_run.phases
        return len(ph.residues) == self.sm.modulus and ph.drift == self.sm.modulus


@lru_cache(maxsize=PROFILE_CACHE)
def orbit_profile(sm: SelfMap, x: int) -> OrbitProfile:
    if isinstance(sm, FiniteTable) and not 0 <= x < sm.size:
        raise OutOfDomain(f"{x} is outside [0, {sm.size})")
    if isinstance(sm, DescribedNatMap) and x < 0:
        raise OutOfDomain(f"{x} is not a natural number")
    return OrbitProfile(sm, x)


def orbit(sm: SelfMap, x: int) -> OrbitResult:
    """Tail/cycle decomposition of the orbit of x, or an infinitude certificate.

    Every link of a finite orbit is checked against the map, so the listing
    raises OrbitTooLong above MAX_LISTED_POINTS points.  The check takes
    BLOCK_POINTS points at a time: their images, from one ``sm.images`` call,
    must be the points that follow them, and the last point's image must be
    the cycle's first point.
    """
    prof = orbit_profile(sm, x)
    if prof.finite:
        pts = prof.points()
        b0 = 0
        while b0 + BLOCK_POINTS < len(pts):  # a full block, and the point after it
            b1 = b0 + BLOCK_POINTS
            assert sm.images(pts[b0:b1]) == list(pts[b0 + 1 : b1 + 1])
            b0 = b1
        assert sm.images(pts[b0:]) == [*pts[b0 + 1 :], pts[prof.mu]]
        return OrbitResult(tail=pts[: prof.mu], cycle=pts[prof.mu :])
    tail = prof.tail_run
    cert = DriftCertificate(tail.v0, tail.phases.residues, tail.phases.drift)
    cert.validate(sm)
    return OrbitResult(certificate=cert)


def hitting_time(sm: SelfMap, x: int, y: int) -> int | None:
    """Least n with iterate(x, n) == y, or None when y is not on the orbit."""
    return orbit_profile(sm, x).hitting(y)


class OrbitSummary(NamedTuple):
    """What ``orbit_profile(sm, x)`` says about a point's orbit in four facts:
    ``finite``; for an infinite orbit, ``threshold`` (``asymptotic_threshold()``)
    and ``residues`` (the tail's ``residue_set``), None otherwise; and
    ``top`` (``max_point()``)."""

    finite: bool
    threshold: int | None
    residues: frozenset[int] | None
    top: int


def orbit_summary(sm: DescribedNatMap, x: int, memo: dict[int, OrbitSummary]) -> OrbitSummary:
    """The summary of the orbit of x, from one walk along its trajectory and
    no profile.

    A point that starts a tail (``_starts_tail``) has that tail's threshold
    and residues, and its top is the threshold; the points of a cycle the
    walk closes are finite, their top the cycle's largest point; any other
    point has the summary of the next point the walk lands on, with its own
    top if that is larger.  The walk steps to the image, or past a descent's
    whole periods above the prefix (``_descent_periods``), whose largest
    point is in its first period; so, like a profile's walk, it lands on a
    number of points bounded by the map and not by the start.  Landing
    points follow one another by a fixed rule, so a walk that closes lands
    on a point twice, and between the two it passed every point of the cycle.

    The walk stops at a point already in ``memo`` and enters every point it
    landed on there, so across calls sharing one memo each is walked once.
    """
    s = memo.get(x)
    if s is not None:
        return s
    phases, n0, m = tail_structure(sm).phases, sm.prefix_len, sm.modulus
    path: list[int] = []  # the points landed on
    tops: list[int] = []  # each one's largest point before the next landing
    on_path: dict[int, int] = {}
    y = x
    while (s := memo.get(y)) is None:
        i = on_path.get(y)
        if i is not None:
            s = OrbitSummary(True, None, None, max(tops[i:]))
            for p in path[i:]:
                memo[p] = s
            del path[i:], tops[i:]
            break
        ph = phases[y % m] if y >= n0 else None
        if ph is not None and _starts_tail(ph, y, n0):
            top = y + max(ph.sums)
            s = memo[y] = OrbitSummary(False, top, ph.residue_set, top)
            break
        on_path[y] = len(path)
        path.append(y)
        periods = _descent_periods(ph, y, n0) if ph is not None and ph.drift < 0 else 0
        if periods:
            tops.append(y + max(ph.sums))
            y += periods * ph.drift
        else:
            tops.append(y)
            y = sm(y)
    for p, top in zip(reversed(path), reversed(tops)):
        if top > s.top:
            s = s._replace(top=top)
        memo[p] = s
    return memo[x]


# ---------------------------------------------------------------------------
# Orbit intersection and the shared-point selector
# ---------------------------------------------------------------------------


def orbits_intersect(sm: SelfMap, a: int, b: int) -> tuple[int, int, int] | None:
    """A common point (z, m_a, m_b) of the two orbits, or None when disjoint.

    The returned z minimizes m_a + m_b (ties broken by smallest z): it is
    the shared point of the pair.
    """
    z = xi(sm, (a, b))
    if z is None:
        return None
    return (z.point, z.hitting_times[a], z.hitting_times[b])


@dataclass
class XiResult:
    """A common point of all orbits over a set, with minimal total hitting time."""

    point: int
    hitting_times: dict[int, int]


def _on_all(profs: list[OrbitProfile], y: int) -> bool:
    """Is y on every orbit of ``profs``?"""
    for p in profs:
        if p.hitting(y) is None:
            return False
    return True


def xi(sm: SelfMap, istar: tuple[int, ...]) -> XiResult | None:
    """Sum-of-hitting-times-minimal common point of the orbits over ``istar``.

    Absent exactly when the orbits have empty intersection.  Among minimizers
    the smallest point is chosen (only relevant when all orbits are finite;
    with infinite orbits the minimizer is unique).

    The minimizer w is a segment start (``starts``) of some profile, so only
    the starts on every orbit are compared.  Were w a start of none, it would
    follow a run point on every orbit; those points share the residue before
    w's on the run's cycle, and the shift rule is injective on a residue
    class, so they are one common point, a step before w on every orbit.

    Infinite orbits meet iff their tails lie on one progression, which a
    common point far out fixes; two tail runs test this at their first
    points, so disjoint infinite orbits compare no start.  Their common
    points are then the orbit of z, the first point of one orbit on all
    others, and infinite-orbit points that reach each other are equal; so
    a start value on every orbit is z, and the minimizer.
    """
    if not istar:
        raise ValueError("xi needs a nonempty set")
    istar = tuple(dict.fromkeys(istar))
    profs = [orbit_profile(sm, a) for a in istar]
    finiteness = {p.finite for p in profs}
    if len(finiteness) > 1:
        # a finite orbit consists of finite-orbit points only, an infinite
        # orbit of infinite-orbit points only; no overlap is possible
        return None
    if finiteness == {False}:
        t0 = profs[0].tail_run
        for p in profs[1:]:
            if t0.step_of(p.tail_run.v0) is None and p.tail_run.step_of(t0.v0) is None:
                return None
        best = next((a for a in istar if _on_all(profs, a)), None)
        if best is not None:
            return XiResult(best, {a: p.hitting(best) for a, p in zip(istar, profs)})
    key, best_times = None, None  # the least (sum of hitting times, start) so far
    for s in set(itertools.chain.from_iterable(p.starts() for p in profs)):
        times = []
        for p in profs:
            t = p.hitting(s)
            if t is None:
                break
            times.append(t)
        else:
            cand = (sum(times), s)
            if key is None or cand < key:
                key, best_times = cand, times
    if key is None:
        return None
    return XiResult(key[1], dict(zip(istar, best_times)))


def in_D_phi(sm: SelfMap, istar: tuple[int, ...]) -> bool:
    """True iff the orbits of the elements of ``istar`` share a common point."""
    return xi(sm, istar) is not None


# ---------------------------------------------------------------------------
# Global orbit-structure predicates for described maps
# ---------------------------------------------------------------------------


def check_p_tilde(sm: SelfMap) -> bool:
    """Do every two infinite orbits intersect?

    Vacuously true on finite domains.  On the naturals, infinite orbits exist
    exactly when the residue map has a positive-drift cycle; two of them
    intersect iff they lock onto the same cycle in the same height class
    modulo the drift.  Arbitrarily high starting points realize every height
    class, so the answer is positive exactly when there is at most one
    positive cycle and its drift is the modulus itself.
    """
    if isinstance(sm, FiniteTable):
        return True
    pos = tail_structure(sm).positive_cycles()
    if not pos:
        return True
    return len(pos) == 1 and pos[0].drift == sm.modulus


def p_tilde_witness(sm: SelfMap) -> tuple[int, int] | None:
    """Two points with disjoint infinite orbits, or None when every two
    infinite orbits intersect (``check_p_tilde``).

    With two positive cycles, deep points of either never meet; with one
    positive cycle of drift d*m (d >= 2), same-residue points one modulus
    apart fall into different height classes and never meet.
    """
    if check_p_tilde(sm):
        return None
    m = sm.modulus
    # above the lock height a point whose residue lies on a positive cycle
    # never dips below the prefix, so its orbit is infinite
    base = lock_height(sm) + 1
    deep = [base + (c.residues[0] - base) % m for c in tail_structure(sm).positive_cycles()[:2]]
    if len(deep) == 1:
        return (deep[0], deep[0] + m)
    return (min(deep), max(deep))


def least_finite_point(sm: DescribedNatMap, memo: dict[int, OrbitSummary]) -> int | None:
    """The least point whose orbit is finite, or None when every orbit is
    infinite, read from orbit summaries that share ``memo``.

    It lies at most one residue period above the lock height: any higher
    point either locks immediately onto a positive cycle (infinite) or
    descends through that window, so a finite orbit from above passes
    through a window point with a finite orbit.
    """
    bound = lock_height(sm) + sm.modulus
    return next((x for x in range(bound + 1) if orbit_summary(sm, x, memo).finite), None)


@lru_cache(maxsize=VERDICT_CACHE)
def all_orbits_infinite(sm: SelfMap) -> bool:
    """True iff every point of the domain has an infinite orbit.

    Finiteness over a range of points is read from orbit summaries
    (``least_finite_point``), one walk per trajectory and no profile.
    """
    if isinstance(sm, FiniteTable):
        return False
    return least_finite_point(sm, {}) is None


def exists_cofinite_orbit(sm: DescribedNatMap) -> bool:
    """True iff some orbit is cofinite in the naturals.

    Equivalent to the residue map being a single full-length cycle with
    drift exactly the modulus; then every infinite orbit is cofinite, and
    infinite orbits exist.
    """
    ts = tail_structure(sm)
    return (
        len(ts.cycles) == 1
        and len(ts.cycles[0].residues) == sm.modulus
        and ts.cycles[0].drift == sm.modulus
    )


def is_orbit_cofinite(sm: DescribedNatMap, a: int) -> bool:
    return orbit_profile(sm, a).is_cofinite()
