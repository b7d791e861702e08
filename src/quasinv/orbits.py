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

A finite table is decomposed once (``TableGraph``): every point's cycle,
depth and entry, and an O(1) reachability test; its orbit queries read that.
The graphs are the only cache that holds tables, and it is bounded by bytes
(``TABLE_GRAPH_BYTES``); the other caches are keyed by described maps.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import OrbitTooLong, OutOfDomain
from .selfmap import DescribedNatMap, FiniteTable, SelfMap

# Bounds of the library caches.  Each lies above the working set of the
# benchmark run that needs the most, so no workload evicts: the theorem suite
# at its defaults ("suite") and one repetition of the "queries" workload,
# which asks its battery about 400 maps twice.  The entry-bounded caches are
# keyed by described maps only; a finite table's derived data lives in one
# graph per table, in a cache bounded by bytes.
TAIL_STRUCTURE_CACHE = 1024  # maps: 98 in the suite, 400 per queries repetition
# Graphs of finite tables, in the bytes charged to them (``_graph_bytes``):
# a graph is O(n), so an entry bound would hold any number of bytes.  The
# suite's 3,413 graphs (every table with n <= 5) are charged about 4.2 MB, and
# a random 10^5-entry table's about 5.6 MB; queries builds none.
TABLE_GRAPH_BYTES = 16 << 20
# (described map, start) pairs, a walked profile each.  A table's profile is
# an O(1) view built from its graph on each call, which no cache holds.
PROFILE_CACHE = 32768  # 1,390 in the suite, about 6.5k per queries repetition
VERDICT_CACHE = 1024  # described maps asked all_orbits_infinite: 98 in the suite, 400 per queries repetition

# ---------------------------------------------------------------------------
# Residue structure of a described map's tail
# ---------------------------------------------------------------------------


class CyclePhases(NamedTuple):
    """One period of a cycle of the residue map r -> (r + shifts[r]) % m,
    started at one of its residues.

    Phase q of the period is at residue ``residues[q]``, at height offset
    ``sums[q]`` from the period's first point (``sums[0] == 0``); a whole
    period changes the height by ``drift``, always a multiple of the modulus.
    ``min_sum`` and ``max_sum`` are the least and largest offsets of the
    whole period: its lowest and highest points lie that far from its first.
    """

    residues: tuple[int, ...]
    sums: tuple[int, ...]
    phase_of: dict[int, int]  # residue -> phase
    drift: int
    modulus: int
    residue_set: frozenset[int]  # the residues, for membership tests
    min_sum: int
    max_sum: int


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
                phases[q] = CyclePhases(
                    ordered, sums, phase_of, drift, m, frozenset(ordered), min(sums), max(sums)
                )
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
# Functional graph of a finite table
# ---------------------------------------------------------------------------


# the unsigned array types, narrowest first, each with the least value it cannot hold
_ARRAY_TOPS = [(c, 1 << 8 * array(c).itemsize) for c in "BHIL"]


class TableGraph:
    """The functional graph of a finite table, decomposed once in O(n).

    Every point x leads to one cycle: ``comp[x]`` numbers it, ``depth[x]``
    counts the steps to reach it (0 on the cycle), and ``pos[x]`` is the
    index on the cycle of its entry point, the first cycle point reached.
    ``cycles[c]`` lists cycle c in step order twice over, so the points of
    up to one period from any of its points are one slice; x's entry point
    is ``cycles[comp[x]][pos[x]]``.  The points off the cycles form an
    in-forest whose roots are the cycle points (a point's parent is its
    image).  ``pre`` and ``post`` number it so that every subtree is an
    interval, as a depth-first search would: y is x or lies on x's way to
    its cycle exactly when ``pre[y] <= pre[x] < post[y]`` (Tarjan 1972,
    "Depth-first search and linear graph algorithms").  So x reaches y iff
    both lie in one component and y is on its cycle or on x's way there, an
    O(1) test.
    """

    __slots__ = ("table", "comp", "depth", "pos", "pre", "post", "cycles", "__weakref__")

    def __init__(self, table: tuple[int, ...]):
        n = len(table)
        comp, pos, depth, cycles = [-1] * n, [0] * n, [0] * n, []
        walked = [-1] * n  # the start of the walk that met each point
        for s in range(n):
            walk, x = [], s
            while walked[x] < 0:
                walked[x] = s
                walk.append(x)
                x = table[x]
            if walked[x] == s:  # the walk closed a new cycle at x
                i = walk.index(x)
                cyc = walk[i:]
                for j, p in enumerate(cyc):
                    comp[p], pos[p] = len(cycles), j
                cycles.append(tuple(cyc + cyc))
                del walk[i:]
            for p in reversed(walk):  # off the cycle: each from its image
                q = table[p]
                comp[p], pos[p], depth[p] = comp[q], pos[q], depth[q] + 1
        # subtree sizes, deepest points first; then each subtree's interval,
        # shallowest first: a root takes the next free block, a point the
        # next free block inside its parent's
        by_depth = sorted(range(n), key=depth.__getitem__)
        size = [1] * n
        for x in reversed(by_depth):
            if depth[x]:
                size[table[x]] += size[x]
        pre, free, clock = [0] * n, [0] * n, 0
        for x in by_depth:
            if depth[x]:
                pre[x] = free[table[x]]
                free[table[x]] += size[x]
            else:
                pre[x] = clock
                clock += size[x]
            free[x] = pre[x] + 1
        # each entry lies in [0, n], so the narrowest unsigned array holds them
        code = next(c for c, top in _ARRAY_TOPS if n < top)
        self.table, self.cycles = table, tuple(cycles)
        self.comp, self.depth, self.pos = array(code, comp), array(code, depth), array(code, pos)
        self.pre = array(code, pre)
        self.post = array(code, map(operator.add, pre, size))

    def period(self, x: int) -> int:
        """The length of the cycle x leads to."""
        return len(self.cycles[self.comp[x]]) // 2

    def hitting(self, x: int, y: int) -> int | None:
        """Least k with iterate(x, k) == y, or None; x must be a point, y may
        be any integer (one outside the table, negative or not, is on no
        orbit)."""
        if not 0 <= y < len(self.table):
            return None
        d = self.depth[y]
        if d:
            return self.depth[x] - d if self.pre[y] <= self.pre[x] < self.post[y] else None
        if self.comp[y] != self.comp[x]:
            return None
        return self.depth[x] + (self.pos[y] - self.pos[x]) % self.period(x)

    def meet(self, x: int, y: int) -> int:
        """The first point of x's orbit on y's when that point is off the
        cycle, or else some point of the cycle.  Lifts the deeper point to
        the other's depth, then steps both until they are equal or both on
        the cycle: the common points off the cycle are the ancestors of the
        first one, which lies at one depth on both ways."""
        table, depth = self.table, self.depth
        while depth[x] > depth[y]:
            x = table[x]
        while depth[y] > depth[x]:
            y = table[y]
        while x != y and depth[x]:
            x, y = table[x], table[y]
        return x


# table_graph.cache_info(): lookups that found a kept graph and that built
# one, the graphs kept, the bytes charged to them and TABLE_GRAPH_BYTES
GraphCacheInfo = namedtuple("GraphCacheInfo", "hits misses currsize nbytes maxbytes")
_graphs: dict[FiniteTable, TableGraph] = {}
_graph_hits = _graph_misses = _graph_nbytes = 0
_INT_BYTES = sys.getsizeof(1 << 29)  # an int object below 2^30


def _entry_bytes() -> int:
    """What every kept graph holds beyond its data: the key (a table object,
    its attribute dict and its hash), the graph object, and a dict entry
    (hash, key, value) with its index, about 48 bytes at two thirds load."""
    key = FiniteTable((0,))
    parts = (key, key.__dict__, hash(key), TableGraph.__new__(TableGraph))
    return sum(map(sys.getsizeof, parts)) + 48


_ENTRY_BYTES = _entry_bytes()


def _graph_bytes(g: TableGraph) -> int:
    """The bytes a kept graph holds alive: a fixed amount per entry
    (``_entry_bytes``), the table tuple and its ints above 256 (the smaller
    ones are shared by the interpreter), the five arrays and the cycles.  A
    cycle's points are the table's ints, but for at most one per cycle, the
    start of the walk that closed it."""
    table, cycles = g.table, g.cycles
    return (
        _ENTRY_BYTES
        + sum(map(sys.getsizeof, (table, g.comp, g.depth, g.pos, g.pre, g.post, cycles)))
        + sum(map(sys.getsizeof, cycles))
        + _INT_BYTES * (sum(map((256).__lt__, table)) + len(cycles))
    )


def table_graph(sm: FiniteTable) -> TableGraph:
    """The table's graph, built on the first call and kept while the graphs
    kept fit in ``TABLE_GRAPH_BYTES``.  A graph that would overflow the
    budget clears the cache before it is kept; one larger than the whole
    budget is returned and not kept.

    A hit, one dict lookup with no key tuple built and a counter, costs
    what an lru_cache's does, about 155 ns (2-vCPU guest, Python 3.11).
    ``cache_info()`` and ``cache_clear()`` work as an lru_cache's.
    """
    global _graph_hits
    try:
        g = _graphs[sm]
    except KeyError:
        return _build_graph(sm)
    _graph_hits += 1
    return g


def _build_graph(sm: FiniteTable) -> TableGraph:
    global _graph_misses, _graph_nbytes
    _graph_misses += 1
    g = TableGraph(sm.table)
    size = _graph_bytes(g)
    if size <= TABLE_GRAPH_BYTES:
        if _graph_nbytes + size > TABLE_GRAPH_BYTES:
            _graphs.clear()
            _graph_nbytes = 0
        _graphs[sm] = g
        _graph_nbytes += size
    return g


def _graph_cache_info() -> GraphCacheInfo:
    return GraphCacheInfo(_graph_hits, _graph_misses, len(_graphs), _graph_nbytes, TABLE_GRAPH_BYTES)


def _graph_cache_clear() -> None:
    global _graph_hits, _graph_misses, _graph_nbytes
    _graphs.clear()
    _graph_hits = _graph_misses = _graph_nbytes = 0


table_graph.cache_info, table_graph.cache_clear = _graph_cache_info, _graph_cache_clear


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


class Listing(Sequence):
    """A read-only window of a finite orbit's steps: the points of
    ``profile`` at steps ``lo``, ..., ``hi - 1``, listed only when read.

    A Listing behaves as the tuple of its points: it compares equal to that
    tuple (never to a list), hashes like it, prints like it, and ``+`` and
    slices give tuples.  ``len`` is O(1), an index is the profile's
    ``point_at``, and iteration and slices read its segments over the window
    (``_parts``), so a one-phase run stays a range and a longer run lists
    only the steps read.  A finite table's profile is a ``TableOrbit``.
    """

    __slots__ = ("_prof", "_lo", "_hi")

    def __init__(self, profile: OrbitProfile | TableOrbit, lo: int, hi: int):
        self._prof, self._lo, self._hi = profile, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(self._prof._parts(self._lo, self._hi))

    def __getitem__(self, i):
        steps = range(self._lo, self._hi)[i]  # a step, or a slice's steps in its order
        if isinstance(steps, int):
            return self._prof.point_at(steps)
        if not steps:
            return ()
        lo, hi = sorted((steps[0], steps[-1]))
        return tuple(itertools.chain.from_iterable(self._prof._parts(lo, hi + 1)))[:: steps.step]

    def __eq__(self, other):
        if not isinstance(other, (tuple, Listing)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if not isinstance(other, (tuple, Listing)):
            return NotImplemented
        return tuple(itertools.chain(self, other))

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(itertools.chain(other, self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True)  # slots: built in about three quarters of the time
class OrbitResult:
    """Either an exact tail/cycle decomposition or an infinitude certificate.

    ``tail`` and ``cycle`` are Listings, the windows of the orbit's steps
    before ``mu`` and from it; each compares equal to the tuple of its points.
    A finite table's are those tuples (``orbit`` lists them to check them)."""

    tail: Listing | tuple[int, ...] | None = None
    cycle: Listing | tuple[int, ...] | None = None
    certificate: DriftCertificate | None = None

    @property
    def is_finite(self) -> bool:
        return self.certificate is None


# Listing an orbit point by point stops above this many points.  At the
# limit, points() of prefix [0], shift -1 peaks at 0.41 GB resident (VmHWM,
# Python 3.11): the points and the one tuple that holds them, filled from
# ranges.  orbit() lists no point, whatever its runs (19 MB there), but
# keeps the limit: its callers may iterate every point.
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

    def listed(self, a: int, b: int) -> Sequence[int]:
        """The run's points at steps a, ..., b - 1.  A run of one phase gives
        them as a range, so a listing copies them only into its result; a
        longer period interleaves its phases in a list."""
        drift, period = self.phases.drift, len(self.phases.sums)
        if period == 1:
            return range(self.v0 + a * drift, self.v0 + b * drift, drift)
        out = [0] * (b - a)
        for q in range(period):  # the steps a + q, a + q + period, ...
            top = self.at(a + q)
            out[q::period] = range(top, top + len(range(q, b - a, period)) * drift, drift)
        return out


def _leg(
    sm: DescribedNatMap, phases: tuple[CyclePhases | None, ...], y: int, floor: int
) -> tuple[CyclePhases | None, int]:
    """How a walk of ``sm`` leaves y, a point at or above ``floor``, itself
    at or above the prefix: ``(ph, 0)`` when the run from y along its
    residue cycle ``ph`` rises and never dips below ``floor`` (an infinite
    orbit's tail), ``(ph, k)`` for a descent along a falling ``ph`` of the
    k >= 1 whole periods that stay at or above ``floor``, and ``(None, 0)``
    for one step of the map.  Every orbit walk takes its legs here."""
    ph = phases[y % sm.modulus]
    if ph is None or not ph.drift or y + ph.min_sum < floor:
        return None, 0
    return ph, 0 if ph.drift > 0 else (y + ph.min_sum - floor) // -ph.drift + 1


class TableOrbit:
    """The orbit of one point of a finite table, as a view over the table's
    graph (``TableGraph``): the point's depth is the tail length ``mu``, and
    ``length`` adds its cycle's period.  It answers what ``OrbitProfile``
    answers of a finite orbit and holds no point of it: membership and
    hitting times are the graph's O(1) tests, and a listing walks the table
    from the start over the tail, then slices the cycle from its entry.
    ``orbit_profile`` builds one on each call and no cache holds it, so a
    view keeps its graph alive only while its caller holds the view.
    """

    __slots__ = ("sm", "start", "mu", "length", "_graph", "_cycle", "_at")
    finite = True

    def __init__(self, sm: FiniteTable, start: int):
        sm._table_on((start,))
        g = table_graph(sm)
        self.sm, self.start, self._graph = sm, start, g
        self.mu = g.depth[start]
        self.length = self.mu + g.period(start)
        # the cycle listed twice, and the index in it of the start's entry
        self._cycle, self._at = g.cycles[g.comp[start]], g.pos[start]

    def hitting(self, y: int) -> int | None:
        return self._graph.hitting(self.start, y)

    def __contains__(self, y: int) -> bool:
        return self._graph.hitting(self.start, y) is not None

    def point_at(self, k: int) -> int:
        mu = self.mu
        if k < 0:
            raise ValueError(f"no point at step {k}")
        if k >= mu:
            return self._cycle[self._at + (k - mu) % (self.length - mu)]
        return self._parts(k, k + 1)[0][0]

    def points(self, n: int | None = None) -> tuple[int, ...]:
        """The orbit's first n points in step order, all of them by default
        or when it has fewer."""
        if n is not None and n < 0:
            raise ValueError(f"cannot list {n} points")
        n = self.length if n is None else min(n, self.length)
        tail, cycle = self._parts(0, n)
        return (*tail, *cycle) if tail else cycle

    def _parts(self, lo: int, hi: int) -> tuple[Sequence[int], Sequence[int]]:
        """The points at steps lo, ..., hi - 1 in step order: the tail's,
        walked in the table, then a slice of the cycle."""
        mu, at = self.mu, self._at
        if lo >= mu:
            return (), self._cycle[at + lo - mu : at + hi - mu]
        table, x, tail = self.sm.table, self.start, []
        for _ in range(lo):
            x = table[x]
        for _ in range(lo, hi if hi < mu else mu):
            tail.append(x)
            x = table[x]
        return tail, self._cycle[at : at + hi - mu] if hi > mu else ()

    def points_upto(self, bound: int) -> frozenset[int]:
        """All orbit points with value <= bound."""
        return frozenset(filter(bound.__ge__, self.points()))


class OrbitProfile:
    """Full description of one forward orbit of a described map, exact
    membership included; a finite table's orbits are views over its graph
    (``TableOrbit``).

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

    def __init__(self, sm: DescribedNatMap, start: int):
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

    def _walk(self, sm: DescribedNatMap, start: int) -> None:
        seq: list[int] = []
        index = self._index
        phases, n0 = tail_structure(sm).phases, sm.prefix_len
        x, k = start, 0  # x is the point at step k
        while True:
            i = index.get(x)
            if i is None and self.runs:
                i = self.hitting(x)
            if i is not None:
                self.finite, self.mu, self.length = True, i, k
                break
            ph, periods = _leg(sm, phases, x, n0) if x >= n0 else (None, 0)
            if ph is not None:
                run = _Run(k, x, ph, None)
                if not periods:
                    self.tail_run = run
                    self.runs += (run,)
                    self.finite, self.length = False, k
                    break
                # the descent stops where it would meet a point already on
                # the orbit, a walked one or a run top: within a residue cycle
                # each residue has one predecessor, and the shift rule is
                # injective on a residue class
                count = periods * len(ph.sums)
                for p in itertools.chain(seq, (r.v0 for r in self.runs)):
                    t = run.step_of(p)
                    if t is not None and t < count:
                        count = t
                self.runs += (run._replace(count=count),)
                x, k = run.at(count), k + count
                continue
            index[x] = k
            seq.append(x)
            k += 1
            x = sm(x)
        self.seq = tuple(seq)

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
        if k < 0:
            raise ValueError(f"no point at step {k}")
        if self.finite and k >= self.length:
            k = self.mu + (k - self.mu) % (self.length - self.mu)
        if not self.runs or k < self.runs[0].base:
            return self.seq[k]
        for first, end, i, run in self._segments():
            if end is None or k < end:
                return self.seq[i + k - first] if run is None else run.at(k - first)

    def points(self, n: int | None = None) -> tuple[int, ...]:
        """The orbit's first n points in step order, all of them when a
        finite orbit has fewer.  By default, every point of a finite orbit,
        or the points before an infinite orbit's tail.

        Raises OrbitTooLong above MAX_LISTED_POINTS points.
        """
        if n is not None and n < 0:
            raise ValueError(f"cannot list {n} points")
        if n is None or (self.finite and n > self.length):
            if len(self.seq) == self.length:
                return self.seq
            n = self.length
        elif n <= len(self.seq) and (not self.runs or n <= self.runs[0].base):
            return self.seq[:n]
        return tuple(itertools.chain.from_iterable(self._parts(0, n)))

    def _parts(self, lo: int, hi: int) -> list[Sequence[int]]:
        """The points at steps lo, ..., hi - 1 in step order as segments:
        slices of ``seq`` and the runs' listed steps (``_Run.listed``).

        Raises OrbitTooLong above MAX_LISTED_POINTS points, before listing.
        """
        if hi - lo > MAX_LISTED_POINTS:
            raise OrbitTooLong(self.start, hi - lo, MAX_LISTED_POINTS)
        parts: list[Sequence[int]] = []
        for first, end, i, run in self._segments():
            if first >= hi:
                break
            a, b = max(lo - first, 0), (hi if end is None else min(hi, end)) - first
            if a < b:
                parts.append(self.seq[i + a : i + b] if run is None else run.listed(a, b))
        return parts

    def _segments(self) -> Iterator[tuple[int, int | None, int, _Run | None]]:
        """The orbit's segments in step order, each as (its first step, the
        step after its last or None, the index in ``seq`` of the first
        walked point at or after it, its run or None): the nonempty slices of
        ``seq`` between the runs, and the runs."""
        k = walked = 0  # the step reached, and how many walked points lie before it
        for run in self.runs:
            if run.base > k:
                yield k, run.base, walked, None
                walked += run.base - k
            k = None if run.count is None else run.base + run.count
            yield run.base, k, walked, run
        if k is not None and k < self.length:
            yield k, self.length, walked, None

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
        return self.tail_run.v0 + self.tail_run.phases.max_sum

    def is_cofinite(self) -> bool:
        if self.finite:
            return False
        ph = self.tail_run.phases
        return len(ph.residues) == self.sm.modulus and ph.drift == self.sm.modulus


def _described_cache(cached):
    """Decorator for a public function that answers a described map from
    ``cached``, an lru_cache, and a finite table without it, so no
    entry-bounded cache keeps a table alive.  It takes the cache's
    ``cache_info`` and ``cache_clear``, and as ``__wrapped__`` the uncached
    function on described maps.  Such a function tests ``sm.__class__ is not
    DescribedNatMap`` first: about 40 ns on a described map's call, where
    ``isinstance`` costs 65 (2-vCPU guest, Python 3.11)."""

    def expose(public):
        public.cache_info, public.cache_clear = cached.cache_info, cached.cache_clear
        public.__wrapped__ = cached.__wrapped__
        return public

    return expose


@lru_cache(maxsize=PROFILE_CACHE)
def _described_profile(sm: DescribedNatMap, x: int) -> OrbitProfile:
    if x < 0:
        raise OutOfDomain(f"{x} is not a natural number")
    return OrbitProfile(sm, x)


@_described_cache(_described_profile)
def orbit_profile(sm: SelfMap, x: int) -> OrbitProfile | TableOrbit:
    """The profile of x's orbit: a described map's is walked once and
    cached; a finite table's is a view (``TableOrbit``), built in O(1) from
    the table's graph on each call."""
    if sm.__class__ is not DescribedNatMap and isinstance(sm, FiniteTable):
        return TableOrbit(sm, x)
    return _described_profile(sm, x)


def _check_walked_links(sm: SelfMap, pts: Sequence[int], nxt: int) -> None:
    """Check that each point of ``pts`` maps to the one after it and the last
    one to ``nxt``."""
    assert list(map(sm, pts)) == [*pts[1:], nxt]


def _check_run_links(sm: DescribedNatMap, run: _Run, nxt: int) -> None:
    """Check that each of the run's ``count`` points maps to the one after it
    and the last one to ``nxt``: the links inside the run once per phase, by
    the lemma in ``orbit``, and the last link by ``sm``."""
    sums, drift = run.phases.sums, run.phases.drift
    period, count = len(sums), run.count
    assert drift % sm.modulus == 0
    for q in range(min(period, count - 1)):
        a = run.v0 + sums[q]  # the phase's first interior point
        b = a + (count - 2 - q) // period * drift  # and its last
        step = (sums[q + 1] if q + 1 < period else drift) - sums[q]
        assert min(a, b) >= sm.prefix_len
        assert sm(a) == a + step and sm(b) == b + step
    assert sm(run.at(count - 1)) == nxt


def orbit(sm: SelfMap, x: int) -> OrbitResult:
    """Tail/cycle decomposition of the orbit of x, or an infinitude certificate.

    Every link of a finite orbit is checked against the map, so the result
    raises OrbitTooLong above MAX_LISTED_POINTS points.  The profile's
    segments are walked in step order (``OrbitProfile._segments``), and
    each kind of link is checked its own way:

    * walked points (slices of ``seq``): ``sm`` at each must give the point
      after it;
    * the links inside a run, once per phase, by the lemma below;
    * the link from each segment's last point into the next segment, and the
      link from the orbit's last point back to the cycle's first, by ``sm``.

    Lemma.  Let a run's phase q hold the interior points (those followed by a
    point of the same run) v0 + sums[q] + j * drift, j = 0..J.  As drift is a
    multiple of the modulus, they all have one residue; if the lowest, at
    j = 0 or j = J, is at or above the prefix, the map adds that residue's
    shift to each, so sm(p) - p is the same for all of them.  The run's point
    after each lies one fixed distance on (sums[q + 1] - sums[q], or drift -
    sums[q] in the last phase), so sm at the phase's first interior point
    proves every link of the phase; the last is evaluated too.  A run's
    listing (``_Run.listed``) is those very points, so every listed link is
    verified.

    ``tail`` and ``cycle`` are the Listings of steps [0, mu) and [mu, n), so
    the result costs O(segments) and lists no point.  A finite table's orbit
    is read from its graph (``_table_orbit``).
    """
    if isinstance(sm, FiniteTable):
        return _table_orbit(sm, x)
    prof = orbit_profile(sm, x)
    n, mu = prof.length, prof.mu
    if prof.finite and n > MAX_LISTED_POINTS:
        raise OrbitTooLong(x, n, MAX_LISTED_POINTS)
    if not prof.finite:
        tail = prof.tail_run
        cert = DriftCertificate(tail.v0, tail.phases.residues, tail.phases.drift)
        cert.validate(sm)
        return OrbitResult(certificate=cert)
    seq, segs = prof.seq, list(prof._segments())
    walked = sum(end - first for first, end, _, run in segs if run is None)
    # every step lies in one segment, and every walked point in a walked one
    assert len(seq) - walked == n - segs[-1][1] == 0
    # the last segment links back to step mu, the cycle's first
    nxt = next(seq[i + mu - a] if r is None else r.at(mu - a) for a, b, i, r in segs if mu < b)
    for first, end, i, run in reversed(segs):  # each links into the one after it
        if run is None:
            _check_walked_links(sm, seq[i : i + end - first], nxt)
            nxt = seq[i]
        else:
            _check_run_links(sm, run, nxt)
            nxt = run.at(0)
    return OrbitResult(Listing(prof, 0, mu), Listing(prof, mu, n))


def _table_orbit(sm: FiniteTable, x: int) -> OrbitResult:
    """``orbit`` on a finite table, read from its graph as a ``TableOrbit``
    lists it, without building the view: the tail walked in the table, then
    one period of the cycle from its entry.  Every link of that listing is
    checked in the table, and ``tail`` and ``cycle`` are its slices, the
    tuples a Listing would compare equal to.  Views are not cached, and
    building one took about a quarter of an orbit call on a small table."""
    table = sm._table_on((x,))
    g = table_graph(sm)
    mu, cycle, at = g.depth[x], g.cycles[g.comp[x]], g.pos[x]
    n = mu + len(cycle) // 2
    if n > MAX_LISTED_POINTS:
        raise OrbitTooLong(x, n, MAX_LISTED_POINTS)
    tail = []
    for _ in range(mu):
        tail.append(x)
        x = table[x]
    pts = (*tail, *cycle[at : at + n - mu])
    # _check_walked_links in the table; a listed point outside it is
    # skipped, never read from the table's end, so the images fall short
    assert [table[p] for p in pts if 0 <= p < len(table)] == [*pts[1:], pts[mu]]
    return OrbitResult(pts[:mu], pts[mu:])


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


def _land(
    sm: DescribedNatMap, phases: tuple[CyclePhases | None, ...], y: int
) -> tuple[OrbitSummary | None, int | None, int | None]:
    """One leg (``_leg``) of a summary walk, from y: ``(s, None, None)``
    when a tail starts at y, s being y's summary; otherwise ``(None, z,
    top)``, z the next point the walk lands on and top y's largest point
    before it, a descent's being in its first period."""
    n0 = len(sm.prefix)
    if y < n0:
        return None, sm.prefix[y], y
    ph, periods = _leg(sm, phases, y, n0)
    if ph is None:
        return None, sm(y), y
    top = y + ph.max_sum
    if periods:
        return None, y + periods * ph.drift, top
    return OrbitSummary(False, top, ph.residue_set, top), None, None


def orbit_summary(sm: DescribedNatMap, x: int, memo: dict[int, OrbitSummary]) -> OrbitSummary:
    """The summary of the orbit of x, from one walk along its trajectory and
    no profile.

    A point that starts a tail has that tail's threshold and residues, and
    its top is the threshold; the points of a cycle the walk closes are
    finite, their top the cycle's largest point; any other point has the
    summary of the next point the walk lands on (``_land``), with its own
    top if that is larger.  The walk takes a profile's legs (``_leg``), so
    it lands on a number of points bounded by the map and not by the start.
    Landing points follow one another by a fixed rule, so a walk that closes
    lands on a point twice, and between the two it passed every point of the
    cycle.

    The walk stops at a point already in ``memo`` and enters every point it
    landed on there, so across calls sharing one memo each is walked once.
    The memo is to be filled by these walks only (here and in
    ``orbit_summaries``): then the next landing of every point in it is in
    it too, unless a tail starts at that point.
    """
    s = memo.get(x)
    if s is not None:
        return s
    return _walk_summary(sm, tail_structure(sm).phases, x, memo)


def _walk_summary(
    sm: DescribedNatMap,
    phases: tuple[CyclePhases | None, ...],
    x: int,
    memo: dict[int, OrbitSummary],
) -> OrbitSummary:
    """``orbit_summary``'s walk from x, a point not in ``memo``, one leg
    (``_land``) per point landed on."""
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
        s, z, top = _land(sm, phases, y)
        if s is not None:
            memo[y] = s
            break
        on_path[y] = len(path)
        path.append(y)
        tops.append(top)
        y = z
    for p, top in zip(reversed(path), reversed(tops)):
        if top > s.top:
            s = OrbitSummary(s.finite, s.threshold, s.residues, top)
        memo[p] = s
    return memo[x]


def orbit_summaries(
    sm: DescribedNatMap, hi: int, memo: dict[int, OrbitSummary]
) -> Iterator[OrbitSummary]:
    """The summaries of the orbits of 0, 1, ..., hi - 1, in that order and
    as read, in one pass that shares ``memo``; each equals
    ``orbit_summary(sm, x, memo)``.

    A point not yet in the memo takes one leg (``_land``).  When its landing
    z is in the memo, the point is not on z's cycle of landings (all of
    which the memo would hold), so its summary is z's, with its own top if
    that is larger, as ``orbit_summary``'s walk would find.  In increasing
    order a descent lands below its start, so z is nearly always there; the
    general walk runs only from a point whose landing is not yet summarized,
    such as a prefix point that maps upward or to itself.
    """
    phases = tail_structure(sm).phases
    for x in range(hi):
        s = memo.get(x)
        if s is None:
            s, z, top = _land(sm, phases, x)
            if s is None:
                s = memo.get(z)
                if s is None:
                    s = _walk_summary(sm, phases, x, memo)
                elif top > s.top:
                    s = OrbitSummary(s.finite, s.threshold, s.residues, top)
            memo[x] = s
        yield s


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


def _tails_meet(r: _Run, s: _Run) -> bool:
    """Do the infinite orbits with tail runs ``r`` and ``s`` meet?  Iff
    one run's first point lies on the other (the lemma in ``xi``'s
    docstring); either run may be the one that starts higher."""
    return r.step_of(s.v0) is not None or s.step_of(r.v0) is not None


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

    A finite table's orbits are read from its graph (``_table_xi``).
    """
    if not istar:
        raise ValueError("xi needs a nonempty set")
    if istar.__class__ is not tuple or len(set(istar)) < len(istar):
        istar = tuple(dict.fromkeys(istar))
    if isinstance(sm, FiniteTable):
        sm._table_on(istar)
        return _table_xi(table_graph(sm), istar)
    profs = [_described_profile(sm, a) for a in istar]
    finite = profs[0].finite
    for p in profs:
        if p.finite is not finite:
            # a finite and an infinite orbit never meet: each holds points of its class only
            return None
    if not finite:
        for a in istar:  # a point of istar on every orbit is z
            times = []
            for p in profs:
                t = p.hitting(a)
                if t is None:
                    break
                times.append(t)
            else:
                return XiResult(a, dict(zip(istar, times)))
        t0 = profs[0].tail_run
        if not all(_tails_meet(t0, p.tail_run) for p in profs[1:]):
            return None
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


def _table_xi(g: TableGraph, istar: tuple[int, ...]) -> XiResult | None:
    """``xi`` over distinct points of a finite table, checked by the caller,
    from its graph.

    The orbits meet iff they lead to one cycle.  Their common points off the
    cycle, if any, are the first one, z, and the points on its way to the
    cycle, which every orbit reaches later; so z is the minimizer, found by
    folding ``TableGraph.meet`` over the points.

    Otherwise the common points are the cycle's.  Lemma: as y steps forward
    along the cycle, the sum of the hitting times of y grows by k = |istar|,
    except where y enters at some ``entry[a]``: a's hitting time then drops
    from depth[a] + L - 1 to depth[a], L the period.  So every minimizer is
    an entry point: y just past a point that is not one costs k more than
    it.  The sweep takes the sum at the last entry position, then at each
    entry position in cycle order from the one before by that rule, one
    entering point at a time: a position entered by several points gets its
    sum at the last of them, and the earlier readings there are higher.  A
    tie goes to the smallest point.
    """
    comp, depth, pos = g.comp, g.depth, g.pos
    z = istar[0]
    c = comp[z]
    for a in istar:
        if comp[a] != c:
            return None
    for a in istar[1:]:
        if not depth[z]:
            break
        z = g.meet(z, a)
    if depth[z]:
        return XiResult(z, {a: depth[a] - depth[z] for a in istar})
    cycle = g.cycles[c]
    period, k = len(cycle) // 2, len(istar)
    qs = sorted(map(pos.__getitem__, istar))
    last = qs[-1]
    # the sum at the last entry position: each q lies in [0, period), so
    # (last - q) % period is last - q
    cost, prev = k * last - sum(qs), last - period
    best = w = wq = None  # the least (cost, point) so far, and its position
    for q in qs:
        cost += k * (q - prev) - period
        prev = q
        if best is None or cost < best or (cost == best and cycle[q] < w):
            best, w, wq = cost, cycle[q], q
    return XiResult(w, {a: depth[a] + (wq - pos[a]) % period for a in istar})


def in_D_phi(sm: SelfMap, istar: Iterable[int]) -> bool:
    """True iff the orbits of the elements of ``istar`` share a common point:
    on a finite table, iff they lead to one cycle.

    On a described map no minimizer is sought.  A finite and an infinite
    orbit never meet.  Finite orbits meet iff the first orbit's cycle entry
    ``point_at(mu)`` lies on every other: a common point's orbit holds the
    cycle of each orbit through it, and an orbit has one cycle.  Infinite
    orbits meet iff every tail run lies on the first one's progression, one
    run's first point on the other run (the lemma in ``xi``'s docstring).
    """
    istar = tuple(istar)
    if not istar:
        raise ValueError("in_D_phi needs a nonempty set")
    if isinstance(sm, FiniteTable):
        sm._table_on(istar)
        comp = table_graph(sm).comp
        return len({comp[a] for a in istar}) == 1
    first, *rest = [_described_profile(sm, a) for a in istar]
    for p in rest:
        if p.finite is not first.finite:
            return False
    if first.finite:
        entry = first.point_at(first.mu)
        return all(entry in p for p in rest)
    return all(_tails_meet(first.tail_run, p.tail_run) for p in rest)


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
    infinite, read from one pass of orbit summaries (``orbit_summaries``)
    that shares ``memo`` and stops at the first finite point.

    It lies at most one residue period above the lock height: any higher
    point either locks immediately onto a positive cycle (infinite) or
    descends through that window, so a finite orbit from above passes
    through a window point with a finite orbit.
    """
    summaries = orbit_summaries(sm, lock_height(sm) + sm.modulus + 1, memo)
    return next((x for x, s in enumerate(summaries) if s.finite), None)


@lru_cache(maxsize=VERDICT_CACHE)
def _described_all_infinite(sm: DescribedNatMap) -> bool:
    return least_finite_point(sm, {}) is None


@_described_cache(_described_all_infinite)
def all_orbits_infinite(sm: SelfMap) -> bool:
    """True iff every point of the domain has an infinite orbit: never on a
    finite table, whose answer is not cached.

    Finiteness over a range of points is read from orbit summaries
    (``least_finite_point``), one walk per trajectory and no profile.
    """
    if sm.__class__ is not DescribedNatMap and isinstance(sm, FiniteTable):
        return False
    return _described_all_infinite(sm)


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
