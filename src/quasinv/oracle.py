"""Ground-truth brute force and the registered verification suite.

Exhaustive enumeration over small finite maps, seeded random generation of
described maps, and a registry of checks that cross-validate every module
against direct search.  Checks call the library through module attributes so
tests can splice in mutants and watch the suite catch them.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from . import classify as classify_mod
from . import orbits as orbits_mod
from . import psolve as psolve_mod
from . import quasi as quasi_mod
from . import supersets as supersets_mod
from .errors import BoundTooLarge, ConfigError, ProfileInvalid, StructureViolation
from .selfmap import DescribedNatMap, FiniteTable, SelfMap, map_to_obj


# ---------------------------------------------------------------------------
# Brute-force primitives
# ---------------------------------------------------------------------------


def enumerate_finite_maps(n: int):
    """All n^n finite-table maps in lexicographic order."""
    if not 1 <= n <= 7:
        raise BoundTooLarge(f"n must lie in [1, 7], got {n}")
    for table in itertools.product(range(n), repeat=n):
        yield FiniteTable(table)


def brute_force_w_table(sm: FiniteTable) -> Optional[dict[frozenset, int]]:
    """For each nonempty subset, the smallest removal point keeping the image
    inside, or None when some subset admits none."""
    n = sm.size
    if n > 7:
        raise BoundTooLarge("brute force is limited to seven points")
    out: dict[frozenset, int] = {}
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        found = None
        for a in members:
            if all(mask >> sm(x) & 1 for x in members if x != a):
                found = a
                break
        if found is None:
            return None
        out[frozenset(members)] = found
    return out


def _images(sm: SelfMap, bound: int) -> list[int]:
    """The images of 0..bound, read once so the brute-force loops index a list."""
    return [sm(x) for x in range(bound + 1)]


def brute_force_interval_w(sm: DescribedNatMap, bound: int) -> Optional[tuple[int, int]]:
    """First subinterval of [0, bound] admitting no removal witness, or None."""
    img = _images(sm, bound)
    for lo in range(bound + 1):
        for hi in range(lo, bound + 1):
            pts = range(lo, hi + 1)
            if not any(
                all(lo <= img[x] <= hi for x in pts if x != a) for a in pts
            ):
                return (lo, hi)
    return None


class _Walk:
    """The orbit of one start point, walked with the map only as far as asked.

    ``first`` maps every point met so far to the step at which the walk first
    met it.  The walk is kept, so each orbit is walked once however many
    queries it answers.
    """

    def __init__(self, sm: SelfMap, start: int):
        self.sm = sm
        self.first = {start: 0}
        self.last = start
        self.closed = False  # the walk came back to a point: the orbit is all listed

    def reaches(self, targets) -> bool:
        """Walk on until every target is met; False when the orbit closes first."""
        first = self.first
        missing = {t for t in targets if t not in first}
        y = self.last
        while missing and not self.closed:
            y = self.sm(y)
            if y in first:
                self.closed = True
            else:
                first[y] = len(first)
                missing.discard(y)
        self.last = y
        return not missing


@dataclass(frozen=True)
class GenParams:
    """Bounds for random described-map generation."""

    max_prefix_len: int = 3
    max_modulus: int = 3
    max_shift: int = 3
    max_prefix_value: int = 10


def random_described_map(seed: int, params: GenParams = GenParams()) -> DescribedNatMap:
    """Seed-deterministic valid described map within the given bounds."""
    rng = random.Random(seed)
    n = rng.randint(0, params.max_prefix_len)
    m = rng.randint(1, params.max_modulus)
    prefix = tuple(rng.randint(0, params.max_prefix_value) for _ in range(n))
    shifts = tuple(
        rng.randint(max(-params.max_shift, -n), params.max_shift) for _ in range(m)
    )
    return DescribedNatMap(prefix, m, shifts)


def named_corpus() -> dict[str, DescribedNatMap]:
    """The worked maps referenced throughout the test corpus."""
    return {
        "succ": DescribedNatMap((), 1, (1,)),
        "identity": DescribedNatMap((), 1, (0,)),
        "shift2": DescribedNatMap((), 1, (2,)),
        "bullet": DescribedNatMap((2,), 1, (1,)),  # 0 -> 2, k -> k+1 above
        "conj": DescribedNatMap((2,), 2, (-1, 3)),  # successor in disguise
        "zero_fix": DescribedNatMap((0,), 1, (1,)),  # 0 fixed, the rest climbs
        "pivot25": DescribedNatMap((1, 2, 5), 1, (-1,)),
        "case3": DescribedNatMap((2,), 1, (-1,)),  # 0 -> 2, the rest steps down
        "evens": DescribedNatMap((6, 4), 2, (0, 1)),  # idempotent onto even points
        "roundup": DescribedNatMap((), 2, (0, 1)),  # odd points round up to even
    }


# ---------------------------------------------------------------------------
# Suite plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    theorems: Optional[tuple[str, ...]] = None  # None = everything registered
    n_max: int = 5
    window: int = 200
    samples: int = 100
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.n_max <= 6:
            raise ConfigError(f"n_max must lie in [1, 6], got {self.n_max}")
        if self.window < 40:
            raise ConfigError("window must be at least 40")
        if self.samples < 0:
            raise ConfigError("samples must be nonnegative")
        if self.theorems is not None:
            unknown = [t for t in self.theorems if t not in CHECKS]
            if unknown:
                raise ConfigError(f"unknown theorems: {unknown}")


@dataclass
class CheckResult:
    check: str
    description: str
    instances: int
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the check's run

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    config: SuiteConfig
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failure_count(self) -> int:
        return sum(len(c.failures) for c in self.checks)

    def to_json(self, timings: bool = False) -> str:
        """The report as JSON; byte-identical across runs unless ``timings``.

        ``timings`` adds each check's ``seconds`` and, under the config's
        ``generator``, the ``GenParams`` that drew the random maps.
        """
        config = {
            "theorems": list(self.config.theorems) if self.config.theorems else None,
            "n_max": self.config.n_max,
            "window": self.config.window,
            "samples": self.config.samples,
            "seed": self.config.seed,
        }
        if timings:
            config["generator"] = asdict(GenParams())
        checks = []
        for c in sorted(self.checks, key=lambda c: c.check):
            entry = {
                "check": c.check,
                "description": c.description,
                "instances": c.instances,
                "failures": c.failures,
            }
            if timings:
                entry["seconds"] = c.seconds
            checks.append(entry)
        obj = {"config": config, "passed": self.passed, "checks": checks}
        return json.dumps(obj, sort_keys=True, indent=2)


class _Recorder:
    """Counts instances and collects serialized counterexamples.

    A detail may be given as a tuple; a failure records it as a list, as
    JSON reads it back, so a passing instance pays for no conversion."""

    def __init__(self):
        self.instances = 0
        self.failures: list[dict] = []

    def check(self, ok: bool, sm: SelfMap | None = None, **detail) -> None:
        self.instances += 1
        if not ok:
            fail = {k: list(v) if isinstance(v, tuple) else v for k, v in detail.items()}
            if sm is not None:
                fail["map"] = map_to_obj(sm)
            self.failures.append(fail)


# n -> every table on [0, n), cleared when run_theorem_suite returns: each
# check reads the same table objects, so the table caches hit by identity
_TABLES: dict[int, list[FiniteTable]] = {}


def _tables(n: int) -> list[FiniteTable]:
    """All n^n finite tables, enumerated once per suite run."""
    if n not in _TABLES:
        _TABLES[n] = list(enumerate_finite_maps(n))
    return _TABLES[n]


# (seed, samples) -> the named and seeded described maps, cleared with
# _TABLES: each check reads the same map objects, so the caches hit by identity
_CORPORA: dict[tuple[int, int], tuple[DescribedNatMap, ...]] = {}


def _corpus(cfg: SuiteConfig) -> tuple[DescribedNatMap, ...]:
    """The named corpus and ``cfg.samples`` seeded maps, built once per suite run."""
    key = (cfg.seed, cfg.samples)
    if key not in _CORPORA:
        seeded = (random_described_map(cfg.seed + i) for i in range(cfg.samples))
        _CORPORA[key] = (*named_corpus().values(), *seeded)
    return _CORPORA[key]


def _subsets_upto(points, max_size):
    for size in range(1, max_size + 1):
        yield from itertools.combinations(points, size)


# ---------------------------------------------------------------------------
# Checks: orbits
# ---------------------------------------------------------------------------


def _check_orbit_dichotomy(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for n in range(1, cfg.n_max + 1):
        for sm in _tables(n):
            for x in range(n):
                res = orbits_mod.orbit(sm, x)
                ok = res.is_finite and len(res.tail) + len(res.cycle) <= n
                rec.check(ok, sm, point=x)
    return rec


def _check_orbit_infinite_distinct(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        for x in range(9):
            res = orbits_mod.orbit(sm, x)
            if res.is_finite:
                continue
            seen = set()
            y, distinct = x, True
            for _ in range(cfg.window):
                if y in seen:
                    distinct = False
                    break
                seen.add(y)
                y = sm(y)
            rec.check(distinct, sm, point=x)
    return rec


def _check_orbit_links(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    maps: list[SelfMap] = list(_corpus(cfg))
    maps += _tables(min(cfg.n_max, 3))
    for sm in maps:
        pts = range(sm.size) if isinstance(sm, FiniteTable) else range(7)
        for x in pts:
            res = orbits_mod.orbit(sm, x)
            if not res.is_finite:
                rec.check(True, sm)
                continue
            chain, mu = res.tail + res.cycle, len(res.tail)
            # each point maps to the next, and the last back to the cycle's first
            ok = len(chain) > mu and all(
                sm(a) == b for a, b in zip(chain, chain[1:] + chain[mu : mu + 1])
            )
            rec.check(ok, sm, point=x)
    return rec


def _check_disjoint_classes(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        profs = {x: orbits_mod.orbit_profile(sm, x) for x in range(13)}
        for a in range(13):
            for b in range(13):
                if profs[a].finite or not profs[b].finite:
                    continue
                meet = orbits_mod.orbits_intersect(sm, a, b)
                window_disjoint = not (
                    profs[a].points_upto(cfg.window) & profs[b].points_upto(cfg.window)
                )
                rec.check(meet is None and window_disjoint, sm, pair=[a, b])
    return rec


def _check_cofinite_meets(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        if not orbits_mod.exists_cofinite_orbit(sm):
            continue
        cof = next((a for a in range(9) if orbits_mod.is_orbit_cofinite(sm, a)), None)
        if cof is None:
            rec.check(False, sm, detail="no cofinite orbit found in the window")
            continue
        for b in range(9):
            if orbits_mod.orbit_profile(sm, b).finite:
                continue
            rec.check(orbits_mod.orbits_intersect(sm, cof, b) is not None, sm, pair=[cof, b])
    return rec


def _check_intersection_is_shared_orbit(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    maps: list[SelfMap] = list(_corpus(cfg))
    for n in range(1, cfg.n_max + 1):
        maps += _tables(n)
    for sm in maps:
        pts = range(sm.size) if isinstance(sm, FiniteTable) else range(9)
        ups: dict[int, frozenset[int]] = {}  # each point's orbit up to the window

        def up(a: int) -> frozenset[int]:
            if a not in ups:
                ups[a] = orbits_mod.orbit_profile(sm, a).points_upto(cfg.window)
            return ups[a]

        for istar in _subsets_upto(pts, 3):
            z = orbits_mod.xi(sm, istar)
            if z is None:
                continue
            common = frozenset.intersection(*map(up, istar))
            rec.check(common == up(z.point), sm, istar=istar, point=z.point)
    return rec


def _check_class_purity(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    maps: list[SelfMap] = list(_corpus(cfg))
    for n in range(1, cfg.n_max + 1):
        maps += _tables(n)
    for sm in maps:
        pts = range(sm.size) if isinstance(sm, FiniteTable) else range(11)
        for istar in _subsets_upto(pts, 3):
            if not orbits_mod.in_D_phi(sm, istar):
                continue
            classes = {orbits_mod.orbit_profile(sm, a).finite for a in istar}
            rec.check(len(classes) == 1, sm, istar=istar)
    return rec


def _check_pairwise_joint(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        inf_pts = [x for x in range(11) if not orbits_mod.orbit_profile(sm, x).finite]
        meets = {
            pair: orbits_mod.orbits_intersect(sm, *pair) is not None
            for pair in itertools.combinations(inf_pts, 2)
        }
        for istar in _subsets_upto(inf_pts, 3):
            if not all(meets[pair] for pair in itertools.combinations(istar, 2)):
                continue
            z = orbits_mod.xi(sm, istar)
            ok = z is not None and not orbits_mod.orbit_profile(sm, z.point).finite
            rec.check(ok, sm, istar=istar)
    return rec


def _check_cofinite_ptilde(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        if orbits_mod.exists_cofinite_orbit(sm):
            rec.check(orbits_mod.check_p_tilde(sm), sm)
    return rec


def _check_full_orbit_cofinite(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    half = cfg.window // 2
    for sm in _corpus(cfg):
        if psolve_mod.has_full_orbit(sm) is None:
            continue
        for a in range(9):
            prof = orbits_mod.orbit_profile(sm, a)
            miss_half = half + 1 - len([p for p in prof.points_upto(half)])
            miss_full = cfg.window + 1 - len([p for p in prof.points_upto(cfg.window)])
            rec.check(miss_half == miss_full, sm, point=a)
    return rec


def _check_shared_point_minimality(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    maps: list[SelfMap] = list(_corpus(cfg))
    maps += _tables(min(cfg.n_max, 3))
    for sm in maps:
        pts = range(sm.size) if isinstance(sm, FiniteTable) else range(9)
        walks = {a: _Walk(sm, a) for a in pts}
        for istar in _subsets_upto(pts, 3):
            z = orbits_mod.xi(sm, istar)
            if z is None:
                continue
            bound = max(60, z.point + 20)
            common = frozenset.intersection(
                *(orbits_mod.orbit_profile(sm, a).points_upto(bound) for a in istar)
            )
            # a finite orbit that closes before meeting a common point fails
            ok = z.point in common and all(walks[a].reaches(common) for a in istar)
            if ok:
                cost = {c: sum(walks[a].first[c] for a in istar) for c in common}
                zc = cost[z.point]
                ok = zc == sum(z.hitting_times.values()) and all(
                    zc < cost[c] or (zc == cost[c] and z.point <= c) for c in common
                )
            rec.check(ok, sm, istar=istar, point=z.point)
    return rec


# ---------------------------------------------------------------------------
# Checks: quasi-invariance and identity decisions
# ---------------------------------------------------------------------------


def _check_quasi_oracle(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for n in range(1, cfg.n_max + 1):
        sets = []
        for mask in range(1, 1 << n):
            lam = tuple(x for x in range(n) if mask >> x & 1)
            bits = [1 << x for x in lam]
            # the masks of the removal sets of each size up to two, by size
            removals = [[sum(p) for p in itertools.combinations(bits, size)] for size in range(3)]
            sets.append((mask, lam, bits, removals))
        for sm in _tables(n):
            table = sm.table
            for mask, lam, bits, removals in sets:
                # escapes: the points of lam whose image leaves it; img: the image
                esc = img = 0
                for x, bit in zip(lam, bits):
                    y = 1 << table[x]
                    img |= y
                    if not y & mask:
                        esc |= bit
                excess = (img & ~mask).bit_count()
                # independent route: enumerate removal sets by size for the fewest
                # removals (up to two) after which no image escapes
                fewest = next(
                    (
                        size
                        for size, masks in enumerate(removals)
                        if any(esc & ~removed == 0 for removed in masks)
                    ),
                    3,
                )
                for k in range(3):
                    rep_i = quasi_mod.internal_quasi_invariant(sm, lam, k)
                    rep_e = quasi_mod.external_quasi_invariant(sm, lam, k)
                    ok = rep_i.holds == (fewest <= k) and rep_e.holds == (excess <= k)
                    if rep_i.holds:
                        removed = sum(bit for x, bit in zip(lam, bits) if x in rep_i.witness)
                        ok = ok and len(rep_i.witness) <= k and esc & ~removed == 0
                    rec.check(ok, sm, lam=lam, k=k)
    return rec


def _check_quasi_monotonic(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    rng = random.Random(cfg.seed)
    maps: list[SelfMap] = [random_described_map(cfg.seed + i) for i in range(20)]
    maps += _tables(min(cfg.n_max, 3))
    for sm in maps:
        for _ in range(6):
            hi = sm.size - 1 if isinstance(sm, FiniteTable) else 10
            lam = tuple(sorted(rng.sample(range(hi + 1), rng.randint(1, min(4, hi + 1)))))
            for k in range(3):
                i_k = quasi_mod.internal_quasi_invariant(sm, lam, k).holds
                i_k1 = quasi_mod.internal_quasi_invariant(sm, lam, k + 1).holds
                e_k = quasi_mod.external_quasi_invariant(sm, lam, k).holds
                e_k1 = quasi_mod.external_quasi_invariant(sm, lam, k + 1).holds
                rec.check((not i_k or i_k1) and (not e_k or e_k1), sm, lam=lam, k=k)
            inv = quasi_mod.is_invariant(sm, lam)
            i0 = quasi_mod.internal_quasi_invariant(sm, lam, 0).holds
            e0 = quasi_mod.external_quasi_invariant(sm, lam, 0).holds
            rec.check(inv == i0 == e0, sm, lam=lam)
    return rec


def _check_identity_subsets(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for n in range(2, cfg.n_max + 1):
        for k in range(1, n + 1):
            holds = 0
            for sm in _tables(n):
                # direct quantifier over all subsets of size >= k
                direct = all(
                    all(sm(x) in s for x in s)
                    for mask in range(1, 1 << n)
                    if bin(mask).count("1") >= k
                    for s in [{x for x in range(n) if mask >> x & 1}]
                )
                decided = quasi_mod.identity_decision(sm, "subsets", k)
                rec.check(direct == decided, sm, k=k)
                holds += decided
            expected = n**n if k == n else 1
            rec.check(holds == expected, None, n=n, k=k, holds=holds, expected=expected)
    return rec


def _check_identity_intervals(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        for k in (1, 2, 3):
            direct = all(
                all(lo <= sm(x) <= hi for x in range(lo, hi + 1))
                for lo in range(21)
                for hi in range(lo + k - 1, 21)
            )
            rec.check(direct == quasi_mod.identity_decision(sm, "intervals", k), sm, k=k)
    return rec


# ---------------------------------------------------------------------------
# Checks: classifiers
# ---------------------------------------------------------------------------


def _check_subset_classifier(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for n in range(3, cfg.n_max + 1):
        for sm in _tables(n):
            table = brute_force_w_table(sm)
            res = classify_mod.classify_subsets_1qi(sm)
            if (table is None) != (res is None):
                rec.check(False, sm, expected=table is not None, got=res is not None)
                continue
            if res is None:
                rec.check(True, sm)
                continue
            _, sel = res
            ok = True
            for mask in range(1, 1 << n):
                s = {x for x in range(n) if mask >> x & 1}
                w = sel.choose(s)
                if w not in s or any(sm(x) not in s for x in s if x != w):
                    ok = False
                    break
            rec.check(ok, sm)
    return rec


def _check_interval_classifier(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    bound = 30
    for sm in _corpus(cfg):
        bad = brute_force_interval_w(sm, bound)
        res = classify_mod.classify_intervals_1qi(sm)
        if (bad is None) != (res is not None):
            rec.check(False, sm, oracle_failure=bad, classified=res is not None)
            continue
        if res is None:
            rec.check(True, sm)
            continue
        _, sel = res
        img = _images(sm, bound)
        ok = True
        for lo in range(bound + 1):
            for hi in range(lo, bound + 1):
                w = sel.choose(lo, hi)
                if not lo <= w <= hi or any(
                    not lo <= img[x] <= hi for x in range(lo, hi + 1) if x != w
                ):
                    ok = False
                    break
            if not ok:
                break
        rec.check(ok, sm)
    return rec


def _pivot_map(n_star: int, u: int) -> DescribedNatMap:
    prefix = tuple(range(1, n_star + 1)) + (u,)
    return DescribedNatMap(prefix, 1, (-1,))


def _check_strict_classifier(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    names = named_corpus()
    succ_res = classify_mod.classify_strict_intervals_1qi(names["succ"])
    rec.check(succ_res is not None and succ_res.kind == "succ", names["succ"])
    for n_star, u in [(0, 2), (2, 5), (3, 1), (4, 7)]:
        sm = _pivot_map(n_star, u)
        res = classify_mod.classify_strict_intervals_1qi(sm)
        ok = res is not None and res.kind == "pivot" and res.n_star == n_star and res.u == u
        rec.check(ok, sm, expected=[n_star, u])
    for name in ("identity", "shift2", "bullet", "evens"):
        rec.check(classify_mod.classify_strict_intervals_1qi(names[name]) is None, names[name])
    for sm in _corpus(cfg):
        res = classify_mod.classify_strict_intervals_1qi(sm)
        if res is None:
            rec.check(True, sm)
        elif res.kind == "succ":
            rec.check(all(sm(x) == x + 1 for x in range(25)), sm)
        else:
            ns = res.n_star
            ok = (
                all(sm(x) == x + 1 for x in range(ns))
                and sm(ns) == res.u
                and res.u != ns
                and all(sm(x) == x - 1 for x in range(ns + 1, 25))
            )
            rec.check(ok, sm)
    return rec


# ---------------------------------------------------------------------------
# Checks: supersets
# ---------------------------------------------------------------------------


def _check_superset_union(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for n in range(1, cfg.n_max + 1):
        # the points of each nonempty mask, at index mask - 1
        members = [tuple(x for x in range(n) if mask >> x & 1) for mask in range(1, 1 << n)]
        for sm in _tables(n):
            table = sm.table
            closed = [
                (gmask, g)
                for gmask, g in enumerate(members, 1)
                if all(gmask >> table[x] & 1 for x in g)
            ]
            for gmask, g in closed:
                # every nonempty submask of gmask, in increasing order
                imask = -gmask & gmask
                while imask:
                    istar = members[imask - 1]
                    rebuilt = supersets_mod.build_G_orbit_union(sm, istar, g)
                    rec.check(rebuilt == g, sm, istar=istar, g=g)
                    imask = (imask - gmask) & gmask
            # forward direction: every orbit union is closed and contains its seed
            for istar in members:
                built = supersets_mod.build_G_orbit_union(sm, istar)
                rec.check(
                    supersets_mod.check_superset_closure(sm, istar, built), sm, istar=istar
                )
    return rec


def _maxcond_maps(cfg: SuiteConfig) -> list[DescribedNatMap]:
    names = named_corpus()
    maps = [names["identity"], names["roundup"], names["evens"]]
    maps += [sm for sm in _corpus(cfg) if supersets_mod.analyze_maxcond(sm) is not None]
    return maps


def _check_maxcond_pairs(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    rng = random.Random(cfg.seed + 1)
    for sm in _maxcond_maps(cfg):
        profile = supersets_mod.analyze_maxcond(sm)
        if profile is None:
            rec.check(False, sm, detail="profile vanished")
            continue
        ok_shape = all(sm(sm(x)) == sm(x) >= x for x in range(40))
        rec.check(ok_shape, sm)
        for _ in range(8):
            istar = sorted(rng.sample(range(9), rng.randint(1, 3)))
            jmax = max(profile.j(a) for a in istar)
            pool = [x for x in range(9) if profile.j(x) <= jmax]
            h = sorted(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
            union: set[int] = set()
            for a in list(istar) + h:
                union.update((a, sm(a)))
            ok = supersets_mod.check_superset_closure(sm, istar, union) and max(union) in {
                sm(a) for a in istar
            }
            rec.check(ok, sm, istar=istar, h=h)
    return rec


def _check_maxcond_intervals(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    rng = random.Random(cfg.seed + 2)
    for sm in _maxcond_maps(cfg):
        profile = supersets_mod.analyze_maxcond(sm)
        b0 = profile.b(0)
        # the interval variant additionally pins images above the first fixed point
        if any(profile.j(a) != profile.r(a) for a in range(b0 + 1, b0 + 25) if sm(a) != a):
            continue
        try:
            for trial in range(8):
                istar = sorted(rng.sample(range(9), rng.randint(1, 3)))
                u_star, u_max, v = supersets_mod.interval_superset_bounds(profile, istar)
                ok = v == max(sm(a) for a in istar) and u_star <= u_max
                for u in range(u_star, u_max + 1):
                    ok = ok and supersets_mod.check_superset_closure(
                        sm, istar, range(u, v + 1)
                    )
                if u_star > 0:
                    g_bad = set(range(u_star - 1, v + 1))
                    ok = ok and not (
                        supersets_mod.check_superset_closure(sm, istar, g_bad)
                        and max(g_bad) in {sm(a) for a in istar}
                    )
                rec.check(ok, sm, istar=istar, bounds=[u_star, u_max, v])
        except ProfileInvalid:
            continue
    return rec


# ---------------------------------------------------------------------------
# Checks: solvers
# ---------------------------------------------------------------------------


def _check_solution_valid(cfg: SuiteConfig, mode: str) -> _Recorder:
    rec = _Recorder()
    solver = psolve_mod.solve_P1 if mode == "P1" else psolve_mod.solve_P2
    for sm in _corpus(cfg):
        sol = solver(sm)
        if sol is None:
            continue
        for istar in _subsets_upto(range(9), 3):
            g = sol.G(istar)
            u = sol.u(istar)
            rec.check(psolve_mod.check_P(mode, sm, g, u, istar), sm, istar=istar)
    return rec


def _check_p1_existence(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        present = psolve_mod.solve_P1(sm) is not None
        ptilde = orbits_mod.check_p_tilde(sm)
        rec.check(present == ptilde, sm, present=present, ptilde=ptilde)
        if not ptilde:
            wit = orbits_mod.p_tilde_witness(sm)
            ok = (
                wit is not None
                and not orbits_mod.orbit_profile(sm, wit[0]).finite
                and not orbits_mod.orbit_profile(sm, wit[1]).finite
                and orbits_mod.orbits_intersect(sm, wit[0], wit[1]) is None
            )
            rec.check(ok, sm, witness=wit)
    return rec


def _check_p2_existence(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        present = psolve_mod.solve_P2(sm) is not None
        total = psolve_mod.is_total_order(sm, psolve_mod.SCOPE_INFINITE)
        rec.check(present == total, sm, present=present, total=total)
        if not total:
            wit = psolve_mod.total_order_witness(sm, psolve_mod.SCOPE_INFINITE)
            ok = (
                wit is not None
                and not orbits_mod.orbit_profile(sm, wit[0]).finite
                and not orbits_mod.orbit_profile(sm, wit[1]).finite
                and orbits_mod.hitting_time(sm, wit[0], wit[1]) is None
                and orbits_mod.hitting_time(sm, wit[1], wit[0]) is None
            )
            rec.check(ok, sm, witness=wit)
    return rec


def _check_removal_escapes(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        for sol in (psolve_mod.solve_P1(sm), psolve_mod.solve_P2(sm)):
            if sol is None:
                continue
            for istar in _subsets_upto(range(7), 2):
                u = sol.u(istar)
                if orbits_mod.orbit_profile(sm, u).finite:
                    continue
                g = sol.G(istar)
                img = sm(u)
                rec.check(img not in set(g) and img not in set(istar), sm, istar=istar)
    return rec


def _check_chain_endpoint(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        if not orbits_mod.all_orbits_infinite(sm):
            continue
        sol = psolve_mod.solve_P2(sm)
        if sol is None:
            continue
        for b in range(7):
            for steps in range(7):
                chain = [sm.iterate(b, i) for i in range(steps + 1)]
                rec.check(sol.u(chain) == chain[-1], sm, start=b, steps=steps)
    return rec


def _check_p1_structure(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        sol = psolve_mod.solve_P1(sm)
        if sol is not None:
            for istar in _subsets_upto(range(7), 2):
                g = sol.G(istar)
                v = sol.u(istar)
                try:
                    dec = psolve_mod.decompose_HHH(sm, g, v)
                except StructureViolation as exc:
                    rec.check(False, sm, istar=istar, error=str(exc))
                    continue
                any_inf = any(not orbits_mod.orbit_profile(sm, a).finite for a in g)
                rec.check(dec.case == ("infinite" if any_inf else "finite"), sm, istar=istar)
        # converse: hand-built shape-conforming pairs satisfy the predicate
        fins = [a for a in range(9) if orbits_mod.orbit_profile(sm, a).finite]
        for a in fins[:4]:
            prof = orbits_mod.orbit_profile(sm, a)
            pts = prof.points()
            for v in pts[:3]:
                seg = set(pts[: prof.hitting(v) + 1])
                for b in fins[:3]:
                    if v in orbits_mod.orbit_profile(sm, b):
                        continue
                    g = seg | set(orbits_mod.orbit_profile(sm, b).points())
                    rec.check(
                        psolve_mod.check_P("P1", sm, g, v, (a, b)), sm, g=sorted(g), v=v
                    )
    return rec


def _check_seven_way(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        if not orbits_mod.all_orbits_infinite(sm):
            continue
        present = psolve_mod.solve_P2(sm) is not None
        total_all = psolve_mod.is_total_order(sm, psolve_mod.SCOPE_ALL)
        window_total = all(
            orbits_mod.hitting_time(sm, a, b) is not None
            or orbits_mod.hitting_time(sm, b, a) is not None
            for a in range(21)
            for b in range(a + 1, 21)
        )
        rec.check(
            present == total_all == window_total,
            sm,
            present=present,
            total=total_all,
            window=window_total,
        )
    return rec


def _check_triple_characterization(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        full = psolve_mod.has_full_orbit(sm)
        rhs = orbits_mod.exists_cofinite_orbit(sm) and psolve_mod.is_total_order(
            sm, psolve_mod.SCOPE_ALL
        )
        rec.check((full is not None) == rhs, sm, full=full, rhs=rhs)
        if full is not None:
            pts = orbits_mod.orbit_profile(sm, full).points_upto(60)
            rec.check(pts == frozenset(range(61)), sm, full=full)
    return rec


def _check_shared_in_set_p2(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for sm in _corpus(cfg):
        sampled = list(_subsets_upto(range(11), 3))
        if all(
            (z := orbits_mod.xi(sm, istar)) is not None and z.point in istar
            for istar in sampled
        ):
            rec.check(psolve_mod.solve_P2(sm) is not None, sm)
        else:
            rec.check(True, sm)
    return rec


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------


def _check_enumeration(cfg: SuiteConfig) -> _Recorder:
    rec = _Recorder()
    for n in range(1, min(cfg.n_max, 4) + 1):
        seen = {sm.table for sm in _tables(n)}
        rec.check(len(seen) == n**n, None, n=n, count=len(seen))
    return rec


CHECKS: dict[str, tuple[str, Callable[[SuiteConfig], _Recorder]]] = {
    "enumeration-complete": ("finite map enumeration yields n^n distinct maps", _check_enumeration),
    "orbit-dichotomy-finite": ("finite-domain orbits decompose with tail+cycle <= n", _check_orbit_dichotomy),
    "orbit-infinite-iterates-distinct": ("certified infinite orbits repeat no point in the window", _check_orbit_infinite_distinct),
    "orbit-decomposition-links": ("tail and cycle entries link under the map", _check_orbit_links),
    "disjoint-orbit-classes": ("finite and infinite orbits never share a point", _check_disjoint_classes),
    "cofinite-meets-infinite": ("a cofinite orbit meets every infinite orbit", _check_cofinite_meets),
    "intersection-equals-shared-orbit": ("the orbit intersection equals the shared point's orbit", _check_intersection_is_shared_orbit),
    "shared-point-class-purity": ("sets with a shared point are pure in orbit class", _check_class_purity),
    "pairwise-implies-joint-intersection": ("pairwise meeting infinite orbits meet jointly", _check_pairwise_joint),
    "cofinite-implies-pairwise-intersecting": ("a cofinite orbit forces pairwise intersection", _check_cofinite_ptilde),
    "full-orbit-implies-cofinite-orbits": ("a full orbit makes every orbit's complement stop growing", _check_full_orbit_cofinite),
    "shared-point-minimality": ("the shared point minimizes total hitting time", _check_shared_point_minimality),
    "quasi-invariance-oracle": ("quasi-invariance verdicts agree with removal-set enumeration", _check_quasi_oracle),
    "quasi-invariance-monotonic": ("verdicts are monotone in k and agree at k=0", _check_quasi_monotonic),
    "identity-decision-subsets": ("subset preservation holds for the identity alone", _check_identity_subsets),
    "identity-decision-intervals": ("interval preservation matches the windowed quantifier", _check_identity_intervals),
    "subset-classifier-oracle": ("subset classification matches brute-force witness search", _check_subset_classifier),
    "interval-classifier-oracle": ("interval classification matches windowed witness search", _check_interval_classifier),
    "strict-classifier-families": ("the strict variant recognizes exactly its two families", _check_strict_classifier),
    "superset-union-equivalence": ("closed supersets are exactly orbit unions", _check_superset_union),
    "maxcond-pair-soundness": ("pair unions under the index condition stay closed with max in range", _check_maxcond_pairs),
    "maxcond-interval-bounds": ("interval supersets work exactly down to the computed bound", _check_maxcond_intervals),
    "solution-p1-valid": ("produced removed-anywhere solutions verify on samples", lambda cfg: _check_solution_valid(cfg, "P1")),
    "solution-p2-valid": ("produced removed-inside solutions verify on samples", lambda cfg: _check_solution_valid(cfg, "P2")),
    "p1-presence-matches-intersection-predicate": ("solvability matches pairwise orbit intersection, with witnesses", _check_p1_existence),
    "p2-presence-matches-total-order": ("solvability matches the infinite-orbit total order, with witnesses", _check_p2_existence),
    "removal-point-escapes": ("infinite-orbit removal points map outside the superset", _check_removal_escapes),
    "chain-endpoint-selection": ("on chains the removal point is the endpoint", _check_chain_endpoint),
    "p1-structure-roundtrip": ("produced solutions decompose into the canonical shape", _check_p1_structure),
    "seven-way-total-order": ("solvability, total order, and window comparability coincide", _check_seven_way),
    "triple-characterization": ("full orbits exist iff cofinite orbit plus total order", _check_triple_characterization),
    "shared-point-in-set-implies-p2": ("in-set shared points force solvability", _check_shared_in_set_p2),
}


def run_theorem_suite(config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run every selected check and report instance counts and counterexamples."""
    config.validate()
    selected = config.theorems if config.theorems is not None else tuple(CHECKS)
    results = []
    try:
        for check_id in sorted(selected):
            description, fn = CHECKS[check_id]
            t0 = time.perf_counter()
            rec = fn(config)
            seconds = time.perf_counter() - t0
            results.append(CheckResult(check_id, description, rec.instances, rec.failures, seconds))
    finally:
        _TABLES.clear()  # so a run at n_max = 6 holds none of its tables afterwards
        _CORPORA.clear()
    return SuiteReport(config, results)
