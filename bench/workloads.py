"""The benchmark's three workloads and their correctness gates.

* ``suite`` -- the registered theorem suite at its defaults, which is what
  ``quasinv verify`` runs.  Its brute force does most of the work.
* ``queries`` -- one client in a closed loop sends decision queries over a
  seeded corpus of described maps, then replays the same battery once so
  half of the queries meet warm caches.  The library layers do all the work.
* ``scaling`` -- fixed constructions along the start-value and drift-period
  axes, where the default corpus hides the cliffs.

Each workload has ``setup(Q, seed, index)``, which generates and parses the
inputs of the ``index``-th repetition, and ``run(Q, state, rep)``, which
measures that repetition.  The benchmark evaluates maps itself (``step``)
wherever it checks a verdict, so a check does not trust the code it checks.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from math import lcm
from pathlib import Path

# ---------------------------------------------------------------------------
# One repetition: timed operations, failures, verification
# ---------------------------------------------------------------------------

FAIL = object()  # result of an operation that raised


class Rep:
    """Counters of one repetition.

    Time spent in ``verifying()`` is subtracted from the wall time, and the
    cache lookups made there are subtracted from the cache counters, so both
    describe the workload's own operations only.  With a ``speed`` sampler,
    times are read from its clock, which stops while the host is sampled,
    and each timed interval records its span of host samples, so that it
    can be scaled by the host's speed around it.
    """

    def __init__(self, Q, tracer=None, speed=None):
        self.Q = Q
        self.tracer = tracer
        self.speed = speed
        self.now = speed.now if speed is not None else time.perf_counter
        self.spans: list[tuple[int, int]] = []  # host samples at each latency's start and end
        self.caches = {
            "orbits.profile": getattr(Q.orbits, "orbit_profile", None),
            "orbits.tail_structure": getattr(Q.orbits, "tail_structure", None),
            "psolve.total_order": getattr(Q.psolve, "total_order_witness", None),
        }
        self.excluded = {k: [0, 0] for k in self.caches}
        self.latencies: list[float] = []
        self.weights: list[int] | None = None  # operations per latency, if not one each
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.verify_s = 0.0
        self.info: dict = {}

    def request(self, rid) -> None:
        if self.tracer is not None:
            self.tracer.request = rid

    def op(self, fn, *args):
        """One timed call into the library; an exception makes it a failed operation."""
        self.attempted += 1
        start = self.mark()
        t0 = self.now()
        try:
            res = fn(*args)
        except Exception as exc:  # a crash on a valid input is a measured failure
            self.latencies.append(self.now() - t0)
            self.spans.append((start, self.mark()))
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{getattr(fn, '__name__', fn)}{args[1:]!r}: {exc!r}"[:300])
            return FAIL
        self.latencies.append(self.now() - t0)
        self.spans.append((start, self.mark()))
        return res

    def mark(self) -> int:
        """The number of host samples taken so far."""
        return len(self.speed.samples) if self.speed is not None else 0

    def fail(self, what: str) -> None:
        """A wrong answer: counted as a failed operation and as incorrect output."""
        self.failed += 1
        if len(self.wrong) < 20:
            self.wrong.append(what[:300])

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    @contextmanager
    def verifying(self):
        if self.tracer is not None:
            self.tracer.paused = True
        before = self._cache_raw()
        t0 = self.now()
        try:
            yield
        except Exception as exc:
            self.fail(f"verification raised {exc!r}")
        finally:
            self.verify_s += self.now() - t0
            for k, (h, m) in self._cache_raw().items():
                self.excluded[k][0] += h - before[k][0]
                self.excluded[k][1] += m - before[k][1]
            if self.tracer is not None:
                self.tracer.paused = False

    def _cache_raw(self) -> dict:
        out = {}
        for k, fn in self.caches.items():
            info = getattr(fn, "cache_info", None)
            ci = info() if info is not None else None
            out[k] = (ci.hits, ci.misses) if ci is not None else (0, 0)
        return out

    def cache_counters(self) -> dict:
        raw = self._cache_raw()
        hits, misses = (raw["orbits.profile"][i] - self.excluded["orbits.profile"][i] for i in (0, 1))
        return {
            "orbits.profile_hits": hits,
            "orbits.profile_misses": misses,
            "orbits.profile_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "orbits.tail_structure_misses": raw["orbits.tail_structure"][1]
            - self.excluded["orbits.tail_structure"][1],
            "psolve.total_order_misses": raw["psolve.total_order"][1]
            - self.excluded["psolve.total_order"][1],
        }


# ---------------------------------------------------------------------------
# The benchmark's own evaluation of described maps
# ---------------------------------------------------------------------------


def nat_obj(prefix, modulus, shifts) -> dict:
    return {"kind": "nat", "prefix": list(prefix), "modulus": modulus, "shifts": list(shifts)}


def step(obj: dict, x: int) -> int:
    prefix = obj["prefix"]
    if x < len(prefix):
        return prefix[x]
    return x + obj["shifts"][x % obj["modulus"]]


def walk(obj: dict, x: int, steps: int) -> list[int]:
    out = [x]
    for _ in range(steps):
        x = step(obj, x)
        out.append(x)
    return out


def reaches(obj: dict, x: int, y: int, k: int) -> bool:
    """Does the orbit of x reach y for the first time at step k?"""
    for _ in range(k):
        if x == y:
            return False
        x = step(obj, x)
    return x == y


def orbit_error(obj: dict, x: int, res) -> str | None:
    """Why ``res`` is not the orbit of x, or None when it checks out."""
    if res.certificate is None:
        chain = res.tail + res.cycle
        if not chain or chain[0] != x or len(set(chain)) != len(chain):
            return "finite orbit does not start at x or repeats a point"
        for a, b in zip(chain, chain[1:] + res.cycle[:1]):
            if step(obj, a) != b:
                return f"orbit link {a} -> {b} is wrong"
        return None
    cert = res.certificate
    h, n, m = cert.entry_height, len(obj["prefix"]), obj["modulus"]
    for r in cert.residue_cycle:
        if h < n or h % m != r:
            return "certificate phase does not match the map"
        h = step(obj, h)
    if cert.drift <= 0 or h - cert.entry_height != cert.drift:
        return "certificate drift is wrong"
    if _steps_to(obj, x, cert.entry_height) is None:
        return "certificate entry is not on the orbit"
    return None


def _steps_to(obj: dict, x: int, y: int, limit: int = 10**6) -> int | None:
    """First step at which the orbit of x reaches y, if it does within ``limit``."""
    for k in range(limit):
        if x == y:
            return k
        x = step(obj, x)
    return None


def _sha(values) -> str:
    return hashlib.sha256(json.dumps(values, default=repr).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

SUITE_COUNTS = Path(__file__).with_name("suite_counts.json")
# The suite runs at SuiteConfig's defaults, seed included, whatever the
# benchmark seed: that is what ``quasinv verify`` runs.  Other suite seeds
# change a few corpus checks' instance counts, and with them which check the
# p99 rank falls in, so op_p99_ms would jump between seeds by up to a third.


def suite_setup(Q, seed: int, index: int) -> dict:
    config = Q.oracle.SuiteConfig()
    counts = json.loads(SUITE_COUNTS.read_text())
    return {"config": config, "counts": counts[str(config.seed)],
            "inputs": f"suite seed {config.seed}"}


def suite_run(Q, state: dict, rep: Rep) -> float:
    checks = Q.oracle.CHECKS
    saved = dict(checks)
    check_s: dict[str, float] = {}
    check_spans: dict[str, tuple[int, int]] = {}

    def timed(check_id, fn):
        def run_check(cfg):
            rep.request(check_id)
            start = rep.mark()
            t0 = rep.now()
            try:
                return fn(cfg)
            finally:
                check_s[check_id] = rep.now() - t0
                check_spans[check_id] = (start, rep.mark())

        return run_check

    if rep.tracer is not None:
        rep.tracer.wrap_checks(checks)
    for check_id, (description, fn) in list(checks.items()):
        checks[check_id] = (description, timed(check_id, fn))
    t0 = rep.now()
    try:
        report = Q.oracle.run_theorem_suite(state["config"])
    except Exception as exc:  # a crash is a measured failure, not the end of the run
        report = Q.oracle.SuiteReport(None, [])
        rep.attempted += 1
        rep.fail(f"run_theorem_suite raised {exc!r}")
    finally:
        wall = rep.now() - t0
        checks.update(saved)

    expected = state["counts"]
    got = {c.check: c.instances for c in report.checks}
    for c in report.checks:
        rep.attempted += c.instances
        for failure in c.failures:
            rep.fail(f"{c.check}: {json.dumps(failure, sort_keys=True)}")
    rep.expect(got == expected, f"instance counts differ from the recorded ones: "
               f"{ {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v} }")
    # an operation is one check instance; the suite does not time instances
    # one by one, so each takes its check's time per instance
    timed_checks = [k for k in sorted(check_s) if got.get(k)]
    rep.latencies.extend(check_s[k] / got[k] for k in timed_checks)
    rep.weights = [got[k] for k in timed_checks]
    rep.spans = [check_spans[k] for k in timed_checks]
    rep.info["check_spans"] = check_spans
    rep.info["suite_seed"] = state["config"].seed
    rep.info["check_s"] = check_s
    rep.info["check_instances"] = got
    rep.info["digest"] = _sha(sorted(got.items()))
    return wall


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

QUERY_MAPS = 400
# GenParams(max_prefix_len, max_modulus, max_shift, max_prefix_value) of the
# large scale; the benchmark draws maps itself so its inputs do not change
# when the library's generator does
QUERY_SCALE = (6, 8, 8, 40)
START_RANGE = 10**4


def query_corpus(seed: int, index: int) -> list[dict]:
    """Seeded described maps and, for each, the parameters of its query battery.

    Every repetition of a run draws its own corpus, so a run's median spans
    several corpora instead of timing one corpus several times.
    """
    rng = random.Random(seed * 10_000 + index)
    max_n, max_m, max_c, max_v = QUERY_SCALE
    items = []
    for _ in range(QUERY_MAPS):
        n = rng.randint(0, max_n)
        m = rng.randint(1, max_m)
        prefix = [rng.randint(0, max_v) for _ in range(n)]
        shifts = [rng.randint(max(-max_c, -n), max_c) for _ in range(m)]
        obj = nat_obj(prefix, m, shifts)
        starts = [rng.randrange(START_RANGE) for _ in range(4)]
        # two targets on the orbit, at a known first step, and two anywhere
        targets = []
        for x in starts[:2]:
            pts = walk(obj, x, rng.randrange(64))
            targets.append(pts[-1])
        targets += [rng.randrange(START_RANGE) for _ in range(2)]
        lo = rng.randrange(60)
        items.append({
            "obj": obj,
            "text": json.dumps(obj),
            "starts": starts,
            "targets": targets,
            "triples": [tuple(rng.sample(range(100), 3)) for _ in range(2)],
            "interval": (lo, lo + rng.randrange(16)),
            "k": rng.randrange(3),
            "samples": [tuple(sorted(rng.sample(range(16), rng.randint(1, 3)))) for _ in range(3)],
        })
    return items


def queries_setup(Q, seed: int, index: int) -> dict:
    items = query_corpus(seed, index)
    for item in items:
        item["sm"] = Q.selfmap.parse_map(item["text"])
    return {"items": items, "inputs": f"corpus {seed}/{index}"}


def _cli(Q, argv) -> int:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return Q.cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _verdict(res):
    """A compact, comparable form of an operation's result."""
    if res is FAIL:
        return "fail"
    if isinstance(res, tuple) and len(res) == 2 and hasattr(res[0], "case"):
        return (res[0].case, res[0].n_star)  # an interval classification
    if res is None or isinstance(res, (bool, int, tuple)):
        return res
    if hasattr(res, "certificate"):
        if res.certificate is None:
            return ("finite", len(res.tail), len(res.cycle), min(res.cycle))
        c = res.certificate
        return ("infinite", c.entry_height, c.drift, len(c.residue_cycle))
    if hasattr(res, "hitting_times"):
        return (res.point, tuple(sorted(res.hitting_times.items())))
    if hasattr(res, "holds"):
        return (res.holds, res.witness)
    if hasattr(res, "description"):
        return res.mode
    return repr(res)


def battery(Q, item: dict, rep: Rep, verify: bool) -> list:
    """Run one map's queries; with ``verify`` also check every answer."""
    O, P, sm, obj = Q.orbits, Q.psolve, item["sm"], item["obj"]
    out = []

    def ask(fn, *args):
        res = rep.op(fn, *args)
        out.append(_verdict(res))
        return res

    for x in item["starts"]:
        res = ask(O.orbit, sm, x)
        if verify and res is not FAIL:
            with rep.verifying():
                err = orbit_error(obj, x, res)
                rep.expect(err is None, f"orbit {obj} {x}: {err}")

    for i, (x, y) in enumerate(zip(item["starts"], item["targets"])):
        k = ask(O.hitting_time, sm, x, y)
        if verify and k is not FAIL:
            with rep.verifying():
                if i < 2:  # on-orbit target: the first step is known exactly
                    rep.expect(k == _steps_to(obj, x, y, 64), f"hitting_time {obj} {x} {y} = {k}")
                elif k is not None:
                    rep.expect(reaches(obj, x, y, k), f"hitting_time {obj} {x} {y} = {k}")
                else:
                    rep.expect(y not in walk(obj, x, 256), f"hitting_time {obj} {x} {y} = None")

    for triple in item["triples"]:
        z = ask(O.xi, sm, triple)
        if verify and z is not FAIL and z is not None:
            with rep.verifying():
                rep.expect(
                    all(reaches(obj, a, z.point, k) for a, k in z.hitting_times.items()),
                    f"xi {obj} {triple} = {z}",
                )

    lo, hi = item["interval"]
    lam, k = tuple(range(lo, hi + 1)), item["k"]
    qi = ask(Q.quasi.internal_quasi_invariant, sm, lam, k)
    if verify and qi is not FAIL:
        with rep.verifying():
            escapes = tuple(x for x in lam if not lo <= step(obj, x) <= hi)
            want = (True, escapes) if len(escapes) <= k else (False, None)
            rep.expect((qi.holds, qi.witness) == want, f"qi {obj} {lam} {k}")

    totals = [ask(P.is_total_order, sm, scope) for scope in (P.SCOPE_ALL, P.SCOPE_INFINITE)]
    if verify and FAIL not in totals:
        with rep.verifying():
            # a total order on all points is one on the infinite-orbit points
            rep.expect(totals != [True, False], f"total order {obj}: all but not infinite")
            for scope, total in zip((P.SCOPE_ALL, P.SCOPE_INFINITE), totals):
                pair = P.total_order_witness(sm, scope)
                rep.expect(total == (pair is None), f"total order {obj} {scope}: {total} {pair}")
                if pair is not None:
                    a, b = pair
                    rep.expect(
                        O.hitting_time(sm, a, b) is None and O.hitting_time(sm, b, a) is None,
                        f"total-order witness {obj} {scope} ({a}, {b}) is comparable",
                    )

    solutions = {}
    for mode, solver in (("P1", P.solve_P1), ("P2", P.solve_P2)):
        sol = solutions[mode] = ask(solver, sm)
        if sol is FAIL or sol is None:
            continue
        for s in item["samples"]:
            g = ask(sol.G, s)
            u = ask(sol.u, s)
            if verify and g is not FAIL and u is not FAIL:
                with rep.verifying():
                    rep.expect(P.check_P(mode, sm, g, u, s), f"{mode} selectors {obj} {s}")

    cls = ask(Q.classify.classify_intervals_1qi, sm)
    if verify and cls is not FAIL and cls is not None:
        with rep.verifying():
            sel = cls[1]
            for lo in range(10):
                for hi in range(lo, lo + 8):
                    w = sel.choose(lo, hi)
                    rep.expect(
                        lo <= w <= hi and all(lo <= step(obj, x) <= hi
                                              for x in range(lo, hi + 1) if x != w),
                        f"interval selector {obj} [{lo},{hi}] -> {w}",
                    )

    start = ask(P.has_full_orbit, sm)
    if verify and start is not FAIL and start is not None:
        with rep.verifying():
            seen = set(walk(obj, start, 10**4))
            rep.expect(seen >= set(range(16)), f"full orbit {obj} from {start}")

    code = ask(_cli, Q, ["solve", item["path"], "--p2"])
    if code is not FAIL and solutions["P2"] is not FAIL:
        want = 1 if solutions["P2"] is None else 0
        rep.expect(code == want, f"cli solve {obj} --p2 exit {code}")
    code = ask(_cli, Q, ["orbit", item["path"], str(item["starts"][0])])
    if code is not FAIL:
        rep.expect(code == 0, f"cli orbit {obj} {item['starts'][0]} exit {code}")
    return out


def queries_run(Q, state: dict, rep: Rep) -> float:
    items = state["items"]
    for i, item in enumerate(items):  # the map files the CLI reads
        item["path"] = str(Path(state["workdir"]) / f"map{i}.json")
        Path(item["path"]).write_text(item["text"])
    t0 = rep.now()
    first = []
    for i, item in enumerate(items):
        rep.request(i)
        first.append(battery(Q, item, rep, verify=True))
    for i, item in enumerate(items):
        rep.request(len(items) + i)
        again = battery(Q, item, rep, verify=False)
        rep.expect(again == first[i], f"replayed verdicts differ for {item['obj']}")
    wall = rep.now() - t0 - rep.verify_s
    rep.info["digest"] = _sha(first)
    return wall


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

START_MAPS = {
    "m1": nat_obj([0], 1, [-1]),
    "m3": nat_obj([0, 1, 2], 3, [-3, -3, -3]),
}
START_DECADES = (3, 4, 5, 6, 18)
PERIOD_KS = ((5, 7), (3, 4, 5), (4, 5, 7), (5, 7, 8), (5, 7, 9))


def period_map(ks) -> dict:
    """m = len(ks) + 1 residues: fixed residues drifting down by k*m, one up by m."""
    m = len(ks) + 1
    return nat_obj(range(max(k * m for k in ks)), m, [-k * m for k in ks] + [m])


def period_of(obj: dict) -> int:
    return lcm(obj["modulus"], *(abs(c) for c in obj["shifts"]))


def axis_points(seed: int) -> list[dict]:
    """The start-value axis (the seed moves each start within the first 1% of
    its decade) followed by the drift-period axis."""
    rng = random.Random(seed)
    points = []
    for label, obj in START_MAPS.items():
        for d in START_DECADES:
            x = 10**d + rng.randrange(10 ** (d - 2))
            points.append({"name": f"orbits.start_1e{d}_{label}_s", "obj": obj, "x": x})
    for ks in PERIOD_KS:
        obj = period_map(ks)
        points.append({"name": f"psolve.period_{period_of(obj)}_s", "obj": obj})
    return points


def scaling_setup(Q, seed: int, index: int) -> dict:
    points = axis_points(seed)
    for p in points:
        p["sm"] = Q.selfmap.parse_map(json.dumps(p["obj"]))
    return {"points": points, "inputs": f"axis points {seed}"}


def _check_start(rep: Rep, p: dict, res, k) -> None:
    obj, x = p["obj"], p["x"]
    n = len(obj["prefix"])
    d = -obj["shifts"][0]  # every residue steps down by d to a fixed point below n
    fixed = n - d + (x - n) % d
    if res is not FAIL:
        tail = res.tail or ()
        ok = (
            res.certificate is None
            and res.cycle == (fixed,)
            and len(tail) == (x - fixed) // d
            and all(t == x - i * d for i, t in enumerate(tail))
        )
        rep.expect(ok, f"orbit of {x} under {obj}")
    if k is not FAIL:
        want = (x - fixed) // d if fixed == 0 else None
        rep.expect(k == want, f"hitting_time({x}, 0) under {obj} = {k}")


def scaling_run(Q, state: dict, rep: Rep) -> float:
    O, P = Q.orbits, Q.psolve
    rows = []
    t0 = rep.now()
    for p in state["points"]:
        rep.request(p["name"])
        sm, failed_before, n_before = p["sm"], rep.failed, len(rep.latencies)
        if "x" in p:
            res = rep.op(O.orbit, sm, p["x"])
            k = rep.op(O.hitting_time, sm, p["x"], 0)
            with rep.verifying():
                _check_start(rep, p, res, k)
        else:
            sol = rep.op(P.solve_P2, sm)
            total = rep.op(P.is_total_order, sm, P.SCOPE_ALL)
            with rep.verifying():
                rep.expect(sol is not None, f"{p['name']}: solve_P2 is absent")
                if sol is not None and sol is not FAIL:
                    m = p["obj"]["modulus"]
                    for s in ((0,), (1, 2), (1000 * m + m - 1,)):
                        rep.expect(P.check_P("P2", sm, sol.G(s), sol.u(s), s),
                                   f"{p['name']}: P2 selectors fail on {s}")
                rep.expect(total is False, f"{p['name']}: total order over all points")
                if total is False:
                    a, b = P.total_order_witness(sm, P.SCOPE_ALL)
                    rep.expect(O.hitting_time(sm, a, b) is None and O.hitting_time(sm, b, a) is None,
                               f"{p['name']}: witness ({a}, {b}) is comparable")
        # the latency of an axis point is that of its two operations together
        rep.latencies[n_before:] = [sum(rep.latencies[n_before:])]
        rep.spans[n_before:] = [(rep.spans[n_before][0], rep.spans[-1][1])]
        rows.append({
            "name": p["name"],
            "x": p.get("x"),
            "seconds": rep.latencies[-1],
            "span": rep.spans[-1],
            "failed": rep.failed > failed_before,
        })
    wall = rep.now() - t0 - rep.verify_s
    rep.info["axis"] = rows
    rep.info["digest"] = _sha([(r["name"], r["failed"]) for r in rows])
    return wall


WORKLOADS = {
    "suite": (suite_setup, suite_run),
    "queries": (queries_setup, queries_run),
    "scaling": (scaling_setup, scaling_run),
}
