"""Spans around calls into the library, recorded from outside it.

``Tracer.install`` replaces every public function of the package's modules
with a wrapper that records a span (name, start, end, parent, request id).
Names a module imported from another (``psolve.orbit_profile``) and the
package's re-exports point at the same object, so every binding of a
wrapped function is replaced, and each call is caught whichever binding it
goes through.  Spans are aggregated as they close; only the first
``SPAN_LOG_LIMIT`` are kept in memory and written out when the run ends,
because the ``suite`` workload makes millions of calls.
"""

from __future__ import annotations

import functools
import json
import time

SPAN_LOG_LIMIT = 50_000

# metric -> span names whose inclusive time it sums; a span nested inside
# another span of the same metric is not counted twice
TIME_GROUPS = {
    "orbits.profile_s": ("orbits.orbit_profile",),
    "orbits.hitting_s": ("orbits.hitting_time",),
    "orbits.xi_s": ("orbits.xi",),
    "orbits.intersect_s": ("orbits.orbits_intersect",),
    "psolve.total_order_s": ("psolve.total_order_witness",),
    "psolve.solve_s": ("psolve.solve_P1", "psolve.solve_P2"),
    "psolve.selector_s": ("psolve.PSolution.G", "psolve.PSolution.u"),
    "psolve.full_orbit_s": ("psolve.has_full_orbit",),
    "quasi.qi_s": ("quasi.internal_quasi_invariant", "quasi.external_quasi_invariant"),
    "supersets.orbit_union_s": ("supersets.build_G_orbit_union",),
    "supersets.closure_s": ("supersets.check_superset_closure",),
    "classify.intervals_s": (
        "classify.classify_intervals_1qi",
        "classify.classify_strict_intervals_1qi",
    ),
    "classify.subsets_s": ("classify.classify_subsets_1qi",),
    "classify.selector_s": (
        "classify.SubsetWitnessSelector.choose",
        "classify.IntervalWitnessSelector.choose",
    ),
    "selfmap.parse_s": ("selfmap.parse_map",),
}

# metric -> module whose spans' self time it sums
SELF_GROUPS = {
    "oracle.self_s": "oracle",
    "cli.main_s": "cli",
}

LAYERS = ("selfmap", "orbits", "quasi", "classify", "supersets", "psolve", "oracle", "cli")


class Tracer:
    """Span recorder; ``request`` tags the spans opened while it is set."""

    def __init__(self):
        self.request = None
        self.paused = False
        self.eval_calls = 0
        self.steps_walked = 0
        self.log: list[tuple] = []
        self.self_time: dict[str, float] = {}
        self.group_time = dict.fromkeys(TIME_GROUPS, 0.0)
        self._group_of = {n: g for g, names in TIME_GROUPS.items() for n in names}
        self._depth = dict.fromkeys(TIME_GROUPS, 0)
        self._stack: list[list] = []  # [name, start, child_time, log_index]
        self._undo: list = []  # callables restoring what install replaced

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        group = self._group_of.get(name)
        stack, log, depth = self._stack, self.log, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            idx = len(log) if len(log) < SPAN_LOG_LIMIT else -1
            if idx >= 0:
                log.append(None)
            frame = [name, clock(), 0.0, idx]
            stack.append(frame)
            if group is not None:
                depth[group] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if group is not None:
                    depth[group] -= 1
                    if not depth[group]:
                        self.group_time[group] += dur
                if idx >= 0:
                    log[idx] = (name, frame[1], end, parent, self.request)

        return traced

    def install(self, pkg) -> None:
        """Wrap every public function of the package's layers, and the selectors."""
        modules = [getattr(pkg, layer) for layer in LAYERS] + [pkg]
        profile = pkg.orbits.orbit_profile
        counted = self._count_steps(profile, pkg.orbits)
        for holder in modules:
            for hattr, hobj in list(vars(holder).items()):
                if hobj is profile:
                    self._set(holder, hattr, counted)
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for holder in modules:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._set(holder, hattr, wrapped)
        for cls in (pkg.classify.SubsetWitnessSelector, pkg.classify.IntervalWitnessSelector):
            self._set(cls, "choose", self.wrap(f"classify.{cls.__name__}.choose", cls.choose))
        for solver in ("solve_P1", "solve_P2"):
            self._set(pkg.psolve, solver, self._wrap_solver(getattr(pkg.psolve, solver)))
        for cls in (pkg.selfmap.DescribedNatMap, pkg.selfmap.FiniteTable):
            self._set(cls, "__call__", self._count_evals(cls.__call__))

    def _wrap_solver(self, solve):
        @functools.wraps(solve)
        def traced_solve(sm):
            sol = solve(sm)
            if sol is not None and not self.paused:
                sol.G = self.wrap("psolve.PSolution.G", sol.G)
                sol.u = self.wrap("psolve.PSolution.u", sol.u)
            return sol

        return traced_solve

    def _count_steps(self, profile, orbits_mod):
        """Count the points walked when an orbit profile is built (a cache
        miss), including walks cut off at the step guard."""
        info = getattr(profile, "cache_info", None)
        guard = getattr(orbits_mod, "_MAX_STEPS", 0)

        @functools.wraps(profile)
        def counted(sm, x):
            misses = info().misses if info is not None else None
            try:
                prof = profile(sm, x)
            except RuntimeError:
                self.steps_walked += guard
                raise
            if info is None or info().misses != misses:
                self.steps_walked += len(getattr(prof, "seq", ()))
            return prof

        return counted

    def _count_evals(self, call):
        def counted(sm, x):
            self.eval_calls += 1
            return call(sm, x)

        return counted

    def wrap_checks(self, checks: dict) -> None:
        """Give each registered oracle check a span named after its id."""
        for check_id, (description, fn) in list(checks.items()):
            self._undo.append(lambda k=check_id, v=checks[check_id]: checks.__setitem__(k, v))
            checks[check_id] = (description, self.wrap(f"oracle.{check_id}", fn))

    def _set(self, holder, attr, value) -> None:
        old = vars(holder)[attr]
        self._undo.append(lambda: setattr(holder, attr, old))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = dict(self.group_time)
        for metric, module in SELF_GROUPS.items():
            out[metric] = sum(
                t for name, t in self.self_time.items() if name.split(".")[0] == module
            )
        out["selfmap.eval_calls"] = self.eval_calls
        out["orbits.steps_walked"] = self.steps_walked
        return out

    def write_log(self, path) -> None:
        """Write the kept spans as JSON lines; ``parent`` is a span's ``id`` or -1."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.log):
                if span is None:  # opened but never closed
                    continue
                name, start, end, parent, request = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
