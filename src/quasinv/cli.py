"""Command-line front end: analyze, classify, solve, verify, export.

Exit codes: 0 when the query succeeds or the property holds, 1 when it fails
or the construction is absent, 2 on malformed input or a typed library error
(such as an orbit too long to list), 3 on an internal error: any other
exception, such as a ``MemoryError``, reported as one ``internal error:``
line, so that a crash never reads as a failed property.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from bisect import bisect_left
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InfiniteOrbitError, OrbitTooLong, QuasinvError
from .selfmap import NAMED_MAPS, FiniteTable, SelfMap, named_map, parse_map

if TYPE_CHECKING:
    from .orbits import OrbitProfile

DEFAULT_WINDOW = 200
# Long listings (an orbit's points, a window's points or edges) are written
# this many points at a time, so their memory stays flat in the listing's
# length.
BLOCK_POINTS = 1 << 16


def _load_map(source: str) -> SelfMap:
    if source in NAMED_MAPS:
        return named_map(source)
    return parse_map(Path(source).read_bytes())


def _parse_points(text: str) -> tuple[int, ...]:
    try:
        pts = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip() != ""}))
    except ValueError:
        raise QuasinvError(f"expected a comma-separated list of naturals, got {text!r}")
    if not pts or any(p < 0 for p in pts):
        raise QuasinvError(f"expected a nonempty list of naturals, got {text!r}")
    return pts


def _window(args) -> int:
    w = getattr(args, "window", None)
    if w is None:
        env = os.environ.get("QUASINV_WINDOW")
        w = int(env) if env else DEFAULT_WINDOW
    if w < 0:
        raise QuasinvError(f"the window must be a natural number, got {w}")
    return w


def _fmt_set(points) -> str:
    return "{" + ",".join(str(p) for p in points) + "}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write_list(out, blocks) -> None:
    """Write the points of ``blocks``, an iterable of lists, as one Python list."""
    out.write("[")
    sep = ""
    for block in blocks:
        if block:
            out.write(sep + str(block)[1:-1])  # a list's repr, made in C
            sep = ", "
    out.write("]")


def _write_omitted(out, profile: OrbitProfile, w: int) -> None:
    """Write the points of [0, w] off the orbit, as a Python list, block by
    block: each block drops the slices of the orbit's ascending runs and
    walked points that fall in it."""
    parts = [sorted(p for p in profile.seq if p <= w), *profile.runs_upto(w)]
    # a cofinite orbit holds every point from its threshold on
    top = min(w, profile.asymptotic_threshold()) if profile.is_cofinite() else w

    def missing(b0: int) -> list[int]:
        b1 = min(b0 + BLOCK_POINTS, top + 1)
        left = set(range(b0, b1))
        for part in parts:
            left.difference_update(part[bisect_left(part, b0) : bisect_left(part, b1)])
        return sorted(left)

    out.write(f"omitted within [0,{w}]: ")
    _write_list(out, map(missing, range(0, top + 1, BLOCK_POINTS)))
    out.write("\n")


def _cmd_orbit(args) -> int:
    from . import orbits
    sm = _load_map(args.map)
    w = _window(args)
    res = orbits.orbit(sm, args.point)
    out = sys.stdout
    if res.is_finite:
        for label, pts in (("finite tail=", res.tail), (" cycle=", res.cycle)):
            out.write(label)
            blocks = range(0, len(pts), BLOCK_POINTS)
            _write_list(out, (list(pts[b : b + BLOCK_POINTS]) for b in blocks))
        out.write("\n")
    else:
        cert = res.certificate
        print(
            f"infinite entry={cert.entry_height} "
            f"residue_cycle={list(cert.residue_cycle)} drift={cert.drift}"
        )
        _write_omitted(out, orbits.orbit_profile(sm, args.point), w)
    return 0


def _cmd_qi(args) -> int:
    from . import quasi
    sm = _load_map(args.map)
    if args.interval is not None:
        lo, hi = args.interval
        lam = range(lo, hi + 1)
    else:
        lam = _parse_points(args.set)
    fn = quasi.internal_quasi_invariant if args.internal else quasi.external_quasi_invariant
    rep = fn(sm, lam, args.k)
    if rep.holds:
        label = "P" if args.internal else "excess"
        print(f"holds {label}={_fmt_set(rep.witness)}")
        return 0
    print("fails")
    return 1


def _cmd_classify(args) -> int:
    from . import classify
    sm = _load_map(args.map)
    top = sm.size if isinstance(sm, FiniteTable) else 4
    if args.subsets:
        res = classify.classify_subsets_1qi(sm)
        if res is None:
            print("absent")
            return 1
        cls, sel = res
        print(f"case {cls.case} a={cls.a} b={cls.b} c={cls.c}")
        for sample in ((cls.a,), (cls.a, cls.b), tuple(range(min(top, 4)))):
            pts = tuple(sorted(set(sample)))
            print(f"w({_fmt_set(pts)}) = {sel.choose(pts)}")
        return 0
    if args.strict:
        res = classify.classify_strict_intervals_1qi(sm)
        if res is None:
            print("absent")
            return 1
        if res.kind == "succ":
            print("succ")
        else:
            print(f"pivot n_star={res.n_star} u={res.u}")
        return 0
    res = classify.classify_intervals_1qi(sm)
    if res is None:
        print("absent")
        return 1
    cls, sel = res
    ns = "-" if cls.n_star is None else str(cls.n_star)
    print(f"case {cls.case} n_star={ns}")
    for lo, hi in ((0, 3), (2, 7), (5, 5)):
        print(f"w([{lo},{hi}]) = {sel.choose(lo, hi)}")
    return 0


def _cmd_superset(args) -> int:
    from . import supersets
    sm = _load_map(args.map)
    istar = _parse_points(args.istar)
    extra = _parse_points(args.h) if args.h else ()
    try:
        g = supersets.build_G_orbit_union(sm, istar, extra)
    except InfiniteOrbitError as exc:
        print(f"infinite orbit at {exc.point}")
        return 1
    print(f"G={_fmt_set(g)}")
    return 0


def _cmd_solve(args) -> int:
    from . import psolve
    sm = _load_map(args.map)
    sol = psolve.solve_P1(sm) if args.p1 else psolve.solve_P2(sm)
    if sol is None:
        print("absent")
        return 1
    print(f"present ({sol.description})")
    top = sm.size - 1 if isinstance(sm, FiniteTable) else 5
    samples = [(0,), (0, min(1, top)), (min(2, top), min(5, top))]
    for sample in dict.fromkeys(tuple(sorted(set(s))) for s in samples):
        try:
            g = _fmt_set(sol.G(sample))
        except OrbitTooLong as exc:  # the verdict stands; only this sample cannot be listed
            g = f"<orbit of {exc.start} too long to list>"
        print(f"G({_fmt_set(sample)}) = {g}  u = {sol.u(sample)}")
    return 0


def _cmd_verify(args) -> int:
    from . import oracle
    cfg = oracle.SuiteConfig(
        theorems=tuple(args.theorem) if args.theorem else None,
        n_max=args.n,
        window=_window(args),
        samples=args.samples,
        seed=args.seed,
    )
    report = oracle.run_theorem_suite(cfg)
    if args.json:
        print(report.to_json(timings=True))
    else:
        for check in sorted(report.checks, key=lambda c: c.check):
            status = "ok  " if check.passed else "FAIL"
            print(
                f"{status} {check.check} instances={check.instances} "
                f"failures={len(check.failures)} seconds={check.seconds:.3f}"
            )
            for failure in check.failures[:3]:
                print(f"     counterexample: {json.dumps(failure, sort_keys=True)}")
        print(f"{'passed' if report.passed else 'FAILED'}: {report.failure_count} failures")
    return 0 if report.passed else 1


def _cmd_export_dot(args) -> int:
    sm = _load_map(args.map)
    w = _window(args)
    out = sys.stdout
    out.write("digraph selfmap {\n")
    if isinstance(sm, FiniteTable):
        out.writelines(f"  {x} -> {y};\n" for x, y in enumerate(sm.table))
    else:
        out.write(f"  // nodes truncated to [0,{w}]; tail rule labels give the residue shift\n")
        out.writelines(f"  {x} -> {y};\n" for x, y in enumerate(sm.prefix[: w + 1]) if y <= w)
        rules = [(c, f'[label="{c:+d}"]') for c in sm.shifts]  # by residue
        for b0 in range(sm.prefix_len, w + 1, BLOCK_POINTS):
            block = range(b0, min(b0 + BLOCK_POINTS, w + 1))
            r = b0 % sm.modulus  # the rule of each x in the block, from b0's residue on
            rule = itertools.cycle(rules[r:] + rules[:r])
            out.write("".join([
                f"  {x} -> {x + c} {label};\n"
                for x, (c, label) in zip(block, rule)
                if x + c <= w
            ]))
    out.write("}\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by
    later calls in the process; it holds nothing specific to one call."""
    parser = argparse.ArgumentParser(
        prog="quasinv",
        description="orbit analysis and quasi-invariance decisions for self-maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="tail/cycle decomposition or infinitude certificate")
    p.add_argument("map", help="map file or a named map (succ, id)")
    p.add_argument("point", type=int)
    p.add_argument("--window", type=int)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("qi", help="quasi-invariance of a set or interval")
    p.add_argument("map")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="comma-separated points")
    grp.add_argument("--interval", nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--k", type=int, default=1)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--internal", action="store_true")
    mode.add_argument("--external", action="store_true")
    p.set_defaults(fn=_cmd_qi)

    p = sub.add_parser("classify", help="one-removal classification of subsets or intervals")
    p.add_argument("map")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--subsets", action="store_true")
    grp.add_argument("--intervals", action="store_true")
    grp.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("superset", help="finite invariant superset as an orbit union")
    p.add_argument("map")
    p.add_argument("--istar", required=True, help="comma-separated points")
    p.add_argument("--h", help="extra comma-separated points")
    p.set_defaults(fn=_cmd_superset)

    p = sub.add_parser("solve", help="superset-preservation solvers")
    p.add_argument("map")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p1", action="store_true")
    grp.add_argument("--p2", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    p.add_argument("--n", type=int, default=5, help="finite-map enumeration bound")
    p.add_argument("--window", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--theorem", action="append", help="restrict to one check (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export-dot", help="functional graph in DOT format")
    p.add_argument("map")
    p.add_argument("--window", type=int)
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (QuasinvError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
