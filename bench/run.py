"""Run one workload of the quasinv benchmark and print its metrics.

    python3 bench/run.py --workload {suite,queries,scaling} --seed N \
        --seconds S --trace {0,1}

Each repetition runs in a fresh child process (``worker.py``), one at a
time: one client, one thread.  A repetition starts only while it is expected
to end within ``--seconds``, except that an untraced run has at least two.
Untraced repetitions report their times scaled to a reference host speed
(``hostspeed.py``), and the run reports medians over them.  Set-up is timed
in extra children that only set up, spread over the run.  With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the traced ones, the per-check and per-axis-point times
from the untraced ones, and the tracing overhead from both.

The metric names and units are those of ``BENCHMARK.json``.  Human-readable
details come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
TRACES = BENCH / "traces"
TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 3  # set-up-only children before the first repetition; one more follows each
MIN_REPS = 2  # for untraced runs; a traced run needs one round


class BenchError(Exception):
    pass


def child(spec: dict, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the next repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            capture_output=True, text=True, timeout=left, cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},  # same hashing in every repetition
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {spec} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition {spec} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], weights: list[int] | None, q: float) -> tuple[float, int]:
    """Nearest-rank percentile of the samples (``weights[i]`` samples of
    ``values[i]``) and the number of samples beyond it."""
    pairs = sorted(zip(values, weights or [1] * len(values)))
    total = sum(w for _, w in pairs)
    rank, seen = max(1, math.ceil(q * total)), 0
    for value, w in pairs:
        seen += w
        if seen >= rank:
            return value, total - seen
    raise ValueError("no samples")


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d.get(key, 0) for d in dicts)


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    pct = {}
    for q in (50, 99):
        per_rep = [percentile(r["latencies"], r["weights"], q / 100) for r in reps]
        pct[q] = statistics.median(v for v, _ in per_rep)
        beyond = [b for _, b in per_rep]
        samples = [sum(r["weights"] or [1] * len(r["latencies"])) for r in reps]
        print(f"p{q}: median over reps of each rep's nearest-rank p{q}; samples per rep "
              f"{samples}, beyond p{q} {beyond}")
        if min(beyond) < 10:
            print(f"  fewer than 10 samples lie beyond p{q} in a repetition"
                  + (": p99 is its slowest operation" if q == 99 and max(beyond) == 0 else ""))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"failed_share={failed / attempted} ({failed}/{attempted})")
    return {
        "wall_s": median_of(reps, "wall_s"),
        "ops_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in reps),
        "op_p50_ms": pct[50] * 1e3,
        "op_p99_ms": pct[99] * 1e3,
        # a mean: on queries each repetition draws its own corpus, and the
        # median over repetitions jumps between two levels of peak memory
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
        "ok_share": 1 - failed / attempted,
    }


def per_layer(reps: list[dict], traced: list[dict], check_ids, axis_names) -> dict:
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(t["layers"][key] for t in traced)
    for key in traced[0]["caches"]:
        out[key] = statistics.median(t["caches"][key] for t in traced)
    for check_id in check_ids:
        out[f"oracle.{check_id}_s"] = statistics.median(
            r["info"].get("check_s", {}).get(check_id, 0.0) for r in reps)
        out[f"oracle.{check_id}_instances"] = reps[0]["info"].get(
            "check_instances", {}).get(check_id, 0)
    for name in axis_names:
        out[name] = statistics.median(
            next((row["seconds"] for row in r["info"].get("axis", []) if row["name"] == name), 0.0)
            for r in reps)
    # both sides raw: traced repetitions do not sample the host
    untraced_wall = median_of(reps, "raw_wall_s")
    out["trace.overhead_s"] = median_of(traced, "raw_wall_s") - untraced_wall
    print(f"tracing overhead: traced wall {median_of(traced, 'raw_wall_s'):.3f} s, "
          f"untraced wall {untraced_wall:.3f} s (both raw)")
    return out


def describe(workload: str, reps: list[dict], traced: list[dict]) -> None:
    """Print the untraced repetitions' tables and every repetition's digest."""
    print(f"rep wall_s (scaled): {[round(r['wall_s'], 4) for r in reps]}")
    print(f"rep wall_s (raw):    {[round(r['raw_wall_s'], 4) for r in reps]}")
    print(f"rep host speed:      {[round(r['speed'], 4) for r in reps]}")
    print(f"verdict digests: {[(r['info']['inputs'], r['info']['digest']) for r in reps + traced]}")
    print(f"cache counters (first rep): {json.dumps(reps[0]['caches'], sort_keys=True)}")
    if workload == "suite":
        print(f"suite seed {reps[0]['info']['suite_seed']}; per check (median scaled s, instances):")
        total = 0.0
        for check_id, n in sorted(reps[0]["info"]["check_instances"].items()):
            s = statistics.median(r["info"]["check_s"][check_id] for r in reps)
            total += s
            print(f"  {check_id:45s} {s:9.4f} {n:8d}")
        print(f"  sum of the per-check medians {total:.3f} s, median wall {median_of(reps, 'wall_s'):.3f} s")
    if workload == "scaling":
        print("scaling axes (median scaled s over reps, failed):")
        for i, row in enumerate(reps[0]["info"]["axis"]):
            s = statistics.median(r["info"]["axis"][i]["seconds"] for r in reps)
            x = f" x={row['x']}" if row["x"] is not None else ""
            print(f"  {row['name']:28s}{x:28s} {s:10.5f} {'FAILED' if row['failed'] else 'ok'}")
    for line in reps[0]["errors"][:6]:
        print(f"  failed: {line}")
    for r in reps + traced:
        for line in r["wrong"][:6]:
            print(f"  WRONG: {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        base = {"workload": args.workload, "seed": args.seed, "index": 0,
                "workdir": str(work), "trace": 0, "setup_only": True}
        child(base, deadline)  # warm-up: compiles bytecode, fills the file cache
        setups = [child(base, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

        reps, traced = [], []
        start = time.monotonic()
        while True:
            spec = {**base, "index": len(reps), "setup_only": False}
            reps.append(child(spec, deadline))
            if args.trace:
                TRACES.mkdir(exist_ok=True)
                path = TRACES / f"{args.workload}-seed{args.seed}-rep{len(traced)}.jsonl"
                traced.append(child({**spec, "trace": 1, "trace_path": str(path)}, deadline))
            setups.append(child(base, deadline)["setup_s"])
            # start another round only if it should end within the run, or
            # to reach MIN_REPS while that stays inside the time limit
            elapsed = time.monotonic() - start
            per_round = elapsed / len(reps)
            if time.monotonic() + 1.5 * per_round > deadline:
                break
            if len(reps) >= (1 if args.trace else MIN_REPS) and elapsed + per_round > args.seconds:
                break
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = reps + traced
    print(f"workload={args.workload} seed={args.seed} reps={len(reps)} traced_reps={len(traced)}")
    describe(args.workload, reps, traced)
    setups += [r["setup_s"] for r in reps]
    if args.trace:
        check_ids = sorted(json.loads(workloads.SUITE_COUNTS.read_text())["0"])
        axis = [p["name"] for p in workloads.axis_points(0)]
        values = per_layer(reps, traced, check_ids, axis)
    else:
        values = end_to_end(reps, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    digests = {}  # inputs -> verdict digests; equal inputs must give equal verdicts
    for r in every:
        digests.setdefault(r["info"]["inputs"], set()).add(r["info"]["digest"])
    correct = all(not r["wrong"] for r in every) and all(len(d) == 1 for d in digests.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
