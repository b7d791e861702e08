"""One repetition of one workload, in a fresh process.

Run by ``run.py`` as ``python3 bench/worker.py '<json spec>'``.  A fresh
process starts with cold library caches, and its ``ru_maxrss`` is the peak
memory of this repetition alone.  Prints one JSON object.  An untraced
repetition samples the host's speed (``hostspeed.py``) and reports its
times scaled to the reference host, with the raw ones beside them.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_library():
    """Import quasinv from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quasinv
    import quasinv.cli  # not imported by the package itself

    if Path(quasinv.__file__).resolve().parent != src / "quasinv":
        raise ImportError(f"quasinv was imported from {quasinv.__file__}, not from {src}")
    return quasinv


def main(spec: dict) -> dict:
    setup, run = workloads.WORKLOADS[spec["workload"]]
    speed = hostspeed.HostSpeed()
    # the host is sampled on a timer in untraced children only; a traced
    # repetition reports raw times
    with contextlib.nullcontext() if spec["trace"] else speed:
        speed.sample()
        t0 = speed.now()
        Q = import_library()
        # the repetition takes the cache counters from the functions as they
        # are before the tracer wraps them
        tracer = tracing.Tracer() if spec["trace"] else None
        rep = workloads.Rep(Q, tracer, None if tracer else speed)
        if tracer is not None:
            tracer.install(Q)
        state = setup(Q, spec["seed"], spec["index"])
        setup_s = speed.now() - t0
        speed.sample()
        out = {"raw_setup_s": setup_s, "setup_s": setup_s * speed.factor()}
        if spec["setup_only"]:
            return out
        since = len(speed.samples) - 1
        state["workdir"] = spec["workdir"]
        wall = run(Q, state, rep)
        speed.sample()
    if spec["trace"]:
        factor, local = 1.0, lambda start, end: 1.0
    else:
        # the wall time is scaled by the mean speed over the run; a shorter
        # interval by the speed around it
        factor, local = speed.factor(since), speed.local_factor
    info = {**rep.info, "inputs": state["inputs"]}
    spans = info.pop("check_spans", {})
    if "check_s" in info:
        info["check_s"] = {k: v * local(*spans[k]) for k, v in info["check_s"].items()}
    for row in info.get("axis", []):
        row["seconds"] *= local(*row.pop("span"))
    out.update(
        raw_wall_s=wall,
        speed=factor,
        wall_s=wall * factor,
        attempted=rep.attempted,
        failed=rep.failed,
        wrong=rep.wrong,
        errors=rep.errors,
        latencies=[t * local(*span) for t, span in zip(rep.latencies, rep.spans)],
        weights=rep.weights,
        caches=rep.cache_counters(),
        info=info,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if rep.tracer is not None:
        rep.tracer.uninstall()
        out["layers"] = rep.tracer.metrics()
        rep.tracer.write_log(spec["trace_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
