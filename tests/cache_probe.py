"""Memory probe for the library caches.

Runs the total-order decider in both scopes, both solvers and the interval
classifier over the first N seeded maps of ``GenParams(6, 6, 8, 40)``, then
prints the process's peak resident set (``VmHWM``) in kB:

    PYTHONPATH=src python tests/cache_probe.py N

With bounded caches the peak levels off as N grows; with unbounded ones it
grows with N.  ``test_library_caches_stay_bounded`` and a CI step run it.
"""

from __future__ import annotations

import sys

from quasinv import classify, psolve
from quasinv.oracle import GenParams, random_described_map

PARAMS = GenParams(6, 6, 8, 40)


def peak_kb() -> int:
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def main(n: int) -> int:
    for i in range(n):
        sm = random_described_map(i, PARAMS)
        for scope in (psolve.SCOPE_ALL, psolve.SCOPE_INFINITE):
            psolve.total_order_witness(sm, scope)
        psolve.solve_P1(sm)
        psolve.solve_P2(sm)
        classify.classify_intervals_1qi(sm)
    return peak_kb()


if __name__ == "__main__":
    print(main(int(sys.argv[1])))
