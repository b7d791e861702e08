"""Memory probe for the library caches.

Runs the total-order decider in both scopes, both solvers and the interval
classifier over the first N seeded maps of ``GenParams(6, 6, 8, 40)``, and
the table queries (every start's profile, ``xi`` on pairs, ``has_full_orbit``
and the total order) over N seeded 64-entry tables, then prints the
process's peak resident set (``VmHWM``) in kB:

    PYTHONPATH=src python tests/cache_probe.py N

With bounded caches the peak levels off as N grows; with unbounded ones it
grows with N.  ``test_library_caches_stay_bounded`` and a CI step run it.
"""

from __future__ import annotations

import random
import sys

from quasinv import FiniteTable, classify, orbits, psolve
from quasinv.oracle import GenParams, random_described_map

PARAMS = GenParams(6, 6, 8, 40)
TABLE_SIZE = 64


def peak_kb() -> int:
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def random_table(seed: int) -> FiniteTable:
    rng = random.Random(seed)
    return FiniteTable(tuple(rng.randrange(TABLE_SIZE) for _ in range(TABLE_SIZE)))


def main(n: int) -> int:
    for i in range(n):
        sm = random_described_map(i, PARAMS)
        for scope in (psolve.SCOPE_ALL, psolve.SCOPE_INFINITE):
            psolve.total_order_witness(sm, scope)
        psolve.solve_P1(sm)
        psolve.solve_P2(sm)
        classify.classify_intervals_1qi(sm)
        table = random_table(i)
        for x in range(TABLE_SIZE):
            orbits.orbit_profile(table, x)
        for x in range(0, TABLE_SIZE, 8):
            orbits.xi(table, (x, x + 5))
        psolve.has_full_orbit(table)
        psolve.total_order_witness(table, psolve.SCOPE_ALL)
    return peak_kb()


if __name__ == "__main__":
    print(main(int(sys.argv[1])))
