"""Memory probe for the finite-table caches.

Asks N distinct seeded random tables of SIZE entries for shared points
(``xi``), orbit listings (``orbit_profile(...).points()``), the total-order
witness and a full orbit, then prints the process's peak resident set
(``VmHWM``) in kB:

    PYTHONPATH=src python tests/table_probe.py N SIZE

A table's graph is kept in a cache bounded by bytes (``TABLE_GRAPH_BYTES``)
and no other cache keeps a table alive, so the peak levels off as N grows.
A CI step runs it at 50 tables of 10^5 entries under a 256 MB address-space
limit.
"""

from __future__ import annotations

import random
import sys

from quasinv import FiniteTable, xi
from quasinv.orbits import orbit_profile
from quasinv.psolve import SCOPE_ALL, has_full_orbit, total_order_witness

from cache_probe import peak_kb


def main(count: int, size: int) -> int:
    for seed in range(count):
        rng = random.Random(seed)
        sm = FiniteTable(tuple(rng.randrange(size) for _ in range(size)))
        starts = [rng.randrange(size) for _ in range(4)]
        for a in starts:
            orbit_profile(sm, a).points()
        xi(sm, tuple(starts))
        xi(sm, tuple(starts[:2]))
        total_order_witness(sm, SCOPE_ALL)
        has_full_orbit(sm)
    return peak_kb()


if __name__ == "__main__":
    print(main(int(sys.argv[1]), int(sys.argv[2])))
