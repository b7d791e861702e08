"""The host's speed, sampled while a repetition runs.

The benchmark runs on a shared host whose speed changes by up to a factor of
two within seconds, as other tenants come and go.  The same repetition can
then take 12 s at one time and 20 s at another, so raw times of runs made
minutes apart spread more than any useful bound.

``HostSpeed`` measures that speed from inside the repetition: a timer signal
interrupts it every ``PERIOD_S`` seconds and times a fixed reference kernel,
written here and independent of the library, in the same style as the
oracle's brute force (tuples, sets, subsets).  The time spent in the signal
handler is kept out of every measured interval by ``now()``.  A
repetition's speed ``factor()`` is its mean speed relative to a host that
runs the kernel in ``REFERENCE_S``; multiplying a time measured during the
repetition by it gives the time that host would take.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

PERIOD_S = 0.05
KERNEL_ROUNDS = 2
REFERENCE_S = 0.001  # one kernel round on the reference host, about this 2-vCPU guest's

clock = time.perf_counter


def kernel() -> int:
    """Brute-force quasi-invariance on every map of {0, 1, 2}."""
    hits = 0
    for table in itertools.product(range(3), repeat=3):
        for mask in range(1, 8):
            lam = tuple(x for x in range(3) if mask >> x & 1)
            inside = set(lam)
            for k in range(3):
                hits += any(
                    all(table[x] in inside for x in lam if x not in p)
                    for size in range(k + 1)
                    for p in itertools.combinations(lam, size)
                )
    return hits


class HostSpeed:
    """Reference-kernel samples taken on a timer while a repetition runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent sampling

    def sample(self) -> None:
        """Time the kernel: the fastest of a few back-to-back rounds, so an
        interrupt inside one round does not count."""
        t0 = clock()
        fastest = float("inf")
        for _ in range(KERNEL_ROUNDS):
            t = clock()
            kernel()
            fastest = min(fastest, clock() - t)
        self.samples.append(fastest)
        self.stolen += clock() - t0

    def now(self) -> float:
        """A clock that stops while the host is sampled."""
        while True:
            stolen = self.stolen
            t = clock()
            if stolen == self.stolen:  # no sample ran in between
                return t - stolen

    def factor(self, since: int = 0) -> float:
        """Mean speed, relative to the reference host, over the samples
        taken from index ``since`` on."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples[since:])

    def local_factor(self, start: int, end: int) -> float:
        """Mean speed around an interval during which the sample count went
        from ``start`` to ``end``: over the last sample before it, those
        taken during it and the first one after it."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples[max(start - 1, 0):end + 1])

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
