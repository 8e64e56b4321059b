"""The machine's speed, read from a fixed reference computation.

On a shared virtual machine the same Python code runs at two speeds, one
about 1.7x the other, switching within tenths of a second as other
tenants load the host; how much of the time is spent at which speed
drifts over seconds to minutes.  Process CPU time moves with wall time,
so neither clock removes it.  ``Speedometer`` times a fixed pure-Python
loop, owned here and calling nothing in ``reoptlab``, at most every
``EVERY_S`` seconds.  ``scale(i)`` converts a time measured next to sample
``i`` into the time the same work takes at the nominal speed, where the
reference takes ``NOMINAL_S``.  It divides by the mean of the samples
around ``i``, not their median: a sample shows one of the two speeds,
and their mean tracks the share of time spent at each.
A change to the library cannot change the reference, so it moves a
scaled time by the same share as the raw one.
"""

from __future__ import annotations

import statistics
import time

# About the reference's time on a 2-vCPU Xeon virtual machine at 2.1 GHz
# (Python 3.11); scaled times there read close to raw ones.
NOMINAL_S = 0.00225
EVERY_S = 0.1

_CLAUSES = tuple(((i * 7) % 23 + 1, -((i * 11) % 23 + 1), (i * 13) % 23 + 1) for i in range(90))


def reference() -> int:
    """Fixed work in the style of the search cores: tuples, sets, dicts and generators."""
    total = 0
    for rnd in range(20):
        assign = {v: (v * rnd) % 3 == 0 for v in range(1, 24)}
        satisfied = sum(1 for cl in _CLAUSES if any((lit > 0) == assign[abs(lit)] for lit in cl))
        seen = {abs(lit) for cl in _CLAUSES for lit in cl}
        total += satisfied + len(seen)
    return total


class Speedometer:
    # Samples on each side of a time that its scale averages.
    WINDOW = 5

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the reference once; the new sample's index."""
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end
        return len(self.samples) - 1

    def tick(self) -> int:
        """Sample if ``EVERY_S`` passed since the last sample; the latest sample's index."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Nominal over measured reference time, around sample ``index``."""
        window = self.samples[max(0, index - self.WINDOW): index + self.WINDOW + 1]
        return NOMINAL_S / statistics.fmean(window)
