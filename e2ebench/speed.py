"""Host-speed probe: measured times rescaled to a nominal host speed.

On a shared host one core's speed drifts with the neighbours' load on
the shared caches and memory.  A fixed CPU loop measured on a 2-core
virtual machine took anywhere from 110 to 180 ms, in CPU time as much
as in wall time (so not preemption), in spells of seconds to minutes;
whole search_hard runs of the same code and seed read up to 45% apart.
No estimator inside one run removes a drift slower than the run.

So every timed segment is bracketed by probes: a fixed piece of pure
Python work (integer arithmetic plus a sort of a fixed list) that never
touches the program under test.  A time measured in the segment is
multiplied by ``NOMINAL_PROBE_S / mean(probe before, probe after)``,
and so reads as it would on a host where the probe takes the nominal
time.  A change of the program moves the segment and not the probe, so
it shows in full; a drift of the host moves both and largely cancels
(per 7 s window of search_hard, the spread of the times fell from 16%
to 7% of their median).  The median factor of a run is printed as
``host_speed``, so the raw wall-clock figures can be recovered.
"""

from __future__ import annotations

import random
import time
from statistics import median

#: About the probe's median time on a 2-vCPU, 2.1 GHz virtual machine.
NOMINAL_PROBE_S = 0.0025
#: The probe is the median of this many repeats: robust to one preempted
#: repeat, and unlike the fastest it follows a host that flips between
#: a fast and a slow state within the probe.
PROBE_REPEATS = 5

_DATA = random.Random(0).sample(range(1 << 24), 8_000)


def _probe_once() -> int:
    total = 0
    for value in _DATA:
        total = (total * 31 + value) & 0xFFFFFFFF
    return total ^ sorted(_DATA)[len(_DATA) // 2]


def probe_seconds() -> float:
    """Seconds the fixed probe takes now (median of the repeats)."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_once()
        times.append(time.perf_counter() - start)
    return median(times)


class HostSpeed:
    """Probes around timed segments; keeps every segment's factor.

    ``start()`` probes before a segment, ``lap()`` probes after it and
    returns the factor for the times measured since the previous probe
    (so back-to-back segments share the probe between them).
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.last = probe_seconds()

    def start(self) -> None:
        self.last = probe_seconds()

    def lap(self) -> float:
        now = probe_seconds()
        factor = 2.0 * NOMINAL_PROBE_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor

    def median_factor(self) -> float:
        """Median factor of the run: below 1 on a host slower than nominal."""
        return median(self.factors)
