"""The machine's own speed, measured beside the program.

The benchmark runs on a few cores of a shared host whose speed drifts
by a third or more over seconds to minutes: other tenants' load changes
what it costs to reach memory, in the core's own cache as well as the
shared one. A fixed probe, timed between the measured windows of every
run, tracks that drift. The end-to-end metrics are the measured values
rescaled to the probe's nominal speed, so that two runs of the same
program read alike whatever the host was doing; the values as measured
are printed beside them.

The probe is two loops of interpreted Python that reach objects spread
over memory, as the program does: a walk along a random cycle of 30,000
ints (about 1 MiB, held in the core's own cache when the host is quiet)
and random lookups in a dict of 200,000 string keys (tens of MiB, in
the shared cache or beyond). Contention shows in each to a different
degree; the program's CPU time moves with both. The probe holds only
strings, ints and two lists, so the garbage collector has next to
nothing of it to scan, and nothing in it depends on the program under
test.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict

from loadgen import median

#: Ints on the walked cycle, and steps of one sample.
CYCLE = 30_000
STEPS = 20_000
#: Entries of the dict, and lookups of one sample.
TABLE = 200_000
LOOKUPS = 8_000
#: CPU seconds one sample of each loop takes at the nominal speed. They
#: are immaterial to comparisons: they only put the rescaled metrics
#: near the values as measured.
NOMINAL_WALK_S = 4e-3
NOMINAL_LOOKUP_S = 6e-3


class SpeedProbe:
    """CPU times of the two loops, kept by where in the run they were
    taken. ``slowdown(where)`` is the geometric mean of each loop's
    median there over its nominal time: above 1 when the host ran slower
    than nominal."""

    def __init__(self, clock=time.process_time):
        rng = random.Random("perfbench-speed-probe")
        order = list(range(CYCLE))
        rng.shuffle(order)
        # cycle[i] is the step after i. The ints were allocated in
        # order of value, so consecutive steps land far apart in memory.
        self.cycle = [0] * CYCLE
        for a, b in zip(order, order[1:] + order[:1]):
            self.cycle[a] = b
        self.table = {f"probe-{i}": i for i in range(TABLE)}
        # Fresh string objects, equal to but not the table's keys, so
        # that each lookup also compares the two strings.
        self.keys = [f"probe-{rng.randrange(TABLE)}" for _ in range(LOOKUPS)]
        self.clock = clock
        self.walks: dict[str, list[float]] = defaultdict(list)
        self.lookups: dict[str, list[float]] = defaultdict(list)

    def sample(self, where: str, n: int = 1) -> None:
        clock, cycle, table = self.clock, self.cycle, self.table
        for _ in range(n):
            t0 = clock()
            i = 0
            for _ in range(STEPS):
                i = cycle[i]
            t1 = clock()
            total = 0
            for key in self.keys:
                total += table[key]
            t2 = clock()
            self.walks[where].append(t1 - t0)
            self.lookups[where].append(t2 - t1)

    def slowdown(self, where: str) -> float:
        return math.sqrt(median(self.walks[where]) / NOMINAL_WALK_S
                         * median(self.lookups[where]) / NOMINAL_LOOKUP_S)
