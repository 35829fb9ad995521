"""Host-speed gauge: fixed jobs of the benchmark's own code, timed between
the operations of a run.

A shared machine's speed drifts by 15-25% over seconds to minutes, whatever
runs on it: one fixed `verify-gadgets --k 4 --d 4` call had 20-s medians
spread by 14-23% between windows.  Dividing each operation's latency by the
gauge's slowdown measured just before and just after it cut that spread to
3-7% for exact search, gadget checks and k_core alike.  The gauge mixes a
large-graph peel, small-graph peels and plain arithmetic, because package
code with different working sets slows down by different factors; their
geometric mean tracked all three kinds of operation, where each alone
tracked only some.

The gauge never calls the package, so a change to the package cannot move
it.  Timings divided by it are seconds at the gauge's nominal speed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from time import perf_counter

from oracles import core_edge_ids, random_edges

# Median seconds of each job on the reference machine at its faster speed.
NOMINAL_S = {"big": 0.0109, "small": 0.0033, "arith": 0.0135}
EVERY_S = 0.5


def _arith() -> int:
    x = 0
    for i in range(150_000):
        x += i * i % 7
    return x


class Gauge:
    def __init__(self):
        big = random_edges(random.Random(0), 6000, 9000, 2)
        small = [random_edges(random.Random(i), 120, 200, 2) for i in range(1, 21)]
        self._jobs = (
            ("big", lambda: core_edge_ids(big, 2)),
            ("small", lambda: [core_edge_ids(e, 2) for e in small]),
            ("arith", _arith),
        )
        self.times: list[float] = []  # when each sample ended
        self.slowdowns: list[float] = []

    def sample(self) -> None:
        logs = 0.0
        for name, job in self._jobs:
            t0 = perf_counter()
            job()
            logs += math.log((perf_counter() - t0) / NOMINAL_S[name])
        self.times.append(perf_counter())
        self.slowdowns.append(math.exp(logs / len(self._jobs)))

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Geometric mean of the last sample before ``start`` and the first
        after ``end``."""
        last = len(self.times) - 1
        before = self.slowdowns[min(max(bisect_right(self.times, start) - 1, 0), last)]
        after = self.slowdowns[min(bisect_left(self.times, end), last)]
        return math.sqrt(before * after)
