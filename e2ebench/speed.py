"""A host-speed probe that turns wall-clock intervals into calibrated seconds.

On a shared host the same Python code can run twice as slow for tens of
seconds at a time while a neighbour loads the core, which no number of
repetitions averages away.  :class:`SpeedProbe` runs a fixed, tiny
interpreter kernel every ``PROBE_INTERVAL_S`` on a background thread and
records its CPU time; an interval of host time is then reported as
*calibrated seconds*, the time it would have taken on a host where the
kernel costs ``REFERENCE_KERNEL_S``: each stretch of the interval is scaled
by ``REFERENCE_KERNEL_S / cost`` for the kernel cost measured around it.

The probe costs the measured process about 1% (two ~0.1 ms kernel runs
per 20 ms), the same on every commit.  The kernel lives here, not in the
program, so no change to the program can change it, and the thread takes
no lock that the program or its forked workers use.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List

PROBE_INTERVAL_S = 0.02
#: Kernel CPU time that defines one calibrated second per wall second.
REFERENCE_KERNEL_S = 1e-4
#: Kernel samples whose median gives the speed at one sample.
SMOOTHING = 5


class Kernel:
    """Dict, attribute and list traffic, like the simulator's.

    A run allocates no garbage-collected object, so it never triggers a
    collection, whose cost would depend on the measured program's heap.
    """

    __slots__ = ("acc", "table", "ring")

    def __init__(self) -> None:
        self.acc = 0
        self.table = dict.fromkeys(range(32), 0)
        self.ring = [0] * 16

    def run(self, n: int = 300) -> int:
        table, ring = self.table, self.ring
        self.acc = 0
        for i in range(n):
            k = i & 31
            table[k] = (table[k] + i) & 0xFFFF
            ring[i & 15] = k
            self.acc = (self.acc + ring[(i * 7) & 15]) & 0xFFFF
        return self.acc


class SpeedProbe:
    """Samples host speed on a background thread while in a ``with`` block."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._costs: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        kernel = Kernel()
        while not self._stop.wait(PROBE_INTERVAL_S):
            # The first run brings the kernel back into the caches the
            # measured program evicted; only the second is timed.
            kernel.run()
            start = time.thread_time()
            kernel.run()
            cost = time.thread_time() - start
            self._costs.append(cost)
            self._times.append(time.perf_counter())

    def settle(self) -> None:
        """Wait until the probe has sampled past the present moment."""
        now = time.perf_counter()
        while not (self._times and self._times[-1] > now) and self._thread.is_alive():
            time.sleep(PROBE_INTERVAL_S / 2)

    def seconds(self, start: float, end: float) -> float:
        """Calibrated seconds between two ``time.perf_counter()`` readings.

        Sample *i* stands for the stretch since sample *i - 1*; time after
        the last sample takes the last sample's speed.
        """
        n = len(self._times)
        times = self._times[:n]
        costs = self._costs[:n]
        if n == 0:
            raise RuntimeError("the speed probe has no samples yet")
        half = SMOOTHING // 2
        total = 0.0
        lo = start
        i = bisect.bisect_left(times, start)
        while lo < end:
            hi = end if i >= n else min(times[i], end)
            j = min(i, n - 1)
            cost = statistics.median(costs[max(0, j - half): j + half + 1])
            total += (hi - lo) * REFERENCE_KERNEL_S / cost
            lo = hi
            i += 1
        return total
