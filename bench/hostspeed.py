"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the same pure-Python
loop takes anywhere from 0.8 ms to 1.3 ms from one second to the next,
and the share of slow seconds drifts over minutes, so raw run times of
identical work spread by 15-40% across runs.  :class:`HostSpeed`
samples a fixed probe loop on a background thread throughout a run and
reports how slow the host was over any interval, relative to a host on
which the probe takes :data:`REFERENCE_PROBE_S`.  Dividing a measured
duration by that factor gives the duration at reference speed: a
program change still moves it in full, a host slow-down does not.

The probe measures CPU time of its own thread, so waiting for the
interpreter lock or for a CPU does not count as slowness.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

#: iterations of the probe loop (about a millisecond of CPU)
PROBE_LOOPS = 15_000

#: probe CPU time that defines the reference host speed
REFERENCE_PROBE_S = 0.001

#: pause between probes (the sampler costs about 2% of one CPU)
INTERVAL_S = 0.05


def probe() -> float:
    """CPU seconds the calling thread spends in a fixed loop."""
    start = time.thread_time()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.thread_time() - start


class HostSpeed:
    """Background probe sampler; use as a context manager."""

    def __init__(self) -> None:
        #: (midpoint perf_counter, probe seconds), in time order
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._times = [time_ for time_, __ in self.samples]

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            seconds = probe()
            self.samples.append(((start + time.perf_counter()) / 2, seconds))
            self._stop.wait(INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over
        ``[start, end]`` (``perf_counter`` times): the mean probe time of
        the samples inside the interval and the one on either side.
        Available once sampling has stopped."""
        low = max(0, bisect.bisect_left(self._times, start) - 1)
        high = min(len(self._times), bisect.bisect_right(self._times, end) + 1)
        window = [seconds for __, seconds in self.samples[low:high]]
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(window) / REFERENCE_PROBE_S

    def scaled(self, start: float, end: float) -> float:
        """The duration of ``[start, end]`` at reference host speed."""
        return (end - start) / self.factor(start, end)
