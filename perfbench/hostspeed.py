"""Host speed, sampled while the timed children run.

The benchmark shares a few cores of a busy host whose speed swings by
20-60 % within seconds and for minutes at a time, and not by the same
amount on each core.  A process that is slowed this way is still on the
CPU, so its CPU time grows with its wall time and neither clock is
steady.  Steadier is the ratio of the program's time to the time of a
fixed calibration kernel run on the same core at the same moment.

``Sampler`` runs ``kernel`` in one thread per CPU, each pinned to its
CPU, every ``PERIOD_S``, and records the kernel's thread CPU time with
its midpoint on ``time.perf_counter`` (CLOCK_MONOTONIC, shared with the
children, so their timestamps compare).  A thread's CPU time leaves out
the time it waits for its core, so it measures the core's speed and not
the load the workload puts on the scheduler.  ``scaled(start, end,
cpus)`` cuts an interval into pieces of about ``WINDOW_S`` and sums each
piece's length times ``REFERENCE_S`` over the median kernel time on
those CPUs in and around it: the interval's time on a host where one
kernel takes ``REFERENCE_S`` of CPU.  The children are pinned to the
CPUs whose samples scale their times.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

# Kernel CPU time of the reference host.  Fixed, so figures compare
# across commits; the shared 2-core host it was chosen on read 1.4-2.8 ms.
REFERENCE_S = 0.002
PERIOD_S = 0.04  # sleep between kernels: about 5 % of each core
WINDOW_S = 0.5  # shortest interval whose samples give one scale
MIN_SAMPLES = 5

_BASE = np.linspace(0.1, 1.0, 16).reshape(4, 4)


def kernel() -> float:
    """Fixed mix of small numpy calls and interpreter work, like the
    per-point jet and frame code it stands in for."""
    acc = 0.0
    for i in range(160):
        b = _BASE @ _BASE.T + i
        acc += float(np.linalg.det(b[:2, :2]))
        acc += sum(k * 0.5 for k in range(40))
        d = {"x": acc, "y": i}
        acc += d["y"]
    return acc


class Sampler:
    """Threads timing ``kernel``, one pinned to each of ``cpus``; use as
    a context manager."""

    def __init__(self, cpus):
        self.times = {c: [] for c in cpus}  # kernel midpoints, perf_counter
        self.cpu_s = {c: [] for c in cpus}  # kernel thread CPU time, s
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(c,),
                                          daemon=True, name=f"hostspeed-{c}")
                         for c in cpus]

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        kernel()  # warm numpy's lazy imports before the first sample
        times, cpu_s = self.times[cpu], self.cpu_s[cpu]
        while not self._stop.is_set():
            begun = time.perf_counter()
            used = time.thread_time()
            kernel()
            cpu_s.append(time.thread_time() - used)  # first: see ``_window``
            times.append(0.5 * (begun + time.perf_counter()))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _window(self, cpus, lo_t: float, hi_t: float) -> tuple[list, bool]:
        """Kernel times on ``cpus`` with midpoints in [lo_t, hi_t], and
        whether that takes in every sample."""
        found, everything = [], True
        for c in cpus:
            n = len(self.times[c])  # the thread may append while we read
            lo = bisect.bisect_left(self.times[c], lo_t, 0, n)
            hi = bisect.bisect_right(self.times[c], hi_t, 0, n)
            found += self.cpu_s[c][lo:hi]
            everything = everything and lo == 0 and hi == n
        return found, everything

    def scaled(self, start: float, end: float, cpus) -> float:
        """[start, end] in reference seconds, piece by piece."""
        pieces = max(1, round((end - start) / WINDOW_S))
        step = (end - start) / pieces
        return sum(step * self._scale(start + k * step, start + (k + 1) * step,
                                     cpus)
                   for k in range(pieces))

    def _scale(self, start: float, end: float, cpus) -> float:
        """``REFERENCE_S`` / the median kernel time on ``cpus`` over
        [start, end], widened about its middle to at least ``WINDOW_S``
        and then until it holds ``MIN_SAMPLES``."""
        mid = 0.5 * (start + end)
        half = max(0.5 * (end - start), 0.5 * WINDOW_S)
        while True:
            found, everything = self._window(cpus, mid - half, mid + half)
            if len(found) >= MIN_SAMPLES or everything:
                break
            half *= 2.0
        if not found:
            raise RuntimeError("no host-speed samples were taken")
        return REFERENCE_S / statistics.median(found)

    def median_kernel_s(self) -> float:
        return statistics.median(self._window(self.times, 0.0,
                                              float("inf"))[0])
