"""Core-speed probe: corrects measured times for the host's varying speed.

On a shared host the speed of one virtual CPU changes by up to ~1.6x from
second to second, with whatever runs on its sibling hyperthread, and the
mix of fast and slow periods changes from minute to minute.  Raw wall
times of the same work then spread by ~30% between runs.  The probe
measures that speed while the workload runs: a background thread wakes
every PERIOD_S, runs a fixed unit of work and records the unit's CPU
time.  Both threads are pinned to one CPU, so the probe samples the
core the workload is running on, at evenly spaced moments.

``normalize(start, end)`` turns a measured interval into reference-core
seconds: the interval minus the probe's own CPU time inside it, divided by
the mean slowdown of the probe units inside it (unit CPU time over
REFERENCE_UNIT_S).  Work that gets twice as fast reads half as long,
whatever the host's load.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np

PERIOD_S = 0.05

#: CPU time of one unit on an uncontended core of the reference machine
#: (2-core Intel Xeon); the scale of every normalized time.
REFERENCE_UNIT_S = 0.9e-3

#: fewest probe units a normalization uses; short intervals borrow the
#: units nearest to them
MIN_UNITS = 5

_MATRIX = np.eye(4) * 0.999


def _unit() -> str:
    """Fixed work resembling the workloads' mix: complex arithmetic, math
    calls, float formatting and small numpy products."""
    z, acc, parts, v = 0.5 + 0.5j, 0.0, [], np.ones(4)
    for i in range(1500):
        z = z * (0.999 + 0.001j) + 1e-3
        acc += abs(z) + math.exp(-i * 1e-4)
        if i % 4 == 0:
            parts.append(f"{acc:.12g}")
        if i % 8 == 0:
            v = _MATRIX @ v
    return ",".join(parts)


class SpeedProbe:
    """Context manager: pins this process to one CPU and samples its speed.

    Subprocesses started inside the context inherit the pinning, so their
    intervals (on the same ``time.perf_counter`` clock) can be normalized
    too.
    """

    def __init__(self) -> None:
        self.units: list[tuple[float, float, float]] = []  # start, end, cpu
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start, cpu = time.perf_counter(), time.thread_time()
            _unit()
            self.units.append((start, time.perf_counter(),
                               time.thread_time() - cpu))

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe-unit CPU time in [start, end] over the reference."""
        units = [u for u in self.units if start <= u[0] and u[1] <= end]
        if len(units) < MIN_UNITS:
            mid = start + end
            units = sorted(self.units,
                           key=lambda u: abs(u[0] + u[1] - mid))[:MIN_UNITS]
        if not units:
            raise RuntimeError("the speed probe recorded no samples")
        return sum(u[2] for u in units) / len(units) / REFERENCE_UNIT_S

    def normalize(self, start: float, end: float) -> float:
        """Reference-core seconds of the work done in [start, end]."""
        probe_cpu = sum(u[2] for u in self.units
                        if start <= u[0] and u[1] <= end)
        return (end - start - probe_cpu) / self.slowdown(start, end)
