"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed changes by 2x
and more, and fast: the same probe run a few seconds apart often differs
by 1.5x. Two things slow a job down there:

- the hypervisor runs other guests on the vCPU (steal time). The job's
  thread CPU time leaves this out, so every time here is thread CPU time
  (``time.thread_time``), not wall time;
- other tenants share the core and its caches, which slows the CPU time
  itself. A fixed kernel of the benchmark's own slows down with it, so
  job times are reported in *calibrated seconds*:

      calibrated = CPU seconds * REFERENCE_S / kernel CPU seconds

``REFERENCE_S`` is the kernel's time on the reference host (2-vCPU Intel
Xeon, 105 MiB L3) with nothing else running, so calibrated seconds are
seconds on that host's scale. A change to the program moves CPU and
calibrated times alike; a change in the host's load moves the kernel as
much as the job and cancels out.

Each kernel is a short probe that a timer signal runs at a fixed interval
*while the job runs*, so the kernel time is the median over the job's own
duration, not a sample taken before or after it. The probes' own time is
taken out of the job's time. A job too short for ``MIN_PROBES`` probes
gets the rest right after it ends. Two probes match the two kinds of work
in the program:

- ``compute`` does small-array numpy and Python-level work like the sudoku
  code: about 0.1 ms every 25 ms, about 1% of the job's wall time.
- ``memory`` streams a 4 MiB array into another, like the 1e6-sample
  min-sum jobs stream theirs: about 2 ms every 100 ms, about 2%.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Timing:
    """One timed call: its CPU and wall seconds, and the calibration scale."""

    cpu_s: float
    wall_s: float
    scale: float

    @property
    def calibrated(self) -> float:
        return self.cpu_s * self.scale


class Calibrator:
    """Times calls and scales them to the reference host's speed."""

    #: probe CPU seconds on the reference host with nothing else running
    REFERENCE_S = {"compute": 7.3e-5, "memory": 1.4e-3}
    INTERVAL_S = {"compute": 0.025, "memory": 0.1}
    MIN_PROBES = 5

    def __init__(self, kind: str):
        rng = np.random.default_rng(20140716)
        self.kind = kind
        if kind == "compute":
            self._x = rng.random(256)
            self._a = rng.integers(0, 256, 128)
            self._probe = self._compute
        elif kind == "memory":
            self._src = rng.random(1 << 19)
            self._dst = np.empty_like(self._src)
            self._probe = self._memory
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        # (wall start, CPU seconds, wall seconds) per probe
        self._samples: list[tuple[float, float, float]] = []

    def _compute(self) -> float:
        acc = 0.0
        for i in range(20):
            acc += float((self._x[self._a] * 1.0001).sum())
            slots = {}
            for k in range(20):
                slots[k] = k * i
        return acc

    def _memory(self) -> float:
        np.multiply(self._src, 1.0001, out=self._dst)
        return float(self._dst.sum())

    def _sample(self, signum=None, frame=None) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self._probe()
        self._samples.append((t0, time.thread_time() - c0, time.perf_counter() - t0))

    def measure(self, fn):
        """Run ``fn()``; return its value and its ``Timing``.

        Exceptions from ``fn`` propagate, with the timer stopped.
        """
        self._samples = []
        interval = self.INTERVAL_S[self.kind]
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            value = fn()
        finally:
            end, cpu_end = time.perf_counter(), time.thread_time()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # a probe that started after the job ended is not part of its time
        inside = [(cpu, wall) for start, cpu, wall in self._samples if start < end]
        cpu = cpu_end - c0 - sum(c for c, _ in inside)
        wall = end - t0 - sum(w for _, w in inside)
        while len(self._samples) < self.MIN_PROBES:
            self._sample()
        kernel_s = statistics.median(c for _, c, _ in self._samples)
        return value, Timing(cpu, wall, self.REFERENCE_S[self.kind] / kernel_s)
