"""Speed reference for a shared host.

The host's speed swings by up to 2x over seconds to minutes as other
tenants come and go, for interpreter-bound code (contention for the
core) and for memory-bound code (contention for memory bandwidth) in
different stretches.  A ``SpeedReference`` times a fixed kernel of the
same kind as a workload's steps; ``factor`` scales times measured next
to it to a host on which that kernel takes its nominal time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

INTERPRETER_NOMINAL_S = 0.5e-3
MEMORY_NOMINAL_S = 9.0e-3
MEMORY_BUFFER_BYTES = 64 * 2**20  # streamed from memory rather than cache


class SpeedReference:
    def __init__(self, memory_bound: bool):
        if memory_bound:
            self._buffer = np.ones(MEMORY_BUFFER_BYTES // 8)
            self._kernel, self._repeats, self.nominal_s = self._stream, 3, MEMORY_NOMINAL_S
            self.resident_mb = MEMORY_BUFFER_BYTES / 2**20  # the buffer, touched by np.ones
        else:
            self._small = np.zeros(36)
            self._kernel, self._repeats, self.nominal_s = self._interpret, 10, INTERPRETER_NOMINAL_S
            self.resident_mb = 0.0

    def _interpret(self) -> None:
        for _ in range(100):
            b = self._small + 1.0
            float(np.max(np.abs(b)))
            [k * k for k in range(30)]

    def _stream(self) -> None:
        float(self._buffer.sum())

    def time(self) -> float:
        """Median wall time of the kernel over a few repeats."""
        times = []
        for _ in range(self._repeats):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def factor(self, before: float, after: float) -> float:
        """Scale for times measured between kernel times ``before`` and ``after``."""
        return 2.0 * self.nominal_s / (before + after)
