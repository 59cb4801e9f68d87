"""Timing that is scaled by the host's speed at the moment of measurement.

The virtual machines this benchmark runs on share their physical cores:
the same code runs up to twice as fast or as slow from one second to the
next, and process CPU time follows wall time, so nothing is waiting.  A
median over a run then depends on how much of the run fell into slow
moments.  :class:`HostClock` therefore times a fixed reference kernel right
before and right after each timed part and scales the part's wall time by
``REFERENCE_S`` over the kernel's mean time: the part's duration on a host
where the kernel takes 10 ms.  The program's own cost moves the figure;
the neighbours' load largely cancels.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010
_FRESH_S = 0.05  # a kernel timing younger than this still counts as "before"
_A = np.eye(6) + 0.1
_B = np.ones(6)


def kernel_seconds() -> float:
    """Wall time of the reference kernel: 1000 small dense solves."""
    t0 = perf_counter()
    for _ in range(1000):
        np.linalg.solve(_A, _B)
    return perf_counter() - t0


class HostClock:
    """Records, per named part, raw and host-scaled wall times."""

    def __init__(self):
        self.raw: dict = {}
        self.scaled: dict = {}
        self._last = (-np.inf, 0.0)  # (when, kernel seconds)

    def _kernel(self, reuse: bool) -> float:
        when, seconds = self._last
        if reuse and perf_counter() - when < _FRESH_S:
            return seconds
        seconds = kernel_seconds()
        self._last = (perf_counter(), seconds)
        return seconds

    @contextlib.contextmanager
    def part(self, name: str):
        before = self._kernel(reuse=True)
        t0 = perf_counter()
        yield
        raw = perf_counter() - t0
        after = self._kernel(reuse=False)
        self.raw.setdefault(name, []).append(raw)
        self.scaled.setdefault(name, []).append(raw * 2.0 * REFERENCE_S / (before + after))

    def per_round(self, rounds: int) -> float:
        """Host-scaled seconds of one round: each part's median times its count."""
        return sum(statistics.median(v) * len(v) / rounds for v in self.scaled.values())
