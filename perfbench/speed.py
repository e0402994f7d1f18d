"""Machine-speed probes that scale a child's times to reference speed.

The CPU of a shared machine changes speed by up to half within minutes,
because other tenants contend for the core and its caches.  That drift is
far larger than a child's own run-to-run variation, so raw wall times of
two runs minutes apart are not comparable.

While a child runs on one CPU, ``SpeedSampler`` times a small fixed probe
on the same CPU every ``PERIOD_S``, in a thread of the benchmark process
(under 2% of the CPU).  A probe is a kernel with the character of the
workload it calibrates, because code of different character slows by
different amounts under the same contention: pure-Python allocation-heavy
code (the subset layers) more than a tight integer loop, numpy streaming
less.  Each workload names its probe kind in ``workloads.py``.  On the
2-vCPU machine of the first baseline, the quartile spread of ten
25-second run medians of wall time was 10-36% as measured and 1.4-5.1%
scaled (``BASELINE.md``).

The probes are part of the benchmark, not of the program, so a change to
the program cannot move them.
"""
from __future__ import annotations

import math
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
_PEEL_SLITS = 8
_DRAW_SHAPE = (20, 2047)
_BLOCK = np.exp(1j * np.arange(2048.0))


def peel_probe() -> float:
    """CPU seconds of a pure-Python subset peel over 8 slits (3**8 pairs)."""
    start = time.thread_time()
    full = (1 << _PEEL_SLITS) - 1
    exclusive = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        parts = [float(bin(mask).count("1")) ** 3]
        sub = (mask - 1) & mask
        while sub:
            parts.append(-exclusive[sub])
            sub = (sub - 1) & mask
        exclusive[mask] = math.fsum(parts)
    return time.thread_time() - start


def draw_probe() -> float:
    """CPU seconds of a small numpy draw, power and reduce."""
    start = time.thread_time()
    draws = np.random.default_rng(1).uniform(-1.0, 1.0, size=_DRAW_SHAPE)
    float(((draws + 4.0) ** 5).sum())
    return time.thread_time() - start


def block_probe() -> float:
    """CPU seconds of a 64 x 2048 complex outer product and its sum, the
    shape of one chunk of the path-pair reduction."""
    start = time.thread_time()
    complex((_BLOCK[:64, None] * np.conj(_BLOCK)[None, :]).sum())
    return time.thread_time() - start


# probe kind -> (kernels, their CPU seconds on an idle machine); the scale
# is the geometric mean over the kernels of a kind.  Each workload names the
# kind whose slowdown tracked its own on the baseline machine: pure-Python
# layers follow "python", numpy streaming follows "numpy", and the
# Monte-Carlo draw-and-reduce falls between the two, so it takes "mixed".
PROBES = {
    "python": ((peel_probe,), (0.0006,)),
    "numpy": ((block_probe,), (0.00036,)),
    "mixed": ((peel_probe, draw_probe), (0.0006, 0.0009)),
}


class SpeedSampler:
    """Context manager: probes the CPU speed until exit, then ``scale`` is
    the factor that converts the enclosed wall and CPU times to reference
    speed (1.0 on an idle machine, below 1.0 on a slowed one)."""

    def __init__(self, kind: str) -> None:
        self.kernels, self.nominal = PROBES[kind]
        self.timings: list[list[float]] = [[] for _ in self.kernels]
        self.scale = float("nan")
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample)

    def _sample(self) -> None:
        while True:
            for kernel, timings in zip(self.kernels, self.timings):
                timings.append(kernel())
            if self._done.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        ratios = [nominal / statistics.fmean(timings)
                  for nominal, timings in zip(self.nominal, self.timings)]
        self.scale = statistics.geometric_mean(ratios)
