"""A gauge of how fast the machine runs right now, for scaling wall times.

On a small shared VM the same code runs up to twice as slow in stretches of
tens of seconds, so raw wall times of runs made minutes apart differ by more
than any bound worth setting. The gauge times four fixed kernels, one per kind
of work the CLI does:

- ``interpreter``: a pure-Python integer loop (argparse, the cuts, sweeps);
- ``small_numpy``: numpy calls on 257-element arrays (the Otsu scan);
- ``raster``: a histogram and an int64 square-sum over a 512 KiB raster, whose
  4 MiB int64 copy exceeds one core's L2 (the pixel passes of ``segment``);
- ``text``: splitting and parsing whitespace-separated integers (P2 decode).

Each kernel's time is divided by a fixed reference time (``REFERENCE_MS``), and
the gauge reads the geometric mean of the four ratios: 1.0 when the kernels
run at their reference times, 1.3 when the machine is 30% slower than that. ``run.py`` divides each
call's wall time by the mean of the readings taken just before and just after
it, so its times read as milliseconds at the reference VM's speed. Each kernel
runs once untimed first, so the caches the call left behind do not bias the
reading. The kernels never call ``mvthresh``, so no change to the program
moves the gauge.
"""

from __future__ import annotations

import math
import time

import numpy as np

# close to each kernel's median time on the reference VM (2 vCPUs of an Intel
# Xeon at 2.1 GHz); changing them rescales every scaled time of every run
REFERENCE_MS = {"interpreter": 1.4, "small_numpy": 1.7, "raster": 2.5, "text": 1.9}


class SpeedGauge:
    """Times the reference kernels; ``read()`` returns the slowdown factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._raster = rng.integers(0, 256, size=(512, 1024), dtype=np.uint8)
        self._small = rng.random(257)
        self._ends = np.arange(255)
        self._text = " ".join(map(str, rng.integers(0, 256, size=6000).tolist()))
        self._kernels = {
            "interpreter": self._interpreter,
            "small_numpy": self._small_numpy,
            "raster": self._raster_pass,
            "text": self._parse_text,
        }
        self.read()  # first calls allocate and warm the caches

    @staticmethod
    def _interpreter() -> int:
        total = 0
        for i in range(15000):
            total += i * i % 7
        return total

    def _small_numpy(self) -> float:
        best = 0.0
        for u in range(150):
            s = self._small[self._ends[u:] + 1] - self._small[u]
            best = max(best, float((s * s / np.maximum(s, 1.0)).max()))
        return best

    def _raster_pass(self) -> int:
        hist = np.bincount(self._raster.ravel(), minlength=256)
        return int(hist[0]) + int((self._raster.astype(np.int64) ** 2).sum())

    def _parse_text(self) -> int:
        return int(np.array([int(t) for t in self._text.split()], dtype=np.uint8).sum())

    def read(self) -> float:
        """Geometric mean over the kernels of (time now / reference time)."""
        log_sum = 0.0
        for name, kernel in self._kernels.items():
            kernel()  # untimed: brings the kernel's data back into the caches
            start = time.perf_counter()
            kernel()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            log_sum += math.log(elapsed_ms / REFERENCE_MS[name])
        return math.exp(log_sum / len(self._kernels))
