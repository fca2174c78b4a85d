"""Class statistics over a histogram, each one read of its moment table.

Every reader names a class by its inclusive bounds ``(hist, lo, hi)``, and
``_class_fit`` is the one reader of a class's value and exact squared error.
Sums are accumulated as exact Python integers before a single real division,
so results are deterministic across platforms; only the Otsu scan's interval
grid is float64. Standard deviation is the population form (divide by N):
the histogram is the whole pixel population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .image import MAX_INTENSITY, Histogram


@dataclass(frozen=True)
class SubRange:
    """Inclusive intensity interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= MAX_INTENSITY):
            raise ValueError(f"invalid sub-range [{self.lo}, {self.hi}]")


class RangeStats(NamedTuple):
    """Pixel count, mean and population std of one sub-range.

    An empty sub-range has ``count == 0`` and ``mean is std is None``;
    it is a regular outcome, not an error.
    """

    count: int
    mean: float | None
    std: float | None

    @property
    def empty(self) -> bool:
        return self.count == 0


def _moments(hist: Histogram, lo: int, hi: int) -> tuple[int, int, int]:
    c0, c1, c2 = hist.moments
    end = hi + 1
    return c0[end] - c0[lo], c1[end] - c1[lo], c2[end] - c2[lo]


def _class_fit(
    hist: Histogram, lo: int, hi: int, by_midpoint: bool = False, value: int | None = None
) -> tuple[int, int, int]:
    """Value, exact squared error and pixel count of the class [lo, hi], from one moment read.

    Unless ``value`` is given, it is the rounded weighted mean. With
    ``by_midpoint``, or when the class holds no pixel and so has no mean, it
    is the midpoint, which stays inside the class.
    """
    s0, s1, s2 = _moments(hist, lo, hi)
    if value is None:
        # round-half-up of s1/s0 in pure integer arithmetic
        value = (lo + hi) // 2 if by_midpoint or not s0 else (2 * s1 + s0) // (2 * s0)
    # the sum over [lo, hi] of bins[v] * (v - value)^2, expanded into the moments
    return value, s2 - value * (2 * s1 - value * s0), s0


def _interval_grid(hist: Histogram) -> tuple[np.ndarray, np.ndarray]:
    """Float64 intensity sums and pixel counts of the classes [u, v] at [u, v], u <= v."""
    c, s = np.array(hist.moments[:2], dtype=np.float64)
    return s[None, 1:] - s[:-1, None], c[None, 1:] - c[:-1, None]


def range_stats(hist: Histogram, lo: int, hi: int) -> RangeStats:
    """Count, mean and std of all pixels with intensity in [lo, hi]."""
    s0, s1, s2 = _moments(hist, lo, hi)
    if s0 == 0:
        return RangeStats(0, None, None)
    mean = s1 / s0
    # exact integer numerator: s0*s2 - s1^2 == s0^2 * variance
    var = (s0 * s2 - s1 * s1) / (s0 * s0)
    return RangeStats(s0, mean, math.sqrt(var))


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves toward +infinity."""
    whole = math.floor(x)  # not floor(x + 0.5): that add rounds 0.49999999999999994 up to 1
    return whole + (x - whole >= 0.5)
