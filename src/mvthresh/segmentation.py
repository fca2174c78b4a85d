"""Recursive mean/variance multilevel thresholding.

Each pass computes mean and deviation of the current intensity range [a, b]
from the histogram, cuts at T1 = mu - k1*sigma and T2 = mu + k2*sigma, freezes
the outer classes [a, T1] and [T2, b], and recurses on [T1+1, T2-1]. After
(n-1)/2 passes the residual range is split once at its rounded mean, which
becomes the middle threshold, for n thresholds total. Low-variance ranges that
cannot be cut any further stop the recursion early with fewer thresholds.

All cut positions are derived from mean/deviation only; the replacement mode
(weighted mean vs. interval midpoint) affects output intensities, not cuts.

A class [lo, hi] is read from the moment table as exact Python integers up to
one real division, so results match on every platform. Its std is the
population form (divide by N): the histogram is the whole pixel population.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .image import (
    LEVELS,
    MAX_INTENSITY,
    GrayImage,
    Histogram,
    _integer,
    _map_pixels,
    _moments,
    compute_histogram,
)
from .quality import psnr_from_mse


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


class Replacement(enum.Enum):
    """How a class interval collapses to a single output intensity."""

    WEIGHTED_MEAN = "weighted-mean"
    MIDPOINT = "midpoint"


@dataclass(frozen=True)
class SegmentationParams:
    """Requested threshold count, kappa schedule, and replacement mode.

    ``kappa_schedule`` holds one (k1, k2) pair per pass; the last entry is
    reused when the schedule is shorter than (n-1)/2. Asymmetric pairs widen
    or narrow the two cuts independently for skewed histograms.
    """

    n: int
    kappa_schedule: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    replacement: Replacement = Replacement.WEIGHTED_MEAN

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "threshold count"))
        if self.n % 2 == 0 or self.n < 3:
            raise ValueError(f"threshold count must be an odd integer >= 3, got {self.n}")
        schedule = tuple((float(k1), float(k2)) for k1, k2 in self.kappa_schedule)
        if not schedule:
            raise ValueError("kappa schedule must not be empty")
        for k1, k2 in schedule:
            if not (math.isfinite(k1) and k1 > 0.0 and math.isfinite(k2) and k2 > 0.0):
                raise ValueError(f"kappa values must be positive and finite, got ({k1}, {k2})")
        object.__setattr__(self, "kappa_schedule", schedule)
        object.__setattr__(self, "replacement", Replacement(self.replacement))

    @property
    def passes(self) -> int:
        return (self.n - 1) // 2

    def kappa_for(self, index: int) -> tuple[float, float]:
        return self.kappa_schedule[min(index, len(self.kappa_schedule) - 1)]

    def to_dict(self) -> dict:
        return {
            "levels": self.n,
            "kappa_schedule": [list(pair) for pair in self.kappa_schedule],
            "replacement": self.replacement.value,
        }


@dataclass(frozen=True, eq=False)
class SegmentationResult:
    """Thresholds, class partition of [0,255], its exact error and the derived lookup table.

    ``squared_error`` is the exact integer sum, over the pixels, of the
    squared difference to the value their class maps them to: divided by
    the pixel count it is the MSE of the quantized raster, bit for bit.
    """

    thresholds: tuple[int, ...]
    classes: tuple[tuple[SubRange, int], ...]
    squared_error: int
    lut: np.ndarray = field(init=False, repr=False)
    effective_n: int = field(init=False)

    def __post_init__(self):
        thresholds = tuple(_integer(t, "threshold") for t in self.thresholds)
        classes = tuple((iv, _integer(value, "class value")) for iv, value in self.classes)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "squared_error", _integer(self.squared_error, "squared error"))
        if not self.thresholds or not self.classes:
            raise ValueError("thresholds and classes must be non-empty")
        if self.squared_error < 0:
            raise ValueError(f"squared error must be >= 0, got {self.squared_error}")
        for t in self.thresholds:
            if not 0 <= t <= MAX_INTENSITY:
                raise ValueError(f"threshold {t} outside [0, 255]")
        if any(a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError(f"thresholds not strictly increasing: {self.thresholds}")

        lut = np.empty(LEVELS, dtype=np.uint8)
        position = 0
        for interval, value in self.classes:
            if interval.lo != position:
                raise ValueError("classes must tile [0, 255] without gaps or overlaps")
            if not interval.lo <= value <= interval.hi:
                raise ValueError(f"replacement {value} outside its interval {interval}")
            lut[interval.lo : interval.hi + 1] = value
            position = interval.hi + 1
        if position != LEVELS:
            raise ValueError("classes must cover [0, 255] completely")
        # a lower class ends at its cut; the class below an upper one ends one below its cut
        if len(self.classes) - len(self.thresholds) not in (0, 1):
            raise ValueError(f"{len(self.classes)} classes for {len(self.thresholds)} thresholds")
        ends = set(self.thresholds) | {t - 1 for t in self.thresholds}
        for interval, _ in self.classes[:-1]:
            if interval.hi not in ends:
                raise ValueError(f"class {interval} ends neither at a threshold nor one below one")
        lut.flags.writeable = False
        object.__setattr__(self, "lut", lut)
        object.__setattr__(self, "effective_n", len(self.thresholds))

    def __eq__(self, other):
        if not isinstance(other, SegmentationResult):
            return NotImplemented
        parts = ("thresholds", "classes", "squared_error")
        return all(getattr(self, part) == getattr(other, part) for part in parts)


def step_thresholds(
    stats: RangeStats, lo: int, hi: int, kappa1: float, kappa2: float
) -> tuple[int, int] | None:
    """Cut positions mu - k1*sigma and mu + k2*sigma, clamped into [lo, hi].

    Returns None (degenerate) when the range is empty of pixels or the cuts
    leave no interior sub-range to recurse on.
    """
    if stats.empty:
        return None
    # clamp before rounding: a huge kappa makes the float cut infinite
    t1 = round_half_up(min(max(stats.mean - kappa1 * stats.std, lo), hi))
    t2 = round_half_up(min(max(stats.mean + kappa2 * stats.std, lo), hi))
    if t2 - t1 < 2:
        return None
    return t1, t2


def _passes(hist: Histogram, params: SegmentationParams):
    """Yield (residual lo, residual hi, frozen lower records, frozen upper records, their error).

    A record ``(lo, hi, value, error)`` is a class [lo, hi], the value its
    pixels map to and the exact integer squared error of that mapping, all
    from one moment read. One state comes before the first pass and one
    after each pass, until the first degenerate pass. Pass k never depends
    on how many follow. The error is the sum of the frozen records' errors,
    which each pass grows by those of the two records it freezes.
    """
    by_midpoint = params.replacement is Replacement.MIDPOINT
    lo, hi = 0, MAX_INTENSITY
    lower: tuple[tuple[int, int, int, int], ...] = ()
    upper = lower
    frozen = 0
    yield lo, hi, lower, upper, frozen
    for index in range(params.passes):
        cut = step_thresholds(range_stats(hist, lo, hi), lo, hi, *params.kappa_for(index))
        if cut is None:
            return
        t1, t2 = cut
        lower += ((lo, t1, *_class_fit(hist, lo, t1, by_midpoint)[:2]),)
        upper = ((t2, hi, *_class_fit(hist, t2, hi, by_midpoint)[:2]),) + upper
        frozen += lower[-1][3] + upper[0][3]
        lo, hi = t1 + 1, t2 - 1
        yield lo, hi, lower, upper, frozen


def _middle(hist: Histogram, lo: int, hi: int, by_midpoint: bool):
    """Split the residual [lo, hi] at its rounded mean: (split, the one or two middle records)."""
    split, error, count = _class_fit(hist, lo, hi)
    low_value, low_error, low_count = _class_fit(hist, lo, split, by_midpoint)
    if low_count < count:  # the upper class holds the residual's pixels minus the lower's
        high_value, high_error, _ = _class_fit(hist, split + 1, hi, by_midpoint)
        return split, ((lo, split, low_value, low_error), (split + 1, hi, high_value, high_error))
    # nothing above the mean: keep the residual range as one class so
    # every level it covers maps to the same value the pixels map to
    whole = _class_fit(hist, lo, hi, True)[:2] if by_midpoint else (split, error)
    return split, ((lo, hi, *whole),)


def segment(hist: Histogram, params: SegmentationParams) -> SegmentationResult:
    """Run the recursive segmentation over a histogram.

    Degenerate passes (zero variance, cuts that collapse, or a pixel-empty
    residual) stop the recursion early; the result then reports
    ``effective_n`` < ``params.n``.
    """
    if hist.total == 0:
        raise ValueError("cannot segment an empty image")
    *_, (lo, hi, lower, upper, frozen) = _passes(hist, params)
    split, middle = _middle(hist, lo, hi, params.replacement is Replacement.MIDPOINT)
    thresholds = tuple(rec[1] for rec in lower) + (split,) + tuple(rec[0] for rec in upper)
    classes = tuple((SubRange(lo, hi), value) for lo, hi, value, _ in lower + middle + upper)
    return SegmentationResult(thresholds, classes, frozen + sum(rec[3] for rec in middle))


def apply_mapping(image: GrayImage, result: SegmentationResult) -> GrayImage:
    """Quantize every pixel through the result's lookup table."""
    return GrayImage._owning(image.width, image.height, _map_pixels(image.pixels, result.lut))


def segment_image(
    image: GrayImage, params: SegmentationParams
) -> tuple[SegmentationResult, GrayImage]:
    """Full pipeline: histogram, recursive cuts, quantized raster.

    These are the only two passes over the pixels: the histogram and the
    mapping through the lookup table. The quantized raster's MSE is the
    result's ``squared_error`` divided by the pixel count.
    """
    result = segment(compute_histogram(image), params)
    return result, apply_mapping(image, result)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated threshold count in a PSNR sweep.

    ``psnr_db`` equals ``psnr(image, quantized)`` for the quantized raster
    of this n, though the sweep never builds that raster, its lookup table
    or its ``SegmentationResult``. ``elapsed_ms`` times what this n adds:
    one pass (none after an early stop) and the middle split, one moment
    read per class. The pass reads the residual's statistics and freezes
    two ``(lo, hi, value, error)`` records; the split reads the residual's
    mean and its one or two middle records. The earlier passes, the moment
    table and the one histogram pass the whole sweep shares are not in it.
    """

    n: int
    psnr_db: float
    elapsed_ms: float


def class_error(hist: Histogram, classes) -> int:
    """Exact squared error of replacing each ``(SubRange, value)`` class by its value.

    O(1) per class from the moment table. Over a segmentation's classes,
    divided by ``hist.total``, it is the MSE the quantized pixels give, bit for bit.
    """
    return sum(_class_fit(hist, iv.lo, iv.hi, value=value)[1] for iv, value in classes)


def auto_select_n(
    image: GrayImage,
    base: SegmentationParams,
    epsilon: float,
    n_max: int,
) -> tuple[int, list[SweepPoint]]:
    """Pick the threshold count where PSNR stops improving.

    Evaluates n = 3, 5, 7, ... and returns the smallest n whose PSNR gain to
    n+2 falls below ``epsilon`` dB, together with every evaluated sweep point.
    An infinite PSNR (exact reconstruction) saturates immediately; without
    saturation the sweep runs through ``n_max`` and returns it.

    The pixels are read once, for the histogram, and each pass runs once:
    n adds one pass to those of n-2 (after an early stop, none: the same
    PSNR again ends the sweep). Each n adds its middle records' errors to
    the frozen records' error its pass state carries, as ``segment`` does,
    each from one read of the moment table. One division by
    the pixel count gives the MSE of ``segment``'s ``squared_error`` for
    that n, bit for bit, without a result, a lookup table or a quantized
    raster.
    """
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    widest = replace(base, n=n_max)  # checks n_max as a threshold count
    hist = compute_histogram(image)
    _ = hist.moments  # shared by every row, so built before the first is timed
    passes = _passes(hist, widest)
    state = next(passes)
    sweep: list[SweepPoint] = []
    for n in range(3, widest.n + 1, 2):
        start = time.perf_counter()
        state = next(passes, state)  # after an early stop, the last state again
        lo, hi, _, _, frozen = state
        _, middle = _middle(hist, lo, hi, base.replacement is Replacement.MIDPOINT)
        value = psnr_from_mse((frozen + sum(rec[3] for rec in middle)) / hist.total)
        elapsed = (time.perf_counter() - start) * 1000.0
        sweep.append(SweepPoint(n=n, psnr_db=value, elapsed_ms=elapsed))
        if math.isinf(value):
            return n, sweep
        if len(sweep) > 1 and value - sweep[-2].psnr_db < epsilon:
            return sweep[-2].n, sweep
    return widest.n, sweep
