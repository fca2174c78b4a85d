"""Image quality (MSE, PSNR) and wall-clock measurement.

PSNR uses the 8-bit peak of 255. A perfect reconstruction has MSE 0 and an
explicit infinite PSNR (math.inf), serialized as the string "inf" — never a
floating-point overflow.
"""

from __future__ import annotations

import decimal
import math
import statistics
import time
from typing import Callable, TypeVar

import numpy as np

from .image import MAX_INTENSITY, GrayImage

T = TypeVar("T")


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared error, accumulated exactly in integers before dividing."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    return int((diff * diff).sum()) / diff.size


def psnr_from_mse(err: float) -> float:
    """Peak signal-to-noise ratio in dB for an MSE; math.inf when it is 0."""
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(MAX_INTENSITY * MAX_INTENSITY / err)


# 40 digits, where a float holds 17: rounded to a float, their log10 is the correctly
# rounded one, which no C library's log10 promises
_LOG10_CONTEXT = decimal.Context(prec=40)


def psnr_from_mse_exact(err: float) -> float:
    """``psnr_from_mse`` with a correctly rounded log10: the same bits on every platform.

    Only the log10 differs; the division and the scaling by 10 are float, as there.
    """
    if err == 0.0:
        return math.inf
    ratio = decimal.Decimal(MAX_INTENSITY * MAX_INTENSITY / err)
    return 10.0 * float(_LOG10_CONTEXT.log10(ratio))


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for identical images."""
    return psnr_from_mse(mse(a, b))


def timed(fn: Callable[..., T], *args) -> tuple[T, float]:
    """Run ``fn`` once; returns (result, elapsed ms) on the monotonic clock."""
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1000.0


def median_elapsed_ms(fn: Callable[..., T], *args, runs: int = 20) -> tuple[T, float]:
    """Median wall-clock over ``runs`` sequential warm executions.

    Returns the last run's result, which for pure operations equals every
    other run's.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    times = []
    out = None
    for _ in range(runs):
        out, elapsed = timed(fn, *args)
        times.append(elapsed)
    return out, statistics.median(times)


def format_db(value: float, digits: int | None = None) -> str:
    """Serialize a dB value; infinity becomes the sentinel string "inf".

    With ``digits`` the value is rounded to that many decimals; without, it
    is written in full (``repr``), so ``float`` of the text is the value exactly.
    """
    if math.isinf(value):
        return "inf"
    return repr(value) if digits is None else f"{value:.{digits}f}"

