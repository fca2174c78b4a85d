"""Shared test helpers: spike histograms, the segmentation invariants and a decimal PSNR."""

import decimal

import numpy as np

from mvthresh.image import Histogram


def spikes(*pairs):
    """Histogram holding ``mass`` pixels at each ``(value, mass)``; repeated values add up."""
    bins = np.zeros(256, dtype=np.int64)
    for value, mass in pairs:
        bins[value] += mass
    return Histogram(bins)


def assert_valid_partition(result, requested_n=None):
    """Check every structural invariant of a segmentation result."""
    ts = result.thresholds
    assert len(ts) >= 1
    assert all(0 <= t <= 255 for t in ts)
    assert all(a < b for a, b in zip(ts, ts[1:])), f"thresholds not increasing: {ts}"
    assert result.effective_n == len(ts)
    if requested_n is not None:
        assert result.effective_n <= requested_n

    position = 0
    for interval, value in result.classes:
        assert interval.lo == position, "gap or overlap in class tiling"
        assert interval.lo <= value <= interval.hi, "replacement escapes its interval"
        position = interval.hi + 1
    assert position == 256, "classes do not cover [0, 255]"

    lut = result.lut
    assert lut.shape == (256,)
    assert np.all(np.diff(lut.astype(np.int64)) >= 0), "lut not monotone"
    for interval, value in result.classes:
        assert np.all(lut[interval.lo : interval.hi + 1] == value)


_DIGITS60 = decimal.Context(prec=60)
_LN10 = _DIGITS60.ln(10)


def decimal_psnr(err):
    """``10.0 * log10(65025 / err)`` with the log10 taken as ln(x) / ln(10) in 60 digits.

    The division and the scaling are float, so only the log10 differs from
    ``math.log10``'s, which C libraries do not promise to round correctly.
    """
    ratio = decimal.Decimal(255 * 255 / err)
    return 10.0 * float(_DIGITS60.divide(_DIGITS60.ln(ratio), _LN10))
