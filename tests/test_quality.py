import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvthresh.image import GrayImage, compute_histogram
from mvthresh.quality import (
    format_db,
    median_elapsed_ms,
    mse,
    psnr,
    psnr_from_mse,
    psnr_from_mse_exact,
    timed,
)
from mvthresh.segmentation import Replacement, SegmentationParams, class_error, segment_image

from conftest import gray_images
from helpers import decimal_psnr


def img(values, width=None):
    values = list(values)
    width = width or len(values)
    return GrayImage(width, len(values) // width, values)


class TestMse:
    def test_identical(self):
        a = img([3, 5, 7, 9])
        assert mse(a, a) == 0.0

    def test_maximal_uniform_error(self):
        a = img([0, 0, 0, 0])
        b = img([255, 255, 255, 255])
        assert mse(a, b) == 255.0**2

    def test_unit_offset(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 255, size=64, dtype=np.uint8)
        a = GrayImage(8, 8, base)
        b = GrayImage(8, 8, base + 1)
        assert mse(a, b) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(img([1, 2]), img([1, 2, 3]))
        with pytest.raises(ValueError):
            mse(img([1, 2], width=2), img([1, 2], width=1))

    @given(gray_images())
    def test_non_negative_and_symmetric(self, a):
        flipped = GrayImage(a.width, a.height, 255 - a.pixels)
        assert mse(a, flipped) >= 0.0
        assert mse(a, flipped) == mse(flipped, a)


class TestPsnr:
    def test_identical_is_infinite(self):
        a = img([9, 9, 9, 9])
        assert math.isinf(psnr(a, a))

    def test_unit_offset_value(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 255, size=100, dtype=np.uint8)
        a = GrayImage(10, 10, base)
        b = GrayImage(10, 10, base + 1)
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2), rel=1e-12)
        assert psnr(a, b) == pytest.approx(48.1308, abs=5e-4)

    @given(gray_images())
    def test_symmetric(self, a):
        rng = np.random.default_rng(a.width * 31 + a.height)
        noise = rng.integers(0, 32, size=a.pixels.size, dtype=np.uint8)
        b = GrayImage(a.width, a.height, np.clip(a.pixels.astype(int) + noise, 0, 255))
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_link_with_mse(self):
        base = img([10, 60, 110, 210])
        near = img([11, 61, 111, 211])
        far = img([30, 80, 130, 230])
        assert mse(base, near) < mse(base, far)
        assert psnr(base, near) > psnr(base, far)


class TestHistogramMse:
    """The result's exact ``squared_error``, over the pixel count, is the MSE of its raster.

    ``segment`` and ``bench`` report it without reading the pixels again.
    """

    @given(
        gray_images(),
        st.sampled_from([3, 5, 7, 9, 11]),
        st.sampled_from(list(Replacement)),
    )
    def test_equals_pixel_mse_exactly(self, img, n, mode):
        result, quantized = segment_image(img, SegmentationParams(n=n, replacement=mode))
        hist = compute_histogram(img)
        assert result.squared_error == class_error(hist, result.classes)
        err = result.squared_error / hist.total
        assert err == mse(img, quantized)
        assert psnr_from_mse(err) == psnr(img, quantized)


class TestExactPsnr:
    def test_matches_the_decimal_log10_on_cli_shaped_inputs(self):
        """A segment report's err is E / N, E squared errors over N pixels.

        glibc's log10 is off in the last bit for a few percent of these.
        """
        rng = random.Random(0)
        wrong = []
        for _ in range(1000):
            pixels = rng.randint(1, 1 << 22)
            errors = max(1, round(10 ** rng.uniform(-2, 4.8) * pixels))
            err = errors / pixels
            if psnr_from_mse_exact(err) != decimal_psnr(err):
                wrong.append((errors, pixels))
        assert wrong == []


class TestDbText:
    @pytest.mark.parametrize(
        "value, digits, text",
        [
            (math.inf, None, "inf"),
            (math.inf, 2, "inf"),
            (48.13080360867911, None, "48.13080360867911"),
            (48.13080360867911, 2, "48.13"),
            (48.13080360867911, 4, "48.1308"),
            (7.0, 4, "7.0000"),
        ],
    )
    def test_format(self, value, digits, text):
        assert format_db(value, digits) == text

    @given(st.floats(min_value=0.0, allow_nan=False))
    def test_full_precision_round_trip(self, value):
        assert float(format_db(value)) == value

    def test_inf_round_trip(self):
        assert float(format_db(math.inf)) == math.inf


class TestTimed:
    def test_noop_non_negative(self):
        _, elapsed = timed(lambda: None)
        assert elapsed >= 0.0

    def test_result_transparent(self):
        from mvthresh.segmentation import segment_image

        a = img(list(range(16)), width=4)
        params = SegmentationParams(n=3)
        direct = segment_image(a, params)
        via_timer, _ = timed(segment_image, a, params)
        assert via_timer == direct

    def test_median_over_runs(self):
        count = 0

        def op():
            nonlocal count
            count += 1
            return count

        result, elapsed = median_elapsed_ms(op, runs=5)
        assert count == 5
        assert result == 5
        assert elapsed >= 0.0

    def test_median_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            median_elapsed_ms(lambda: None, runs=0)
