import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvthresh.image import GrayImage, Histogram, compute_histogram
from mvthresh.segmentation import SubRange, _class_fit, range_stats, round_half_up

from conftest import gray_images, histograms, sparse_histograms, subranges
from oracles import mean_std, moments, weighted_mean_int

FULL = (0, 255)


def hist_of(values):
    bins = np.zeros(256, dtype=np.int64)
    for v in values:
        bins[v] += 1
    return Histogram(bins)


class TestSubRange:
    @pytest.mark.parametrize("lo,hi", [(-1, 5), (5, 3), (0, 256)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            SubRange(lo, hi)


class TestRangeStats:
    def test_three_pixels(self):
        st_ = range_stats(hist_of([10, 20, 30]), *FULL)
        assert st_.count == 3
        assert st_.mean == 20.0
        assert math.isclose(st_.std, math.sqrt(200 / 3), rel_tol=1e-12)

    def test_constant(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[100] = 4096
        st_ = range_stats(Histogram(bins), *FULL)
        assert st_.count == 4096
        assert st_.mean == 100.0
        assert st_.std == 0.0

    def test_uniform_closed_form(self):
        st_ = range_stats(Histogram(np.ones(256, dtype=np.int64)), *FULL)
        assert st_.mean == 127.5
        # discrete uniform on 256 levels: var = (256^2 - 1) / 12
        assert math.isclose(st_.std, math.sqrt((256**2 - 1) / 12), rel_tol=1e-12)
        assert math.isclose(st_.std, 73.9000, abs_tol=5e-4)

    def test_empty_range_is_explicit(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[200] = 10
        st_ = range_stats(Histogram(bins), 0, 100)
        assert st_.empty
        assert st_.count == 0
        assert st_.mean is None
        assert st_.std is None

    @given(histograms(), subranges())
    def test_matches_pixel_scan_oracle(self, hist, r):
        expected_count = moments(list(hist.bins), r.lo, r.hi)[0]
        mean, std = mean_std(list(hist.bins), r.lo, r.hi)
        st_ = range_stats(hist, r.lo, r.hi)
        assert st_.count == expected_count
        if expected_count == 0:
            assert st_.mean is None and st_.std is None
        else:
            assert math.isclose(st_.mean, mean, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(st_.std, std, rel_tol=1e-12, abs_tol=1e-12)

    @given(histograms(), subranges())
    def test_bounds(self, hist, r):
        st_ = range_stats(hist, r.lo, r.hi)
        if not st_.empty:
            assert r.lo <= st_.mean <= r.hi
            assert st_.std >= 0.0

    @given(histograms(max_mass=1000), st.integers(min_value=-200, max_value=200))
    def test_shift_equivariance(self, hist, shift):
        support = np.nonzero(hist.bins)[0]
        if support.size == 0:
            return
        if support.min() + shift < 0 or support.max() + shift > 255:
            return
        shifted = np.zeros(256, dtype=np.int64)
        shifted[support + shift] = hist.bins[support]
        a = range_stats(hist, *FULL)
        b = range_stats(Histogram(shifted), *FULL)
        assert b.count == a.count
        assert math.isclose(b.mean, a.mean + shift, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(b.std, a.std, rel_tol=1e-9, abs_tol=1e-9)


def fit_value(hist, lo, hi):
    """The class value ``_class_fit`` gives in weighted-mean mode, None without pixels."""
    value, _, count = _class_fit(hist, lo, hi)
    return value if count else None


class TestWeightedMean:
    def test_hand_arithmetic(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0], bins[10] = 2, 1
        assert fit_value(Histogram(bins), 0, 10) == 3  # 10/3 rounds down

    @pytest.mark.parametrize("mass", [1, 7, 4096])
    def test_single_spike(self, mass):
        bins = np.zeros(256, dtype=np.int64)
        bins[42] = mass
        assert fit_value(Histogram(bins), *FULL) == 42

    def test_empty_range(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0] = 5
        assert fit_value(Histogram(bins), 100, 200) is None
        # with no mean to take, the class falls back to its midpoint
        assert _class_fit(Histogram(bins), 100, 200) == (150, 0, 0)

    def test_rounds_half_up(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0], bins[1] = 1, 1  # mean exactly 0.5
        assert fit_value(Histogram(bins), 0, 1) == 1

    @given(histograms(), subranges())
    def test_matches_multiset_oracle(self, hist, r):
        got = fit_value(hist, r.lo, r.hi)
        want = weighted_mean_int(list(hist.bins), r.lo, r.hi)
        assert got == want
        if got is not None:
            assert r.lo <= got <= r.hi


class TestSquaredError:
    @given(st.one_of(histograms(), sparse_histograms()), subranges(), st.data())
    def test_matches_brute_force_sum(self, hist, r, data):
        # a value inside the range, anywhere in [0, 255], or past either end
        value = data.draw(
            st.one_of(st.integers(r.lo, r.hi), st.integers(0, 255), st.integers(-300, 600))
        )
        want = sum(int(hist.bins[v]) * (v - value) ** 2 for v in range(r.lo, r.hi + 1))
        assert _class_fit(hist, r.lo, r.hi, value=value)[1] == want

    def test_extreme_masses_stay_exact(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0] = bins[255] = 2**40
        assert _class_fit(Histogram(bins), *FULL, value=0)[1] == 2**40 * 255**2
        assert _class_fit(Histogram(bins), 1, 254, value=7)[1] == 0


class TestMidpoint:
    @pytest.mark.parametrize(
        "lo,hi,expected", [(0, 255, 127), (10, 10, 10), (66, 88, 77)]
    )
    def test_examples(self, lo, hi, expected):
        assert _class_fit(Histogram(np.ones(256, dtype=np.int64)), lo, hi, True)[0] == expected


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (53.6, 54),
            (53.4, 53),
            (53.5, 54),
            (-0.5, 0),
            (-0.6, -1),
            (0.0, 0),
            (0.49999999999999994, 0),  # x + 0.5 rounds to 1.0
        ],
    )
    def test_examples(self, x, expected):
        assert round_half_up(x) == expected


@given(gray_images(), subranges())
def test_histogram_stats_equal_pixel_stats(img, r):
    """The histogram route must agree with scanning the raster directly."""
    hist = compute_histogram(img)
    inside = [int(p) for p in img.pixels if r.lo <= p <= r.hi]
    st_ = range_stats(hist, r.lo, r.hi)
    assert st_.count == len(inside)
    if inside:
        direct_mean = sum(inside) / len(inside)
        direct_var = sum((p - direct_mean) ** 2 for p in inside) / len(inside)
        assert math.isclose(st_.mean, direct_mean, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(st_.std, math.sqrt(direct_var), rel_tol=1e-9, abs_tol=1e-12)
