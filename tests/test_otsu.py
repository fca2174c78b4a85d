import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvthresh.image import Histogram
from mvthresh.otsu import (
    OtsuResult,
    between_class_variance,
    otsu_bilevel,
    otsu_multilevel_exhaustive,
)

from conftest import histograms, sparse_histograms
from helpers import spikes
from oracles import bcv_fraction, brute_force_otsu


class TestBetweenClassVariance:
    def test_no_thresholds_single_class(self):
        assert between_class_variance(spikes((10, 3), (200, 9)), ()) == 0.0

    def test_two_point_mass(self):
        hist = spikes((0, 500), (255, 500))
        assert between_class_variance(hist, (0,)) == pytest.approx(127.5**2)

    def test_empty_histogram(self):
        assert between_class_variance(Histogram(np.zeros(256, dtype=np.int64)), (7,)) == 0.0

    @pytest.mark.parametrize("bad", [(255,), (-1,), (9, 9), (9, 5), (100.5,)])
    def test_rejects_bad_thresholds(self, bad):
        with pytest.raises(ValueError):
            between_class_variance(spikes((1, 1)), bad)

    @given(histograms(), st.lists(st.integers(0, 254), min_size=0, max_size=4, unique=True))
    def test_matches_per_class_oracle(self, hist, raw):
        thresholds = tuple(sorted(raw))
        got = between_class_variance(hist, thresholds)
        assert got == float(bcv_fraction(list(hist.bins), thresholds))


class TestBilevel:
    def test_plateau_tie_breaks_low(self):
        # every cut between the spikes is optimal; the smallest wins
        result = otsu_bilevel(spikes((50, 500), (200, 500)))
        assert result.thresholds == (50,)
        assert result.criterion == pytest.approx(75.0**2)

    def test_single_spike_zero_criterion(self):
        result = otsu_bilevel(spikes((123, 999)))
        assert result.thresholds == (0,)
        assert result.criterion == 0.0

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            otsu_bilevel(Histogram(np.zeros(256, dtype=np.int64)))

    def test_matches_brute_force_batch(self):
        rnd = random.Random(77)
        for _ in range(60):
            bins = np.zeros(256, dtype=np.int64)
            for v in rnd.sample(range(256), rnd.randint(1, 24)):
                bins[v] = rnd.randint(1, 5000)
            hist = Histogram(bins)
            assert otsu_bilevel(hist).thresholds == brute_force_otsu(list(bins), 1)

    @given(sparse_histograms())
    @settings(max_examples=40)
    def test_matches_brute_force_property(self, hist):
        assert otsu_bilevel(hist).thresholds == brute_force_otsu(list(hist.bins), 1)

    @given(histograms(min_total=1))
    @settings(max_examples=25)
    def test_criterion_is_the_achieved_variance(self, hist):
        result = otsu_bilevel(hist)
        assert result.criterion == between_class_variance(hist, result.thresholds)


class TestMultilevel:
    def test_k1_equals_bilevel(self):
        hist = spikes((20, 100), (80, 300), (220, 50))
        assert otsu_multilevel_exhaustive(hist, 1) == otsu_bilevel(hist)

    def test_three_spikes_fully_separated(self):
        hist = spikes((30, 300), (120, 300), (210, 300))
        result = otsu_multilevel_exhaustive(hist, 2)
        assert result.thresholds == (30, 120)

    def test_matches_brute_force_on_16_bin_support(self):
        rnd = random.Random(321)
        for _ in range(3):
            bins = np.zeros(256, dtype=np.int64)
            for v in rnd.sample(range(256), 16):
                bins[v] = rnd.randint(1, 4000)
            hist = Histogram(bins)
            assert otsu_multilevel_exhaustive(hist, 2).thresholds == brute_force_otsu(
                list(bins), 2
            )

    def test_k3_on_tiny_support_separates_spikes(self):
        hist = spikes((10, 100), (90, 100), (170, 100), (250, 100))
        result = otsu_multilevel_exhaustive(hist, 3)
        assert result.thresholds == (10, 90, 170)

    @pytest.mark.parametrize("k", [0, 4, -1, 1.9, 2.0, "2"])
    def test_rejects_out_of_range_k(self, k):
        with pytest.raises(ValueError):
            otsu_multilevel_exhaustive(spikes((5, 5)), k)

    def test_deterministic(self):
        hist = spikes((40, 7), (41, 7), (200, 7), (201, 7))
        first = otsu_multilevel_exhaustive(hist, 2)
        again = otsu_multilevel_exhaustive(hist, 2)
        assert first == again

    @given(sparse_histograms(max_support=8))
    @settings(max_examples=15)
    def test_optimality_against_sampled_candidates(self, hist):
        result = otsu_multilevel_exhaustive(hist, 2)
        rnd = random.Random(9)
        for _ in range(50):
            t1 = rnd.randrange(0, 254)
            t2 = rnd.randrange(t1 + 1, 255)
            other = between_class_variance(hist, (t1, t2))
            assert result.criterion >= other - 1e-6


class TestOtsuResult:
    def test_rejects_threshold_255(self):
        with pytest.raises(ValueError):
            OtsuResult(thresholds=(255,), criterion=1.0)

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            OtsuResult(thresholds=(9, 3), criterion=1.0)

    def test_rejects_negative_criterion(self):
        with pytest.raises(ValueError):
            OtsuResult(thresholds=(9,), criterion=-0.5)

    def test_rejects_nan_criterion(self):
        with pytest.raises(ValueError, match="got nan"):
            OtsuResult(thresholds=(3, 7), criterion=math.nan)
