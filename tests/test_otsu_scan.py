"""The exhaustive Otsu table scan against independent and frozen references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvthresh.image import Histogram, compute_histogram
from mvthresh.otsu import otsu_multilevel_exhaustive

from conftest import histograms, sparse_histograms
from helpers import spikes
from oracles import brute_force_otsu, scan_blocks_otsu

# a single spike ties on every one of the ~2.7 million three-cut tuples;
# a few spikes leave plateaus of hundreds of thousands
PLATEAUS = {
    "spike_at_0": [(0, 100)],
    "spike_at_255": [(255, 7)],
    "spike_mid": [(128, 5)],
    "two_spikes_at_the_ends": [(0, 50), (255, 50)],
    "four_spikes_with_ends": [(0, 3), (100, 4), (200, 5), (255, 6)],
    "four_adjacent_spikes": [(10, 1), (11, 1), (12, 1), (13, 1)],
    "four_adjacent_spikes_at_the_top": [(252, 2), (253, 1), (254, 1), (255, 2)],
}


def assert_same_as_frozen_scan(hist, k):
    result = otsu_multilevel_exhaustive(hist, k)
    thresholds, criterion = scan_blocks_otsu(list(hist.bins), k)
    assert result.thresholds == thresholds
    assert result.criterion == float(criterion)


@given(sparse_histograms(), st.sampled_from([1, 2]))
@settings(max_examples=12)
def test_k1_k2_match_brute_force(hist, k):
    assert otsu_multilevel_exhaustive(hist, k).thresholds == brute_force_otsu(list(hist.bins), k)


@given(histograms(min_total=1))
@settings(max_examples=3)
def test_k3_matches_frozen_scan_on_full_histograms(hist):
    assert_same_as_frozen_scan(hist, 3)


@given(sparse_histograms(max_support=6))
@settings(max_examples=3)
def test_k3_matches_frozen_scan_on_sparse_histograms(hist):
    assert_same_as_frozen_scan(hist, 3)


@pytest.mark.parametrize("seed", [0, 26])
def test_mirror_symmetric_histograms_match_brute_force(seed):
    """Mirrored tuples tie exactly; these two need the band to find the first."""
    rng = np.random.default_rng(seed)
    half = rng.integers(0, 5000, size=128) * (rng.random(128) < 0.3)
    bins = np.concatenate([half, half[::-1]])
    result = otsu_multilevel_exhaustive(Histogram(bins), 2)
    assert result.thresholds == brute_force_otsu(list(bins), 2)


@pytest.mark.parametrize("name", sorted(PLATEAUS))
def test_plateaus_match_frozen_scan(name):
    hist = spikes(*PLATEAUS[name])
    assert_same_as_frozen_scan(hist, 3)
    assert_same_as_frozen_scan(hist, 2)


@pytest.mark.parametrize("seed", range(5))
def test_k1_k2_match_brute_force_past_exact_float_sums(seed):
    """Near the int64 cap the intensity sum passes 2^53, so the table's float
    class sums round; the band still holds every tuple tied with the optimum."""
    rng = np.random.default_rng(seed)
    support = rng.choice(256, size=rng.integers(2, 13), replace=False)
    share = rng.random(support.size)
    bins = np.zeros(256, dtype=np.int64)
    bins[support] = share / share.sum() * ((2**63 - 1) // 255**2)  # a total just under the cap
    hist = Histogram(bins)
    assert hist.moments[1][-1] > 2**53
    for k in (1, 2):
        assert otsu_multilevel_exhaustive(hist, k).thresholds == brute_force_otsu(list(bins), k)


def scan_peak(source, k, large_image):
    """Traced peak, in bytes, of the k-threshold scan over ``source``."""
    if source == "large_image":
        hist = compute_histogram(large_image)
    else:
        hist = spikes(*PLATEAUS[source])
    tracemalloc.start()
    try:
        otsu_multilevel_exhaustive(hist, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", ["large_image", "spike_mid"])
def test_k3_working_memory_is_bounded(source, large_image):
    """Two 256x256 float64 tables and the live blocks stay under 4 MiB."""
    assert scan_peak(source, 3, large_image) < 4 * 2**20


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("source", ["large_image", "spike_mid"])
def test_k1_k2_working_memory_is_bounded(source, k, large_image):
    """No k keeps the count grid alive through its scan: the same 4 MiB bound."""
    assert scan_peak(source, k, large_image) < 4 * 2**20
