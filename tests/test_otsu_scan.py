"""The exhaustive Otsu table scan against independent and frozen references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvthresh import otsu
from mvthresh.image import Histogram, compute_histogram
from mvthresh.otsu import _REL_BAND, _exact_j, otsu_multilevel_exhaustive
from mvthresh.synthetic import film_grain, soft_blobs

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
    # mass rising toward 255: the best score climbs through 120 of the 253
    # k=3 blocks before it settles
    "late_maximum": [(v, v * v + 1) for v in range(256)],
    # three copies of one bump of 3e10-pixel steps, where splitting any one
    # scores the same; one more pixel at 46 makes (48, 101, 103) beat
    # (46, 48, 103) by 1.3e-17 of the score, while the float scan ranks the
    # first cut at 46, a block earlier, highest
    "near_tie_across_two_blocks": [
        (at + offset, mass * 30_000_000_000)
        for at in (45, 100, 150)
        for offset, mass in enumerate([7, 7, 2, 2])
    ] + [(46, 1)],
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


@pytest.mark.parametrize("generator", [soft_blobs, film_grain])
def test_k3_collects_only_from_blocks_in_the_final_band(generator, monkeypatch):
    """Only a block whose maximum reaches the final cutoff pays for collecting
    its near-ties: every tuple collected lies within the band of the optimum."""
    hist = compute_histogram(generator(512, seed=0))
    collected = []

    class RecordingNumpy:
        """numpy as ``otsu`` sees it, keeping the tuples each block collects."""

        def __getattr__(self, name):
            return getattr(np, name)

        def column_stack(self, arrays):
            tuples = np.column_stack(arrays)
            collected.append(tuples.tolist())
            return tuples

    monkeypatch.setattr(otsu, "np", RecordingNumpy())
    result = otsu_multilevel_exhaustive(hist, 3)
    monkeypatch.undo()

    floor = _exact_j(hist, result.thresholds) * (1 - 2 * _REL_BAND)
    assert collected
    for tuples in collected:
        assert all(_exact_j(hist, tuple(ts)) >= floor for ts in tuples), tuples


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
