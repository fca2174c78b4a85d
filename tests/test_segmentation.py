import json
import math
import random
import tracemalloc
from dataclasses import replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvthresh.image as image_module
import mvthresh.quality as quality_module
import mvthresh.segmentation as seg_module
from mvthresh.image import GrayImage, Histogram, compute_histogram
from mvthresh.quality import mse, psnr
from mvthresh.segmentation import (
    Replacement,
    SegmentationParams,
    SegmentationResult,
    apply_mapping,
    auto_select_n,
    class_error,
    segment,
    segment_image,
    step_thresholds,
)
from mvthresh.segmentation import SubRange, range_stats

from conftest import gray_images, histograms, sparse_histograms
from helpers import assert_valid_partition, spikes
from oracles import reference_segment, weighted_mean_int

kappas = st.one_of(st.floats(min_value=0.05, max_value=5.0), st.just(1e308))


def result_classes(result):
    return [(iv.lo, iv.hi, value) for iv, value in result.classes]


class TestParams:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 8, 3.0, 3.5, "3", None])
    def test_rejects_non_odd_levels(self, n):
        with pytest.raises(ValueError):
            SegmentationParams(n=n)

    def test_integer_count_is_stored_as_int(self):
        params = SegmentationParams(n=np.int64(5))
        assert type(params.n) is int and params.n == 5
        assert json.loads(json.dumps(params.to_dict()))["levels"] == 5

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            SegmentationParams(n=3, kappa_schedule=())

    def test_rejects_non_positive_kappa(self):
        with pytest.raises(ValueError):
            SegmentationParams(n=3, kappa_schedule=((1.0, 0.0),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_kappa(self, bad):
        with pytest.raises(ValueError):
            SegmentationParams(n=3, kappa_schedule=((bad, 1.0),))

    def test_last_schedule_entry_reused(self):
        params = SegmentationParams(n=9, kappa_schedule=((1.0, 2.0), (0.5, 0.5)))
        assert params.kappa_for(0) == (1.0, 2.0)
        assert params.kappa_for(1) == (0.5, 0.5)
        assert params.kappa_for(3) == (0.5, 0.5)

    def test_passes(self):
        assert SegmentationParams(n=9).passes == 4

    def test_dict_round_trip(self):
        params = SegmentationParams(
            n=5, kappa_schedule=((1.0, 1.5),), replacement=Replacement.MIDPOINT
        )
        payload = {"levels": 5, "kappa_schedule": [[1.0, 1.5]], "replacement": "midpoint"}
        assert params.to_dict() == payload
        assert json.loads(json.dumps(params.to_dict())) == payload

    def test_replacement_named_by_its_value(self):
        hist = Histogram(np.arange(256, dtype=np.int64))
        by_name = SegmentationParams(n=5, replacement="midpoint")
        assert by_name == SegmentationParams(n=5, replacement=Replacement.MIDPOINT)
        assert segment(hist, by_name) != segment(hist, SegmentationParams(n=5))
        assert by_name.to_dict()["replacement"] == "midpoint"
        with pytest.raises(ValueError, match="'nonsense'"):
            SegmentationParams(n=5, replacement="nonsense")


class TestStepThresholds:
    def test_uniform_full_range(self):
        hist = Histogram(np.ones(256, dtype=np.int64))
        stats = range_stats(hist, 0, 255)
        assert step_thresholds(stats, 0, 255, 1.0, 1.0) == (54, 201)

    def test_zero_variance_is_degenerate(self):
        stats = range_stats(spikes((100, 64)), 0, 255)
        assert stats.std == 0.0
        assert step_thresholds(stats, 0, 255, 1.0, 1.0) is None
        assert step_thresholds(stats, 0, 255, 10.0, 10.0) is None

    def test_empty_stats_degenerate(self):
        stats = range_stats(spikes((200, 5)), 0, 100)
        assert step_thresholds(stats, 0, 100, 1.0, 1.0) is None

    def test_cuts_clamped_into_range(self):
        hist = spikes((0, 100), (255, 100))
        stats = range_stats(hist, 0, 255)
        t1, t2 = step_thresholds(stats, 0, 255, 2.0, 2.0)
        assert (t1, t2) == (0, 255)

    def test_asymmetric_kappa(self):
        # uniform histogram: mu=127.5, sigma=73.9003
        hist = Histogram(np.ones(256, dtype=np.int64))
        stats = range_stats(hist, 0, 255)
        assert step_thresholds(stats, 0, 255, 0.5, 1.5) == (91, 238)

    def test_huge_kappa_clamps_to_range_ends(self):
        hist = Histogram(np.ones(256, dtype=np.int64))
        stats = range_stats(hist, 0, 255)
        assert step_thresholds(stats, 0, 255, 1e308, 1e308) == (0, 255)


class TestSegment:
    def test_constant_image_degenerates_to_single_threshold(self):
        hist = compute_histogram(GrayImage(8, 8, np.full(64, 100)))
        result = segment(hist, SegmentationParams(n=3))
        assert result.thresholds == (100,)
        assert result.effective_n == 1
        assert np.all(result.lut == 100)  # everything maps to the mean
        assert_valid_partition(result, requested_n=3)

    def test_two_spike_bimodal(self):
        hist = spikes((60, 500), (190, 500))
        result = segment(hist, SegmentationParams(n=3))
        thresholds, classes = reference_segment(list(hist.bins), 3)
        assert list(result.thresholds) == thresholds
        assert result_classes(result) == classes
        # spikes map exactly to themselves: perfect reconstruction
        assert result.lut[60] == 60 and result.lut[190] == 190

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            segment(Histogram(np.zeros(256, dtype=np.int64)), SegmentationParams(n=3))

    def test_cut_just_below_a_half_rounds_down(self):
        """mu - k1*sigma is 0.49999999999999994 here: the lower cut is 0, not 1."""
        params = SegmentationParams(n=3, kappa_schedule=((0.044142130247795903, 1.0),))
        result = segment(spikes((0, 429), (35, 9)), params)
        assert result.thresholds == (0, 3, 6)
        assert result.classes[0] == (SubRange(0, 0), 0)

    def test_requested_count_reached_on_rich_histogram(self):
        rng = np.random.default_rng(5)
        bins = rng.integers(50, 500, size=256).astype(np.int64)
        for n in (3, 5, 7, 9):
            result = segment(Histogram(bins), SegmentationParams(n=n))
            assert result.effective_n == n
            assert_valid_partition(result, requested_n=n)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize(
        "schedule", [((1.0, 1.0),), ((0.8, 1.3),), ((1.0, 1.0), (0.6, 0.6), (1.2, 0.9))]
    )
    def test_matches_reference_on_random_histograms(self, n, schedule):
        rnd = random.Random(1234 + n)
        for _ in range(40):
            bins = np.zeros(256, dtype=np.int64)
            support = rnd.sample(range(256), rnd.randint(1, 40))
            for v in support:
                bins[v] = rnd.randint(1, 10_000)
            hist = Histogram(bins)
            for mode in (Replacement.WEIGHTED_MEAN, Replacement.MIDPOINT):
                result = segment(
                    hist,
                    SegmentationParams(n=n, kappa_schedule=schedule, replacement=mode),
                )
                thresholds, classes = reference_segment(
                    list(bins), n, schedule, mode.value
                )
                assert list(result.thresholds) == thresholds
                assert result_classes(result) == classes

    @given(
        histograms(min_total=1),
        st.sampled_from([3, 5, 7, 9, 11, 13, 15]),
        st.lists(st.tuples(kappas, kappas), min_size=1, max_size=3),
        st.sampled_from(list(Replacement)),
    )
    def test_partition_invariants(self, hist, n, schedule, mode):
        """Building the result also checks that each class but the last ends at a cut."""
        params = SegmentationParams(n=n, kappa_schedule=tuple(schedule), replacement=mode)
        assert_valid_partition(segment(hist, params), requested_n=n)

    @given(sparse_histograms(), st.sampled_from([3, 5, 7, 9, 11]))
    def test_partition_invariants_sparse(self, hist, n):
        result = segment(hist, SegmentationParams(n=n))
        assert_valid_partition(result, requested_n=n)

    @given(histograms(min_total=1))
    def test_prefix_stability_across_requested_counts(self, hist):
        """With a constant kappa schedule, pass k's cuts do not depend on n."""
        results = {n: segment(hist, SegmentationParams(n=n)) for n in (3, 5, 7, 9)}
        for small, big in [(3, 5), (5, 7), (7, 9), (3, 9)]:
            a, b = results[small], results[big]
            pairs_a = (a.effective_n - 1) // 2
            pairs_b = (b.effective_n - 1) // 2
            shared = min(pairs_a, pairs_b)
            assert a.thresholds[:shared] == b.thresholds[:shared]
            if shared:
                assert a.thresholds[-shared:] == b.thresholds[-shared:]
            # a shorter effective run must mean the smaller request hit its
            # pass budget, not an earlier degeneracy
            if pairs_a < pairs_b:
                assert pairs_a == (small - 1) // 2


class TestApplyMapping:
    def test_identity_lut(self):
        img = GrayImage(4, 2, np.arange(8, dtype=np.uint8) * 30)
        classes = tuple(
            (SubRange(v, v), v) for v in range(256)
        )
        result = SegmentationResult(thresholds=tuple(range(255)), classes=classes, squared_error=0)
        assert apply_mapping(img, result) == img

    def test_constant_lut(self):
        img = GrayImage(3, 3, np.arange(9, dtype=np.uint8))
        result = SegmentationResult(
            thresholds=(0,), classes=((SubRange(0, 255), 0),), squared_error=0
        )
        out = apply_mapping(img, result)
        assert set(out.pixels.tolist()) == {0}

    def test_dimensions_preserved(self):
        img = GrayImage(5, 3, np.zeros(15, dtype=np.uint8))
        result = segment(compute_histogram(img), SegmentationParams(n=3))
        out = apply_mapping(img, result)
        assert (out.width, out.height) == (5, 3)

    @given(gray_images(), st.sampled_from([3, 5, 7, 9]))
    def test_output_alphabet_bounded(self, img, n):
        result, out = segment_image(img, SegmentationParams(n=n))
        assert len(set(out.pixels.tolist())) <= n + 1

    def test_output_is_its_only_copy(self):
        """The image keeps the mapped raster itself, which the fixed-size pair
        table and block temporaries add well under a quarter to at 2048x2048."""
        img = GrayImage(2048, 2048, np.random.default_rng(9).integers(0, 256, 1 << 22))
        result = segment(compute_histogram(img), SegmentationParams(n=5))
        tracemalloc.start()
        try:
            out = apply_mapping(img, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * img.pixels.size
        assert not out.pixels.flags.writeable
        assert not np.shares_memory(out.pixels, img.pixels)
        assert np.array_equal(out.pixels, result.lut[img.pixels])


_CUTOFF = 4 * image_module._PAIR_BLOCK  # the pixels in two full blocks
_SWITCH = 2 * 256 * 256  # the fewest pixels the histogram counts in pairs: a pair per table entry


@st.composite
def lookup_results(draw):
    """A result with random cuts and a random value inside each class."""
    cuts = sorted(draw(st.sets(st.integers(0, 254), min_size=1, max_size=16)))
    bounds = [-1] + cuts + [255]
    classes = tuple(
        (SubRange(lo + 1, hi), draw(st.integers(lo + 1, hi)))
        for lo, hi in zip(bounds, bounds[1:])
    )
    return SegmentationResult(thresholds=tuple(cuts), classes=classes, squared_error=0)


class TestPairPasses:
    """The byte-pair passes must count and map like the one-byte code, across block edges."""

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), result=lookup_results())
    @pytest.mark.parametrize("fill", ["random", "zeros", "full"])
    @pytest.mark.parametrize(
        "size",
        [1, 2, 3, _SWITCH - 1, _SWITCH, _SWITCH + 1,
         _CUTOFF - 2, _CUTOFF - 1, _CUTOFF, _CUTOFF + 1, _CUTOFF + 2, _CUTOFF + 2001],
    )
    def test_match_the_one_byte_passes(self, size, fill, seed, result):
        # all-0 and all-255 rasters fill only pair bins 0 and 65535
        pixels = {
            "random": lambda: np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8),
            "zeros": lambda: np.zeros(size, dtype=np.uint8),
            "full": lambda: np.full(size, 255, dtype=np.uint8),
        }[fill]()
        img = GrayImage(size, 1, pixels)
        assert np.array_equal(compute_histogram(img).bins, np.bincount(pixels, minlength=256))
        assert np.array_equal(apply_mapping(img, result).pixels, result.lut[pixels])

    @pytest.mark.parametrize(
        "size, paired", [(1, False), (_SWITCH - 1, False), (_SWITCH, True), (_SWITCH + 1, True)]
    )
    def test_histogram_counts_in_pairs_only_from_the_switch(self, monkeypatch, size, paired):
        """Below a pair per pair-table entry, filling the table costs more than the count."""
        calls, real = [], image_module._pair_blocks
        monkeypatch.setattr(image_module, "_pair_blocks", lambda p: calls.append(p.size) or real(p))
        compute_histogram(GrayImage(size, 1, np.zeros(size, dtype=np.uint8)))
        assert calls == ([size] if paired else [])

    @given(lookup_results())
    def test_pair_table_maps_both_native_bytes(self, result):
        table = image_module._pair_table(result.lut)
        native = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
        assert np.array_equal(table.view(np.uint8).reshape(-1, 2), result.lut[native])


class TestSegmentationResult:
    def test_rejects_gapped_classes(self):
        with pytest.raises(ValueError):
            SegmentationResult(
                thresholds=(100,),
                classes=((SubRange(0, 99), 50), (SubRange(101, 255), 200)),
                squared_error=0,
            )

    def test_rejects_replacement_outside_interval(self):
        with pytest.raises(ValueError):
            SegmentationResult(
                thresholds=(100,),
                classes=((SubRange(0, 100), 101), (SubRange(101, 255), 200)),
                squared_error=0,
            )

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError):
            SegmentationResult(
                thresholds=(100, 100),
                classes=((SubRange(0, 255), 10),),
                squared_error=0,
            )

    @pytest.mark.parametrize(
        "thresholds, classes, error, message",
        [
            ((), ((SubRange(0, 255), 10),), 0, "thresholds and classes must be non-empty"),
            ((256,), ((SubRange(0, 255), 10),), 0, r"threshold 256 outside \[0, 255\]"),
            ((100,), ((SubRange(0, 100), 50), (SubRange(101, 200), 150)), 0,
             r"classes must cover \[0, 255\] completely"),
            ((127.5,), ((SubRange(0, 127), 3), (SubRange(128, 255), 200)), 0,
             r"threshold must be an integer, got 127\.5"),
            ((127,), ((SubRange(0, 127), 3.7), (SubRange(128, 255), 200)), 0,
             r"class value must be an integer, got 3\.7"),
            ((127,), ((SubRange(0, 127), 3), (SubRange(128, 255), 200)), 1.0,
             r"squared error must be an integer, got 1\.0"),
            ((127,), ((SubRange(0, 127), 3), (SubRange(128, 255), 200)), -1,
             "squared error must be >= 0, got -1"),
            ((128,), tuple((SubRange(v, v), v) for v in range(256)), 0,
             "256 classes for 1 thresholds"),
            ((10, 200), ((SubRange(0, 99), 50), (SubRange(100, 255), 200)), 0,
             r"class SubRange\(lo=0, hi=99\) ends neither at a threshold nor one below one"),
        ],
        ids=["empty", "threshold-256", "short-classes", "float-threshold", "float-value",
             "float-error", "negative-error", "class-count", "class-end"],
    )
    def test_rejects_each_bad_part_with_its_message(self, thresholds, classes, error, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SegmentationResult(thresholds=thresholds, classes=classes, squared_error=error)

    def test_integer_parts_are_stored_as_int(self):
        result = SegmentationResult(
            thresholds=(np.int64(127),),
            classes=((SubRange(0, 127), np.uint8(3)), (SubRange(128, 255), 200)),
            squared_error=np.int64(5),
        )
        parts = (*result.thresholds, *(value for _, value in result.classes), result.squared_error)
        assert all(type(part) is int for part in parts)

    def test_equal_only_with_the_same_error(self):
        classes = ((SubRange(0, 255), 10),)
        result = SegmentationResult(thresholds=(10,), classes=classes, squared_error=0)
        assert result == SegmentationResult(thresholds=(10,), classes=classes, squared_error=0)
        assert result != SegmentationResult(thresholds=(10,), classes=classes, squared_error=1)

    def test_value_objects_are_unhashable(self):
        """Each compares by value and defines no hash, so none can key a dict or join a set."""
        img = GrayImage(2, 2, [0, 1, 2, 3])
        hist = compute_histogram(img)
        for value in (img, hist, segment(hist, SegmentationParams(n=3))):
            with pytest.raises(TypeError):
                hash(value)
            assert value != "x"
            assert value.__eq__(object()) is NotImplemented


class TestMeanOptimality:
    @given(gray_images(), st.sampled_from([3, 5, 7]))
    def test_weighted_mean_beats_midpoint(self, img, n):
        _, by_mean = segment_image(
            img, SegmentationParams(n=n, replacement=Replacement.WEIGHTED_MEAN)
        )
        _, by_mid = segment_image(
            img, SegmentationParams(n=n, replacement=Replacement.MIDPOINT)
        )
        assert mse(img, by_mean) <= mse(img, by_mid)


class TestAutoSelect:
    def test_constant_image_saturates_immediately(self):
        img = GrayImage(16, 16, np.full(256, 77))
        chosen, sweep = auto_select_n(img, SegmentationParams(n=3), 0.3, 9)
        assert chosen == 3
        assert len(sweep) == 1
        assert math.isinf(sweep[0].psnr_db)

    def test_large_epsilon_stops_at_three(self, natural_images):
        img = natural_images["gradient_sky"]
        chosen, sweep = auto_select_n(img, SegmentationParams(n=3), 1e6, 9)
        assert chosen == 3
        assert [p.n for p in sweep] == [3, 5]

    def test_tiny_epsilon_runs_to_n_max(self, natural_images):
        img = natural_images["soft_blobs"]
        chosen, sweep = auto_select_n(img, SegmentationParams(n=3), 1e-12, 11)
        assert chosen == 11
        assert [p.n for p in sweep] == [3, 5, 7, 9, 11]

    def test_sweep_matches_direct_evaluation(self, natural_images):
        img = natural_images["vignette"]
        _, sweep = auto_select_n(img, SegmentationParams(n=3), 0.3, 9)
        for point in sweep:
            _, out = segment_image(img, SegmentationParams(n=point.n))
            assert point.psnr_db == psnr(img, out)

    def test_one_pixel_pass_per_sweep(self, natural_images, monkeypatch):
        calls = {"compute_histogram": 0, "apply_mapping": 0, "mse": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(seg_module, "compute_histogram")
        counting(seg_module, "apply_mapping")
        counting(quality_module, "mse")
        _, sweep = auto_select_n(
            natural_images["soft_blobs"], SegmentationParams(n=3), 1e-12, 15
        )
        assert len(sweep) > 1
        assert calls == {"compute_histogram": 1, "apply_mapping": 0, "mse": 0}

    def test_each_pass_runs_once_per_sweep(self, natural_images, monkeypatch):
        """Pass k is shared by every n that needs it, not redone for each."""
        calls = []
        real = seg_module.range_stats
        monkeypatch.setattr(
            seg_module, "range_stats", lambda h, lo, hi: calls.append((lo, hi)) or real(h, lo, hi)
        )
        _, sweep = auto_select_n(
            natural_images["soft_blobs"], SegmentationParams(n=3), 1e-12, 15
        )
        assert len(sweep) > 1
        assert len(calls) <= (15 - 1) // 2

    def test_one_moment_read_per_class(self, natural_images, monkeypatch):
        """Each class a sweep row or ``segment`` produces costs one moment read.

        On top of those, each pass reads its residual's statistics, and each
        row (or ``segment``) reads the residual's mean, where the middle split goes.
        """
        reads = {"range_stats": 0, "_class_fit": 0}

        def counting(name):
            real = getattr(seg_module, name)

            def wrapper(*args, **kwargs):
                reads[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(seg_module, name, wrapper)

        img = natural_images["soft_blobs"]
        hist = compute_histogram(img)
        counting("range_stats")
        counting("_class_fit")
        _, sweep = auto_select_n(img, SegmentationParams(n=3), 1e-12, 15)
        sweep_reads = dict(reads)
        reads.update(range_stats=0, _class_fit=0)
        result = segment(hist, SegmentationParams(n=15))
        segment_reads = dict(reads)
        monkeypatch.undo()

        assert len(sweep) > 1
        # a result with n thresholds froze (n - 1) / 2 pairs of classes
        rows = [segment(hist, SegmentationParams(n=p.n)) for p in sweep]
        frozen = [len(row.thresholds) - 1 for row in rows]
        middle = [len(row.classes) - f for row, f in zip(rows, frozen)]
        assert sweep_reads["range_stats"] <= 7
        assert sweep_reads["_class_fit"] <= frozen[-1] + sum(1 + m for m in middle)
        assert segment_reads["range_stats"] <= 7
        assert segment_reads["_class_fit"] <= len(result.classes) + 1

    def test_rows_need_no_result_and_no_lookup_table(self, natural_images, monkeypatch):
        """Each row is scored from the moment table alone."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep row built a SegmentationResult")

        monkeypatch.setattr(SegmentationResult, "__post_init__", forbidden)
        for name, epsilon in (("soft_blobs", 1e-12), ("gradient_sky", 0.3)):
            _, sweep = auto_select_n(natural_images[name], SegmentationParams(n=3), epsilon, 15)
            assert len(sweep) > 1, name
        img = GrayImage(16, 16, np.full(256, 77))  # an exact reconstruction at once
        assert auto_select_n(img, SegmentationParams(n=3), 0.3, 9)[0] == 3

    def test_moment_table_is_built_before_any_row_is_timed(
        self, natural_images, monkeypatch
    ):
        """Work the whole sweep shares is counted in no row's elapsed_ms."""
        events = []

        class SpyHistogram(Histogram):
            @cached_property
            def moments(self):
                events.append("moments")
                return Histogram.moments.func(self)

        def clock():
            events.append("clock")
            return 0.0

        monkeypatch.setattr(
            seg_module, "compute_histogram", lambda img: SpyHistogram(compute_histogram(img).bins)
        )
        monkeypatch.setattr(seg_module, "time", SimpleNamespace(perf_counter=clock))
        _, sweep = auto_select_n(
            natural_images["soft_blobs"], SegmentationParams(n=3), 1e-12, 15
        )
        assert len(sweep) > 1
        assert events.count("moments") == 1
        assert events.index("moments") < events.index("clock")

    @given(
        gray_images(),
        st.lists(st.tuples(kappas, kappas), min_size=1, max_size=4),
        st.sampled_from(list(Replacement)),
        st.sampled_from([1e-6, 0.3, 2.0]),
        st.sampled_from([3, 5, 9, 15]),
    )
    def test_sweep_rows_match_segment(self, img, schedule, mode, epsilon, n_max):
        base = SegmentationParams(n=3, kappa_schedule=tuple(schedule), replacement=mode)
        chosen, sweep = auto_select_n(img, base, epsilon, n_max)
        hist = compute_histogram(img)
        assert [p.n for p in sweep] == list(range(3, 2 * len(sweep) + 2, 2))
        for point in sweep:
            result = segment(hist, replace(base, n=point.n))
            assert point.psnr_db == psnr(img, apply_mapping(img, result))
        # the sweep ends at the first saturation, and only there
        values = [p.psnr_db for p in sweep]
        gains = [b - a for a, b in zip(values, values[1:])]
        assert not any(math.isinf(v) for v in values[:-1])
        assert all(gain >= epsilon for gain in gains[:-1])
        if math.isinf(values[-1]):
            assert chosen == sweep[-1].n
        elif gains and gains[-1] < epsilon:
            assert chosen == sweep[-2].n
        else:
            assert chosen == sweep[-1].n == n_max

    def test_bad_epsilon_rejected(self):
        img = GrayImage(2, 2, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            auto_select_n(img, SegmentationParams(n=3), 0.0, 9)
        with pytest.raises(ValueError):
            auto_select_n(img, SegmentationParams(n=3), 0.5, 8)

    def test_n_max_must_be_an_integer(self):
        img = GrayImage(2, 2, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="must be an integer"):
            auto_select_n(img, SegmentationParams(n=3), 1e-12, 7.0)
        chosen, sweep = auto_select_n(img, SegmentationParams(n=3), 1e-12, np.int64(7))
        want, rows = auto_select_n(img, SegmentationParams(n=3), 1e-12, 7)
        assert type(chosen) is int and chosen == want
        assert [p.psnr_db for p in sweep] == [p.psnr_db for p in rows]


class TestClassRecords:
    """Every ``(lo, hi, value, error)`` record agrees with brute-force sums over its bins."""

    @staticmethod
    def check(hist, mode, records):
        for lo, hi, value, error in records:
            mean = weighted_mean_int(list(hist.bins), lo, hi)
            use_midpoint = mode is Replacement.MIDPOINT or mean is None
            assert value == ((lo + hi) // 2 if use_midpoint else mean)
            assert error == sum(int(hist.bins[v]) * (v - value) ** 2 for v in range(lo, hi + 1))

    @given(
        st.one_of(histograms(), sparse_histograms()),
        st.lists(st.tuples(kappas, kappas), min_size=1, max_size=3),
        st.sampled_from(list(Replacement)),
        st.sampled_from([3, 5, 9, 15]),
    )
    @example(Histogram(np.r_[2**40, np.zeros(254, np.int64), 2**40]), [(1.0, 1.0)],
             Replacement.WEIGHTED_MEAN, 5)
    @example(Histogram(np.zeros(256, np.int64)), [(1.0, 1.0)], Replacement.MIDPOINT, 3)
    def test_records_match_public_formulas(self, hist, schedule, mode, n):
        params = SegmentationParams(n=n, kappa_schedule=tuple(schedule), replacement=mode)
        for lo, hi, lower, upper, frozen in seg_module._passes(hist, params):
            self.check(hist, mode, lower + upper)
            pairs = [(SubRange(lo, hi), value) for lo, hi, value, _ in lower + upper]
            assert frozen == class_error(hist, pairs)
            split, middle = seg_module._middle(hist, lo, hi, mode is Replacement.MIDPOINT)
            self.check(hist, mode, middle)
            assert middle[0][0] == lo and middle[-1][1] == hi
            assert len(middle) == 1 or middle[0][1] == split

    def test_only_result_classes_build_a_subrange(self, natural_images, monkeypatch):
        """Passes and rows name classes by integer bounds; ``segment`` builds one per class."""
        built = []
        real = SubRange.__post_init__
        monkeypatch.setattr(SubRange, "__post_init__", lambda r: built.append(r) or real(r))
        img = natural_images["soft_blobs"]
        _, sweep = auto_select_n(img, SegmentationParams(n=3), 1e-12, 15)
        assert len(sweep) > 1 and built == []
        result = segment(compute_histogram(img), SegmentationParams(n=15))
        assert len(built) == len(result.classes)


class TestComplexity:
    def test_pixel_count_dominates_runtime(self, large_image):
        """Quadrupling the raster should cost clearly more than extra passes."""
        from mvthresh.quality import median_elapsed_ms

        big = large_image
        small = GrayImage.from_array(big.as_array()[::2, ::2])
        params = SegmentationParams(n=7)
        _, small_ms = median_elapsed_ms(segment_image, small, params, runs=10)
        _, big_ms = median_elapsed_ms(segment_image, big, params, runs=10)
        assert small_ms < big_ms

    def test_stats_work_independent_of_pixel_count(self, monkeypatch):
        """Per-pass work is histogram-sized: more pixels, same evaluations."""
        calls = []
        real = seg_module.range_stats
        monkeypatch.setattr(
            seg_module,
            "range_stats",
            lambda h, lo, hi: calls.append(hi - lo + 1) or real(h, lo, hi),
        )
        rng = np.random.default_rng(3)
        bins = rng.integers(1, 50, size=256).astype(np.int64)
        for scale in (1, 1000):
            calls.clear()
            segment(Histogram(bins * scale), SegmentationParams(n=9))
            assert len(calls) <= (9 - 1) // 2
            assert all(width <= 256 for width in calls)
        small = segment(Histogram(bins), SegmentationParams(n=9))
        big = segment(Histogram(bins * 1000), SegmentationParams(n=9))
        assert small.thresholds == big.thresholds
