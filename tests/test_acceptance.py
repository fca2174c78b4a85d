"""Acceptance gate for the whole package.

Each test asserts one shipping criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s`` or on failure). The canonical-Lena
reference check is fixture-gated: it skips unless the non-redistributable
image is supplied locally (see the ``lena_image`` fixture in conftest).
"""

import math
import random
import time

import numpy as np
import pytest

from mvthresh.image import GrayImage, Histogram, compute_histogram, read_pgm, write_pgm
from mvthresh.otsu import otsu_bilevel, otsu_multilevel_exhaustive
from mvthresh.quality import median_elapsed_ms, mse, psnr, timed
from mvthresh.segmentation import (
    Replacement,
    SegmentationParams,
    auto_select_n,
    segment,
    segment_image,
)

from helpers import assert_valid_partition
from oracles import brute_force_otsu, reference_segment

REFERENCE_LENA = {
    3: ((77, 128, 172), 25.84),
    5: ((77, 105, 130, 154, 172), 28.56),
    7: ((77, 105, 118, 131, 146, 154, 172), 29.33),
    9: ((77, 105, 118, 125, 131, 140, 146, 154, 172), 29.51),
}
THRESHOLD_TOL = 2  # levels
PSNR_TOL = 0.5  # dB


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def random_histogram(rnd, max_support=48, max_mass=10_000):
    bins = np.zeros(256, dtype=np.int64)
    for v in rnd.sample(range(256), rnd.randint(1, max_support)):
        bins[v] = rnd.randint(1, max_mass)
    return Histogram(bins)


def test_c01_reference_thresholds_on_canonical_lena(lena_image):
    """Reference thresholds/PSNR for the canonical 512x512 image, kappa=1."""
    failures = []
    for n, (expected_ts, expected_psnr) in REFERENCE_LENA.items():
        result, quantized = segment_image(lena_image, SegmentationParams(n=n))
        if len(result.thresholds) != len(expected_ts):
            failures.append(f"n={n}: got {result.thresholds}")
            continue
        drift = max(abs(a - b) for a, b in zip(result.thresholds, expected_ts))
        db = psnr(lena_image, quantized)
        if drift > THRESHOLD_TOL:
            failures.append(f"n={n}: thresholds {result.thresholds} drift {drift}")
        if abs(db - expected_psnr) > PSNR_TOL:
            failures.append(f"n={n}: psnr {db:.2f} vs {expected_psnr}")
    report("criterion 1: reference-image threshold/PSNR reproduction",
           not failures, "; ".join(failures) or f"all {len(REFERENCE_LENA)} rows within tolerance")


def test_c02_oracle_equivalence_on_random_histograms():
    """segment must equal the step-by-step reference exactly, in under 1 s."""
    rnd = random.Random(20240811)
    histograms = [random_histogram(rnd) for _ in range(200)]
    start = time.perf_counter()
    mismatches = 0
    for hist in histograms:
        for n in (3, 5, 7, 9):
            result = segment(hist, SegmentationParams(n=n))
            thresholds, classes = reference_segment(list(hist.bins), n)
            if list(result.thresholds) != thresholds or [
                (iv.lo, iv.hi, v) for iv, v in result.classes
            ] != classes:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: exact oracle equivalence (200 histograms x n in 3..9)",
        mismatches == 0 and elapsed < 1.0,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )


def test_c03_degenerate_images_stay_safe():
    rnd = random.Random(7)
    checked = 0
    for case in range(1000):
        size = rnd.choice([1, 2, 3, 8, 16])
        family = case % 3
        if family == 0:  # constant
            values = [rnd.randrange(256)] * (size * size)
        elif family == 1:  # two-valued, arbitrary spread
            a, b = rnd.randrange(256), rnd.randrange(256)
            values = [rnd.choice((a, b)) for _ in range(size * size)]
        else:  # support narrower than 3 levels
            base = rnd.randrange(255)
            values = [base + rnd.randrange(2) for _ in range(size * size)]
        image = GrayImage(size, size, np.array(values, dtype=np.uint8))
        n = rnd.choice((3, 5, 7, 9))
        result, quantized = segment_image(image, SegmentationParams(n=n))
        assert_valid_partition(result, requested_n=n)
        assert (quantized.width, quantized.height) == (size, size)
        checked += 1
    report("criterion 3: degenerate-input safety (1000 cases)", checked == 1000)


def _class_sse(image, result, mode_value):
    """Exact integer sum of squared errors for one replacement choice."""
    hist = compute_histogram(image)
    total = 0
    any_strictly_worse = False
    for interval, _ in result.classes:
        counts = hist.bins[interval.lo : interval.hi + 1]
        values = np.arange(interval.lo, interval.hi + 1, dtype=np.int64)
        s0 = int(counts.sum())
        if s0 == 0:
            continue
        s1 = int((values * counts).sum())
        s2 = int((values * values * counts).sum())
        wm = (2 * s1 + s0) // (2 * s0)
        mid = (interval.lo + interval.hi) // 2
        rep = wm if mode_value == "weighted-mean" else mid
        total += s2 - 2 * rep * s1 + s0 * rep * rep
        if mode_value == "midpoint":
            sse_mid = s2 - 2 * mid * s1 + s0 * mid * mid
            sse_wm = s2 - 2 * wm * s1 + s0 * wm * wm
            if sse_mid > sse_wm:
                any_strictly_worse = True
    return total, any_strictly_worse


def test_c04_weighted_mean_is_mse_optimal():
    rnd = random.Random(99)
    rng = np.random.default_rng(99)
    strict_failures = 0
    for case in range(500):
        side = rnd.choice([4, 8, 12, 16])
        image = GrayImage(side, side, rng.integers(0, 256, size=side * side, dtype=np.uint8))
        n = rnd.choice((3, 5))
        by_mean = segment(compute_histogram(image), SegmentationParams(n=n))
        by_mid = segment(
            compute_histogram(image),
            SegmentationParams(n=n, replacement=Replacement.MIDPOINT),
        )
        # cut positions never depend on the replacement mode
        assert by_mean.thresholds == by_mid.thresholds
        sse_mean, _ = _class_sse(image, by_mean, "weighted-mean")
        sse_mid, asymmetric = _class_sse(image, by_mid, "midpoint")
        assert sse_mean <= sse_mid, "weighted mean must never lose"
        if asymmetric and not sse_mean < sse_mid:
            strict_failures += 1
    report(
        "criterion 4: weighted-mean MSE optimality (500 images, strict on asymmetry)",
        strict_failures == 0,
        f"{strict_failures} strictness violations",
    )


def test_c05_psnr_saturates_on_natural_corpus(natural_images):
    failures = []
    for name, image in natural_images.items():
        values = {}
        for n in (3, 5, 7, 9):
            _, quantized = segment_image(image, SegmentationParams(n=n))
            values[n] = psnr(image, quantized)
        early = values[5] - values[3]
        late = values[9] - values[7]
        if not early > late:
            failures.append(f"{name}: early {early:.3f} <= late {late:.3f}")
        chosen, _ = auto_select_n(image, SegmentationParams(n=3), epsilon=0.3, n_max=15)
        if chosen > 9:
            failures.append(f"{name}: auto-selected n={chosen} > 9")
    report(
        f"criterion 5: PSNR saturation shape on {len(natural_images)} natural fixtures",
        not failures,
        "; ".join(failures),
    )


def test_c06_prefix_stability_of_outer_cuts(natural_images):
    failures = []
    for name, image in natural_images.items():
        hist = compute_histogram(image)
        results = {n: segment(hist, SegmentationParams(n=n)) for n in (3, 5, 7, 9)}
        big = results[9].thresholds
        for n in (3, 5, 7):
            small = results[n].thresholds
            pairs = (n - 1) // 2
            if small[:pairs] != big[:pairs] or small[len(small) - pairs :] != big[len(big) - pairs :]:
                failures.append(f"{name} n={n}: {small} not nested in {big}")
    report(
        "criterion 6: outer threshold pairs nest across n (constant kappa)",
        not failures,
        "; ".join(failures),
    )


def test_c07_otsu_matches_brute_force():
    rnd = random.Random(4242)
    bilevel_bad = 0
    for _ in range(500):
        hist = random_histogram(rnd, max_support=32, max_mass=5000)
        if otsu_bilevel(hist).thresholds != brute_force_otsu(list(hist.bins), 1):
            bilevel_bad += 1
    multilevel_bad = 0
    for _ in range(4):
        bins = np.zeros(256, dtype=np.int64)
        for v in rnd.sample(range(256), 16):
            bins[v] = rnd.randint(1, 4000)
        hist = Histogram(bins)
        if otsu_multilevel_exhaustive(hist, 2).thresholds != brute_force_otsu(list(bins), 2):
            multilevel_bad += 1
    report(
        "criterion 7: Otsu equals brute force (500 bilevel + 16-bin k=2)",
        bilevel_bad == 0 and multilevel_bad == 0,
        f"bilevel {bilevel_bad}, multilevel {multilevel_bad} mismatches",
    )


def test_c08_recursive_segmenter_is_fast(large_image):
    params7 = SegmentationParams(n=7)
    _, segment_ms = median_elapsed_ms(segment_image, large_image, params7, runs=20)
    hist = compute_histogram(large_image)
    _, otsu_ms = timed(otsu_multilevel_exhaustive, hist, 3)
    _, segment9_ms = median_elapsed_ms(
        segment_image, large_image, SegmentationParams(n=9), runs=20
    )
    ratio = otsu_ms / segment_ms
    report(
        "criterion 8: speed (exhaustive k=3 at least 10x slower; n=9 under 500 ms)",
        ratio >= 10.0 and segment9_ms < 500.0,
        f"ratio {ratio:.1f}x, n=9 median {segment9_ms:.2f} ms",
    )


def test_c09_near_linear_growth_with_pass_count(large_image):
    _, ms3 = median_elapsed_ms(segment_image, large_image, SegmentationParams(n=3), runs=20)
    _, ms9 = median_elapsed_ms(segment_image, large_image, SegmentationParams(n=9), runs=20)
    ratio = ms9 / ms3
    report(
        "criterion 9: elapsed(n=9)/elapsed(n=3) < 4 at fixed image",
        ratio < 4.0,
        f"ratio {ratio:.2f} ({ms3:.2f} -> {ms9:.2f} ms)",
    )


def test_c10_pgm_round_trip_and_histogram_conservation():
    rng = np.random.default_rng(1010)
    bad = 0
    for case in range(1000):
        width = int(rng.integers(1, 25))
        height = int(rng.integers(1, 25))
        image = GrayImage(width, height, rng.integers(0, 256, size=width * height, dtype=np.uint8))
        if read_pgm(write_pgm(image)) != image:
            bad += 1
        hist = compute_histogram(image)
        if hist.total != width * height or int(hist.bins.sum()) != hist.total:
            bad += 1
    report(
        "criterion 10: PGM round-trip + histogram conservation (1000 images)",
        bad == 0,
        f"{bad} failures",
    )
