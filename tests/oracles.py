"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain Python loops, Fractions, and exact
integer arithmetic — no shared code with the library under test. Where a
reference quantity is irrational (standard deviations), the float conversion
happens on an exactly-computed rational, so the values are deterministic.
The one numpy-based reference, ``scan_blocks_otsu``, is a frozen copy of an
earlier exhaustive Otsu search, kept because plain loops cannot score all
2.7 million three-threshold tuples in test time.
"""

import math
from fractions import Fraction

import numpy as np


def pixel_tally(pixels):
    """Per-intensity counts by scanning pixels one at a time."""
    bins = [0] * 256
    for p in pixels:
        bins[int(p)] += 1
    return bins


def moments(bins, lo, hi):
    """(count, sum, sum of squares) over bins[lo..hi], exact integers."""
    s0 = s1 = s2 = 0
    for v in range(lo, hi + 1):
        c = int(bins[v])
        s0 += c
        s1 += v * c
        s2 += v * v * c
    return s0, s1, s2


def mean_std(bins, lo, hi):
    """Population mean/std from exact rational moments; None when empty."""
    s0, s1, s2 = moments(bins, lo, hi)
    if s0 == 0:
        return None, None
    mean = s1 / s0
    var = Fraction(s0 * s2 - s1 * s1, s0 * s0)
    return mean, math.sqrt(var)


def rhu_int(numer, denom):
    """Round-half-up of the exact rational numer/denom."""
    return math.floor(Fraction(numer, denom) + Fraction(1, 2))


def rhu_float(x):
    return math.floor(x + 0.5)


def weighted_mean_int(bins, lo, hi):
    s0, s1, _ = moments(bins, lo, hi)
    if s0 == 0:
        return None
    return rhu_int(s1, s0)


def clamp(x, lo, hi):
    return max(lo, min(hi, x))


def reference_segment(bins, n, schedule=((1.0, 1.0),), mode="weighted-mean"):
    """Step-by-step reference of the recursive mean/variance segmentation.

    Returns (thresholds, classes) with classes as (lo, hi, value) triples.
    """

    def class_value(lo, hi):
        if mode == "midpoint":
            return (lo + hi) // 2
        wm = weighted_mean_int(bins, lo, hi)
        return (lo + hi) // 2 if wm is None else wm

    a, b = 0, 255
    lower, upper, t_low, t_high = [], [], [], []
    for step in range((n - 1) // 2):
        k1, k2 = schedule[min(step, len(schedule) - 1)]
        mean, std = mean_std(bins, a, b)
        if mean is None:
            break
        t1 = clamp(rhu_float(mean - k1 * std), a, b)
        t2 = clamp(rhu_float(mean + k2 * std), a, b)
        if t2 - t1 < 2:
            break
        lower.append((a, t1, class_value(a, t1)))
        upper.append((t2, b, class_value(t2, b)))
        t_low.append(t1)
        t_high.append(t2)
        a, b = t1 + 1, t2 - 1

    split = weighted_mean_int(bins, a, b)
    if split is None:
        split = (a + b) // 2
    if split >= b or moments(bins, split + 1, b)[0] == 0:
        middle_classes = [(a, b, class_value(a, b))]
    else:
        middle_classes = [
            (a, split, class_value(a, split)),
            (split + 1, b, class_value(split + 1, b)),
        ]
    thresholds = t_low + [split] + list(reversed(t_high))
    classes = lower + middle_classes + list(reversed(upper))
    return thresholds, classes


def bcv_fraction(bins, thresholds):
    """Between-class variance as an exact Fraction, straight from w*(mu-muT)^2."""
    total = sum(int(c) for c in bins)
    if total == 0:
        return Fraction(0)
    grand = sum(v * int(bins[v]) for v in range(256))
    mu_total = Fraction(grand, total)
    bounds = [-1] + list(thresholds) + [255]
    acc = Fraction(0)
    for lo, hi in zip(bounds, bounds[1:]):
        s0, s1, _ = moments(bins, lo + 1, hi)
        if s0 == 0:
            continue
        acc += Fraction(s0, total) * (Fraction(s1, s0) - mu_total) ** 2
    return acc


def _bcv_cmp_key(count_acc, sum_acc, thresholds, total, grand):
    """(numerator, denominator) of N^3 * BCV as exact integers.

    Derived by clearing denominators in sum(w_c * (mu_c - mu_T)^2); only good
    for comparing candidates on one histogram. ``count_acc``/``sum_acc`` are
    running totals with count_acc[i] covering bins[0..i-1].
    """
    bounds = [0] + [t + 1 for t in thresholds] + [256]
    num, den = 0, 1
    for lo, hi in zip(bounds, bounds[1:]):
        s0 = count_acc[hi] - count_acc[lo]
        if s0 == 0:
            continue
        s1 = sum_acc[hi] - sum_acc[lo]
        term_num = (total * s1 - grand * s0) ** 2
        num = num * s0 + term_num * den
        den = den * s0
    return num, den


def brute_force_otsu(bins, k):
    """Lexicographically smallest maximizer over all ascending k-tuples."""
    count_acc = [0] * 257
    sum_acc = [0] * 257
    for v in range(256):
        count_acc[v + 1] = count_acc[v] + int(bins[v])
        sum_acc[v + 1] = sum_acc[v] + v * int(bins[v])
    total, grand = count_acc[256], sum_acc[256]

    def tuples(k):
        if k == 1:
            for t in range(255):
                yield (t,)
        elif k == 2:
            for t1 in range(254):
                for t2 in range(t1 + 1, 255):
                    yield (t1, t2)
        else:
            raise ValueError("reference search only handles k <= 2")

    best_key = None
    best = None
    for ts in tuples(k):
        num, den = _bcv_cmp_key(count_acc, sum_acc, ts, total, grand)
        if best_key is None or num * best_key[1] > best_key[0] * den:
            best_key = (num, den)
            best = ts
    return best


def scan_blocks_otsu(bins, k):
    """(thresholds, exact criterion) of exhaustive Otsu, k in [1, 3].

    A frozen copy of the library's earlier search: a float scan over blocks
    of one head (all thresholds but the last) and a vector of last
    thresholds finds the maximum, a second scan re-scores every candidate
    within a relative 1e-9 of it with Fractions, and the lexicographically
    smallest exact maximizer wins.
    """
    counts = np.zeros(257, dtype=np.int64)
    weighted = np.zeros(257, dtype=np.int64)
    np.cumsum(np.asarray(bins, dtype=np.int64), out=counts[1:])
    np.cumsum(np.asarray(bins, dtype=np.int64) * np.arange(256), out=weighted[1:])
    cf = counts.astype(np.float64)
    wf = weighted.astype(np.float64)
    ends_all = np.arange(0, 255)

    def q_vec(u, ends):
        s = wf[ends + 1] - wf[u]
        c = cf[ends + 1] - cf[u]
        return s * s / np.maximum(c, 1.0), c

    def q_scalar(u, v):
        s = wf[v + 1] - wf[u]
        c = cf[v + 1] - cf[u]
        return s * s / c if c else 0.0

    tail_s = wf[-1] - wf[ends_all + 1]
    tail_c = cf[-1] - cf[ends_all + 1]
    tail = tail_s * tail_s / np.maximum(tail_c, 1.0)

    def blocks():
        if k == 1:
            q, c = q_vec(0, ends_all)
            yield (), ends_all, q + tail, c
        elif k == 2:
            for t1 in range(0, 254):
                ends = ends_all[t1 + 1 :]
                q, c = q_vec(t1 + 1, ends)
                yield (t1,), ends, q_scalar(0, t1) + q + tail[t1 + 1 :], c
        else:
            for t1 in range(0, 253):
                q1 = q_scalar(0, t1)
                for t2 in range(t1 + 1, 254):
                    ends = ends_all[t2 + 1 :]
                    q, c = q_vec(t2 + 1, ends)
                    yield (t1, t2), ends, q1 + q_scalar(t1 + 1, t2) + q + tail[t2 + 1 :], c

    def signature(ts):
        bounds = (-1,) + ts + (255,)
        sig = []
        for lo, hi in zip(bounds, bounds[1:]):
            sig.append(int(counts[hi + 1] - counts[lo + 1]))
            sig.append(int(weighted[hi + 1] - weighted[lo + 1]))
        return tuple(sig)

    def exact_j(sig):
        j = Fraction(0)
        for c, s in zip(sig[::2], sig[1::2]):
            if c:
                j += Fraction(s * s, c)
        return j

    best_float = -np.inf
    for _, _, j, _ in blocks():
        block_max = j.max()
        if block_max > best_float:
            best_float = block_max
    cutoff = best_float - max(abs(best_float), 1.0) * 1e-9

    best_j = best_tuple = None
    seen = set()
    for head, ends, j, run_count in blocks():
        idx = np.nonzero(j >= cutoff)[0]
        if idx.size == 0:
            continue
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = True
        keep[1:] = run_count[idx[1:]] != run_count[idx[:-1]]
        for end in ends[idx[keep]]:
            candidate = head + (int(end),)
            sig = signature(candidate)
            if sig in seen:
                continue
            seen.add(sig)
            exact = exact_j(sig)
            if best_j is None or exact > best_j:
                best_j = exact
                best_tuple = candidate

    n = int(counts[-1])
    return best_tuple, best_j / n - Fraction(int(weighted[-1]), n) ** 2


_PGM_SPACE = b" \t\n\r\x0b\x0c"


def reference_p2_raster(raster, count, maxval):
    """Decode ``count`` ASCII samples one token at a time, in stream order.

    ``raster`` is everything after the maxval token. Raises the library's
    ``PgmLengthError``/``PgmFormatError`` (only the exception classes are
    shared) with its messages, for the first offending sample. Bytes after
    the ``count``-th sample are never looked at.
    """
    from mvthresh.image import PgmFormatError, PgmLengthError

    if len(raster) < 2 * count - 1:
        raise PgmLengthError(f"raster of {len(raster)} bytes cannot hold {count} samples")
    samples = []
    i = 0
    while len(samples) < count:
        while i < len(raster) and (raster[i] in _PGM_SPACE or raster[i] == ord("#")):
            if raster[i] == ord("#"):  # a comment runs through the next newline or return
                while i < len(raster) and raster[i] not in b"\n\r":
                    i += 1
            i += 1
        if i >= len(raster):
            raise PgmLengthError(f"raster holds {len(samples)} samples, expected {count}")
        start = i
        while i < len(raster) and raster[i] not in _PGM_SPACE and raster[i] != ord("#"):
            i += 1
        field = raster[start:i]
        if not all(ord("0") <= b <= ord("9") for b in field):
            raise PgmFormatError(f"bad sample field: {field!r}")
        digits = field.lstrip(b"0")  # a number is read after its leading zeros
        if len(digits) > 16:
            shown = digits.decode() if len(digits) <= 32 else f"{digits[:32].decode()}..."
            raise PgmFormatError(f"sample field too long: {shown} ({len(digits)} digits)")
        value = 0
        for b in digits:
            value = 10 * value + b - ord("0")
        if value > maxval:
            raise PgmFormatError(f"sample {value} exceeds maxval {maxval}")
        samples.append(value)
    return samples
