"""Otsu-style thresholding by exhaustive between-class-variance maximization.

The multilevel form enumerates every ascending threshold tuple — deliberately
the brute-force worst case, serving as the cost baseline for the recursive
segmenter. A vectorized float scan prefilters candidates; near-ties are then
re-scored in exact integer arithmetic so the lexicographic tie-break is
deterministic regardless of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .image import MAX_INTENSITY, Histogram

# maximizing sum(w_c * mu_c^2) is equivalent to maximizing the between-class
# variance (they differ by the constant mu_total^2); the scan works with
# J = sum(s_c^2 / n_c), the same quantity scaled by the pixel count
_REL_BAND = 1e-9  # float slack; anything this close to the max is re-scored exactly

_CUT_MAX = MAX_INTENSITY - 1  # a threshold at 255 would leave an empty top class


def _checked_thresholds(thresholds) -> tuple[int, ...]:
    """``thresholds`` as ints, rejected unless strictly increasing in [0, 254]."""
    ts = tuple(int(t) for t in thresholds)
    if any(not 0 <= t <= _CUT_MAX for t in ts):
        raise ValueError(f"thresholds must lie in [0, 254]: {ts}")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"thresholds not strictly increasing: {ts}")
    return ts


@dataclass(frozen=True)
class OtsuResult:
    """Chosen thresholds and the between-class variance they achieve."""

    thresholds: tuple[int, ...]
    criterion: float

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _checked_thresholds(self.thresholds))
        if self.criterion < 0.0:
            raise ValueError("between-class variance cannot be negative")


def _prefix_sums(hist: Histogram) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative count and intensity-weighted sums, length 257."""
    counts, weighted, _ = hist.moments
    return np.array(counts, dtype=np.int64), np.array(weighted, dtype=np.int64)


def between_class_variance(hist: Histogram, thresholds) -> float:
    """sum over classes of w_c * (mu_c - mu_total)^2; empty classes add 0.

    ``thresholds`` must be strictly increasing within [0, 254] and partition
    [0, 255] into classes [0, t1], [t1+1, t2], ..., [t_k+1, 255].
    """
    ts = _checked_thresholds(thresholds)
    if hist.total == 0:
        return 0.0
    counts, weighted, _ = hist.moments
    signature = _class_signature(counts, weighted, ts)
    n = hist.total
    mu_total = weighted[-1] / n
    acc = 0.0
    for c, s in zip(signature[::2], signature[1::2]):
        if c:
            acc += (c / n) * (s / c - mu_total) ** 2
    return acc


def _scan_blocks(counts, weighted, k):
    """Yield (head, ends, j, run_count) blocks covering every ascending k-tuple.

    ``head`` fixes the first k-1 thresholds; ``j`` scores head + ends[i] for
    the vector of last-threshold positions. ``run_count`` is the running pixel
    count of the class ending at each position: within a block, candidates
    with equal run_count have identical class contents, so they tie exactly.
    Heads and ends are emitted in lexicographic order.
    """
    cf = counts.astype(np.float64)
    wf = weighted.astype(np.float64)
    ends_all = np.arange(0, _CUT_MAX + 1)

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

    if k == 1:
        q, c = q_vec(0, ends_all)
        yield (), ends_all, q + tail, c
    elif k == 2:
        for t1 in range(0, _CUT_MAX):
            ends = ends_all[t1 + 1 :]
            q, c = q_vec(t1 + 1, ends)
            yield (t1,), ends, q_scalar(0, t1) + q + tail[t1 + 1 :], c
    else:
        for t1 in range(0, _CUT_MAX - 1):
            q1 = q_scalar(0, t1)
            for t2 in range(t1 + 1, _CUT_MAX):
                ends = ends_all[t2 + 1 :]
                q, c = q_vec(t2 + 1, ends)
                yield (t1, t2), ends, q1 + q_scalar(t1 + 1, t2) + q + tail[t2 + 1 :], c


def _class_signature(counts, weighted, ts) -> tuple[int, ...]:
    """Interleaved per-class (count, sum); candidates sharing it tie exactly."""
    bounds = (-1,) + ts + (MAX_INTENSITY,)
    sig = []
    for lo, hi in zip(bounds, bounds[1:]):
        sig.append(int(counts[hi + 1] - counts[lo + 1]))
        sig.append(int(weighted[hi + 1] - weighted[lo + 1]))
    return tuple(sig)


def _exact_j(signature) -> Fraction:
    j = Fraction(0)
    for c, s in zip(signature[::2], signature[1::2]):
        if c:
            j += Fraction(s * s, c)
    return j


def otsu_multilevel_exhaustive(hist: Histogram, k: int) -> OtsuResult:
    """Exhaustive search over all ascending k-tuples of thresholds, k in [1, 3].

    Ties resolve to the lexicographically smallest tuple.
    """
    k = int(k)
    if not 1 <= k <= 3:
        raise ValueError(f"threshold count must be in [1, 3], got {k}")
    if hist.total == 0:
        raise ValueError("cannot threshold an empty histogram")
    counts, weighted = _prefix_sums(hist)

    best_float = -np.inf
    for _, _, j, _ in _scan_blocks(counts, weighted, k):
        block_max = j.max()
        if block_max > best_float:
            best_float = block_max
    cutoff = best_float - max(abs(best_float), 1.0) * _REL_BAND

    # Near-ties are re-scored exactly. Candidates arrive in lexicographic
    # order; run_count is monotone within a block, so plateau runs collapse
    # to their first candidate, and the seen-set drops repeated signatures
    # across blocks. Equal signatures tie exactly, so only each signature's
    # lexicographically first candidate matters.
    best_j: Fraction | None = None
    best_tuple: tuple[int, ...] | None = None
    seen: set[tuple[int, ...]] = set()
    for head, ends, j, run_count in _scan_blocks(counts, weighted, k):
        idx = np.nonzero(j >= cutoff)[0]
        if idx.size == 0:
            continue
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = True
        keep[1:] = run_count[idx[1:]] != run_count[idx[:-1]]
        for end in ends[idx[keep]]:
            candidate = head + (int(end),)
            signature = _class_signature(counts, weighted, candidate)
            if signature in seen:
                continue
            seen.add(signature)
            exact = _exact_j(signature)
            if best_j is None or exact > best_j:
                best_j = exact
                best_tuple = candidate

    n = hist.total
    criterion = best_j / n - Fraction(int(weighted[-1]), n) ** 2
    return OtsuResult(thresholds=best_tuple, criterion=float(criterion))


def otsu_bilevel(hist: Histogram) -> OtsuResult:
    """Single threshold maximizing between-class variance; smallest t on ties."""
    return otsu_multilevel_exhaustive(hist, 1)
