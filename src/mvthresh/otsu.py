"""Otsu-style thresholding by exhaustive between-class-variance maximization.

The multilevel form scores every ascending threshold tuple, O(L^3) for three
thresholds over L = 256 levels: deliberately the brute-force worst case,
serving as the cost baseline for the recursive segmenter. Following Liao,
Chen & Chung ("A Fast Algorithm for Multilevel Thresholding", 2001), one
256x256 table holds the score of every class [u, v], so each tuple's score is
a sum of table entries and the scan runs as one 2-D array operation per first
threshold: O(L) Python iterations. A cut at an empty bin that is not right
after the previous cut is never scored, because it ties exactly with the cut
one level lower. The float scan only prefilters: a first pass finds the best
score, and a second collects the near-ties from the few blocks that reach it.
These are re-scored in exact integer arithmetic so the lexicographic tie-break
is deterministic regardless of rounding.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .image import LEVELS, MAX_INTENSITY, Histogram, _integer, _interval_grid, _moments

# maximizing sum(w_c * mu_c^2) is equivalent to maximizing the between-class
# variance (they differ by the constant mu_total^2); the scan works with
# J = sum(s_c^2 / n_c), the same quantity scaled by the pixel count.
# Float slack: anything this close to the max is re-scored exactly. n_c is
# exact in float64 (N < 2^53), s_c within 2^-52 * S and exact unless the
# intensity sum S passes 2^53 (mu = S/N above about 63). A score of up to four
# terms is then within about 4.5e-13 * S + 5 * 2^-53 * J, and the band is at
# least 1e-9 * S * mu (J >= S^2 / N): 10^4 times wider, in any order of adds.
_REL_BAND = 1e-9

_CUT_MAX = MAX_INTENSITY - 1  # a threshold at 255 would leave an empty top class


def _checked_thresholds(thresholds) -> tuple[int, ...]:
    """``thresholds`` as ints, rejected unless integers strictly increasing in [0, 254]."""
    ts = tuple(_integer(t, "threshold") for t in thresholds)
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
        if not self.criterion >= 0.0:  # NaN too
            raise ValueError(f"between-class variance must be >= 0, got {self.criterion}")


def between_class_variance(hist: Histogram, thresholds) -> float:
    """sum over classes of w_c * (mu_c - mu_total)^2; empty classes add 0.

    Computed exactly as (J - J_1)/N, J_1 = S^2/N the one-class J, and rounded once to float.
    ``thresholds`` must be strictly increasing within [0, 254] and partition
    [0, 255] into classes [0, t1], [t1+1, t2], ..., [t_k+1, 255].
    """
    ts = _checked_thresholds(thresholds)
    if hist.total == 0:
        return 0.0
    return float((_exact_j(hist, ts) - _exact_j(hist, ())) / hist.total)


def _scored_blocks(
    hist: Histogram, k: int
) -> list[tuple[tuple[int, ...], Callable[[], np.ndarray]]]:
    """(origin, block) pairs that score every ascending k-tuple exactly once.

    ``block()`` builds ``j``, where ``j[i]`` scores the thresholds ``origin + i``
    from the one class table, row 0 of it for k=1; entries that are not
    ascending, or whose classes a smaller tuple already scores, hold its -inf.
    The table is built once, and each call builds its block anew from it. The
    pairs come in lexicographic order of their tuples, and so do the entries
    of a block in C order.
    """
    # table[u, v]: class [u, v]'s term s^2 / max(n, 1) after a cut at u - 1
    table, counts = _interval_grid(hist)
    table *= table
    table /= np.maximum(counts, 1.0, out=counts)
    del counts  # freed before the top classes and the tail are built
    last = table[1:, -1].copy()  # last[t]: the top class [t+1, 255] above a cut at t, unmasked
    # -inf unless the cut at v is right after u - 1 (v = u) or at an occupied bin (v > u)
    table[~(np.eye(LEVELS, dtype=bool) | np.triu(hist.bins > 0, 1))] = -np.inf
    if k == 1:
        return [((0,), lambda: table[0, : _CUT_MAX + 1] + last)]
    # tail[t, u]: the two top classes above cuts t < u
    tail = table[1:, : _CUT_MAX + 1] + last
    if k == 2:
        return [((0, 0), lambda: table[0, : _CUT_MAX + 1, None] + tail)]

    def block(t1):
        head = table[0, t1] + table[t1 + 1, t1 + 1 : _CUT_MAX]
        return (head[:, None] + tail[t1 + 1 : _CUT_MAX, t1 + 2 :])[None]

    return [((t1, t1 + 1, t1 + 2), partial(block, t1)) for t1 in range(_CUT_MAX - 1)]


def _exact_j(hist: Histogram, ts) -> Fraction:
    """J = sum(s_c^2 / n_c) over the classes ``ts`` cuts, exactly; empty classes add 0."""
    bounds = (-1, *ts, MAX_INTENSITY)
    j = Fraction(0)
    for lo, hi in zip(bounds, bounds[1:]):
        c, s, _ = _moments(hist, lo + 1, hi)
        if c:
            j += Fraction(s * s, c)
    return j


def otsu_multilevel_exhaustive(hist: Histogram, k: int) -> OtsuResult:
    """Exhaustive search over all ascending k-tuples of thresholds, k in [1, 3].

    Ties resolve to the lexicographically smallest tuple.
    """
    k = _integer(k, "threshold count")
    if not 1 <= k <= 3:
        raise ValueError(f"threshold count must be in [1, 3], got {k}")
    if hist.total == 0:
        raise ValueError("cannot threshold an empty histogram")

    # Two passes over the blocks. The first takes each block's maximum, so the
    # cutoff comes from the overall best; the second rebuilds only the blocks
    # that reach it and collects their entries within the band, in
    # lexicographic order. The table scores each set of equal classes once, by
    # its smallest tuple, so a plateau of millions of tied tuples leaves a few.
    blocks = _scored_blocks(hist, k)
    tops = [block().max() for _, block in blocks]
    best = max(tops)
    cutoff = best - max(abs(best), 1.0) * _REL_BAND
    near = []
    for (origin, block), top in zip(blocks, tops):
        if top < cutoff:
            continue
        j = block()
        hit = np.flatnonzero(j >= cutoff)
        cuts = [axis + at for axis, at in zip(np.unravel_index(hit, j.shape), origin)]
        near += map(tuple, np.column_stack(cuts).tolist())

    # max() returns the first of equal maxima: the lexicographic tie-break
    best_tuple = max(near, key=lambda ts: _exact_j(hist, ts))
    return OtsuResult(thresholds=best_tuple, criterion=between_class_variance(hist, best_tuple))


def otsu_bilevel(hist: Histogram) -> OtsuResult:
    """Single threshold maximizing between-class variance; smallest t on ties."""
    return otsu_multilevel_exhaustive(hist, 1)
