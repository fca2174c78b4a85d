"""The Otsu class table scores exactly the tuples the tie rule keeps."""

from itertools import islice

import numpy as np
from hypothesis import given, settings

from mvthresh.otsu import _scored_blocks

from conftest import sparse_histograms


def kept(origin, shape, occupied):
    """Ascending tuples whose every cut sits at an occupied bin or right after the
    previous cut; a first cut at 0 counts as right after one."""
    cuts = [axis + at for axis, at in zip(np.indices(shape), origin)]
    keep = np.ones(shape, dtype=bool)
    for before, cut in zip([-1] + cuts, cuts):
        keep &= (cut > before) & ((cut == before + 1) | occupied[cut])
    return keep


@given(sparse_histograms())
@settings(max_examples=25)
def test_finite_entries_are_the_kept_tuples(hist):
    occupied = hist.bins > 0
    for k, blocks in ((1, 1), (2, 1), (3, 4)):
        for origin, block in islice(_scored_blocks(hist, k), blocks):
            j = block()
            assert j.ndim == k
            np.testing.assert_array_equal(np.isfinite(j), kept(origin, j.shape, occupied))
