import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from mvthresh.image import GrayImage, Histogram, read_pgm
from mvthresh.segmentation import SubRange
from mvthresh.synthetic import GENERATORS

settings.register_profile(
    "mvthresh",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mvthresh")

FIXTURE_DIR = Path(__file__).parent / "fixtures"


# --- hypothesis strategies -------------------------------------------------

@st.composite
def gray_images(draw, max_side=24):
    width = draw(st.integers(min_value=1, max_value=max_side))
    height = draw(st.integers(min_value=1, max_value=max_side))
    pixels = draw(npst.arrays(dtype=np.uint8, shape=width * height))
    return GrayImage(width=width, height=height, pixels=pixels)


@st.composite
def histograms(draw, max_mass=5000, min_total=0):
    bins = draw(
        npst.arrays(
            dtype=np.int64,
            shape=256,
            elements=st.integers(min_value=0, max_value=max_mass),
        )
    )
    if min_total > 0 and int(bins.sum()) < min_total:
        bump = draw(st.integers(min_value=0, max_value=255))
        bins[bump] += min_total
    return Histogram(bins)


@st.composite
def sparse_histograms(draw, max_support=12, max_mass=5000):
    """Histograms with mass on only a few intensities, like flat artwork."""
    support = draw(
        st.lists(st.integers(0, 255), min_size=1, max_size=max_support, unique=True)
    )
    bins = np.zeros(256, dtype=np.int64)
    for v in support:
        bins[v] = draw(st.integers(min_value=1, max_value=max_mass))
    return Histogram(bins)


@st.composite
def subranges(draw):
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, 255))
    return SubRange(lo, hi)


def pgm_bytes(max_size=200):
    """At most ``max_size`` bytes: raw, or after a PGM magic or full header.

    Half the bodies are blank-separated numbers, often at an edge (0, 1,
    255, 256), so the size, maxval and sample checks are reached.
    """
    prefix = st.sampled_from([b"", b"P2", b"P5", b"P2 2 1 255\n", b"P5 2 1 255\n"])
    number = st.one_of(st.sampled_from([0, 1, 2, 255, 256]), st.integers(0, 999)).map(
        lambda v: b"%d" % v
    )
    blank = st.sampled_from([b" ", b"\n", b"\t", b"#c\n"])
    numbers = st.lists(st.tuples(blank, number)).map(
        lambda pairs: b"".join(a + b for a, b in pairs)
    )
    body = st.one_of(st.binary(), numbers)
    return st.tuples(prefix, body).map(lambda parts: b"".join(parts)[:max_size])


# --- fixture corpus ---------------------------------------------------------

def _natural_corpus():
    corpus = {name: gen() for name, gen in GENERATORS.items()}
    try:
        from skimage import data
    except ImportError:
        return corpus
    for name in ("camera", "moon", "coins", "page", "text"):
        try:
            corpus[name] = GrayImage.from_array(getattr(data, name)())
        except Exception:
            continue  # sample file unavailable in this install
    return corpus


@pytest.fixture(scope="session")
def natural_images():
    """Deterministic corpus of photograph-like images."""
    return _natural_corpus()


@pytest.fixture(scope="session")
def large_image(natural_images):
    """The 512x512 image for the timing checks.

    Returns the first 512x512 scikit-image sample in ``natural_images``
    (normally ``camera``) when scikit-image is installed, and otherwise a
    deterministic seed-11 normal-noise image, so the checks run either way.
    Every timing check takes its 512x512 image from this fixture, never
    straight from ``natural_images``, which holds only 256x256 images
    without scikit-image.
    """
    for img in natural_images.values():
        if img.width == 512 and img.height == 512:
            return img
    rng = np.random.default_rng(11)
    return GrayImage.from_array(
        np.clip(rng.normal(120, 40, size=(512, 512)), 0, 255).astype(np.uint8)
    )


@pytest.fixture(scope="session")
def lena_image():
    """The canonical 512x512 Lena, supplied locally; skips when absent.

    Not redistributable with this repository: drop it at
    tests/fixtures/lena.pgm (binary or ASCII PGM, maxval 255) or point
    MVTHRESH_LENA at such a file to enable the gated reference checks.
    """
    candidates = [FIXTURE_DIR / "lena.pgm"]
    env = os.environ.get("MVTHRESH_LENA")
    if env:
        candidates.insert(0, Path(env))
    for path in candidates:
        if path.is_file():
            image = read_pgm(path.read_bytes())
            if (image.width, image.height) != (512, 512):
                pytest.skip(f"{path} is {image.width}x{image.height}, expected 512x512")
            return image
    pytest.skip("fixture-gated: canonical lena.pgm not present (see tests/conftest.py)")
