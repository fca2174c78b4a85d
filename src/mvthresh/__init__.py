"""Multilevel grayscale thresholding via recursive mean/variance splits."""

from .image import (
    GrayImage,
    Histogram,
    PgmDepthError,
    PgmError,
    PgmFormatError,
    PgmLengthError,
    compute_histogram,
    read_pgm,
    write_pgm,
)
from .otsu import (
    OtsuResult,
    between_class_variance,
    otsu_bilevel,
    otsu_multilevel_exhaustive,
)
from .quality import QualityReport, mse, psnr
from .segmentation import (
    Replacement,
    SegmentationParams,
    SegmentationResult,
    SweepPoint,
    apply_mapping,
    auto_select_n,
    segment,
    segment_image,
)
from .stats import SubRange, midpoint, range_stats, weighted_mean

__version__ = "0.1.0"

__all__ = [
    "GrayImage",
    "Histogram",
    "OtsuResult",
    "PgmDepthError",
    "PgmError",
    "PgmFormatError",
    "PgmLengthError",
    "QualityReport",
    "Replacement",
    "SegmentationParams",
    "SegmentationResult",
    "SubRange",
    "SweepPoint",
    "apply_mapping",
    "auto_select_n",
    "between_class_variance",
    "compute_histogram",
    "midpoint",
    "mse",
    "otsu_bilevel",
    "otsu_multilevel_exhaustive",
    "psnr",
    "range_stats",
    "read_pgm",
    "segment",
    "segment_image",
    "weighted_mean",
    "write_pgm",
]
