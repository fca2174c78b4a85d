"""Multilevel grayscale thresholding via recursive mean/variance splits."""

from .image import GrayImage, compute_histogram
from .quality import psnr
from .segmentation import SegmentationParams, auto_select_n, segment_image

__version__ = "0.1.0"

__all__ = [
    "GrayImage",
    "SegmentationParams",
    "auto_select_n",
    "compute_histogram",
    "psnr",
    "segment_image",
]
