"""Synthetic ground-plane camera and the digit/line recognition pipeline.

The frame renderer is ``wardcart.vision.render.render``; the package does
not re-export it, so ``wardcart.vision.render`` stays the submodule.
"""

from .camera import CameraModel
from .glyphs import DigitTemplate, default_templates, glyph_grid
from .pipeline import (
    NADIR_MIN_PIXELS,
    NADIR_ROI,
    BinaryFrame,
    Blob,
    DigitDetection,
    Frame,
    adaptive_binarize,
    detect_in_binary,
    detect_placards,
    line_centroid,
    match_digit,
    normalize_mask,
    undistort_bits,
)
from .render import NoiseParams

__all__ = [
    "NADIR_MIN_PIXELS",
    "NADIR_ROI",
    "BinaryFrame",
    "Blob",
    "CameraModel",
    "DigitDetection",
    "DigitTemplate",
    "Frame",
    "NoiseParams",
    "adaptive_binarize",
    "default_templates",
    "detect_in_binary",
    "detect_placards",
    "glyph_grid",
    "line_centroid",
    "match_digit",
    "normalize_mask",
    "undistort_bits",
]
