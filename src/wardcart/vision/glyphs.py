"""Built-in 16x16 seven-segment style glyphs for digits 1..8.

The renderer paints these on the ground plane and the matcher scores blobs
against the same set, so recognition still has to survive the full render,
binarize, undistort and resample path. Strokes are laid out on mostly
disjoint pixel bands, which keeps every pair of digits at least 16 pixels
apart in Hamming distance (6.25% of the grid), comfortably above the
runner-up margin used by the matcher. Every glyph is one 8-connected
component, so it extracts as a single blob. The matcher compares a blob and
a glyph in one normal form, ``normalize_mask``: the ink's box resampled onto
the GRID_N grid by one matrix product per axis.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GRID_N = 16
_SUPERSAMPLE = 3

# stroke -> (row0, row1, col0, col1), half-open ranges on the 16x16 canvas
_STROKES = {
    "A": (0, 3, 2, 14),    # top bar
    "G": (7, 9, 2, 14),    # middle bar
    "D": (13, 16, 2, 14),  # bottom bar
    "F": (3, 7, 0, 5),     # upper left
    "B": (3, 7, 11, 16),   # upper right
    "E": (9, 13, 0, 5),    # lower left
    "C": (9, 13, 11, 16),  # lower right
    # printed-style "1": flag, center stem, wide foot
    "1f": (3, 7, 3, 7),
    "1s": (1, 13, 7, 11),
    # full-height right leg for "7", bridging the mid-band gap
    "7l": (3, 16, 11, 16),
}

_DIGIT_STROKES = {
    1: ("1f", "1s", "D"),
    2: ("A", "B", "G", "E", "D"),
    3: ("A", "B", "G", "C", "D"),
    4: ("F", "B", "G", "C"),
    5: ("A", "F", "G", "C", "D"),
    6: ("A", "F", "G", "E", "D", "C"),
    7: ("A", "7l"),
    8: ("A", "B", "C", "D", "E", "F", "G"),
}


def glyph_grid(digit: int) -> np.ndarray:
    """The 16x16 boolean canvas for one digit."""
    if digit not in _DIGIT_STROKES:
        raise ValueError(f"no glyph for digit {digit}")
    grid = np.zeros((GRID_N, GRID_N), dtype=bool)
    for stroke in _DIGIT_STROKES[digit]:
        r0, r1, c0, c1 = _STROKES[stroke]
        grid[r0:r1, c0:c1] = True
    return grid


# one entry per crop side: a rectified blob's side is at most the
# pipeline's 48-cell rectify grid
@lru_cache(maxsize=48)
def _axis_weights(length: int) -> np.ndarray:
    """(GRID_N, length) float32: how many of output cell i's supersamples
    along one axis read input pixel j."""
    n, ss = GRID_N, _SUPERSAMPLE
    src = np.minimum(((np.arange(n * ss) + 0.5) * length / (n * ss)).astype(np.int64),
                     length - 1)
    weights = np.zeros((n, length), dtype=np.float32)
    np.add.at(weights, (np.arange(n * ss) // ss, src), 1.0)
    weights.flags.writeable = False
    return weights


def normalize_mask(mask: np.ndarray) -> np.ndarray:
    """Stretch a mask's tight bounding box onto a GRID_N x GRID_N grid.

    Cropping to the ink removes translation; stretching both axes removes
    the residual aspect error a perspective blob carries. Templates go
    through the same transform, so comparisons stay consistent. Resampling
    is a 3x supersampled box filter (majority vote per output cell), which
    keeps thin strokes stable under small scale changes.
    """
    ink_rows = mask.any(axis=1)
    if not ink_rows.any():
        return np.zeros((GRID_N, GRID_N), dtype=bool)
    ink_cols = mask.any(axis=0)
    y0, y1 = int(ink_rows.argmax()), len(ink_rows) - int(ink_rows[::-1].argmax())
    x0, x1 = int(ink_cols.argmax()), len(ink_cols) - int(ink_cols[::-1].argmax())
    crop = mask[y0:y1, x0:x1].astype(np.float32)
    # ink among each cell's 3 x 3 samples: at most 9, exact in float32
    votes = _axis_weights(y1 - y0) @ crop @ _axis_weights(x1 - x0).T
    return votes * 2 >= _SUPERSAMPLE ** 2


@lru_cache(maxsize=1)
def default_templates() -> np.ndarray:
    """The matcher's templates: a read-only (8, GRID_N, GRID_N) bool stack of
    the normalized glyphs, digit d at index d - 1, built on first use."""
    stack = np.array([normalize_mask(glyph_grid(d)) for d in range(1, 9)])
    stack.flags.writeable = False
    return stack
