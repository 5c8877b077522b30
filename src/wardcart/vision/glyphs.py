"""Built-in 16x16 seven-segment style glyphs for digits 1..8.

The renderer paints these on the ground plane and the matcher scores blobs
against the same set, so recognition still has to survive the full render,
binarize, undistort and resample path. Strokes are laid out on mostly
disjoint pixel bands, which keeps every pair of digits at least 16 pixels
apart in Hamming distance (6.25% of the grid), comfortably above the
runner-up margin used by the matcher. Every glyph is one 8-connected
component, so it extracts as a single blob.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GRID_N = 16

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


@lru_cache(maxsize=1)
def default_templates() -> np.ndarray:
    """The matcher's templates: a read-only (8, GRID_N, GRID_N) bool stack of
    the normalized glyphs, digit d at index d - 1, built on first use."""
    from .pipeline import normalize_mask  # pipeline imports GRID_N from here

    stack = np.array([normalize_mask(glyph_grid(d)) for d in range(1, 9)])
    stack.flags.writeable = False
    return stack
