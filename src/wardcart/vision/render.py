"""Synthetic camera frames: guide lines and placard glyphs on the ground.

Stands in for the physical camera. The guide line is painted dark on a
light floor; ambient brightness shifts, Gaussian pixel noise and radial
distortion model the disturbances a real venue adds (lighting, reflection,
lens geometry).

The static map ink (lines and placards) is rasterized once into a fine
world-space bitmap (2 mm cells), so a frame render is one affine map from
pixel to raster cell plus one gather; world coordinates only near a card.
Free-standing digit cards change during a mission and are sampled
analytically per frame. A frame of the same scene as one of the
last few (track, pose, lens and cards) reuses its ink; the noise is drawn
anew on every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..arena import (GLYPH_HEIGHT, WORLD_CELL, PlacardEntry, TrackMap, Vec2, project_offsets,
                     raster_box)
from .camera import HEIGHT, WIDTH, CameraModel, check_k1, ground_grid
from .glyphs import GRID_N, glyph_grid
from .pipeline import BINARIZE_MARGIN

BACKGROUND_LEVEL = 200.0
INK_LEVEL = 30.0
LINE_HALF_WIDTH = 0.010  # meters; 2 cm wide guide tape
STRIP_CELLS = 128  # length of one painted piece of a segment, in WORLD_CELLs
FAR_POSE = 1e6     # meters; a pose farther out on either axis sees no map ink


@dataclass(frozen=True)
class NoiseParams:
    brightness: float = 0.0  # added to every pixel
    sigma: float = 0.0       # Gaussian pixel noise std dev
    k1: float = 0.0          # lens distortion; the engine's camera takes it from here

    def __post_init__(self):
        if not math.isfinite(self.brightness):
            raise ValueError("brightness must be finite")
        if not self.sigma >= 0:  # NaN fails too
            raise ValueError("sigma must be nonnegative")
        check_k1(self.k1)


class _WorldInk:
    def __init__(self, track: TrackMap):
        self.x0, self.y0, self.nx, self.ny = raster_box(p for _, p in track.nodes)
        # one false cell on every side: sample clips a cell index that falls
        # off the raster onto that border instead of masking it out
        self._padded = np.zeros((self.ny + 2, self.nx + 2), dtype=bool)
        # int32 clip bounds: Python ints cost the clip two iinfo lookups a call
        self._lo, self._hi_x, self._hi_y = np.int32(-1), np.int32(self.nx), np.int32(self.ny)
        self.grid = self._padded[1:-1, 1:-1]
        for edge in track.edges:
            self._paint_segment(*edge.polyline)
        for entry in track.placards:
            self._paint_glyph(entry)

    def _cells(self, lo_x: float, hi_x: float, lo_y: float, hi_y: float):
        ix0 = max(0, int((lo_x - self.x0) / WORLD_CELL) - 1)
        ix1 = min(self.nx, int((hi_x - self.x0) / WORLD_CELL) + 2)
        iy0 = max(0, int((lo_y - self.y0) / WORLD_CELL) - 1)
        iy1 = min(self.ny, int((hi_y - self.y0) / WORLD_CELL) + 2)
        xs = self.x0 + (np.arange(ix0, ix1) + 0.5) * WORLD_CELL
        ys = self.y0 + (np.arange(iy0, iy1) + 0.5) * WORLD_CELL
        return ix0, ix1, iy0, iy1, xs[None, :], ys[:, None]

    def _paint_segment(self, a: Vec2, b: Vec2) -> None:
        (ax, ay), (bx, by) = a, b
        vx, vy = bx - ax, by - ay
        if vx * vx + vy * vy == 0:  # also ends so close that the square underflows
            return
        r = LINE_HALF_WIDTH
        # piece by piece along the segment, each over its own box widened by
        # r: the work arrays scale with the ink, not with the segment's box
        # (a long diagonal's box is 0.5 GB of float64 at the raster budget).
        # A cell's value depends on the whole segment and its own center
        # alone, so any cover of the ink cells paints the same bits
        pieces = max(1, math.ceil(math.hypot(vx, vy) / (STRIP_CELLS * WORLD_CELL)))
        for i in range(pieces):
            x0, x1 = ax + vx * (i / pieces), ax + vx * ((i + 1) / pieces)
            y0, y1 = ay + vy * (i / pieces), ay + vy * ((i + 1) / pieces)
            ix0, ix1, iy0, iy1, xs, ys = self._cells(min(x0, x1) - r, max(x0, x1) + r,
                                                     min(y0, y1) - r, max(y0, y1) + r)
            dx, dy = project_offsets(ax, ay, bx, by, xs, ys)
            self.grid[iy0:iy1, ix0:ix1] |= dx * dx + dy * dy <= r * r

    def _paint_glyph(self, entry: PlacardEntry) -> None:
        half = GLYPH_HEIGHT / 2.0
        pad = half * 1.5
        ix0, ix1, iy0, iy1, xs, ys = self._cells(entry.x - pad, entry.x + pad,
                                                 entry.y - pad, entry.y + pad)
        ink = _glyph_ink(xs, ys, entry)
        self.grid[iy0:iy1, ix0:ix1] |= ink

    def cells(self, pose: tuple[float, float, float], X: np.ndarray,
              Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The raster cell coordinates (qx, qy) of the ground points X cells
        ahead of and Y cells left of the cart at pose: one affine map,
        qx = X cos - Y sin + (px - x0) / WORLD_CELL and qy likewise. Under
        NumPy 2 promotion (NEP 50) they are float64 for NumPy-scalar px, py
        (every pose the engine reads) and float32, that of X and Y, for
        Python floats. Work arrays, valid until the next frame."""
        px, py, heading = pose
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        qx = _scratch(X.shape, np.result_type(px, X), "x")
        qy = _scratch(X.shape, np.result_type(py, X), "y")
        # the offsets are Python floats: a pose near the largest float gets
        # an infinite one, not an overflow warning, and sees no map ink
        np.multiply(X, cos_h, out=qx)
        np.subtract(qx, np.multiply(Y, sin_h, out=_scratch(X.shape, qx.dtype, "term")), out=qx)
        np.add(qx, (float(px) - self.x0) / WORLD_CELL, out=qx)
        np.multiply(X, sin_h, out=qy)
        np.add(qy, np.multiply(Y, cos_h, out=_scratch(X.shape, qy.dtype, "term")), out=qy)
        np.add(qy, (float(py) - self.y0) / WORLD_CELL, out=qy)
        return qx, qy

    def sample(self, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        """The map ink at cell coordinates (qx, qy), a cell off the raster
        read as background; the cast truncates, as int32(q) does."""
        ix = _scratch(qx.shape, np.dtype(np.int32), "x")
        iy = _scratch(qy.shape, np.dtype(np.int32), "y")
        np.copyto(ix, qx, casting="unsafe")
        np.copyto(iy, qy, casting="unsafe")
        # the method, not np.clip: the same ufunc behind one Python wrapper
        # fewer, about 1 µs a call
        ix.clip(self._lo, self._hi_x, out=ix)
        iy.clip(self._lo, self._hi_y, out=iy)
        # flat index into the padded raster of grid cell (iy, ix)
        stride = self.nx + 2
        iy *= stride
        iy += ix
        iy += stride + 1
        return self._padded.take(iy)


def _glyph_ink(wx: np.ndarray, wy: np.ndarray, entry: PlacardEntry) -> np.ndarray:
    half = GLYPH_HEIGHT / 2.0
    up_x, up_y = math.cos(entry.up_angle), math.sin(entry.up_angle)
    right_x, right_y = up_y, -up_x
    rel_x = wx - entry.x
    rel_y = wy - entry.y
    lu = rel_x * right_x + rel_y * right_y   # along glyph columns
    lv = rel_x * up_x + rel_y * up_y         # along glyph rows (up)
    inside = (np.abs(lu) <= half) & (np.abs(lv) <= half)
    if not inside.any():
        return inside
    grid = glyph_grid(entry.digit)
    cols = np.clip(((lu + half) / GLYPH_HEIGHT * GRID_N).astype(np.int32), 0, GRID_N - 1)
    rows = np.clip(((half - lv) / GLYPH_HEIGHT * GRID_N).astype(np.int32), 0, GRID_N - 1)
    return inside & grid[rows, cols]


def _stamp_glyph(ink: np.ndarray, qx: np.ndarray, qy: np.ndarray, raster: _WorldInk,
                 pose: tuple[float, float, float], gx: np.ndarray, gy: np.ndarray,
                 entry: PlacardEntry) -> None:
    """OR a glyph into the ink mask, touching only pixels near the glyph.

    A glyph reaches at most sqrt(2) * half from its center, so the pixels
    whose cell coordinates lie in the 1.5 * half box around it are all the
    glyph can cover, with about 2.6 cells to spare for the rounding of the
    affine map. Only their world coordinates are computed, from their
    ground points (gx, gy), in the steps and dtypes the whole frame's once
    were, so the glyph's ink is the same bits."""
    box = GLYPH_HEIGHT / 2.0 * 1.5 / WORLD_CELL
    cx, cy = (entry.x - raster.x0) / WORLD_CELL, (entry.y - raster.y0) / WORLD_CELL
    # bounds on each side, not |q - c|: no float temporaries of frame size
    near = (qx >= cx - box) & (qx <= cx + box) & (qy >= cy - box) & (qy <= cy + box)
    idx = np.flatnonzero(near)
    if idx.size == 0:
        return
    px, py, heading = pose
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    gx, gy = gx.ravel()[idx], gy.ravel()[idx]
    # float32 products; the sums are float64 for NumPy-scalar px, py and
    # float32 for Python floats (NEP 50), as in _WorldInk.cells
    sub = _glyph_ink(px + gx * cos_h - gy * sin_h, py + gx * sin_h + gy * cos_h, entry)
    ink.ravel()[idx[sub]] = True


@lru_cache(maxsize=32)
def _scratch(shape: tuple[int, ...], dtype: np.dtype, role: str) -> np.ndarray:
    """A work array that every frame of one shape reuses. Per-frame
    temporaries instead make the allocator trim the heap and fault it back
    in on the next frame, about a third of a tick when it happens. Room for
    every (shape, dtype, role) the engine and the corpus use, 17 of 32: per
    frame shape (whole and the control band) and pose precision (float64
    and float32), the cell coordinates "x" and "y" and the product "term",
    plus the int32 cell indices "x" and "y" per shape, and the whole
    frame's noise draw "pixels"."""
    return np.empty(shape, dtype)


@lru_cache(maxsize=4)
def world_ink(track: TrackMap) -> _WorldInk:
    """The map's ink raster, one byte per WORLD_CELL square, built on first use."""
    return _WorldInk(track)


@lru_cache(maxsize=8)
def _cell_grid(k1: float) -> tuple[np.ndarray, np.ndarray]:
    """ground_grid(k1) in WORLD_CELL units, in its float32: the cells each
    pixel's ground point lies ahead of (X) and left of (Y) the cart. Cached
    per k1; the arrays are shared and read-only."""
    X, Y = (g * (1.0 / WORLD_CELL) for g in ground_grid(k1))
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def _ink(track: TrackMap, pose: tuple[float, float, float], k1: float, rows: slice,
         cards: Sequence[PlacardEntry]) -> np.ndarray:
    """A fresh ink mask of the pixel rows ``rows`` of the frame through a
    lens of distortion k1, seen from pose: the map's ink sampled, then the
    cards stamped on."""
    raster = world_ink(track)
    X, Y = _cell_grid(k1)
    qx, qy = raster.cells(pose, X[rows], Y[rows])
    px, py, heading = pose
    # the raster lies within 51 m of the origin and no ground point is
    # farther than 1e4 m from the cart, so a pose past FAR_POSE (or with a
    # NaN) sees no map ink, and its cell indices would not fit in int32
    if abs(px) <= FAR_POSE and abs(py) <= FAR_POSE and not math.isnan(heading):
        ink = raster.sample(qx, qy)
    else:
        ink = np.zeros(qx.shape, dtype=bool)
    if cards:
        gx, gy = ground_grid(k1)
        for card in cards:
            _stamp_glyph(ink, qx, qy, raster, pose, gx[rows], gy[rows], card)
    return ink


def _scene_ink(track: TrackMap, pose: tuple[float, float, float], k1: float,
               cards: Sequence[PlacardEntry]) -> np.ndarray:
    """The ink mask of the frame render draws, read-only when it comes from
    the memo. Every exposure of one scene has the same ink, so the corpus
    sweep samples it once per scene instead of once per brightness and sigma.
    1.0 and np.float64(1.0) are one memo key but sample in float32 and
    float64 (NEP 50), so the memo keys on the coordinates' types too. A pose
    that is not finite is memoized nowhere: NaN equals nothing."""
    pose, cards = tuple(pose), tuple(cards)
    if not all(map(math.isfinite, pose)):
        return _ink(track, pose, k1, slice(None), cards)
    types = tuple(map(type, pose)) + tuple(type(v) for c in cards
                                           for v in (c.x, c.y, c.up_angle))
    return _memo_ink(track, pose, k1, cards, types)


@lru_cache(maxsize=4)
def _memo_ink(track: TrackMap, pose: tuple[float, float, float], k1: float,
              cards: tuple[PlacardEntry, ...], types: tuple[type, ...]) -> np.ndarray:
    """_scene_ink's memo of the last few scenes; ``types`` is only part of the key."""
    ink = _ink(track, pose, k1, slice(None), cards)
    ink.flags.writeable = False
    return ink


@lru_cache(maxsize=8)
def _levels(brightness: float) -> tuple[np.uint8, np.uint8]:
    """The (ink, background) pixel values of a noise-free frame. Cached:
    a run asks for one brightness on every clean frame."""
    return (np.uint8(min(255, max(0, round(INK_LEVEL + brightness)))),
            np.uint8(min(255, max(0, round(BACKGROUND_LEVEL + brightness)))))


def render(track: TrackMap, pose: tuple[float, float, float], cam: CameraModel,
           noise: NoiseParams = NoiseParams(),
           rng: np.random.Generator | None = None,
           cards: Sequence[PlacardEntry] = ()) -> np.ndarray:
    """Render the ground plane seen from a cart pose: the (HEIGHT, WIDTH)
    uint8 pixels.

    ``cards`` adds free-standing glyphs (the digit card shown at mission
    start, corpus scenes) on top of the map's placards. The lens distortion
    is the camera's; ``noise.k1`` is not read.
    """
    ink = _scene_ink(track, pose, cam.distortion_k1, cards)
    if noise.sigma > 0:
        if rng is None:
            raise ValueError("pixel noise requested but no rng supplied")
        # (where(ink, INK_LEVEL, BACKGROUND_LEVEL) + brightness)
        # + rng.normal(0.0, sigma), rounded and clipped, in one work array:
        # normal draws loc + scale * standard_normal from the same stream,
        # and each pixel adds its level plus brightness to its draw
        img = rng.standard_normal(out=_scratch(ink.shape, np.dtype(np.float64), "pixels"))
        with np.errstate(over="ignore"):  # a huge sigma saturates, as +-inf clips
            img *= noise.sigma
            img += 0.0
            inked = np.flatnonzero(ink)
            at_ink = img.take(inked)
            at_ink += INK_LEVEL + noise.brightness
            img += BACKGROUND_LEVEL + noise.brightness
        img.put(inked, at_ink)
        np.clip(np.rint(img, out=img), 0, 255, out=img)
        return img.astype(np.uint8)
    ink_u8, back_u8 = _levels(noise.brightness)
    return np.where(ink, ink_u8, back_u8)


def skip_noise(noise: NoiseParams, rng: np.random.Generator) -> None:
    """Advance rng past the noise draw of one render with ``noise``, without
    making the frame: the same standard_normal into the same work array."""
    if noise.sigma > 0:
        rng.standard_normal(out=_scratch((HEIGHT, WIDTH), np.dtype(np.float64), "pixels"))


def clean_bits(track: TrackMap, pose: tuple[float, float, float], brightness: float,
               k1: float, cards: Sequence[PlacardEntry],
               rows: tuple[int, int] | None) -> np.ndarray:
    """``adaptive_binarize(render(...))`` of a noise-free frame through a lens
    of distortion k1, without building the frame: the (HEIGHT, WIDTH) bool
    bits, still distorted.

    With ``rows=None``, or with any k1 but 0, the whole frame is sampled.
    Its pixel sum is an integer far below 2**53, so the mean taken from the
    ink count equals ``pixels.mean()``. Since ink is never lighter than the
    background, the bits are the ink where the ink level falls under the
    threshold and nothing otherwise.

    With ``rows=(r0, r1)`` and k1 = 0, where undistortion moves no pixel,
    those rows are sampled first. Counting every unsampled pixel as ink
    bounds the frame mean from below; when the ink level falls under the
    threshold of that bound it falls under the true one too, the sampled
    rows are exact and the other rows come back false. Otherwise the band
    cannot be decided alone, and the whole frame is sampled and returned.
    """
    pixels = HEIGHT * WIDTH
    ink_u8, back_u8 = map(int, _levels(brightness))
    r0, r1 = rows if rows is not None and k1 == 0 else (0, HEIGHT)
    while True:
        ink = _ink(track, pose, k1, slice(r0, r1), cards)
        count = int(np.count_nonzero(ink))
        unsampled = pixels - ink.size  # read as ink: a lower bound on the sum
        total = (count + unsampled) * ink_u8 + (ink.size - count) * back_u8
        dark = ink_u8 < total / pixels - BINARIZE_MARGIN
        if dark or not unsampled:
            break
        r0, r1 = 0, HEIGHT  # the band alone does not decide
    if not unsampled:
        if not dark:
            ink.fill(False)
        return ink
    bits = np.zeros((HEIGHT, WIDTH), dtype=bool)
    bits[r0:r1] = ink
    return bits
