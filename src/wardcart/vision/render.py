"""Synthetic camera frames: guide lines and placard glyphs on the ground.

Stands in for the physical camera. The guide line is painted dark on a
light floor; ambient brightness shifts, Gaussian pixel noise and radial
distortion model the disturbances a real venue adds (lighting, reflection,
lens geometry).

The static map ink (lines and placards) is rasterized once into a fine
world-space bitmap (2 mm cells), so a frame render is a rotate-translate
plus one gather. Free-standing digit cards change during a mission and are
sampled analytically per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..arena import PlacardEntry, TrackMap
from .camera import CameraModel, check_k1, ground_grid
from .glyphs import GRID_N, glyph_grid
from .pipeline import Frame

BACKGROUND_LEVEL = 200.0
INK_LEVEL = 30.0
LINE_HALF_WIDTH = 0.010  # meters; 2 cm wide guide tape
WORLD_CELL = 0.002       # world-ink raster pitch, meters
WORLD_MARGIN = 0.6       # raster extends this far beyond the node bbox


@dataclass(frozen=True)
class NoiseParams:
    brightness: float = 0.0  # added to every pixel
    sigma: float = 0.0       # Gaussian pixel noise std dev
    k1: float = 0.0          # radial distortion of the rendered frame

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        check_k1(self.k1)


class _WorldInk:
    def __init__(self, track: TrackMap):
        xs = [p[0] for _, p in track.nodes]
        ys = [p[1] for _, p in track.nodes]
        # cell boundaries on integer multiples of WORLD_CELL keep a line
        # centered on an axis exactly symmetric in the raster
        self.x0 = math.floor((min(xs) - WORLD_MARGIN) / WORLD_CELL) * WORLD_CELL
        self.y0 = math.floor((min(ys) - WORLD_MARGIN) / WORLD_CELL) * WORLD_CELL
        self.nx = int(math.ceil((max(xs) + WORLD_MARGIN - self.x0) / WORLD_CELL))
        self.ny = int(math.ceil((max(ys) + WORLD_MARGIN - self.y0) / WORLD_CELL))
        # one false cell on every side: sample clips a cell index that falls
        # off the raster onto that border instead of masking it out
        self._padded = np.zeros((self.ny + 2, self.nx + 2), dtype=bool)
        self.grid = self._padded[1:-1, 1:-1]
        for edge in track.edges:
            for (ax, ay), (bx, by) in zip(edge.polyline, edge.polyline[1:]):
                self._paint_segment(ax, ay, bx, by)
        for group in track.placard_groups():
            for entry in group.entries:
                self._paint_glyph(entry)

    def _cells(self, lo_x: float, hi_x: float, lo_y: float, hi_y: float):
        ix0 = max(0, int((lo_x - self.x0) / WORLD_CELL) - 1)
        ix1 = min(self.nx, int((hi_x - self.x0) / WORLD_CELL) + 2)
        iy0 = max(0, int((lo_y - self.y0) / WORLD_CELL) - 1)
        iy1 = min(self.ny, int((hi_y - self.y0) / WORLD_CELL) + 2)
        xs = self.x0 + (np.arange(ix0, ix1) + 0.5) * WORLD_CELL
        ys = self.y0 + (np.arange(iy0, iy1) + 0.5) * WORLD_CELL
        return ix0, ix1, iy0, iy1, xs[None, :], ys[:, None]

    def _paint_segment(self, ax, ay, bx, by) -> None:
        # arena._project's clamped projection, vectorized: it runs once per raster cell
        r = LINE_HALF_WIDTH
        ix0, ix1, iy0, iy1, xs, ys = self._cells(min(ax, bx) - r, max(ax, bx) + r,
                                                 min(ay, by) - r, max(ay, by) + r)
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        if L2 == 0:
            return
        t = np.clip(((xs - ax) * vx + (ys - ay) * vy) / L2, 0.0, 1.0)
        dx = xs - (ax + t * vx)
        dy = ys - (ay + t * vy)
        self.grid[iy0:iy1, ix0:ix1] |= dx * dx + dy * dy <= r * r

    def _paint_glyph(self, entry: PlacardEntry) -> None:
        half = entry.height / 2.0
        pad = half * 1.5
        ix0, ix1, iy0, iy1, xs, ys = self._cells(entry.x - pad, entry.x + pad,
                                                 entry.y - pad, entry.y + pad)
        ink = _glyph_ink(xs, ys, entry)
        self.grid[iy0:iy1, ix0:ix1] |= ink

    def sample(self, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
        ix = ((wx - self.x0) / WORLD_CELL).astype(np.int32)
        iy = ((wy - self.y0) / WORLD_CELL).astype(np.int32)
        np.clip(ix, -1, self.nx, out=ix)
        np.clip(iy, -1, self.ny, out=iy)
        # flat index into the padded raster of grid cell (iy, ix)
        stride = self.nx + 2
        iy *= stride
        iy += ix
        iy += stride + 1
        return self._padded.take(iy)


def _glyph_ink(wx: np.ndarray, wy: np.ndarray, entry: PlacardEntry) -> np.ndarray:
    half = entry.height / 2.0
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
    cols = np.clip(((lu + half) / entry.height * GRID_N).astype(np.int32), 0, GRID_N - 1)
    rows = np.clip(((half - lv) / entry.height * GRID_N).astype(np.int32), 0, GRID_N - 1)
    return inside & grid[rows, cols]


def _stamp_glyph(ink: np.ndarray, wx: np.ndarray, wy: np.ndarray,
                 entry: PlacardEntry) -> None:
    """OR a glyph into the ink mask, touching only pixels near the glyph."""
    half = entry.height / 2.0
    near = ((np.abs(wx - entry.x) <= half * 1.5)
            & (np.abs(wy - entry.y) <= half * 1.5))
    idx = np.nonzero(near.ravel())[0]
    if idx.size == 0:
        return
    sub = _glyph_ink(wx.ravel()[idx], wy.ravel()[idx], entry)
    flat = ink.ravel()
    flat[idx[sub]] = True


@lru_cache(maxsize=4)
def world_ink(track: TrackMap) -> _WorldInk:
    """The map's ink raster, one byte per WORLD_CELL square, built on first use."""
    return _WorldInk(track)


def render(track: TrackMap, pose: tuple[float, float, float], cam: CameraModel,
           noise: NoiseParams = NoiseParams(),
           rng: np.random.Generator | None = None,
           cards: Sequence[PlacardEntry] = ()) -> Frame:
    """Render the ground plane seen from a cart pose.

    ``cards`` adds free-standing glyphs (the digit card shown at mission
    start, corpus scenes) on top of the map's placards.
    """
    px, py, heading = pose
    gx, gy = ground_grid(cam, noise.k1)
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    wx = px + gx * cos_h - gy * sin_h
    wy = py + gx * sin_h + gy * cos_h

    ink = world_ink(track).sample(wx, wy)
    for card in cards:
        _stamp_glyph(ink, wx, wy, card)

    if noise.sigma > 0:
        if rng is None:
            raise ValueError("pixel noise requested but no rng supplied")
        img = np.where(ink, INK_LEVEL, BACKGROUND_LEVEL) + noise.brightness
        img = img + rng.normal(0.0, noise.sigma, size=img.shape)
        img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    else:
        ink_u8 = np.uint8(min(255, max(0, round(INK_LEVEL + noise.brightness))))
        back_u8 = np.uint8(min(255, max(0, round(BACKGROUND_LEVEL + noise.brightness))))
        img = np.where(ink, ink_u8, back_u8)
    return Frame(img)
