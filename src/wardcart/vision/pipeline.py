"""Recognition pipeline: binarize, undistort, line centroid, blobs, digits.

All operations are pure; frames and binary frames are thin wrappers over
numpy arrays. Connected components are extracted with run-based union-find
under 8-connectivity, so diagonal contact joins blobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .camera import CameraModel, check_k1
from .glyphs import GRID_N, DigitTemplate

DEFAULT_MIN_AREA = 9
DEFAULT_ACCEPT_THRESHOLD = 0.85
DEFAULT_MARGIN = 0.05
DEFAULT_BINARIZE_MARGIN = 30.0
DEFAULT_GLYPH_HEIGHT_M = 0.12
EXPECTED_LINE_WIDTH_PX = 7.0

# Bottom rows looking (almost) straight down. Perspective shifts the line's
# apparent center by ~d*tan(heading error); in this band d is small enough
# that the centroid stays within a pixel of truth for headings up to 5 deg.
# Controllers that want lookahead use a taller band and accept the skew.
NADIR_ROI = (118, 120)
NADIR_MIN_PIXELS = 8

# image-space gates a blob must pass to be scored as a digit candidate
_CAND_MIN_H, _CAND_MAX_H = 6, 60
_CAND_MIN_W, _CAND_MAX_W = 3, 80
_CAND_MAX_ASPECT = 3.4
_CAND_MIN_FILL, _CAND_MAX_FILL = 0.10, 0.95
_RECTIFY_GRID = 48
_SUPERSAMPLE = 3

# room for every crop size of a rectified blob
@lru_cache(maxsize=_RECTIFY_GRID * _RECTIFY_GRID)
def _resample_indices(bh: int, bw: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    ss = _SUPERSAMPLE
    rows = np.minimum(((np.arange(n * ss) + 0.5) * bh / (n * ss)).astype(np.int64), bh - 1)
    cols = np.minimum(((np.arange(n * ss) + 0.5) * bw / (n * ss)).astype(np.int64), bw - 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class Frame:
    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        if self.pixels.ndim != 2:
            raise ValueError("frame must be a 2-d intensity grid")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class BinaryFrame:
    bits: np.ndarray  # (height, width) bool, True = ink/foreground

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


@dataclass(frozen=True)
class Blob:
    x0: int
    y0: int
    width: int
    height: int
    area: int
    centroid_x: float = 0.0
    centroid_y: float = 0.0


@dataclass(frozen=True)
class DigitDetection:
    digit: int
    image_x: float
    image_y: float
    range_z: float
    score: float


def adaptive_binarize(frame: Frame, margin: float = DEFAULT_BINARIZE_MARGIN) -> BinaryFrame:
    """Foreground = pixels darker than (frame mean - margin).

    The mean-relative threshold makes the result invariant to any global
    brightness offset that does not clip at 0 or 255.
    """
    threshold = float(frame.pixels.mean()) - margin
    return BinaryFrame(frame.pixels < threshold)


# --------------------------------------------------------------------------
# radial undistortion by reverse mapping

@lru_cache(maxsize=8)
def _undistort_map(width: int, height: int, k1: float):
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    norm = math.hypot(cx, cy)
    vv, uu = np.meshgrid(np.arange(height, dtype=float),
                         np.arange(width, dtype=float), indexing="ij")
    du, dv = uu - cx, vv - cy
    r_u = np.hypot(du, dv) / norm
    scale = 1.0 + k1 * r_u * r_u  # r_d / r_u
    src_u = np.rint(cx + du * scale).astype(np.int64)
    src_v = np.rint(cy + dv * scale).astype(np.int64)
    valid = (src_u >= 0) & (src_u < width) & (src_v >= 0) & (src_v < height)
    src_u = np.clip(src_u, 0, width - 1)
    src_v = np.clip(src_v, 0, height - 1)
    src_v.flags.writeable = src_u.flags.writeable = valid.flags.writeable = False
    return src_v, src_u, valid


def undistort_bits(binary: BinaryFrame, k1: float) -> BinaryFrame:
    """Reverse-map the one-parameter radial distortion (nearest neighbor);
    pixels that map from outside the frame read as background."""
    check_k1(k1)
    if k1 == 0.0:
        return binary
    src_v, src_u, valid = _undistort_map(binary.width, binary.height, k1)
    return BinaryFrame(binary.bits[src_v, src_u] & valid)


def line_centroid(binary: BinaryFrame, roi_rows: tuple[int, int],
                  min_pixels: int = 12,
                  expected_width_px: float = EXPECTED_LINE_WIDTH_PX,
                  col_window: tuple[int, int] | None = None
                  ) -> tuple[float, float] | None:
    """Mean foreground column in a row band, with a crude confidence.

    Returns None when the band holds fewer than min_pixels foreground
    pixels. Confidence is the foreground count relative to a nominal
    full-height line of expected_width_px. ``col_window`` restricts the
    band to a column range (a tracking gate that keeps nearby placard ink
    out of the average); the returned x stays in full-frame coordinates.
    """
    r0, r1 = roi_rows
    if not (0 <= r0 < r1 <= binary.height):
        raise ValueError(f"roi rows {roi_rows} outside frame of {binary.height} rows")
    c0 = 0
    if col_window is not None:
        c0 = max(0, col_window[0])
        band = binary.bits[r0:r1, c0:max(c0, col_window[1])]
    else:
        band = binary.bits[r0:r1]
    count = int(band.sum())
    if count < min_pixels:
        return None
    cols = np.nonzero(band)[1]
    x = float(cols.mean()) + c0
    confidence = min(1.0, count / ((r1 - r0) * expected_width_px))
    return x, confidence


# --------------------------------------------------------------------------
# connected components (8-connectivity, run-based union-find)

def _label_runs(bits: np.ndarray) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """Row runs of foreground, grouped into 8-connected components.

    Returns (run_row, run_start, run_end, groups) where each group is a
    list of run indices belonging to one component.
    """
    h, w = bits.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = bits
    flat = padded.ravel()
    diff = np.diff(flat.astype(np.int8))
    starts = np.nonzero(diff == 1)[0] + 1
    ends = np.nonzero(diff == -1)[0] + 1
    if flat[0]:
        starts = np.concatenate(([0], starts))
    stride = w + 1
    rows_arr = starts // stride
    run_row = rows_arr.tolist()
    run_s = (starts - rows_arr * stride).tolist()
    run_e = (ends - rows_arr * stride).tolist()
    n = len(run_row)

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    prev: list[int] = []  # run indices on the previous row
    prev_row = -2
    i = 0
    while i < n:
        r = run_row[i]
        row_runs = []
        while i < n and run_row[i] == r:
            row_runs.append(i)
            i += 1
        if r == prev_row + 1:
            j = 0
            np_prev = len(prev)
            for ci in row_runs:
                cs, ce = run_s[ci], run_e[ci]
                while j < np_prev and run_e[prev[j]] < cs:
                    j += 1
                k = j
                while k < np_prev and run_s[prev[k]] <= ce:
                    ra, rb = find(ci), find(prev[k])
                    if ra != rb:
                        parent[rb] = ra
                    k += 1
        prev = row_runs
        prev_row = r

    grouped: dict[int, list[int]] = {}
    for idx in range(n):
        grouped.setdefault(find(idx), []).append(idx)
    return run_row, run_s, run_e, list(grouped.values())


def _blob_of(members: list[int], run_row, run_s, run_e) -> Blob:
    """Bounding box, area and centroid of one component."""
    area = 0
    x0 = y0 = 1 << 30
    x1 = y1 = -1
    sum_x = 0.0
    sum_y = 0.0
    for m in members:
        s, e, r = run_s[m], run_e[m], run_row[m]
        cnt = e - s
        area += cnt
        sum_x += cnt * (s + e - 1) / 2.0
        sum_y += cnt * r
        if s < x0:
            x0 = s
        if e > x1:
            x1 = e
        if r < y0:
            y0 = r
        if r > y1:
            y1 = r
    bw, bh = x1 - x0, y1 - y0 + 1
    return Blob(x0=x0, y0=y0, width=bw, height=bh, area=area,
                centroid_x=sum_x / area, centroid_y=sum_y / area)


# --------------------------------------------------------------------------
# template matching

def normalize_mask(mask: np.ndarray, n: int = GRID_N) -> np.ndarray:
    """Stretch a mask's tight bounding box onto an n x n grid.

    Cropping to the ink removes translation; stretching both axes removes
    the residual aspect error a perspective blob carries. Templates go
    through the same transform, so comparisons stay consistent. Resampling
    is a 3x supersampled box filter (majority vote per output cell), which
    keeps thin strokes stable under small scale changes.
    """
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        return np.zeros((n, n), dtype=bool)
    crop = mask[ys.min():ys.max() + 1, xs.min():xs.max() + 1]
    bh, bw = crop.shape
    rows, cols = _resample_indices(bh, bw, n)
    fine = crop[rows][:, cols].astype(np.uint8)
    ss = _SUPERSAMPLE
    return fine.reshape(n, ss, n, ss).sum(axis=(1, 3)) * 2 >= ss * ss


def _normalized_template(tmpl: DigitTemplate) -> np.ndarray:
    return _normalized_grid(tmpl.grid.astype(bool, copy=False).tobytes())


@lru_cache(maxsize=32)
def _normalized_grid(grid: bytes) -> np.ndarray:
    norm = normalize_mask(np.frombuffer(grid, dtype=bool).reshape(GRID_N, GRID_N))
    norm.flags.writeable = False
    return norm


def match_digit(mask: np.ndarray, templates: dict[int, DigitTemplate],
                accept_threshold: float = DEFAULT_ACCEPT_THRESHOLD,
                margin: float = DEFAULT_MARGIN) -> tuple[int, float] | None:
    """Best-scoring digit for a glyph mask, or None when ambiguous or poor.

    Score is 1 - hamming/N^2 between the centered, aspect-normalized mask
    and each normalized template. The winner must clear the accept
    threshold and beat the runner-up by the margin.
    """
    norm = normalize_mask(mask)
    cells = norm.size
    best_digit, best, second = 0, -1.0, -1.0
    for digit in sorted(templates):
        score = 1.0 - np.logical_xor(norm, _normalized_template(templates[digit])).sum() / cells
        if score > best:
            best_digit, second, best = digit, best, score
        elif score > second:
            second = score
    if best >= accept_threshold and (best - second) >= margin:
        return best_digit, float(best)
    return None


# --------------------------------------------------------------------------
# placard detection

def _rectify_on_ground(bits: np.ndarray, blob: Blob, cam: CameraModel) -> np.ndarray | None:
    """Resample a blob as seen from straight above, assuming it lies flat on
    the ground with its top pointing away from the cart."""
    us = np.array([blob.x0 - 0.5, blob.x0 + blob.width - 0.5,
                   blob.x0 - 0.5, blob.x0 + blob.width - 0.5])
    vs = np.array([blob.y0 - 0.5, blob.y0 - 0.5,
                   blob.y0 + blob.height - 0.5, blob.y0 + blob.height - 0.5])
    gx, gy = cam.ground_from_pixels(us, vs)
    if np.isnan(gx).any() or np.isnan(gy).any():
        return None
    cx_g = (gx.min() + gx.max()) / 2.0
    cy_g = (gy.min() + gy.max()) / 2.0
    side = max(gx.max() - gx.min(), gy.max() - gy.min())
    if side <= 0:
        return None
    k = _RECTIFY_GRID
    offs = side / 2.0 - (np.arange(k) + 0.5) * side / k
    pu, pv = cam.pixels_from_ground(cx_g + offs[:, None], cy_g + offs[None, :])
    pu, pv = np.broadcast_arrays(pu, pv)
    iu = np.rint(pu).astype(np.int64)
    iv = np.rint(pv).astype(np.int64)
    h, w = bits.shape
    ok = (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
    out = np.zeros((k, k), dtype=bool)
    out[ok] = bits[iv[ok], iu[ok]]
    return out


def detect_placards(frame: Frame, cam: CameraModel,
                    templates: dict[int, DigitTemplate],
                    min_area: int = DEFAULT_MIN_AREA,
                    accept_threshold: float = DEFAULT_ACCEPT_THRESHOLD,
                    margin: float = DEFAULT_MARGIN,
                    glyph_height_m: float = DEFAULT_GLYPH_HEIGHT_M
                    ) -> list[DigitDetection]:
    """Full pipeline: binarize, undistort, blobs, rectify, match.

    Range is estimated from the apparent blob height through the pinhole
    relation with the known glyph height; it is coarse but monotone, which
    is all the junction gating needs. Detections come back sorted by
    image x.
    """
    binary = adaptive_binarize(frame)
    binary = undistort_bits(binary, cam.distortion_k1)
    return detect_in_binary(binary, cam, templates, min_area=min_area,
                            accept_threshold=accept_threshold, margin=margin,
                            glyph_height_m=glyph_height_m)


def detect_in_binary(binary: BinaryFrame, cam: CameraModel,
                     templates: dict[int, DigitTemplate],
                     min_area: int = DEFAULT_MIN_AREA,
                     accept_threshold: float = DEFAULT_ACCEPT_THRESHOLD,
                     margin: float = DEFAULT_MARGIN,
                     glyph_height_m: float = DEFAULT_GLYPH_HEIGHT_M
                     ) -> list[DigitDetection]:
    """Detection stage over an already binarized and undistorted frame."""
    bits = binary.bits
    h, w = bits.shape
    if h == 0 or w == 0 or not bits.any():
        return []
    run_row, run_s, run_e, groups = _label_runs(bits)
    detections: list[DigitDetection] = []
    for members in groups:
        area = 0
        for m in members:
            area += run_e[m] - run_s[m]
        if area < min_area:
            continue
        blob = _blob_of(members, run_row, run_s, run_e)
        if not (_CAND_MIN_H <= blob.height <= _CAND_MAX_H):
            continue
        if not (_CAND_MIN_W <= blob.width <= _CAND_MAX_W):
            continue
        if blob.width / blob.height > _CAND_MAX_ASPECT:
            continue
        fill = blob.area / (blob.width * blob.height)
        if not (_CAND_MIN_FILL <= fill <= _CAND_MAX_FILL):
            continue
        if blob.x0 == 0 or blob.y0 == 0 or blob.x0 + blob.width >= w \
                or blob.y0 + blob.height >= h:
            continue  # clipped at a frame border; not a readable placard
        rectified = _rectify_on_ground(bits, blob, cam)
        if rectified is None:
            continue
        scored = match_digit(rectified, templates, accept_threshold=accept_threshold,
                             margin=margin)
        if scored is None:
            continue
        digit, score = scored
        range_z = glyph_height_m * cam.focal_px / blob.height
        detections.append(DigitDetection(digit=digit, image_x=blob.centroid_x,
                                         image_y=blob.centroid_y,
                                         range_z=range_z, score=score))
    detections.sort(key=lambda d: d.image_x)
    return detections
