"""Recognition pipeline: binarize, undistort, line centroid, blobs, digits.

All operations are pure and pass plain numpy arrays: a frame is the
(height, width) uint8 pixels, and a binary frame is the (height, width) bool
bits, True for ink. Connected components are labeled over row runs under
8-connectivity, so diagonal contact joins blobs: each run points at the
first run it touches in the row above, pointer jumping carries every run to
the top of its chain, and only the few runs that touch two or more runs
above are merged in Python. A blob is matched against the one template
stack, ``default_templates()``, in the normal form of ``glyphs``. A frame's
detections are one tuple of frozen ``DigitDetection``s, sorted by image x,
which every reader shares as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..arena import GLYPH_HEIGHT
from .camera import FOCAL_PX, CameraModel, check_k1
from .glyphs import default_templates, normalize_mask

MIN_AREA = 9                # pixels; smaller blobs are never scored
ACCEPT_THRESHOLD = 0.85     # a match must score at least this
MATCH_MARGIN = 0.05         # and beat the runner-up digit by this
BINARIZE_MARGIN = 30.0      # ink is this much darker than the frame mean
EXPECTED_LINE_WIDTH_PX = 7.0

# image-space gates a blob must pass to be scored as a digit candidate
_CAND_MIN_H, _CAND_MAX_H = 6, 60
_CAND_MIN_W, _CAND_MAX_W = 3, 80
_CAND_MAX_ASPECT = 3.4
_CAND_MIN_FILL, _CAND_MAX_FILL = 0.10, 0.95
_RECTIFY_GRID = 48
_EXACT_SUM_PIXELS = (2 ** 32 - 1) // 255  # a uint8 frame's uint32 sum cannot wrap


@dataclass(frozen=True)
class DigitDetection:
    digit: int
    image_x: float
    range_z: float
    score: float


def adaptive_binarize(pixels: np.ndarray) -> np.ndarray:
    """Foreground = pixels darker than (frame mean - BINARIZE_MARGIN).

    The mean-relative threshold makes the result invariant to any global
    brightness offset that does not clip at 0 or 255.
    """
    if pixels.dtype != np.uint8 or pixels.size > _EXACT_SUM_PIXELS:
        raise ValueError(f"a frame is uint8 of at most {_EXACT_SUM_PIXELS} pixels, "
                         f"not {pixels.dtype} of {pixels.size}")
    # the uint32 sum is exact and the division correctly rounded, so this is
    # the float threshold; an integer p is below it exactly when p is below
    # its ceiling, which is at most 255 - BINARIZE_MARGIN (an empty frame
    # divides by 1 and gives empty bits)
    total = int(np.add.reduce(pixels, axis=None, dtype=np.uint32))
    return pixels < max(0, math.ceil(total / max(pixels.size, 1) - BINARIZE_MARGIN))


# --------------------------------------------------------------------------
# radial undistortion by reverse mapping

@lru_cache(maxsize=8)
def _undistort_map(width: int, height: int, k1: float) -> tuple[np.ndarray, np.ndarray]:
    """(flat source index, valid) of every output pixel, both (height, width)
    and read-only; an invalid pixel's index is a clipped in-range one."""
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    norm = math.hypot(cx, cy) or 1.0  # a 1 x 1 frame is all center, radius 0
    vv, uu = np.meshgrid(np.arange(height, dtype=float),
                         np.arange(width, dtype=float), indexing="ij")
    du, dv = uu - cx, vv - cy
    r_u = np.hypot(du, dv) / norm
    scale = 1.0 + k1 * r_u * r_u  # r_d / r_u
    # clipped in float before the cast: a huge k1 maps beyond int64, or to +-inf
    with np.errstate(over="ignore"):
        src_u = np.clip(np.rint(cx + du * scale), -1, width).astype(np.int64)
        src_v = np.clip(np.rint(cy + dv * scale), -1, height).astype(np.int64)
    valid = (src_u >= 0) & (src_u < width) & (src_v >= 0) & (src_v < height)
    # in place: the map is built while a noisy run's work arrays are held
    np.clip(src_u, 0, width - 1, out=src_u)
    flat = np.clip(src_v, 0, height - 1, out=src_v)
    flat *= width
    flat += src_u
    flat.flags.writeable = valid.flags.writeable = False
    return flat, valid


def undistort_bits(bits: np.ndarray, k1: float) -> np.ndarray:
    """Reverse-map the one-parameter radial distortion (nearest neighbor);
    pixels that map from outside the frame read as background."""
    check_k1(k1)
    if k1 == 0.0:
        return bits
    height, width = bits.shape
    flat, valid = _undistort_map(width, height, k1)
    return np.logical_and(bits.take(flat), valid)


def line_centroid(bits: np.ndarray, roi_rows: tuple[int, int],
                  min_pixels: int = 12,
                  col_window: tuple[int, int] | None = None
                  ) -> tuple[float, float] | None:
    """Mean foreground column in a row band, with a crude confidence.

    Returns None when the band holds fewer than min_pixels foreground
    pixels. Confidence is the foreground count relative to a nominal
    full-height line of EXPECTED_LINE_WIDTH_PX. ``col_window`` restricts the
    band to a column range (a tracking gate that keeps nearby placard ink
    out of the average); the returned x stays in full-frame coordinates.
    """
    r0, r1 = roi_rows
    if not (0 <= r0 < r1 <= len(bits)):
        raise ValueError(f"roi rows {roi_rows} outside frame of {len(bits)} rows")
    c0 = 0
    if col_window is not None:
        c0 = max(0, col_window[0])
        band = bits[r0:r1, c0:max(c0, col_window[1])]
    else:
        band = bits[r0:r1]
    count = int(band.sum())
    if count < min_pixels:
        return None
    # the integer sum is exact and the division correctly rounded, so this
    # is cols.mean() without NumPy's Python wrapper around it
    x = int(band.nonzero()[1].sum()) / count + c0
    confidence = min(1.0, count / ((r1 - r0) * EXPECTED_LINE_WIDTH_PX))
    return x, confidence


# --------------------------------------------------------------------------
# connected components (8-connectivity, row runs)

def _label_runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of foreground, grouped into 8-connected components.

    Returns (run_row, run_start, run_end, label), one entry per run in
    raster order; run_end is exclusive and a run's label is the smallest
    run index in its component.
    """
    h, w = bits.shape
    stride = w + 1
    # every row after a blank column, and one blank after the last row: a
    # run's start and end are then flat diff indices, column = index % stride
    flat = np.zeros(h * stride + 1, dtype=bool)
    flat[:-1].reshape(h, stride)[:, 1:] = bits
    # the changes alternate: a run's start, then its end (a bool diff, as
    # nonzero runs several times faster on bool than on int8)
    edges = np.diff(flat).nonzero()[0]
    starts, ends = edges[0::2], edges[1::2]
    # run [s, e) touches the runs of the row above with end >= s and
    # start <= e, which are the run indices lo..hi-1
    lo = ends.searchsorted(starts - stride)
    hi = starts.searchsorted(ends - stride, side="right")
    n = len(starts)
    label = np.where(hi > lo, lo, np.arange(n))
    # a pointer climbs one row, so a chain has at most h - 1 hops and
    # (h - 1).bit_length() doublings reach its top, the smallest index on it
    for _ in range((h - 1).bit_length()):
        label = label[label]
    # only a run that touches two or more runs above can join two chains
    merges = (hi - lo > 1).nonzero()[0].tolist()
    if merges:
        tops = label.tolist()
        parent: dict[int, int] = {}

        def find(i: int) -> int:
            while i in parent:
                i = parent[i]
            return i

        for i in merges:
            for k in range(int(lo[i]) + 1, int(hi[i])):
                a, b = find(tops[i]), find(tops[k])
                if a != b:
                    parent[max(a, b)] = min(a, b)
        root = np.arange(n)
        for top in parent:
            root[top] = find(top)
        label = root[label]
    rows = starts // stride
    return rows, starts - rows * stride, ends - rows * stride, label


# --------------------------------------------------------------------------
# template matching

def match_digit(mask: np.ndarray) -> tuple[int, float] | None:
    """Best-scoring digit for a glyph mask, or None when ambiguous or poor.

    Score is 1 - hamming/N^2 between the centered, aspect-normalized mask
    and each template of ``default_templates()``. The winner must clear
    ACCEPT_THRESHOLD and beat the runner-up by MATCH_MARGIN.
    """
    norm = normalize_mask(mask)
    cells = norm.size
    misses = np.logical_xor(norm, default_templates()).sum(axis=(1, 2)).tolist()
    best_digit, best, second = 0, -1.0, -1.0
    for digit, miss in enumerate(misses, start=1):
        score = 1.0 - miss / cells
        if score > best:
            best_digit, second, best = digit, best, score
        elif score > second:
            second = score
    if best >= ACCEPT_THRESHOLD and (best - second) >= MATCH_MARGIN:
        return best_digit, float(best)
    return None


# --------------------------------------------------------------------------
# placard detection

# a card seen again under other light or noise (a corpus scene's exposures
# whose ink differs, a noisy cart standing still) keeps its box, and a frame
# has at most two candidate blobs in any perfbench workload: one to sixteen
# entries hit equally often. Per seed-1 round, 771 of 901 corpus
# rectifications hit (the detection memo takes the exposures with equal
# ink), 8 of 198 in ward_sweep, 16 of 485 in noisy_far, 2 of 154 in
# twocart_lossy
@lru_cache(maxsize=4)
def _rectify_table(x0: int, y0: int, width: int, height: int, frame_h: int,
                   frame_w: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(flat pixel index, in frame) of each cell of a box's ground square,
    both (_RECTIFY_GRID, _RECTIFY_GRID) and read-only, or None when a corner
    ray misses the ground or the square has no side."""
    us = np.array([x0 - 0.5, x0 + width - 0.5, x0 - 0.5, x0 + width - 0.5])
    vs = np.array([y0 - 0.5, y0 - 0.5, y0 + height - 0.5, y0 + height - 0.5])
    gx, gy = CameraModel.ground_from_pixels(us, vs)
    gx, gy = gx.tolist(), gy.tolist()
    if any(math.isnan(g) for g in gx + gy):
        return None
    cx_g = (min(gx) + max(gx)) / 2.0
    cy_g = (min(gy) + max(gy)) / 2.0
    side = max(max(gx) - min(gx), max(gy) - min(gy))
    if side <= 0:
        return None
    k = _RECTIFY_GRID
    offs = side / 2.0 - (np.arange(k) + 0.5) * side / k
    # pu is (k, k); pv depends on the grid row only and stays (k, 1)
    pu, pv = CameraModel.pixels_from_ground(cx_g + offs[:, None], cy_g + offs[None, :])
    iu = np.rint(pu).astype(np.int64)
    iv = np.rint(pv).astype(np.int64)
    # as unsigned, a negative index is too large: one compare per axis
    ok = (iu.view(np.uint64) < frame_w) & (iv.view(np.uint64) < frame_h)
    flat = iv * frame_w + iu
    flat.setflags(write=False)
    ok.setflags(write=False)
    return flat, ok


def _rectify_on_ground(bits: np.ndarray, x0: int, y0: int, width: int,
                       height: int) -> np.ndarray | None:
    """Resample the blob in a pixel box as seen from straight above, assuming
    it lies flat on the ground with its top pointing away from the cart."""
    table = _rectify_table(x0, y0, width, height, *bits.shape)
    if table is None:
        return None
    flat, ok = table
    # a sample off the frame reads some in-range pixel here and is masked out
    return np.logical_and(bits.take(flat, mode="clip"), ok)


def detect_placards(pixels: np.ndarray, cam: CameraModel,
                    templates: np.ndarray) -> tuple[DigitDetection, ...]:
    """Full pipeline: binarize, undistort, blobs, rectify, match.

    Range is estimated from the apparent blob height through the pinhole
    relation with the known glyph height; it is coarse but monotone, which
    is all the junction gating needs. A frame whose bits and lens match one
    of the last two read is not read again, and gets the same tuple.
    ``templates`` must be ``default_templates()``; any other stack is a
    ValueError.
    """
    if templates is not default_templates():
        raise ValueError("detect_placards reads with default_templates() only")
    bits = adaptive_binarize(pixels)
    return _read_default(np.packbits(bits).tobytes(), bits.shape, cam.distortion_k1)


# a corpus card scene's exposures come in a row and most binarize to the
# same ink, so two entries hit as often as any more (one misses 40% more);
# the engine calls detect_in_binary itself and never builds this key
@lru_cache(maxsize=2)
def _read_default(packed: bytes, shape: tuple[int, ...],
                  k1: float) -> tuple[DigitDetection, ...]:
    """detect_placards for binarized bits given packed; the detections are
    frozen, so every hit shares the tuple."""
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                         count=math.prod(shape)).reshape(shape).view(bool)
    return detect_in_binary(undistort_bits(bits, k1))


def detect_in_binary(bits: np.ndarray, max_range: float = math.inf) -> tuple[DigitDetection, ...]:
    """Detection stage over an already binarized and undistorted frame:
    the detections sorted by image x.

    Only placards with range_z below max_range are read: a farther blob is
    dropped before it is rectified or matched.
    """
    h, w = bits.shape
    if h == 0 or w == 0 or not bits.any():
        return ()
    run_row, run_s, run_e, label = _label_runs(bits)
    run_len = run_e - run_s
    areas = np.bincount(label, weights=run_len)
    detections: list[DigitDetection] = []
    # candidates in order of their smallest run index, which orders
    # detections of equal image x
    for root in (areas >= MIN_AREA).nonzero()[0].tolist():
        members = (label == root).nonzero()[0]
        # runs are in raster order, so the root's row is the top one
        y0 = int(run_row[root])
        height = int(run_row[members[-1]]) - y0 + 1
        if not (_CAND_MIN_H <= height <= _CAND_MAX_H):
            continue
        range_z = GLYPH_HEIGHT * FOCAL_PX / height
        if not range_z < max_range:
            continue
        s, e = run_s[members], run_e[members]
        x0 = int(s.min())
        width = int(e.max()) - x0
        if not (_CAND_MIN_W <= width <= _CAND_MAX_W):
            continue
        if width / height > _CAND_MAX_ASPECT:
            continue
        area = int(areas[root])
        fill = area / (width * height)
        if not (_CAND_MIN_FILL <= fill <= _CAND_MAX_FILL):
            continue
        if x0 == 0 or y0 == 0 or x0 + width >= w or y0 + height >= h:
            continue  # clipped at a frame border; not a readable placard
        rectified = _rectify_on_ground(bits, x0, y0, width, height)
        if rectified is None:
            continue
        scored = match_digit(rectified)
        if scored is None:
            continue
        digit, score = scored
        cnt = run_len[members]
        # twice the x sum is an integer, so halving it is exact
        detections.append(DigitDetection(digit=digit,
                                         image_x=int(cnt @ (s + e - 1)) / 2.0 / area,
                                         range_z=range_z, score=score))
    return tuple(sorted(detections, key=lambda d: d.image_x))
