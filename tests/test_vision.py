import ast
import importlib
import itertools
import math
import pkgutil
import tracemalloc
import types
import warnings
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wardcart
from wardcart import simcore, vehicle
from wardcart.arena import (GLYPH_HEIGHT, RASTER_BUDGET, WORLD_CELL, PlacardEntry, default_map,
                            load_map, raster_box)
from wardcart.mission import MissionPhase, MissionState, Role
from wardcart.vision import camera, pipeline
from wardcart.vision.camera import CameraModel, ground_grid, undistorted_radius
from wardcart.vision.glyphs import (_SUPERSAMPLE, GRID_N, _axis_weights, default_templates,
                                    glyph_grid, normalize_mask)
from wardcart.vision.pipeline import (DigitDetection, _label_runs,
                                      adaptive_binarize, detect_in_binary,
                                      detect_placards, line_centroid,
                                      match_digit, undistort_bits)
from wardcart.simcore import CONTROL_ROI
from wardcart.vision.render import (LINE_HALF_WIDTH, NoiseParams, _cell_grid, _glyph_ink,
                                    _ink, _levels, _memo_ink, _scene_ink, _scratch, _WorldInk,
                                    clean_bits, render, world_ink)

EMPTY_MAP = load_map("node p 0 0\npharmacy p\nwidth 0.30\n")

# Bottom rows looking (almost) straight down. Perspective shifts the line's
# apparent center by ~d*tan(heading error); in this band d is small enough
# that the centroid stays within a pixel of truth for headings up to 5 deg.
# Controllers that want lookahead use a taller band and accept the skew.
NADIR_ROI = (118, 120)
NADIR_MIN_PIXELS = 8


def flood_fill_oracle(bits):
    """Independent 8-connected labeling by breadth-first flood fill."""
    h, w = bits.shape
    labels = -np.ones((h, w), dtype=int)
    comps = []
    for sy, sx in zip(*np.nonzero(bits)):
        if labels[sy, sx] >= 0:
            continue
        label = len(comps)
        stack = [(sy, sx)]
        labels[sy, sx] = label
        cells = []
        while stack:
            y, x = stack.pop()
            cells.append((y, x))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] \
                            and labels[ny, nx] < 0:
                        labels[ny, nx] = label
                        stack.append((ny, nx))
        comps.append(frozenset(cells))
    return set(comps)


# The detector before run labeling moved to NumPy: per-run union-find,
# blob statistics in Python and the candidate gates, kept as the reference
# that detect_in_binary must equal.

def reference_label_runs(bits):
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

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    prev = []  # run indices on the previous row
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

    grouped = {}
    for idx in range(n):
        grouped.setdefault(find(idx), []).append(idx)
    return run_row, run_s, run_e, list(grouped.values())


# a component's bounding box, pixel count and centroid
RefBlob = namedtuple("RefBlob", "x0 y0 width height area centroid_x centroid_y")


def reference_blob_of(members, run_row, run_s, run_e):
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
    return RefBlob(x0, y0, bw, bh, area, sum_x / area, sum_y / area)


def reference_detect_in_binary(bits):
    h, w = bits.shape
    if h == 0 or w == 0 or not bits.any():
        return ()
    run_row, run_s, run_e, groups = reference_label_runs(bits)
    detections = []
    for members in groups:
        area = 0
        for m in members:
            area += run_e[m] - run_s[m]
        if area < pipeline.MIN_AREA:
            continue
        blob = reference_blob_of(members, run_row, run_s, run_e)
        if not (pipeline._CAND_MIN_H <= blob.height <= pipeline._CAND_MAX_H):
            continue
        if not (pipeline._CAND_MIN_W <= blob.width <= pipeline._CAND_MAX_W):
            continue
        if blob.width / blob.height > pipeline._CAND_MAX_ASPECT:
            continue
        fill = blob.area / (blob.width * blob.height)
        if not (pipeline._CAND_MIN_FILL <= fill <= pipeline._CAND_MAX_FILL):
            continue
        if blob.x0 == 0 or blob.y0 == 0 or blob.x0 + blob.width >= w \
                or blob.y0 + blob.height >= h:
            continue
        rectified = pipeline._rectify_on_ground(bits, *blob[:4])
        if rectified is None:
            continue
        scored = match_digit(rectified)
        if scored is None:
            continue
        digit, score = scored
        range_z = pipeline.GLYPH_HEIGHT * camera.FOCAL_PX / blob.height
        detections.append(DigitDetection(digit=digit, image_x=blob.centroid_x,
                                         range_z=range_z, score=score))
    return tuple(sorted(detections, key=lambda d: d.image_x))


def reference_normalize_mask(mask):
    """3x supersampled majority vote by index gathers, as before the matmul."""
    n = GRID_N
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        return np.zeros((n, n), dtype=bool)
    crop = mask[ys.min():ys.max() + 1, xs.min():xs.max() + 1]
    bh, bw = crop.shape
    ss = _SUPERSAMPLE
    rows = np.minimum(((np.arange(n * ss) + 0.5) * bh / (n * ss)).astype(np.int64), bh - 1)
    cols = np.minimum(((np.arange(n * ss) + 0.5) * bw / (n * ss)).astype(np.int64), bw - 1)
    fine = crop[rows][:, cols].astype(np.uint8)
    return fine.reshape(n, ss, n, ss).sum(axis=(1, 3)) * 2 >= ss * ss


# ------------------------------------------------------------- binarize

def test_uniform_frame_has_no_foreground():
    assert not adaptive_binarize(np.full((20, 30), 200, dtype=np.uint8)).any()


def test_half_dark_half_bright_splits():
    px = np.zeros((10, 10), dtype=np.uint8)
    px[:, 5:] = 255
    bits = adaptive_binarize(px)
    assert bits[:, :5].all()
    assert not bits[:, 5:].any()


def test_brightness_offset_invariance_exact():
    rng = np.random.default_rng(0)
    base = rng.integers(60, 200, size=(40, 50)).astype(np.uint8)
    a = adaptive_binarize(base)
    b = adaptive_binarize(base + np.uint8(30))
    assert np.array_equal(a, b)


@given(offset=st.integers(min_value=-40, max_value=40))
@settings(max_examples=30, deadline=None)
def test_brightness_invariance_property(offset):
    rng = np.random.default_rng(5)
    base = rng.integers(50, 200, size=(24, 24)).astype(np.int64)
    shifted = (base + offset).astype(np.uint8)
    assert np.array_equal(adaptive_binarize(base.astype(np.uint8)),
                          adaptive_binarize(shifted))


def binarize_reference(pixels):
    return pixels < float(pixels.mean()) - pipeline.BINARIZE_MARGIN


def _camera_frame(seed, lo, span):
    """A camera-sized frame of values in [lo, lo + span], clipped at 255."""
    return np.random.default_rng(seed).integers(lo, min(255, lo + span), (120, 160),
                                                endpoint=True, dtype=np.uint8)


frames_u8 = st.one_of(
    arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))),
    # uniform frames, all 0 and all 255 among them
    st.builds(np.full, st.tuples(st.integers(1, 12), st.integers(1, 12)),
              st.integers(0, 255), st.just(np.uint8)),
    st.builds(_camera_frame, st.integers(0, 2 ** 32 - 1), st.integers(0, 255),
              st.integers(0, 255)))


@given(pixels=frames_u8)
@example(pixels=np.zeros((120, 160), dtype=np.uint8))
@example(pixels=np.full((120, 160), 255, dtype=np.uint8))
@example(pixels=np.array([[10, 70]], dtype=np.uint8))     # threshold 10, a pixel value
@example(pixels=np.array([[0, 0, 90]], dtype=np.uint8))   # threshold 0
@example(pixels=np.array([[0, 0, 91]], dtype=np.uint8))   # threshold just above 0
@example(pixels=np.array([[0, 0, 89]], dtype=np.uint8))   # threshold just below 0
@settings(max_examples=200, deadline=None)
def test_integer_threshold_equals_the_float_mean_threshold(pixels):
    got = adaptive_binarize(pixels)
    assert got.dtype == bool
    assert np.array_equal(got, binarize_reference(pixels))


def test_binarize_takes_only_uint8_frames():
    with pytest.raises(ValueError, match="uint8"):
        adaptive_binarize(np.zeros((4, 4)))
    assert adaptive_binarize(np.zeros((0, 160), dtype=np.uint8)).shape == (0, 160)


# ------------------------------------------------------------ undistort

def test_undistort_zero_is_identity():
    rng = np.random.default_rng(1)
    b = rng.random((60, 80)) < 0.5
    assert np.array_equal(undistort_bits(b, 0.0), b)


def test_undistort_keeps_center_pixel():
    bits = np.zeros((61, 81), dtype=bool)
    bits[30, 40] = True  # the exact center, radius zero
    for k1 in (0.05, 0.1, 0.2):
        out = undistort_bits(bits, k1)
        assert out[30, 40]


def test_undistort_maps_a_1x1_frame_onto_itself():
    # the only pixel is the center, at radius 0 under any half-diagonal
    for ink in (False, True):
        out = undistort_bits(np.full((1, 1), ink), 0.1)
        assert out.tolist() == [[ink]]


def test_non_monotone_k1_rejected():
    with pytest.raises(ValueError):
        undistort_bits(np.zeros((10, 10), dtype=bool), -0.4)
    CameraModel(distortion_k1=0.1)  # fine
    with pytest.raises(ValueError):
        CameraModel(distortion_k1=-0.5)


@pytest.mark.parametrize("k1", [1e12, 1e18, 1e300, 1.7976931348623157e308])
def test_a_huge_k1_maps_every_pixel_off_the_frame(k1):
    # every source lies far outside the frame, beyond the int64 range from
    # about 1e19 up, and the map is built without a RuntimeWarning
    assert not undistort_bits(np.ones((120, 160), dtype=bool), k1).any()


def test_an_infinite_k1_is_rejected():
    for make in (CameraModel, lambda k1: NoiseParams(k1=k1)):
        with pytest.raises(ValueError, match="finite"):
            make(math.inf)


def test_a_huge_sigma_saturates_every_pixel(track):
    pixels = render(track, (0.0, 0.0, math.pi / 2), CameraModel(),
                    NoiseParams(sigma=1.7976931348623157e308), rng=np.random.default_rng(0))
    assert set(np.unique(pixels).tolist()) == {0, 255}


def test_lens_distortion_is_the_only_camera_setting():
    assert [f.name for f in fields(CameraModel)] == ["distortion_k1"]


def test_render_takes_its_distortion_from_the_camera(track):
    pose = (0.05, 0.4, math.pi / 2)
    bent = render(track, pose, CameraModel(distortion_k1=0.1), NoiseParams())
    assert np.array_equal(bent, render(track, pose, CameraModel(distortion_k1=0.1),
                                       NoiseParams(k1=0.1)))
    assert not np.array_equal(bent, render(track, pose, CameraModel(), NoiseParams(k1=0.1)))


def test_undistorted_radius_inverts_the_model():
    r_u = np.linspace(0, 1, 50)
    for k1 in (0.02, 0.1, 0.3, -0.2):
        r_d = r_u * (1 + k1 * r_u ** 2)
        back = undistorted_radius(r_d, k1)
        assert np.allclose(back, r_u, atol=1e-10)


def _row_centroids(bits, rows):
    out = []
    for r in rows:
        cols = np.nonzero(bits[r])[0]
        if len(cols):
            out.append((r, cols.mean()))
    return out


LINE_MAP = load_map("node a 0 0\nnode b 0 4\nedge e a b\npharmacy a\nwidth 0.30\n")


def _fit_residual(bits, rows):
    pts = _row_centroids(bits, rows)
    ys = np.array([p[0] for p in pts], dtype=float)
    xs = np.array([p[1] for p in pts], dtype=float)
    coef = np.polyfit(ys, xs, 1)
    return float(np.sqrt(np.mean((xs - np.polyval(coef, ys)) ** 2)))


def test_undistort_straightens_an_offset_line():
    # a line rendered off the image axis bends under distortion; after
    # reverse mapping the per-row centroids sit on a straight line again
    pose = (0.12, 0.4, math.pi / 2)  # off the spine so the bend is horizontal
    rows = range(25, 110)

    k1 = 0.2
    frame = render(LINE_MAP, pose, CameraModel(distortion_k1=k1), NoiseParams(k1=k1))
    distorted = adaptive_binarize(frame)
    fixed = undistort_bits(distorted, k1)
    before = _fit_residual(distorted, rows)
    after = _fit_residual(fixed, rows)
    assert after < before
    assert after < 0.5

    k1 = 0.1
    frame = render(LINE_MAP, pose, CameraModel(distortion_k1=k1), NoiseParams(k1=k1))
    fixed = undistort_bits(adaptive_binarize(frame), k1)
    assert _fit_residual(fixed, rows) < 0.5


# --------------------------------------------------------- line centroid

def test_line_centroid_mean_of_columns():
    bits = np.zeros((20, 100), dtype=bool)
    bits[:, 30:35] = True
    x, conf = line_centroid(bits, (0, 20))
    assert x == pytest.approx(32.0)
    assert conf > 0.5


def test_line_centroid_empty_roi_is_none():
    bits = np.zeros((20, 100), dtype=bool)
    assert line_centroid(bits, (0, 20)) is None


def test_line_centroid_two_segments_averages_to_midpoint():
    bits = np.zeros((12, 100), dtype=bool)
    bits[:, 18:23] = True
    bits[:, 58:63] = True
    # independent oracle: direct mean over the constructed mask
    cols = np.nonzero(bits)[1]
    want = cols.mean()
    x, _ = line_centroid(bits, (0, 12))
    assert x == pytest.approx(want) == pytest.approx(40.0)


def test_line_centroid_roi_bounds_checked():
    bits = np.zeros((20, 100), dtype=bool)
    with pytest.raises(ValueError):
        line_centroid(bits, (0, 21))
    with pytest.raises(ValueError):
        line_centroid(bits, (5, 5))


def test_line_centroid_column_window_masks_clutter():
    bits = np.zeros((20, 100), dtype=bool)
    bits[:, 48:53] = True   # the line
    bits[:, 10:14] = True   # clutter far left
    full, _ = line_centroid(bits, (0, 20))
    gated, _ = line_centroid(bits, (0, 20), col_window=(38, 63))
    assert abs(gated - 50.0) < 0.6
    assert full < gated  # clutter drags the ungated mean left


@settings(max_examples=200, deadline=None)
@given(bits=arrays(bool, st.tuples(st.integers(1, 42), st.integers(1, 160))),
       window=st.none() | st.tuples(st.integers(-20, 170), st.integers(-20, 170)))
def test_line_centroid_x_is_the_numpy_mean_of_the_columns(bits, window):
    got = line_centroid(bits, (0, bits.shape[0]), min_pixels=1, col_window=window)
    c0 = 0 if window is None else max(0, window[0])
    band = bits if window is None else bits[:, c0:max(c0, window[1])]
    if not band.any():
        assert got is None
        return
    want = float(np.nonzero(band)[1].mean()) + c0
    assert type(got[0]) is float and got[0] == want


# -------------------------------------------------------------- contours

def groups_of(bits):
    """(run_row, run_start, run_end, groups) from _label_runs as lists, each
    group the run indices of one label, in order of label; checks that a
    label is its group's smallest run index."""
    run_row, run_s, run_e, label = (a.tolist() for a in _label_runs(bits))
    groups = {}
    for idx, lab in enumerate(label):
        groups.setdefault(lab, []).append(idx)
    assert all(lab == members[0] for lab, members in groups.items())
    return run_row, run_s, run_e, list(groups.values())


def blobs_of(bits):
    """One blob per 8-connected component, from the runs and labels of
    _label_runs."""
    run_row, run_s, run_e, groups = groups_of(bits)
    return [reference_blob_of(g, run_row, run_s, run_e) for g in groups]


def component_pixels(bits):
    """Each 8-connected component as the set of its (row, col) pixels,
    rebuilt from the runs of _label_runs."""
    run_row, run_s, run_e, groups = groups_of(bits)
    return [frozenset((run_row[m], x) for m in g for x in range(run_s[m], run_e[m]))
            for g in groups]


def test_contours_empty_frame():
    assert blobs_of(np.zeros((10, 10), dtype=bool)) == []


def test_contours_single_square():
    bits = np.zeros((12, 12), dtype=bool)
    bits[3:8, 4:9] = True
    blobs = blobs_of(bits)
    assert len(blobs) == 1
    b = blobs[0]
    assert (b.x0, b.y0, b.width, b.height, b.area) == (4, 3, 5, 5, 25)
    assert component_pixels(bits) == [frozenset(zip(*np.nonzero(bits)))]
    assert b.centroid_x == pytest.approx(6.0)
    assert b.centroid_y == pytest.approx(5.0)


def test_diagonal_touch_joins_under_8_connectivity():
    bits = np.zeros((10, 10), dtype=bool)
    bits[1:4, 1:4] = True
    bits[4:7, 4:7] = True  # touches only at the (3,3)-(4,4) diagonal
    blobs = blobs_of(bits)
    assert len(blobs) == 1
    assert blobs[0].area == 18
    assert len(flood_fill_oracle(bits)) == 1


def test_min_area_filters_specks():
    # detect_in_binary scores only components of at least MIN_AREA
    # pixels: a lone speck falls below, a 3x3 square reaches it
    bits = np.zeros((10, 10), dtype=bool)
    bits[1, 1] = True
    bits[5:8, 5:8] = True
    blobs = blobs_of(bits)
    assert [b.area for b in blobs] == [1, 9]
    assert blobs[0].area < pipeline.MIN_AREA <= blobs[1].area


def test_label_runs_groups_in_raster_order():
    # components come out in the raster order of their first pixel, which
    # fixes the order of equal-x detections
    bits = np.zeros((10, 30), dtype=bool)
    bits[2:5, 20:24] = True
    bits[6:9, 2:6] = True
    bits[6:9, 10:12] = True
    blobs = blobs_of(bits)
    assert [(b.y0, b.x0) for b in blobs] == [(2, 20), (6, 2), (6, 10)]


# 1-row and 1-column frames, and frames as wide as the camera's
FRAME_SHAPES = st.one_of(st.tuples(st.integers(1, 24), st.integers(1, 24)),
                         st.tuples(st.just(1), st.integers(1, 160)),
                         st.tuples(st.integers(1, 120), st.just(1)),
                         st.tuples(st.integers(1, 12), st.just(160)))


@given(arrays(bool, FRAME_SHAPES, elements=st.booleans()))
@example(np.ones((1, 1), dtype=bool))
@example(np.ones((3, 160), dtype=bool))
@example(np.eye(12, dtype=bool)[::-1])
@settings(max_examples=60, deadline=None)
def test_contours_match_flood_fill_oracle(bits):
    got = component_pixels(bits)
    assert set(got) == flood_fill_oracle(bits)
    # partition: every foreground pixel in exactly one component
    assert sum(len(c) for c in got) == int(bits.sum())


# -------------------------------------------------------------- matching

def test_exact_template_match_scores_one():
    for digit in range(1, 9):
        got = match_digit(glyph_grid(digit))
        assert got is not None
        assert got[0] == digit
        assert got[1] == pytest.approx(1.0)


def test_all_foreground_blob_rejected():
    solid = np.ones((GRID_N, GRID_N), dtype=bool)
    # oracle: compute all eight scores directly; none reaches the bar
    scores = sorted(
        (1.0 - np.logical_xor(normalize_mask(solid),
                              normalize_mask(glyph_grid(d))).sum() / GRID_N ** 2)
        for d in range(1, 9))
    assert scores[-1] < 0.85
    assert match_digit(solid) is None


def test_shifted_glyph_still_matches():
    field = np.zeros((24, 24), dtype=bool)
    field[4:20, 4:20] = glyph_grid(1)
    shifted = np.roll(field, (1, 1), axis=(0, 1))
    got = match_digit(shifted)
    assert got is not None and got[0] == 1
    assert got[1] >= 0.85


def test_templates_are_pairwise_distinct():
    worst = 1 << 30
    for a, b in itertools.combinations(range(1, 9), 2):
        ham = int(np.logical_xor(normalize_mask(glyph_grid(a)),
                                 normalize_mask(glyph_grid(b))).sum())
        worst = min(worst, ham)
    # margin rule needs 0.05 * 256 = 12.8 pixels of separation; keep slack
    assert worst >= 16


def test_normalize_mask_centers_and_is_translation_invariant():
    field = np.zeros((40, 40), dtype=bool)
    field[3:19, 5:21] = glyph_grid(6)
    a = normalize_mask(field)
    b = normalize_mask(np.roll(field, (7, 9), axis=(0, 1)))
    assert np.array_equal(a, b)
    assert normalize_mask(np.zeros((5, 5), dtype=bool)).sum() == 0


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
       density=st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normalize_mask_equals_the_supersample_reference(shape, density, seed):
    mask = np.random.default_rng(seed).random(shape) < density
    got = normalize_mask(mask)
    assert got.dtype == bool and got.shape == (GRID_N, GRID_N)
    assert np.array_equal(got, reference_normalize_mask(mask))


# -------------------------------------------------------------- detector

def test_detect_placards_empty_scene(cam, templates):
    frame = render(EMPTY_MAP, (0.0, 0.0, math.pi / 2), cam, NoiseParams())
    assert detect_placards(frame, cam, templates) == ()
    # and the frame really is blank
    assert not adaptive_binarize(frame).any()


def test_detect_single_placard_end_to_end(cam, templates):
    card = PlacardEntry(5, -0.10, 0.24, math.pi / 2)
    frame = render(EMPTY_MAP, (0.0, 0.0, math.pi / 2), cam, NoiseParams(),
                   cards=(card,))
    dets = detect_placards(frame, cam, templates)
    assert [d.digit for d in dets] == [5]
    assert dets[0].score >= 0.85


def test_detect_four_far_placards_left_to_right(cam, templates):
    digits = (5, 6, 7, 8)
    xs = (-0.24, -0.08, 0.08, 0.24)
    cards = tuple(PlacardEntry(d, x, 0.30, math.pi / 2)
                  for d, x in zip(digits, xs))
    frame = render(EMPTY_MAP, (0.0, 0.0, math.pi / 2), cam, NoiseParams(),
                   cards=cards)
    dets = detect_placards(frame, cam, templates)
    assert [d.digit for d in dets] == [5, 6, 7, 8]
    assert all(a.image_x < b.image_x for a, b in zip(dets, dets[1:]))


def test_range_estimate_is_monotone_in_distance(cam, templates):
    ranges = []
    for dist in (0.20, 0.26, 0.32):
        card = PlacardEntry(3, -0.10, dist, math.pi / 2)
        frame = render(EMPTY_MAP, (0.0, 0.0, math.pi / 2), cam, NoiseParams(),
                       cards=(card,))
        dets = detect_placards(frame, cam, templates)
        assert len(dets) == 1
        ranges.append(dets[0].range_z)
    assert ranges[0] < ranges[1] < ranges[2]


def _card_frame(digit, x, y, k1=0.0):
    cam = CameraModel(distortion_k1=k1)
    card = PlacardEntry(digit, x, y, math.pi / 2)
    return render(EMPTY_MAP, (0.0, 0.0, math.pi / 2), cam, NoiseParams(k1=k1),
                  cards=(card,))


def _staged(frame, k1):
    return detect_in_binary(undistort_bits(adaptive_binarize(frame), k1))


@pytest.mark.parametrize("k1", [0.0, 0.05])
def test_detect_placards_equals_the_stages_on_every_call(templates, k1):
    pipeline._read_default.cache_clear()
    cam = CameraModel(distortion_k1=k1)
    a, b = _card_frame(5, -0.10, 0.24, k1), _card_frame(2, 0.05, 0.26, k1)
    for frame in (a, b, a):
        got = detect_placards(frame, cam, templates)
        assert got and _typed_fields(got) == _typed_fields(_staged(frame, k1))
    info = pipeline._read_default.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_equal_bits_under_two_lenses_share_no_entry(templates):
    # off the axis, where the lens moves the card's pixels
    pipeline._read_default.cache_clear()
    frame = _card_frame(7, -0.24, 0.24)
    wants = [_staged(frame, k1) for k1 in (0.0, 0.05)]
    assert wants[0] and _typed_fields(wants[0]) != _typed_fields(wants[1])
    for k1, want in zip((0.0, 0.05), wants):
        got = detect_placards(frame, CameraModel(distortion_k1=k1), templates)
        assert _typed_fields(got) == _typed_fields(want)
    assert pipeline._read_default.cache_info().misses == 2


def test_detect_placards_refuses_another_template_stack(cam, templates):
    frame = _card_frame(1, -0.10, 0.24)
    copy = templates.copy()
    swapped = templates[[1, 0, *range(2, 8)]]  # digits 1 and 2 trade templates
    assert copy.flags.writeable and np.array_equal(copy, templates)
    before = pipeline._read_default.cache_info()
    for stack in (copy, swapped):
        with pytest.raises(ValueError):
            detect_placards(frame, cam, stack)
        assert pipeline._read_default.cache_info() == before


def test_detections_are_one_tuple_from_blob_to_mission(track, cam, templates):
    """The detector's tuple is what the memo keeps, what a hit gives and
    what the engine hands the mission."""
    frame = _card_frame(4, -0.10, 0.24)
    assert detect_in_binary(np.zeros((120, 160), dtype=bool)) == ()
    staged = _staged(frame, 0.0)
    assert type(staged) is tuple and [d.digit for d in staged] == [4]
    first = detect_placards(frame, cam, templates)
    assert type(first) is tuple and first == staged
    assert detect_placards(frame, cam, templates) is first
    start = simcore._start_pose(track, 2)
    cart = simcore._Cart(0, types.SimpleNamespace(role=Role.SOLO), start,
                         np.random.default_rng(0))
    cart.card = simcore._make_card(2, start)
    # a read of a noise-free frame, of a noisy one, a tick that reads no
    # placards and one at the ward
    for phase, noise in ((MissionPhase.AWAIT_TARGET, NoiseParams()),
                         (MissionPhase.AWAIT_TARGET, NoiseParams(sigma=4.0)),
                         (MissionPhase.RETURNING, NoiseParams()),
                         (MissionPhase.AT_WARD, NoiseParams())):
        cart.mission, cart.gate_x = MissionState(phase=phase), None
        sensed = simcore._sense(cart, track, simcore.SimConfig(noise=noise), [])
        assert type(sensed.detections) is tuple
        reads = phase is MissionPhase.AWAIT_TARGET
        assert [d.digit for d in sensed.detections] == ([2] if reads else [])


def _stamp(bits, grid, y, x):
    """OR a grid into bits with its top-left corner at (y, x), clipped."""
    h, w = bits.shape
    gh, gw = grid.shape
    y0, x0 = max(y, 0), max(x, 0)
    y1, x1 = min(y + gh, h), min(x + gw, w)
    if y0 < y1 and x0 < x1:
        bits[y0:y1, x0:x1] |= grid[y0 - y:y1 - y, x0 - x:x1 - x]


def _detector_frame(line, glyphs, speck_seed, speck_density):
    bits = np.zeros((120, 160), dtype=bool)
    if line is not None:
        top, x, slope, width = line
        for r in range(top, 120):
            c = x + int(slope * (r - top))
            bits[r, max(c, 0):max(c + width, 0)] = True
    for digit, sy, sx, y, x in glyphs:
        _stamp(bits, np.repeat(np.repeat(glyph_grid(digit), sy, axis=0), sx, axis=1), y, x)
    bits |= np.random.default_rng(speck_seed).random(bits.shape) < speck_density
    return bits


def _typed_fields(detections):
    return [[(k, type(v), v) for k, v in vars(d).items()] for d in detections]


# a guide line, glyphs at integer scales (some across the border) and specks
DETECTOR_FRAMES = dict(
    line=st.none() | st.tuples(st.integers(0, 119), st.integers(-12, 170),
                               st.floats(-1.5, 1.5), st.integers(2, 12)),
    glyphs=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
                              st.integers(-20, 115), st.integers(-20, 155)),
                    max_size=5),
    speck_seed=st.integers(0, 2 ** 32 - 1),
    speck_density=st.sampled_from([0.0, 0.002, 0.01, 0.05]))


@settings(max_examples=120, deadline=None)
@given(**DETECTOR_FRAMES)
# two equal glyphs one above the other: equal image x, kept in raster order
@example(line=(0, 130, 0.0, 7), glyphs=[(4, 1, 1, 50, 60), (4, 1, 1, 90, 60)],
         speck_seed=0, speck_density=0.0)
@example(line=None, glyphs=[(7, 1, 2, 90, 60), (3, 1, 1, 90, 100), (8, 1, 3, 88, 10)],
         speck_seed=1, speck_density=0.002)
def test_detect_in_binary_equals_the_reference_detector(line, glyphs, speck_seed,
                                                       speck_density):
    bits = _detector_frame(line, glyphs, speck_seed, speck_density)
    got = detect_in_binary(bits)
    want = reference_detect_in_binary(bits)
    assert _typed_fields(got) == _typed_fields(want)


# any range, and each placard's own range and the float just above it
@settings(max_examples=80, deadline=None)
@given(max_range=st.floats(0.0, 2.0), **DETECTOR_FRAMES)
@example(max_range=0.35, line=None,
         glyphs=[(7, 1, 2, 90, 60), (3, 1, 1, 90, 100), (8, 1, 3, 88, 10)],
         speck_seed=1, speck_density=0.002)
def test_detect_in_binary_reads_only_placards_within_its_range(max_range, line, glyphs,
                                                              speck_seed, speck_density):
    bits = _detector_frame(line, glyphs, speck_seed, speck_density)
    everything = detect_in_binary(bits)
    ranges = [max_range, math.inf]
    ranges += [r for d in everything for r in (d.range_z, math.nextafter(d.range_z, math.inf))]
    for reach in ranges:
        want = [d for d in everything if d.range_z < reach]
        assert _typed_fields(detect_in_binary(bits, reach)) == _typed_fields(want)


# ---------------------------------------------------------------- render

def test_centered_line_bottom_row_run(track, cam):
    frame = render(track, (0.0, 0.4, math.pi / 2), cam, NoiseParams())
    bits = adaptive_binarize(frame)
    cols = np.nonzero(bits[-1])[0]
    assert len(cols) > 0
    center = (cols.min() + cols.max()) / 2.0
    assert abs(center - camera.WIDTH / 2.0) <= 1.0


def test_displaced_cart_sees_line_off_center(track, cam):
    # 5 cm left of the line; the line should appear right of center,
    # near an independently projected column
    pose = (-0.05, 0.4, math.pi / 2)
    frame = render(track, pose, cam, NoiseParams())
    bits = adaptive_binarize(frame)
    row = camera.HEIGHT - 1
    cols = np.nonzero(bits[row])[0]
    assert len(cols) > 0
    center = float(cols.mean())
    assert center > camera.WIDTH / 2.0

    # oracle: re-derive the projection with plain trigonometry
    f_px = (camera.WIDTH / 2.0) / math.tan(camera.HORIZONTAL_FOV / 2.0)
    cy = (camera.HEIGHT - 1) / 2.0
    b = (row - cy) / f_px
    pitch = camera.PITCH
    # ground distance ahead for this image row
    elev = pitch + math.atan(b)
    d = camera.MOUNT_HEIGHT / math.tan(elev)
    # the line sits 0.05 m to the cart's right; right of cart = -gy
    gy = -0.05
    slant_z = d * math.cos(pitch) + camera.MOUNT_HEIGHT * math.sin(pitch)
    u = (camera.WIDTH - 1) / 2.0 + f_px * (-gy) / slant_z
    assert center == pytest.approx(u, abs=2.0)


def test_nadir_band_precision_under_heading_error(track, cam):
    for deg in (-5, -2.5, 0, 2.5, 5):
        frame = render(track, (0.0, 0.4, math.pi / 2 + math.radians(deg)), cam,
                       NoiseParams())
        got = line_centroid(adaptive_binarize(frame), NADIR_ROI,
                            min_pixels=NADIR_MIN_PIXELS)
        assert got is not None
        assert abs(got[0] - camera.WIDTH / 2.0) <= 1.0


def test_render_needs_rng_for_noise(track, cam):
    with pytest.raises(ValueError):
        render(track, (0.0, 0.0, math.pi / 2), cam, NoiseParams(sigma=4.0))


def test_render_with_negative_k1_casts_no_out_of_range_index(track):
    # k1 < 0 leaves rays above the horizon; their cell index must fit int32
    cam = CameraModel(distortion_k1=-0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = render(track, (0.0, 0.4, math.pi / 2), cam, NoiseParams(k1=-0.1))
    assert frame.shape == (camera.HEIGHT, camera.WIDTH)


def test_vision_package_render_is_the_submodule():
    render_attr = importlib.import_module("wardcart.vision").render
    assert isinstance(render_attr, types.ModuleType)
    assert hasattr(render_attr, "world_ink")


def test_noisy_render_is_normal_noise_on_the_two_levels(track):
    # the noise branch against its plain expression, from the same stream
    for k1, brightness, sigma, seed in ((0.0, 0.0, 8.0, 1), (0.05, -30.0, 8.0, 2),
                                        (0.1, 30.0, 40.0, 3), (0.0, 240.0, 20.0, 4)):
        cam = CameraModel(distortion_k1=k1)
        pose = (np.float64(0.02), np.float64(0.6), np.float64(math.pi / 2 + 0.1))
        card = (PlacardEntry(4, -0.08, 0.85, math.pi / 2),)
        ink = render(track, pose, cam, NoiseParams(k1=k1), cards=card) == 30
        want = np.where(ink, 30.0, 200.0) + brightness
        want = want + np.random.default_rng(seed).normal(0.0, sigma, size=want.shape)
        want = np.clip(np.rint(want), 0, 255).astype(np.uint8)
        got = render(track, pose, cam, NoiseParams(brightness, sigma, k1),
                     rng=np.random.default_rng(seed), cards=card)
        assert got.dtype == np.uint8 and np.array_equal(got, want)


def _rendered_ink(track, pose, cards=()):
    # a clean frame is INK_LEVEL on the ink and BACKGROUND_LEVEL elsewhere
    return render(track, pose, CameraModel(), cards=cards) == _levels(0.0)[0]


def _type_twins(track):
    """(map, [Python-float scene, np.float64 scene]) of equal values whose
    ink differs: float32 cell coordinates put a row of the pose's frame, and
    float32 world coordinates one pixel of the card, on the other side of a
    cell edge."""
    gx, gy = ground_grid(0.0)
    # heading 0 at k1 = 0: qx = X + (px - x0) / WORLD_CELL, and X is constant
    # along a row; cell n starts at x = 0.010, the right edge of the guide
    # line's ink. On a row where n - X is a float32 the float32 sum lands on
    # n, and the float64 one 2**-30 below it, in cell n - 1
    X, _ = _cell_grid(0.0)
    x0 = world_ink(track).x0
    n = round((0.010 - x0) / WORLD_CELL)
    ahead = next(float(x) for x in X[:, 0] if np.float32(n - float(x)) == n - float(x))
    pose = (x0 + (n - ahead - 2.0 ** -30) * WORLD_CELL, 0.3, 0.0)
    twins = [(pose, ()), (tuple(map(np.float64, pose)), ())]
    # a glyph column edge 1e-9 m from a pixel's world x, on a map without lines
    x, y = -float(gy[40, 80]) + GLYPH_HEIGHT * (0.5 - 7 / 16) + 1e-9, float(gx[40, 80])
    start = (0.0, 0.0, math.pi / 2)
    card_twins = [(start, (PlacardEntry(1, x, y, math.pi / 2),)),
                  (start, (PlacardEntry(1, np.float64(x), np.float64(y), math.pi / 2),))]
    return [(track, twins), (EMPTY_MAP, card_twins)]


@pytest.mark.parametrize("flip", [False, True], ids=["python_first", "numpy_first"])
@pytest.mark.parametrize("pair", [0, 1], ids=["pose", "card"])
def test_scene_ink_memo_tells_coordinate_types_apart(track, pair, flip):
    track, scenes = _type_twins(track)[pair]
    scenes = scenes[::-1] if flip else scenes
    direct = [_ink(track, pose, 0.0, slice(None), cards) for pose, cards in scenes]
    assert scenes[0] == scenes[1] and not np.array_equal(*direct)  # the case is live
    _memo_ink.cache_clear()
    for _ in range(2):  # the second pass is served by the memo
        for (pose, cards), want in zip(scenes, direct):
            assert np.array_equal(_rendered_ink(track, pose, cards), want)
    assert _memo_ink.cache_info().hits == 2


def test_a_non_finite_pose_is_sampled_every_call(track):
    _memo_ink.cache_clear()
    # such a pose sees no map ink, so no cell index cast warns
    for pose in [(math.nan, 0.3, 0.0)] * 2 + [(0.0, math.inf, 0.0)] * 2:
        assert not _rendered_ink(track, pose).any()
    assert _memo_ink.cache_info().currsize == 0 and _memo_ink.cache_info().hits == 0


@pytest.mark.parametrize("far", [1e7, -1e300])
def test_a_pose_past_the_far_bound_sees_no_map_ink(track, far):
    # its cell indices would not fit in int32; a card beside it still shows
    pose = (np.float64(far), np.float64(0.4), math.pi / 2)
    card = PlacardEntry(2, pose[0], 0.66, math.pi / 2)
    assert not _rendered_ink(track, pose).any()
    assert _rendered_ink(track, pose, (card,)).any()


def test_memoized_ink_is_read_only(track):
    ink = _scene_ink(track, ON_LINE, 0.0, ())
    assert ink is _scene_ink(track, ON_LINE, 0.0, [])
    with pytest.raises(ValueError):
        ink[0, 0] = not ink[0, 0]


def _pose(values, types):
    return tuple(kind(v) for kind, v in zip(types, values))


def _clean_chain(track, pose, cam, brightness, cards):
    """The bits of the noise-free frame, still distorted, as clean_bits gives them."""
    frame = render(track, pose, cam, NoiseParams(brightness=brightness), cards=cards)
    return adaptive_binarize(frame)


ON_LINE = (0.0, 0.5, math.pi / 2)
PYTHON_FLOATS = (float, float, float)


@settings(max_examples=120, deadline=None)
@given(values=st.tuples(st.floats(-0.7, 0.7), st.floats(-0.3, 4.3),
                        st.floats(-math.pi, math.pi)),
       types=st.tuples(*[st.sampled_from((float, np.float64))] * 3),
       brightness=st.floats(-250, 250), k1=st.sampled_from((0.0, 0.0, 0.05, 0.1)),
       card=st.booleans(), band=st.booleans())
@example(values=ON_LINE, types=PYTHON_FLOATS, brightness=150.0, k1=0.0, card=False, band=True)
@example(values=ON_LINE, types=PYTHON_FLOATS, brightness=230.0, k1=0.0, card=True, band=False)
@example(values=ON_LINE, types=PYTHON_FLOATS, brightness=230.0, k1=0.0, card=False, band=True)
@example(values=ON_LINE, types=PYTHON_FLOATS, brightness=200.0, k1=0.0, card=True, band=True)
# through a distorted lens the band is ignored: undistortion moves its rows
@example(values=ON_LINE, types=PYTHON_FLOATS, brightness=0.0, k1=0.1, card=True, band=True)
def test_clean_bits_equal_the_render_chain(track, values, types, brightness, k1, card, band):
    pose = _pose(values, types)
    x, y, heading = values
    cards = (PlacardEntry(3, x + 0.22 * math.cos(heading) - 0.10 * math.sin(heading),
                          y + 0.22 * math.sin(heading) + 0.10 * math.cos(heading),
                          heading),) if card else ()
    rows = CONTROL_ROI if band else None
    want = _clean_chain(track, pose, CameraModel(k1), brightness, cards)
    got = clean_bits(track, pose, brightness, k1, cards, rows)
    assert got.shape == want.shape
    if rows is None or k1 != 0:
        assert np.array_equal(got, want)
    else:
        r0, r1 = rows
        assert np.array_equal(got[r0:r1], want[r0:r1])
        # blank outside the band, or the whole frame when the band did not decide
        blank = not got[:r0].any() and not got[r1:].any()
        assert blank or np.array_equal(got, want)


def test_clean_bits_reach_the_fallback_and_the_blank_frame(track, cam):
    def bits(brightness, rows):
        return clean_bits(track, ON_LINE, brightness, 0.0, (), rows)

    r0, r1 = CONTROL_ROI
    line = _clean_chain(track, ON_LINE, cam, -30.0, ())
    assert line[r0:r1].any() and np.array_equal(bits(-30.0, CONTROL_ROI)[r0:r1], line[r0:r1])
    # ink 180 on 255: the frame reads the line, but the band alone cannot
    # tell, so the whole frame is sampled
    bright = _clean_chain(track, ON_LINE, cam, 150.0, ())
    assert bright[:r0].any() and bright[r0:r1].any()
    assert np.array_equal(bits(150.0, CONTROL_ROI), bright)
    # ink and background both clip to 255: nothing falls under the threshold
    assert not _clean_chain(track, ON_LINE, cam, 230.0, ()).any()
    assert not bits(230.0, None).any()
    assert not bits(230.0, CONTROL_ROI).any()


def test_vision_stages_pass_plain_arrays(track):
    shape = (camera.HEIGHT, camera.WIDTH)
    cam = CameraModel(distortion_k1=0.05)
    pixels = render(track, ON_LINE, cam, NoiseParams(k1=0.05))
    bits = adaptive_binarize(pixels)
    stages = [(pixels, np.uint8), (bits, bool), (undistort_bits(bits, 0.05), bool),
              (clean_bits(track, ON_LINE, 0.0, 0.0, (), None), bool),
              (clean_bits(track, ON_LINE, 0.0, 0.05, (), CONTROL_ROI), bool)]
    for got, dtype in stages:
        assert type(got) is np.ndarray and got.dtype == dtype and got.shape == shape
    band = clean_bits(track, ON_LINE, 0.0, 0.0, (), CONTROL_ROI)
    assert type(band) is np.ndarray and band.dtype == bool and band.shape == shape
    r0, r1 = CONTROL_ROI
    assert band[r0:r1].any() and not band[:r0].any() and not band[r1:].any()


def test_clean_bits_are_a_fresh_array(track):
    first = clean_bits(track, ON_LINE, 0.0, 0.0, (), CONTROL_ROI)
    kept = first.copy()
    for rows, k1 in itertools.product((CONTROL_ROI, None), (0.0, 0.05)):
        clean_bits(track, (0.3, 1.0, 0.0), 0.0, k1, (), rows)
        clean_bits(track, _pose(ON_LINE, (np.float64,) * 3), 0.0, k1, (), rows)
    assert np.array_equal(first, kept)


def test_a_second_pass_of_every_frame_kind_misses_no_work_array_or_grid(track):
    # an evicted work array costs a heap trim and its fault-back (see
    # _scratch). A pass makes clean whole and band frames and noisy renders,
    # from engine (float64) and corpus (Python-float) poses, through both
    # lenses, with a card and without
    engine = _pose(ON_LINE, (np.float64,) * 3)
    card = (_card(ON_LINE, 3, 0.25, 0.0, 0.0),)

    def one_pass():
        _memo_ink.cache_clear()  # or the renders would reuse the first pass's ink
        for k1, cards, pose in itertools.product((0.0, 0.05), ((), card), (engine, ON_LINE)):
            clean_bits(track, pose, 0.0, k1, cards, None)
            clean_bits(track, pose, 0.0, k1, cards, CONTROL_ROI)
            render(track, pose, CameraModel(k1), NoiseParams(-30.0, 8.0, k1),
                   rng=np.random.default_rng(1), cards=cards)
        return _scratch.cache_info().misses, _cell_grid.cache_info().misses

    warm = one_pass()
    assert one_pass() == warm


@settings(max_examples=30, deadline=None)
@given(k1=st.floats(-0.3, 0.3), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.tuples(st.integers(2, 40), st.integers(2, 40)))
def test_undistort_bits_equal_the_two_index_gather(k1, seed, shape):
    h, w = shape
    bits = np.random.default_rng(seed).random(shape) < 0.5
    if k1 == 0.0:
        assert undistort_bits(bits, k1) is bits
        return
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    vv, uu = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    scale = 1.0 + k1 * (np.hypot(uu - cx, vv - cy) / math.hypot(cx, cy)) ** 2
    su = np.rint(cx + (uu - cx) * scale)
    sv = np.rint(cy + (vv - cy) * scale)
    want = np.zeros(shape, dtype=bool)
    for v in range(h):
        for u in range(w):
            if 0 <= su[v, u] < w and 0 <= sv[v, u] < h:
                want[v, u] = bits[int(sv[v, u]), int(su[v, u])]
    assert np.array_equal(undistort_bits(bits, k1), want)


def reference_world(pose, gx, gy):
    """World coordinates of the whole frame as the engine once computed
    them: px + gx * cos_h - gy * sin_h and py + gx * sin_h + gy * cos_h, in
    those steps, in float64 for NumPy-scalar px, py and float32 for Python
    floats."""
    px, py, heading = pose
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    wx = np.empty(gx.shape, np.result_type(px, gx))
    wy = np.empty(gx.shape, np.result_type(py, gx))
    np.add(px, np.multiply(gx, cos_h, out=wx), out=wx)
    np.subtract(wx, np.multiply(gy, sin_h, out=np.empty_like(wx)), out=wx)
    np.add(py, np.multiply(gx, sin_h, out=wy), out=wy)
    np.add(wy, np.multiply(gy, cos_h, out=np.empty_like(wy)), out=wy)
    return wx, wy


def reference_stamp(ink, wx, wy, entry):
    """OR a glyph into the ink mask from world coordinates of the whole
    frame: the pixels in the 1.5 * half box around the card, in metres."""
    half = GLYPH_HEIGHT / 2.0
    near = ((np.abs(wx - entry.x) <= half * 1.5)
            & (np.abs(wy - entry.y) <= half * 1.5))
    idx = np.nonzero(near.ravel())[0]
    if idx.size == 0:
        return
    sub = _glyph_ink(wx.ravel()[idx], wy.ravel()[idx], entry)
    flat = ink.ravel()
    flat[idx[sub]] = True


def assert_cards_stamp_the_reference_bits(track, pose, k1, rows, cards):
    want = _ink(track, pose, k1, slice(None), ())
    wx, wy = reference_world(pose, *ground_grid(k1))
    for card in cards:
        reference_stamp(want, wx, wy, card)
    got = _ink(track, pose, k1, rows, cards)
    assert np.array_equal(got, want[rows])
    return got


def _card(start, digit, ahead, left, turn):
    x, y, heading = map(float, start)
    return PlacardEntry(digit, x + ahead * math.cos(heading) - left * math.sin(heading),
                        y + ahead * math.sin(heading) + left * math.cos(heading),
                        heading + turn)


@settings(max_examples=80, deadline=None)
@given(values=st.tuples(st.floats(-0.7, 0.7), st.floats(-0.3, 4.3),
                        st.floats(-math.pi, math.pi)),
       kind=st.sampled_from((float, np.float64)), k1=st.sampled_from((0.0, 0.05)),
       band=st.booleans(),
       cards=st.lists(st.tuples(st.integers(1, 8), st.floats(-0.05, 0.6), st.floats(-0.5, 0.5),
                                st.floats(-math.pi, math.pi)), min_size=1, max_size=2))
# digit 7 inks its corner cell: turned by 45 degrees, its ink reaches
# sqrt(2) * half along an axis, past a box of 1.3 * half
@example(values=ON_LINE, kind=float, k1=0.0, band=False, cards=[(7, 0.25, 0.0, math.pi / 4)])
@example(values=ON_LINE, kind=np.float64, k1=0.05, band=False,
         cards=[(7, 0.25, 0.0, -3 * math.pi / 4)])
# boxes across the frame's near edge, its side and the control band's top row
@example(values=ON_LINE, kind=np.float64, k1=0.0, band=False, cards=[(4, 0.0, 0.0, 0.0)])
@example(values=ON_LINE, kind=float, k1=0.05, band=False, cards=[(2, 0.2, 0.25, 0.3)])
@example(values=ON_LINE, kind=np.float64, k1=0.0, band=True, cards=[(5, 0.12, 0.05, 0.0)])
def test_cards_stamp_the_bits_of_world_coordinates_of_the_whole_frame(track, values, kind, k1,
                                                                      band, cards):
    pose = tuple(map(kind, values))
    entries = tuple(_card(pose, *card) for card in cards)
    rows = slice(*CONTROL_ROI) if band and k1 == 0 else slice(None)
    assert_cards_stamp_the_reference_bits(track, pose, k1, rows, entries)


# a RuntimeWarning fails the test, as everywhere in the suite (pyproject.toml)
@pytest.mark.parametrize("pose", [(np.float64(1e7), np.float64(0.4), math.pi / 2),
                                  (np.float64(-1e300), np.float64(0.4), math.pi / 2),
                                  # its offset from the raster, in cells, overflows
                                  (np.float64(1e306), np.float64(0.4), math.pi / 2),
                                  (math.nan, 0.4, math.pi / 2),
                                  (np.float64(math.nan), np.float64(0.4), math.pi / 2),
                                  (0.0, 0.4, math.nan)],
                         ids=["far", "farther", "farthest", "nan_x", "numpy_nan_x", "nan_heading"])
def test_cards_beside_a_far_or_nan_pose_stamp_the_same_bits(track, pose):
    card = PlacardEntry(2, float(pose[0]) - 0.02, 0.66, math.pi / 2 + 0.3)
    got = assert_cards_stamp_the_reference_bits(track, pose, 0.0, slice(None), (card,))
    assert got.any() == all(map(math.isfinite, pose))


def same_as_masked_sample(ink, qx, qy):
    with np.errstate(invalid="ignore"):  # 5e11 cells overflow the int32 cast
        return np.array_equal(ink.sample(qx, qy), masked_sample(ink, qx, qy))


def masked_sample(ink, qx, qy):
    """Reference world-ink lookup at cell coordinates: cells off the raster
    read as background."""
    ix = qx.astype(np.int32)
    iy = qy.astype(np.int32)
    valid = (ix >= 0) & (ix < ink.nx) & (iy >= 0) & (iy < ink.ny)
    out = np.zeros(qx.shape, dtype=bool)
    out[valid] = ink.grid[iy[valid], ix[valid]]
    return out


# k1 < 0 leaves rays above the horizon, which ground_grid sends 10 km away
SAMPLE_K1 = (0.0, 0.05, 0.1, -0.1, -0.2)


def _speckled_ink():
    """A small raster with random ink up to its edges, so that a lookup
    clamped onto an edge cell instead of reading background shows."""
    ink = _WorldInk(EMPTY_MAP)
    ink.grid[:] = np.random.default_rng(7).random(ink.grid.shape) < 0.5
    ink.grid[0, :] = ink.grid[-1, :] = ink.grid[:, 0] = ink.grid[:, -1] = True
    return ink


SPECKLED = _speckled_ink()


def _raster_pose(ink, fx, fy, heading):
    # fractions of the raster; outside [0, 1] the view leaves the raster
    return (ink.x0 + fx * ink.nx * WORLD_CELL, ink.y0 + fy * ink.ny * WORLD_CELL, heading)


@settings(max_examples=60, deadline=None)
@given(fx=st.floats(-0.3, 1.3), fy=st.floats(-0.3, 1.3),
       heading=st.floats(-math.pi, math.pi), k1=st.sampled_from(SAMPLE_K1))
def test_ink_sample_matches_masked_reference_at_any_pose(fx, fy, heading, k1):
    ink = SPECKLED
    qx, qy = ink.cells(_raster_pose(ink, fx, fy, heading), *_cell_grid(k1))
    assert same_as_masked_sample(ink, qx, qy)


@settings(max_examples=60, deadline=None)
@given(fx=st.floats(-0.3, 1.3), fy=st.floats(-0.3, 1.3),
       heading=st.floats(-math.pi, math.pi), k1=st.sampled_from(SAMPLE_K1))
def test_cell_map_index_equals_the_world_coordinate_index(fx, fy, heading, k1):
    # the index of the world coordinates of an engine pose (float64, from
    # float32 products), int32((px + gx cos - gy sin - x0) / WORLD_CELL).
    # The affine map rounds in another order, so the two may part where
    # that quotient lies within a rounding error of a cell edge. A ground
    # point 10 km out (a ray that misses the ground) has float32 products
    # a quarter cell apart; it lies far off the raster in both
    ink = SPECKLED
    pose = tuple(map(np.float64, _raster_pose(ink, fx, fy, heading)))
    px, py, _ = pose
    qx, qy = ink.cells(pose, *_cell_grid(k1))
    gx, gy = ground_grid(k1)
    c, s = math.cos(heading), math.sin(heading)
    for q, w, origin, cells in ((qx, px + gx * c - gy * s, ink.x0, ink.nx),
                                (qy, py + gx * s + gy * c, ink.y0, ink.ny)):
        assert q.dtype == w.dtype == np.float64
        quotient = (w - origin) / WORLD_CELL
        near = (quotient > -2) & (quotient < cells + 1)
        clear = np.abs(quotient - np.rint(quotient)) > 1e-3
        assert np.array_equal(q[near & clear].astype(np.int32),
                              quotient[near & clear].astype(np.int32))
        # a cell off the raster, which reads as background
        assert ((q[~near] <= -1) | (q[~near] >= cells)).all()


def _edge_coords(lo, extent):
    # just below the origin (truncates to cell 0), the far edge, misses
    specials = [lo - 1e-4, lo - WORLD_CELL / 2, lo - WORLD_CELL, lo, lo + extent,
                lo + extent - 1e-4, lo + extent + WORLD_CELL, 1e9, -1e9]
    return st.one_of(st.floats(lo - 0.5, lo + extent + 0.5), st.sampled_from(specials))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_ink_sample_matches_masked_reference_at_raster_edges(data, dtype):
    ink = SPECKLED
    wx = data.draw(arrays(np.float64, (3, 5),
                          elements=_edge_coords(ink.x0, ink.nx * WORLD_CELL))).astype(dtype)
    wy = data.draw(arrays(np.float64, (3, 5),
                          elements=_edge_coords(ink.y0, ink.ny * WORLD_CELL))).astype(dtype)
    # the cell coordinates of world points, in the points' dtype
    assert same_as_masked_sample(ink, (wx - ink.x0) / WORLD_CELL, (wy - ink.y0) / WORLD_CELL)


def reference_ink(ink, track):
    """The map's ink painted into a raster of ink's geometry, segment by
    segment with np.clip on t; a segment whose squared length is 0 paints
    nothing. Then the placard glyphs."""
    grid = np.zeros_like(ink.grid)
    r = LINE_HALF_WIDTH
    for e in track.edges:
        for (ax, ay), (bx, by) in zip(e.polyline, e.polyline[1:]):
            ix0, ix1, iy0, iy1, xs, ys = ink._cells(min(ax, bx) - r, max(ax, bx) + r,
                                                    min(ay, by) - r, max(ay, by) + r)
            vx, vy = bx - ax, by - ay
            L2 = vx * vx + vy * vy
            if L2 == 0:
                continue
            t = np.clip(((xs - ax) * vx + (ys - ay) * vy) / L2, 0.0, 1.0)
            dx = xs - (ax + t * vx)
            dy = ys - (ay + t * vy)
            grid[iy0:iy1, ix0:ix1] |= dx * dx + dy * dy <= r * r
    pad = GLYPH_HEIGHT / 2.0 * 1.5
    for entry in track.placards:
        ix0, ix1, iy0, iy1, xs, ys = ink._cells(entry.x - pad, entry.x + pad,
                                                entry.y - pad, entry.y + pad)
        grid[iy0:iy1, ix0:ix1] |= _glyph_ink(xs, ys, entry)
    return grid


@st.composite
def straight_edge_maps(draw):
    """A tree map within 1 m of the pharmacy. Its first two edges are
    collinear on either side of the pharmacy; then come branches to nodes
    on a 0.25 m grid or anywhere, a zero-length edge to a twin node and a
    self-loop."""
    coord = st.integers(-4, 4).map(lambda v: v / 4) | st.floats(-1, 1)
    nodes = {"p": (0.0, 0.0), "u": (0.0, 0.5), "d": (0.0, -0.5)}
    edges = [("p", "u"), ("p", "d")]
    for i in range(draw(st.integers(0, 4))):
        edges.append((draw(st.sampled_from(sorted(nodes))), f"n{i}"))
        nodes[f"n{i}"] = (draw(coord), draw(coord))
    twin = draw(st.sampled_from(sorted(nodes)))
    nodes["z"] = nodes[twin]
    edges.append((twin, "z"))
    edges.append((draw(st.sampled_from(sorted(nodes))),) * 2)
    text = "".join(f"node {n} {x!r} {y!r}\n" for n, (x, y) in nodes.items())
    text += "".join(f"edge e{i} {a} {b}\n" for i, (a, b) in enumerate(edges))
    return load_map(text + "pharmacy p\n")


@settings(max_examples=40, deadline=None)
@given(track=straight_edge_maps())
@example(track=default_map())
@example(track=load_map("node p 0 0\nedge s p p\npharmacy p\n"))
# ends 1e-200 apart: the squared length underflows to 0, so nothing is painted
@example(track=load_map("node p 0 0\nnode q 1e-200 0\nedge e p q\npharmacy p\n"))
def test_world_ink_equals_the_reference_painter(track):
    for e in track.edges:
        assert e.polyline == (track.node_pos(e.a), track.node_pos(e.b))
    ink = _WorldInk(track)
    assert np.array_equal(ink.grid, reference_ink(ink, track))


@settings(max_examples=20, deadline=None)
@given(angle=st.floats(0.0, 2 * math.pi), reach=st.floats(0.3, 0.9),
       bend=st.floats(-math.pi, math.pi))
@example(angle=math.pi / 4, reach=0.9, bend=math.pi / 2)
@example(angle=1e-3, reach=0.9, bend=0.0)
def test_strip_painting_equals_the_box_painter_on_diagonal_maps(angle, reach, bend):
    # a chord through the origin at any angle, then a branch off its end:
    # edges of several pieces each, and boxes mostly free of ink
    ax, ay = reach * math.cos(angle), reach * math.sin(angle)
    bx, by = ax + reach * math.cos(angle + bend), ay + reach * math.sin(angle + bend)
    track = load_map(f"node a {ax!r} {ay!r}\nnode b {-ax!r} {-ay!r}\nnode c {bx!r} {by!r}\n"
                     "edge e a b\nedge f a c\npharmacy a\n")
    ink = _WorldInk(track)
    assert np.array_equal(ink.grid, reference_ink(ink, track))


def test_painting_a_long_diagonal_takes_memory_for_its_ink_only():
    # the longest diagonal a square map just inside the budget holds: its box
    # is 8,100 x 8,100 cells, 0.5 GB in one float64 temporary
    track = load_map("node p 0 0\nnode q 15 15\nedge e p q\npharmacy p\n")
    _, _, nx, ny = raster_box(pos for _, pos in track.nodes)
    assert 0.95 * RASTER_BUDGET < nx * ny <= RASTER_BUDGET
    tracemalloc.start()
    try:
        ink = _WorldInk(track)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    raster = (nx + 2) * (ny + 2)
    assert peak < raster + 4 * 2 ** 20
    # ink at both ends and halfway, none off the line
    at = ink.sample((np.array([0.0, 7.5, 15.0, 7.5]) - ink.x0) / WORLD_CELL,
                    (np.array([0.0, 7.5, 15.0, 0.0]) - ink.y0) / WORLD_CELL)
    assert at.tolist() == [True, True, True, False]


def rectify_reference(bits, box, k=48):
    """The ground square of a pixel box (x0, y0, width, height) sampled point
    by point; a sample off the frame reads as background."""
    x0, y0, width, height = box
    us = np.array([x0 - 0.5, x0 + width - 0.5] * 2)
    vs = np.array([y0 - 0.5] * 2 + [y0 + height - 0.5] * 2)
    gx, gy = CameraModel.ground_from_pixels(us, vs)
    if np.isnan(gx).any() or np.isnan(gy).any():
        return None
    side = max(gx.max() - gx.min(), gy.max() - gy.min())
    if side <= 0:
        return None
    offs = side / 2.0 - (np.arange(k) + 0.5) * side / k
    out = np.zeros((k, k), dtype=bool)
    h, w = bits.shape
    for i in range(k):
        for j in range(k):
            pu, pv = CameraModel.pixels_from_ground((gx.min() + gx.max()) / 2.0 + offs[i],
                                                    (gy.min() + gy.max()) / 2.0 + offs[j])
            u, v = int(np.rint(pu)), int(np.rint(pv))
            out[i, j] = 0 <= u < w and 0 <= v < h and bits[v, u]
    return out


@settings(max_examples=30, deadline=None)
@given(x0=st.integers(0, 159), y0=st.integers(0, 119), width=st.integers(1, 90),
       height=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1))
def test_rectify_matches_the_pointwise_reference(x0, y0, width, height, seed):
    bits = np.random.default_rng(seed).random((120, 160)) < 0.5
    got = pipeline._rectify_on_ground(bits, x0, y0, width, height)
    want = rectify_reference(bits, (x0, y0, width, height))
    assert (got is None and want is None) or np.array_equal(got, want)


def test_a_rectify_table_keeps_no_bits():
    # one box over two bit arrays of each of two frame sizes
    rng = np.random.default_rng(7)
    box = (30, 30, 14, 20)
    for shape in [(120, 160), (120, 160), (60, 80), (60, 80)]:
        bits = rng.random(shape) < 0.5
        assert np.array_equal(pipeline._rectify_on_ground(bits, *box),
                              rectify_reference(bits, box))


@pytest.mark.parametrize("box", [(10, -20, 12, 30), (10, 10, 0, 0)],
                         ids=["corner_misses_ground", "no_side"])
def test_a_box_without_a_square_stays_none_on_a_cache_hit(box):
    bits = np.ones((120, 160), dtype=bool)
    assert rectify_reference(bits, box) is None
    assert pipeline._rectify_on_ground(bits, *box) is None
    hits = pipeline._rectify_table.cache_info().hits
    assert pipeline._rectify_on_ground(bits, *box) is None
    assert pipeline._rectify_table.cache_info().hits == hits + 1


def test_cached_rectify_tables_are_read_only():
    for table in pipeline._rectify_table(30, 30, 14, 20, 120, 160):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


# (bounded cache, distinct first arguments; the rest of each call)
def _maps(n):
    return [(load_map(f"node p {i} 0\npharmacy p\nwidth 0.30\n"),) for i in range(n)]


CACHES = {
    "world_ink": (world_ink, _maps),
    "ground_grid": (ground_grid, lambda n: [(0.01 * i,) for i in range(n)]),
    "cell_grid": (_cell_grid, lambda n: [(0.01 * i,) for i in range(n)]),
    "undistort_map": (pipeline._undistort_map,
                      lambda n: [(160, 120, 0.01 * i) for i in range(n)]),
    "axis_weights": (_axis_weights, lambda n: [(1 + i,) for i in range(n)]),
    "quadrature": (vehicle._quadrature, lambda n: [(0.01 * (1 + i),) for i in range(n)]),
    "render_scratch": (_scratch, lambda n: [((1 + i,), np.dtype(np.float32), "x")
                                            for i in range(n)]),
    "render_levels": (_levels, lambda n: [(float(i),) for i in range(n)]),
    "render_scene_ink": (_memo_ink, lambda n: [(EMPTY_MAP, (0.0, 0.01 * i, 0.0), 0.0, (),
                                                 (float,) * 3) for i in range(n)]),
    "rectify_table": (pipeline._rectify_table,
                      lambda n: [(10 + i, 60, 12, 20, 120, 160) for i in range(n)]),
    "read_default": (pipeline._read_default, lambda n: [(bytes([i]), (1, 8), 0.0)
                                                        for i in range(n)]),
    "default_templates": (default_templates, lambda n: [()] * n),
    "sensor_table": (simcore._table, lambda n: [(EMPTY_MAP, (0.0, 0.01 * i, 0.0), (),
                                                 NoiseParams(), None, None)
                                                for i in range(n)]),
}


@pytest.mark.parametrize("name", sorted(CACHES))
def test_module_caches_are_bounded(name):
    cached, make_args = CACHES[name]
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None
    for args in make_args(maxsize + 1):
        cached(*args)
    assert cached.cache_info().currsize <= maxsize


def test_every_module_cache_is_a_row_of_caches():
    modules = [wardcart] + [importlib.import_module(info.name) for info in
                            pkgutil.walk_packages(wardcart.__path__, "wardcart.")]
    found = {f"{module.__name__}.{name}": value for module in modules
             for name, value in vars(module).items()
             if callable(value) and hasattr(value, "cache_info")}
    assert "wardcart.vision.pipeline._rectify_table" in found
    listed = [cached for cached, _ in CACHES.values()]
    for name, cached in found.items():
        assert cached.cache_info().maxsize is not None, name
        assert any(cached is row for row in listed), f"{name} is not in CACHES"


SRC = Path(wardcart.__file__).resolve().parent.parent
# lru_cache functions whose parameter is only part of the cache key
KEY_ONLY_PARAMETERS = {"wardcart.vision.render._scratch(role)",
                       "wardcart.vision.render._memo_ink(types)"}


def unread_parameters(path):
    """``module.function(parameter)`` for each parameter of a function in
    the module file at path that the function's body never names."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None]
            named = {n.id for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            yield from (f"{module}.{node.name}({p})" for p in params if p not in named)


def test_every_function_reads_every_parameter():
    # the allow-list must be found too, so an empty walk cannot pass
    paths = sorted((SRC / "wardcart").rglob("*.py"))
    unread = {name for path in paths for name in unread_parameters(path)}
    assert unread == KEY_ONLY_PARAMETERS


def test_default_templates_are_the_read_only_normalized_glyphs():
    stack = default_templates()
    assert stack.shape == (8, GRID_N, GRID_N) and stack.dtype == bool
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = not stack[0, 0, 0]
    for digit in range(1, 9):
        assert np.array_equal(stack[digit - 1], normalize_mask(glyph_grid(digit)))
