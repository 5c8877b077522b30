import importlib
import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wardcart.arena import PlacardEntry, load_map
from wardcart.vision import pipeline
from wardcart.vision.camera import CameraModel, ground_grid, undistorted_radius
from wardcart.vision.glyphs import GRID_N, DigitTemplate, glyph_grid
from wardcart.vision.pipeline import (NADIR_MIN_PIXELS, NADIR_ROI, BinaryFrame,
                                      Frame, _blob_of, _label_runs,
                                      adaptive_binarize, detect_placards,
                                      line_centroid, match_digit,
                                      normalize_mask, undistort_bits)
from wardcart.vision.render import WORLD_CELL, NoiseParams, _WorldInk, render, world_ink

EMPTY_MAP = load_map("node p 0 0\npharmacy p\nwidth 0.30\n")


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


# ------------------------------------------------------------- binarize

def test_uniform_frame_has_no_foreground():
    f = Frame(np.full((20, 30), 200, dtype=np.uint8))
    assert not adaptive_binarize(f).bits.any()


def test_half_dark_half_bright_splits():
    px = np.zeros((10, 10), dtype=np.uint8)
    px[:, 5:] = 255
    bits = adaptive_binarize(Frame(px)).bits
    assert bits[:, :5].all()
    assert not bits[:, 5:].any()


def test_brightness_offset_invariance_exact():
    rng = np.random.default_rng(0)
    base = rng.integers(60, 200, size=(40, 50)).astype(np.uint8)
    a = adaptive_binarize(Frame(base))
    b = adaptive_binarize(Frame(base + np.uint8(30)))
    assert np.array_equal(a.bits, b.bits)


@given(offset=st.integers(min_value=-40, max_value=40))
@settings(max_examples=30, deadline=None)
def test_brightness_invariance_property(offset):
    rng = np.random.default_rng(5)
    base = rng.integers(50, 200, size=(24, 24)).astype(np.int64)
    shifted = (base + offset).astype(np.uint8)
    assert np.array_equal(adaptive_binarize(Frame(base.astype(np.uint8))).bits,
                          adaptive_binarize(Frame(shifted)).bits)


# ------------------------------------------------------------ undistort

def test_undistort_zero_is_identity():
    rng = np.random.default_rng(1)
    b = BinaryFrame(rng.random((60, 80)) < 0.5)
    assert np.array_equal(undistort_bits(b, 0.0).bits, b.bits)


def test_undistort_keeps_center_pixel():
    bits = np.zeros((61, 81), dtype=bool)
    bits[30, 40] = True  # the exact center, radius zero
    for k1 in (0.05, 0.1, 0.2):
        out = undistort_bits(BinaryFrame(bits), k1)
        assert out.bits[30, 40]


def test_non_monotone_k1_rejected():
    b = BinaryFrame(np.zeros((10, 10), dtype=bool))
    with pytest.raises(ValueError):
        undistort_bits(b, -0.4)
    CameraModel(distortion_k1=0.1)  # fine
    with pytest.raises(ValueError):
        CameraModel(distortion_k1=-0.5)


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
    before = _fit_residual(distorted.bits, rows)
    after = _fit_residual(fixed.bits, rows)
    assert after < before
    assert after < 0.5

    k1 = 0.1
    frame = render(LINE_MAP, pose, CameraModel(distortion_k1=k1), NoiseParams(k1=k1))
    fixed = undistort_bits(adaptive_binarize(frame), k1)
    assert _fit_residual(fixed.bits, rows) < 0.5


# --------------------------------------------------------- line centroid

def test_line_centroid_mean_of_columns():
    bits = np.zeros((20, 100), dtype=bool)
    bits[:, 30:35] = True
    x, conf = line_centroid(BinaryFrame(bits), (0, 20))
    assert x == pytest.approx(32.0)
    assert conf > 0.5


def test_line_centroid_empty_roi_is_none():
    bits = np.zeros((20, 100), dtype=bool)
    assert line_centroid(BinaryFrame(bits), (0, 20)) is None


def test_line_centroid_two_segments_averages_to_midpoint():
    bits = np.zeros((12, 100), dtype=bool)
    bits[:, 18:23] = True
    bits[:, 58:63] = True
    # independent oracle: direct mean over the constructed mask
    cols = np.nonzero(bits)[1]
    want = cols.mean()
    x, _ = line_centroid(BinaryFrame(bits), (0, 12))
    assert x == pytest.approx(want) == pytest.approx(40.0)


def test_line_centroid_roi_bounds_checked():
    bits = np.zeros((20, 100), dtype=bool)
    with pytest.raises(ValueError):
        line_centroid(BinaryFrame(bits), (0, 21))
    with pytest.raises(ValueError):
        line_centroid(BinaryFrame(bits), (5, 5))


def test_line_centroid_column_window_masks_clutter():
    bits = np.zeros((20, 100), dtype=bool)
    bits[:, 48:53] = True   # the line
    bits[:, 10:14] = True   # clutter far left
    full, _ = line_centroid(BinaryFrame(bits), (0, 20))
    gated, _ = line_centroid(BinaryFrame(bits), (0, 20), col_window=(38, 63))
    assert abs(gated - 50.0) < 0.6
    assert full < gated  # clutter drags the ungated mean left


# -------------------------------------------------------------- contours

def blobs_of(bits):
    """One blob per 8-connected component, as _label_runs and _blob_of give them."""
    run_row, run_s, run_e, groups = _label_runs(bits)
    return [_blob_of(g, run_row, run_s, run_e) for g in groups]


def component_pixels(bits):
    """Each 8-connected component as the set of its (row, col) pixels,
    rebuilt from the runs of _label_runs."""
    run_row, run_s, run_e, groups = _label_runs(bits)
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
    # detect_in_binary scores only components of at least DEFAULT_MIN_AREA
    # pixels: a lone speck falls below, a 3x3 square reaches it
    bits = np.zeros((10, 10), dtype=bool)
    bits[1, 1] = True
    bits[5:8, 5:8] = True
    blobs = blobs_of(bits)
    assert [b.area for b in blobs] == [1, 9]
    assert blobs[0].area < pipeline.DEFAULT_MIN_AREA <= blobs[1].area


def test_label_runs_groups_in_raster_order():
    # components come out in the raster order of their first pixel, which
    # fixes the order of equal-x detections
    bits = np.zeros((10, 30), dtype=bool)
    bits[2:5, 20:24] = True
    bits[6:9, 2:6] = True
    bits[6:9, 10:12] = True
    blobs = blobs_of(bits)
    assert [(b.y0, b.x0) for b in blobs] == [(2, 20), (6, 2), (6, 10)]


@given(arrays(bool, (18, 22), elements=st.booleans()))
@settings(max_examples=60, deadline=None)
def test_contours_match_flood_fill_oracle(bits):
    got = component_pixels(bits)
    assert set(got) == flood_fill_oracle(bits)
    # partition: every foreground pixel in exactly one component
    assert sum(len(c) for c in got) == int(bits.sum())


# -------------------------------------------------------------- matching

def test_exact_template_match_scores_one(templates):
    for digit in range(1, 9):
        got = match_digit(glyph_grid(digit), templates)
        assert got is not None
        assert got[0] == digit
        assert got[1] == pytest.approx(1.0)


def test_all_foreground_blob_rejected(templates):
    solid = np.ones((GRID_N, GRID_N), dtype=bool)
    # oracle: compute all eight scores directly; none reaches the bar
    scores = sorted(
        (1.0 - np.logical_xor(normalize_mask(solid),
                              normalize_mask(glyph_grid(d))).sum() / GRID_N ** 2)
        for d in range(1, 9))
    assert scores[-1] < 0.85
    assert match_digit(solid, templates) is None


def test_shifted_glyph_still_matches(templates):
    field = np.zeros((24, 24), dtype=bool)
    field[4:20, 4:20] = glyph_grid(1)
    shifted = np.roll(field, (1, 1), axis=(0, 1))
    got = match_digit(shifted, templates)
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


# -------------------------------------------------------------- detector

def test_detect_placards_empty_scene(cam, templates):
    frame = render(EMPTY_MAP, (0.0, 0.0, math.pi / 2), cam, NoiseParams())
    assert detect_placards(frame, cam, templates) == []
    # and the frame really is blank
    assert not adaptive_binarize(frame).bits.any()


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


# ---------------------------------------------------------------- render

def test_centered_line_bottom_row_run(track, cam):
    frame = render(track, (0.0, 0.4, math.pi / 2), cam, NoiseParams())
    bits = adaptive_binarize(frame).bits
    cols = np.nonzero(bits[-1])[0]
    assert len(cols) > 0
    center = (cols.min() + cols.max()) / 2.0
    assert abs(center - frame.width / 2.0) <= 1.0


def test_displaced_cart_sees_line_off_center(track, cam):
    # 5 cm left of the line; the line should appear right of center,
    # near an independently projected column
    pose = (-0.05, 0.4, math.pi / 2)
    frame = render(track, pose, cam, NoiseParams())
    bits = adaptive_binarize(frame).bits
    row = frame.height - 1
    cols = np.nonzero(bits[row])[0]
    assert len(cols) > 0
    center = float(cols.mean())
    assert center > frame.width / 2.0

    # oracle: re-derive the projection with plain trigonometry
    f_px = (frame.width / 2.0) / math.tan(cam.horizontal_fov / 2.0)
    cy = (frame.height - 1) / 2.0
    b = (row - cy) / f_px
    pitch = cam.pitch
    # ground distance ahead for this image row
    elev = pitch + math.atan(b)
    d = cam.mount_height / math.tan(elev)
    # the line sits 0.05 m to the cart's right; right of cart = -gy
    gy = -0.05
    slant_z = d * math.cos(pitch) + cam.mount_height * math.sin(pitch)
    u = (frame.width - 1) / 2.0 + f_px * (-gy) / slant_z
    assert center == pytest.approx(u, abs=2.0)


def test_nadir_band_precision_under_heading_error(track, cam):
    for deg in (-5, -2.5, 0, 2.5, 5):
        frame = render(track, (0.0, 0.4, math.pi / 2 + math.radians(deg)), cam,
                       NoiseParams())
        got = line_centroid(adaptive_binarize(frame), NADIR_ROI,
                            min_pixels=NADIR_MIN_PIXELS)
        assert got is not None
        assert abs(got[0] - frame.width / 2.0) <= 1.0


def test_render_needs_rng_for_noise(track, cam):
    with pytest.raises(ValueError):
        render(track, (0.0, 0.0, math.pi / 2), cam, NoiseParams(sigma=4.0))


def test_render_with_negative_k1_casts_no_out_of_range_index(track):
    # k1 < 0 leaves rays above the horizon; their cell index must fit int32
    cam = CameraModel(distortion_k1=-0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = render(track, (0.0, 0.4, math.pi / 2), cam, NoiseParams(k1=-0.1))
    assert frame.pixels.shape == (cam.height, cam.width)


def test_vision_package_render_is_the_submodule():
    render_attr = importlib.import_module("wardcart.vision").render
    assert isinstance(render_attr, types.ModuleType)
    assert hasattr(render_attr, "world_ink")


def same_as_masked_sample(ink, wx, wy):
    with np.errstate(invalid="ignore"):  # 1e9 overflows the int32 cast
        return np.array_equal(ink.sample(wx, wy), masked_sample(ink, wx, wy))


def masked_sample(ink, wx, wy):
    """Reference world-ink lookup: cells off the raster read as background."""
    ix = ((wx - ink.x0) / WORLD_CELL).astype(np.int32)
    iy = ((wy - ink.y0) / WORLD_CELL).astype(np.int32)
    valid = (ix >= 0) & (ix < ink.nx) & (iy >= 0) & (iy < ink.ny)
    out = np.zeros(wx.shape, dtype=bool)
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


@settings(max_examples=60, deadline=None)
@given(fx=st.floats(-0.3, 1.3), fy=st.floats(-0.3, 1.3),
       heading=st.floats(-math.pi, math.pi), k1=st.sampled_from(SAMPLE_K1))
def test_ink_sample_matches_masked_reference_at_any_pose(fx, fy, heading, k1):
    ink = SPECKLED
    # fractions of the raster; outside [0, 1] the view leaves the raster
    px = ink.x0 + fx * ink.nx * WORLD_CELL
    py = ink.y0 + fy * ink.ny * WORLD_CELL
    gx, gy = ground_grid(CameraModel(distortion_k1=k1), k1)
    c, s = math.cos(heading), math.sin(heading)
    wx = px + gx * c - gy * s
    wy = py + gx * s + gy * c
    assert same_as_masked_sample(ink, wx, wy)


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
    assert same_as_masked_sample(ink, wx, wy)


# (bounded cache, distinct first arguments; the rest of each call)
def _maps(n):
    return [(load_map(f"node p {i} 0\npharmacy p\nwidth 0.30\n"),) for i in range(n)]


def _grids(n):
    rng = np.random.default_rng(0)
    return [(rng.random((GRID_N, GRID_N)) < 0.5).tobytes() for _ in range(n)]


CACHES = {
    "world_ink": (world_ink, _maps),
    "ground_grid": (ground_grid,
                    lambda n: [(CameraModel(), 0.01 * i) for i in range(n)]),
    "undistort_map": (pipeline._undistort_map,
                      lambda n: [(160, 120, 0.01 * i) for i in range(n)]),
    "resample_indices": (pipeline._resample_indices,
                         lambda n: [(1 + i // 60, 1 + i % 60, GRID_N) for i in range(n)]),
    "normalized_grid": (pipeline._normalized_grid, lambda n: [(g,) for g in _grids(n)]),
}


@pytest.mark.parametrize("name", sorted(CACHES))
def test_module_caches_are_bounded(name):
    cached, make_args = CACHES[name]
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None
    for args in make_args(maxsize + 1):
        cached(*args)
    assert cached.cache_info().currsize <= maxsize


def test_normalized_template_is_cached_by_grid(templates):
    t = templates[3]
    copy = DigitTemplate(3, t.grid.copy())
    assert pipeline._normalized_template(t) is pipeline._normalized_template(copy)
    assert np.array_equal(pipeline._normalized_template(t), normalize_mask(t.grid))
