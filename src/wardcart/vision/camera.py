"""Forward-tilted pinhole camera over the ground plane.

Cart frame: +x forward, +y left, z up, camera at (0, 0, MOUNT_HEIGHT)
pitched down by PITCH about the y axis. Image u grows to the cart's right,
v grows toward nearer ground. Every cart carries the same camera, so its
geometry is module constants and only the lens distortion is a setting. The
one-parameter radial model maps an undistorted radius r_u (normalized by
the half-diagonal) to the distorted radius r_d = r_u * (1 + k1 * r_u^2);
rendered frames carry that distortion and the pipeline removes it by
reverse mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MOUNT_HEIGHT = 0.18               # meters above the ground
PITCH = math.pi / 4               # downward tilt from horizontal
HORIZONTAL_FOV = math.radians(100.0)
WIDTH, HEIGHT = 160, 120          # frame size, px
FOCAL_PX = (WIDTH / 2.0) / math.tan(HORIZONTAL_FOV / 2.0)
CENTER = ((WIDTH - 1) / 2.0, (HEIGHT - 1) / 2.0)
RADIUS_NORM = math.hypot(*CENTER)  # half-diagonal, the unit of distortion radii
MONOTONE_K1_FLOOR = -1.0 / 3.0


def check_k1(k1: float) -> None:
    """Reject an infinite k1 and one that folds the radial map on the diagonal."""
    if not MONOTONE_K1_FLOOR < k1 < math.inf:  # NaN fails too
        raise ValueError(f"k1={k1} is not a finite value above -1/3")


@dataclass(frozen=True)
class CameraModel:
    """The cart's camera: the fixed geometry above plus the lens distortion."""
    distortion_k1: float = 0.0

    def __post_init__(self):
        check_k1(self.distortion_k1)

    @staticmethod
    def ground_from_pixels(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cart-frame ground hit (gx forward, gy left) for pixel coordinates.

        Rays that do not strike the ground ahead map to NaN.
        """
        cx, cy = CENTER
        a = (u - cx) / FOCAL_PX
        b = (v - cy) / FOCAL_PX
        sin_p, cos_p = math.sin(PITCH), math.cos(PITCH)
        rx = cos_p - b * sin_p
        ry = -a
        rz = -sin_p - b * cos_p
        t = MOUNT_HEIGHT / -np.minimum(rz, -1e-12)
        t = np.where(rz < -1e-9, t, np.nan)
        return t * rx, t * ry

    @staticmethod
    def pixels_from_ground(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project cart-frame ground points to (undistorted) pixel coordinates.

        Points at or behind the image plane land far outside the frame.
        """
        sin_p, cos_p = math.sin(PITCH), math.cos(PITCH)
        h = MOUNT_HEIGHT
        z_cam = np.maximum(gx * cos_p + h * sin_p, 1e-9)
        cx, cy = CENTER
        u = cx + FOCAL_PX * -gy / z_cam
        v = cy + FOCAL_PX * (-gx * sin_p + h * cos_p) / z_cam
        return u, v


def undistorted_radius(r_d: np.ndarray, k1: float) -> np.ndarray:
    """Invert r_d = r_u (1 + k1 r_u^2) by Newton iteration (radii normalized)."""
    check_k1(k1)
    if k1 == 0.0:
        return np.asarray(r_d, dtype=float).copy()
    r_u = np.asarray(r_d, dtype=float).copy()
    for _ in range(25):
        f_val = r_u * (1.0 + k1 * r_u * r_u) - r_d
        f_prime = 1.0 + 3.0 * k1 * r_u * r_u
        r_u = r_u - f_val / f_prime
    return r_u


@lru_cache(maxsize=8)
def ground_grid(k1: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel cart-frame ground hits for a frame rendered with distortion k1.

    Pixel (u, v) of the distorted image corresponds to the undistorted ray at
    radius r_u with r_d = r_u (1 + k1 r_u^2); the grid caches the ground
    intersection of that ray. Cached per k1; the arrays are shared and
    read-only.
    """
    vv, uu = np.meshgrid(np.arange(HEIGHT, dtype=float), np.arange(WIDTH, dtype=float),
                         indexing="ij")
    if k1 != 0.0:
        cx, cy = CENTER
        du, dv = uu - cx, vv - cy
        r_d = np.hypot(du, dv) / RADIUS_NORM
        r_u = undistorted_radius(r_d, k1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r_d > 1e-12, r_u / r_d, 1.0)
        uu = cx + du * scale
        vv = cy + dv * scale
    gx, gy = CameraModel.ground_from_pixels(uu, vv)
    # rays that miss the ground point far out of any map so they sample as
    # background; at 10 km their world-ink cell index still fits in int32
    miss = np.isnan(gx) | np.isnan(gy)
    gx = np.where(miss, 1e4, gx).astype(np.float32)
    gy = np.where(miss, 1e4, gy).astype(np.float32)
    gx.flags.writeable = gy.flags.writeable = False
    return gx, gy
