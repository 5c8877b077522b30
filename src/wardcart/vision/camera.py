"""Forward-tilted pinhole camera over the ground plane.

Cart frame: +x forward, +y left, z up, camera at (0, 0, mount_height)
pitched down by ``pitch`` about the y axis. Image u grows to the cart's
right, v grows toward nearer ground. The one-parameter radial model maps an
undistorted radius r_u (normalized by the half-diagonal) to the distorted
radius r_d = r_u * (1 + k1 * r_u^2); rendered frames carry that distortion
and the pipeline removes it by reverse mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MONOTONE_K1_FLOOR = -1.0 / 3.0


def check_k1(k1: float) -> None:
    """Reject k1 that folds the radial map on the image diagonal."""
    if not k1 > MONOTONE_K1_FLOOR:  # NaN fails too
        raise ValueError(f"k1={k1} makes the radial map non-monotone")


@dataclass(frozen=True)
class CameraModel:
    mount_height: float = 0.18
    pitch: float = math.pi / 4  # downward tilt from horizontal
    horizontal_fov: float = math.radians(100.0)
    resolution: tuple[int, int] = (160, 120)  # (width, height) px
    distortion_k1: float = 0.0

    def __post_init__(self):
        if not 0 < self.pitch < math.pi / 2:
            raise ValueError("pitch must be in (0, pi/2)")
        w, h = self.resolution
        if w <= 0 or h <= 0:
            raise ValueError("resolution must be positive")
        check_k1(self.distortion_k1)

    @property
    def width(self) -> int:
        return self.resolution[0]

    @property
    def height(self) -> int:
        return self.resolution[1]

    @property
    def focal_px(self) -> float:
        return (self.width / 2.0) / math.tan(self.horizontal_fov / 2.0)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)

    @property
    def radius_norm(self) -> float:
        cx, cy = self.center
        return math.hypot(cx, cy)

    def ground_from_pixels(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cart-frame ground hit (gx forward, gy left) for pixel coordinates.

        Rays that do not strike the ground ahead map to NaN.
        """
        cx, cy = self.center
        f = self.focal_px
        a = (u - cx) / f
        b = (v - cy) / f
        sin_p, cos_p = math.sin(self.pitch), math.cos(self.pitch)
        rx = cos_p - b * sin_p
        ry = -a
        rz = -sin_p - b * cos_p
        t = self.mount_height / -np.minimum(rz, -1e-12)
        t = np.where(rz < -1e-9, t, np.nan)
        return t * rx, t * ry

    def pixels_from_ground(self, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project cart-frame ground points to (undistorted) pixel coordinates.

        Points at or behind the image plane land far outside the frame.
        """
        sin_p, cos_p = math.sin(self.pitch), math.cos(self.pitch)
        h = self.mount_height
        z_cam = np.maximum(gx * cos_p + h * sin_p, 1e-9)
        cx, cy = self.center
        f = self.focal_px
        u = cx + f * -gy / z_cam
        v = cy + f * (-gx * sin_p + h * cos_p) / z_cam
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
def ground_grid(cam: CameraModel, k1: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel cart-frame ground hits for a camera rendering with distortion k1.

    Pixel (u, v) of the distorted image corresponds to the undistorted ray at
    radius r_u with r_d = r_u (1 + k1 r_u^2); the grid caches the ground
    intersection of that ray. Cached per (camera, k1); the arrays are shared
    and read-only.
    """
    w, h = cam.resolution
    vv, uu = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    if k1 != 0.0:
        cx, cy = cam.center
        du, dv = uu - cx, vv - cy
        # a 1 x 1 frame is all center, radius 0
        r_d = np.hypot(du, dv) / (cam.radius_norm or 1.0)
        r_u = undistorted_radius(r_d, k1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r_d > 1e-12, r_u / r_d, 1.0)
        uu = cx + du * scale
        vv = cy + dv * scale
    gx, gy = cam.ground_from_pixels(uu, vv)
    # rays that miss the ground point far out of any map so they sample as
    # background; at 10 km their world-ink cell index still fits in int32
    miss = np.isnan(gx) | np.isnan(gy)
    gx = np.where(miss, 1e4, gx).astype(np.float32)
    gy = np.where(miss, 1e4, gy).astype(np.float32)
    gx.flags.writeable = gy.flags.writeable = False
    return gx, gy
