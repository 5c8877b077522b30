"""A fixed reference load, timed between pieces of the program's work, that
gauges how fast the host runs at that moment.

On a shared host the same code runs up to twice as slowly in some spells as
in others, for seconds to minutes at a time, and both vCPUs slow down
together. How much a piece of code slows down depends on what it does, so
the reference load mixes the three kinds of work the program's time goes
to: small NumPy operations on a camera-sized frame, a gather of frame
pixels from a raster larger than the L2 cache (as a render samples the
map's ink), and plain Python arithmetic and dict updates (as the mission,
controller and vehicle code does). On a ward scenario timed over and over
for three minutes, the scenario's time spread 0.31 (quartile distance over
the median) while its ratio to a load of these three parts, each twice as
long as here, spread 0.07; NumPy operations alone gave 0.14. The load never
changes with the program: it depends only on NumPy, the interpreter and the
host.

A host time is reported scaled to the reference speed: multiplied by
``REFERENCE_S`` over the time of the samples taken around it. The result
reads as host seconds on a host that runs the reference load in
``REFERENCE_S``.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

REFERENCE_S = 0.0033  # one sample on the 2-vCPU machine in a quiet spell
EVERY = 100           # program pieces between two samples

_FRAME = np.random.default_rng(0).integers(0, 255, (120, 160)).astype(np.float64)
_ROWS, _COLS = np.mgrid[0:120, 0:160].astype(np.float64)


@functools.cache
def _raster() -> np.ndarray:
    """4 MB of ink, made on the first sample rather than on import."""
    return np.random.default_rng(1).integers(0, 2, (2048, 2048), dtype=np.uint8)


def sample() -> float:
    """Host seconds for one pass of the reference load."""
    raster = _raster()
    img = _FRAME
    t0 = time.perf_counter()
    for _ in range(8):
        mask = img > img.mean()
        np.cumsum(mask, axis=1)
        np.nonzero(mask[::4, ::4])
        (img[mask] * 0.5).sum()
        np.minimum(img, 128.0)[20:100, 30:130].astype(np.uint8)
    for turn in (0.1, 0.4):
        c, s = math.cos(turn), math.sin(turn)
        ix = np.clip(((_COLS * c - _ROWS * s) * 5.0 + 1024.0).astype(np.intp), 0, 2047)
        iy = np.clip(((_COLS * s + _ROWS * c) * 5.0 + 1024.0).astype(np.intp), 0, 2047)
        raster[iy, ix].sum()
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(3000):
        counts[i & 63] = counts.get(i & 63, 0) + 1
        acc += math.sqrt(i) * 0.5
    return time.perf_counter() - t0


class Gauge:
    """A clock that takes a reference sample every ``every`` pieces (never,
    if 0) and does not advance while the sample runs, so the samples add
    nothing to the program's measured time.

    A sample leaves the caches cold, and the piece after it runs about 2 ms
    longer. Odd rounds therefore take their samples half an interval later
    than even rounds, so the same piece in two consecutive rounds is never
    slowed by this twice."""

    def __init__(self, every: int = EVERY):
        self.samples: list[float] = []
        self.taken_at: list[float] = []  # the clock's reading at each sample
        self._every = every
        self._paused = 0.0
        self._pieces = 0
        self._rounds = 0

    def __call__(self) -> float:
        """The time now, less every sample taken so far."""
        return time.perf_counter() - self._paused

    def new_round(self) -> int:
        """Start a round; returns the index of its first sample."""
        self._pieces = (self._rounds % 2) * (self._every // 2)
        self._rounds += 1
        return len(self.samples)

    def piece(self) -> float:
        """The time now, as ``__call__``; marks the end of one piece of
        work, and takes a sample after every ``every``-th."""
        now = time.perf_counter()
        stamp = now - self._paused
        self._pieces += 1
        if self._every and self._pieces % self._every == 0:
            self.samples.append(sample())
            self.taken_at.append(stamp)
            self._paused += time.perf_counter() - now
        return stamp

    def scaled(self, starts: np.ndarray, durations: np.ndarray) -> np.ndarray:
        """``durations`` of pieces that began at ``starts``, scaled to the
        reference speed. Samples are taken between pieces, so each piece
        lies between two samples; its speed is the median of those two and
        the one on either side of them."""
        s = np.asarray(self.samples)
        n = len(s)
        if n == 0:
            raise ValueError("no reference samples were taken")
        speed = np.array([np.median(s[max(0, j - 2):j + 2]) for j in range(n + 1)])
        return durations * (REFERENCE_S / speed[np.searchsorted(self.taken_at, starts, "right")])
