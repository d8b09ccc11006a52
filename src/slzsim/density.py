"""Image-space crowd density maps and their conversion to occupancy maps.

The density map stands in for a head-detecting density generator: a sum of
unit-integral Gaussian blobs rendered at known head pixel positions, with
configurable false-positive and miss noise. Conversion to occupancy
subtracts the minimum, thresholds, applies one 9x9 square dilation (equal
to two 5x5) and inverts, so the final map has 255 = people-free and
0 = occupied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import MalformedFile

logger = logging.getLogger(__name__)

# Pixels equal to the map minimum within this tolerance count as background.
MIN_EQUALITY_TOL = 1e-12
GAUSSIAN_TRUNCATE_SIGMAS = 4.0


@dataclass
class DensityMap:
    values: np.ndarray  # float32, shape (height, width), persons per pixel

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError("density map must be 2-D")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("density values must be finite and non-negative")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass
class OccupancyGrid:
    values: np.ndarray  # uint8, shape (height, width), 0 or 255

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.uint8)
        if self.values.ndim != 2:
            raise ValueError("occupancy grid must be 2-D")
        if not np.isin(self.values, (0, 255)).all():
            raise ValueError("occupancy values must be 0 or 255")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class OracleNoiseConfig:
    sigma_px: float = 3.0
    fp_rate: float = 0.0   # expected spurious blobs per frame
    fn_rate: float = 0.0   # per-head miss probability
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.sigma_px < math.inf:
            raise ValueError("sigma_px must be finite and positive")
        if not 0 <= self.fp_rate < math.inf:
            raise ValueError("fp_rate must be finite and non-negative")
        if not 0 <= self.fn_rate < 1:
            raise ValueError("fn_rate must be in [0, 1)")


def _add_blob(values: np.ndarray, x: float, y: float, sigma: float) -> None:
    h, w = values.shape
    reach = GAUSSIAN_TRUNCATE_SIGMAS * sigma
    c0 = max(int(np.floor(x - reach)), 0)
    c1 = min(int(np.ceil(x + reach)) + 1, w)
    r0 = max(int(np.floor(y - reach)), 0)
    r1 = min(int(np.ceil(y + reach)) + 1, h)
    if c0 >= c1 or r0 >= r1:
        return
    # pixel (r, c) samples the Gaussian at its center (c + 0.5, r + 0.5)
    cs = np.arange(c0, c1) + 0.5 - x
    rs = np.arange(r0, r1) + 0.5 - y
    g = np.exp(-(rs[:, None] ** 2 + cs[None, :] ** 2) / (2.0 * sigma * sigma))
    values[r0:r1, c0:c1] += g / (2.0 * np.pi * sigma * sigma)


def render_oracle_density(head_pixels, cfg: OracleNoiseConfig,
                          width: int, height: int) -> DensityMap:
    """Render ground-truth head positions as a synthetic density map.

    Each head is dropped independently with probability fn_rate; a
    Poisson(fp_rate) number of spurious blobs is added at uniform positions.
    Deterministic for a given (inputs, seed) pair.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    rng = np.random.default_rng(cfg.seed)
    values = np.zeros((height, width), dtype=np.float64)
    for x, y in head_pixels:
        if cfg.fn_rate > 0 and rng.random() < cfg.fn_rate:
            continue
        _add_blob(values, float(x), float(y), cfg.sigma_px)
    n_fp = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0
    for _ in range(n_fp):
        _add_blob(values, rng.uniform(0, width), rng.uniform(0, height),
                  cfg.sigma_px)
    return DensityMap(values.astype(np.float32))


def occupancy_from_density(d: DensityMap) -> OccupancyGrid:
    """Binarize, dilate with a 9x9 square (two 5x5 dilations), then invert.

    The square is applied as a separable pair of 1-D maximum filters;
    pixels past the image border count as empty. Final semantics:
    0 = occupied by people, 255 = free.
    """
    person = ((d.values - d.values.min()) > MIN_EQUALITY_TOL).view(np.uint8)
    for axis in (0, 1):
        person = ndimage.maximum_filter1d(person, 9, axis=axis,
                                          mode="constant", cval=0)
    return OccupancyGrid(np.where(person, 0, 255).astype(np.uint8))


DMAP_MAGIC = b"DMAP"


def save_density(path, d: DensityMap) -> None:
    """Write the density raster: "DMAP <w> <h>\\n" + little-endian float32."""
    with open(path, "wb") as fh:
        fh.write(b"DMAP %d %d\n" % (d.width, d.height))
        fh.write(d.values.astype("<f4").tobytes())


def load_density(path) -> DensityMap:
    """Load a density raster; negative stored values are clamped to 0."""
    with open(path, "rb") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] != DMAP_MAGIC:
            raise MalformedFile(f"{path}: bad density header {header!r}")
        try:
            width, height = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise MalformedFile(f"{path}: bad dimensions in header") from exc
        if width <= 0 or height <= 0:
            raise MalformedFile(f"{path}: non-positive dimensions")
        payload = fh.read()
    expected = width * height * 4
    if len(payload) != expected:
        raise MalformedFile(
            f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    if (values < 0).any():
        logger.warning("%s: %d negative density values clamped to 0",
                       path, int((values < 0).sum()))
        values = np.maximum(values, 0)
    return DensityMap(values.copy())
