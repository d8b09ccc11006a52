"""Image-space crowd density maps and their conversion to occupancy maps.

The density map stands in for a head-detecting density generator: a sum of
unit-integral Gaussian blobs rendered at known head pixel positions, with
configurable false-positive and miss noise. Conversion to occupancy
subtracts the minimum, thresholds, applies one 9x9 square dilation (equal
to two 5x5) and inverts, so the final map has 255 = people-free and
0 = occupied.

Both steps run over whole arrays, never one blob or one pixel at a time,
and stay exact: the render scatters all blob weights with ``np.add.at``,
which adds in index order, so each pixel sums the same terms in the same
order as adding the blobs one by one (see ``_blob_sum``), and
the dilation is boolean, so any grouping of its shifts gives the same mask.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedFile

logger = logging.getLogger(__name__)

# Pixels equal to the map minimum within this tolerance count as background.
MIN_EQUALITY_TOL = 1e-12
GAUSSIAN_TRUNCATE_SIGMAS = 4.0
# Blobs rendered per np.add.at call; bounds the templates held in memory.
BLOBS_PER_CHUNK = 128


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
        v = self.values
        if not ((v == 0) | (v == 255)).all():
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


def _blob_weights(x: np.ndarray, y: np.ndarray, sigma: float, k: int):
    """Fixed k x k weight templates for the blobs at (x[i], y[i]).

    Template i starts at pixel (floor(y - reach), floor(x - reach)) and
    holds each pixel's Gaussian weight, computed elementwise with the
    single-blob formula. Rows and columns outside the blob's truncation
    box [floor(. - reach), ceil(. + reach)] get an infinite squared
    offset, so their weight is exp(-inf) = 0.0 exactly. Returns the
    top-left corners (rows, cols) and the (n, k, k) weights.
    """
    reach = GAUSSIAN_TRUNCATE_SIGMAS * sigma
    offsets = np.arange(k)

    def squared_offsets(p):
        first = np.floor(p - reach)
        pix = first[:, None] + offsets   # exact small integers, as floats
        # pixel (r, c) samples the Gaussian at its center (c + 0.5, r + 0.5)
        sq = np.where(pix <= np.ceil(p + reach)[:, None],
                      (pix + 0.5 - p[:, None]) ** 2, np.inf)
        return first.astype(np.intp), sq

    r0, rs2 = squared_offsets(y)
    c0, cs2 = squared_offsets(x)
    # -rs2 - cs2 equals -(rs2 + cs2) bit for bit: rounding is symmetric
    g = -rs2[:, :, None] - cs2[:, None, :]
    g /= 2.0 * sigma * sigma
    np.exp(g, out=g)
    g /= 2.0 * np.pi * sigma * sigma
    return r0, c0, g


def _blob_sum(x: np.ndarray, y: np.ndarray, sigma: float, width: int,
              height: int) -> np.ndarray:
    """Float64 (height, width) sum of the blobs at (x[i], y[i]), in order.

    Blobs are rendered in chunks of ``BLOBS_PER_CHUNK``: each becomes a
    k x k template (see ``_blob_weights``), scattered with ``np.add.at``
    into an accumulator padded by k on every side, which is then cropped.
    ``np.add.at`` adds in index order and the chunks run in blob order, so
    every pixel adds its blobs' weights one at a time in blob order. A
    template's zero weights add +0.0, which leaves a non-negative sum
    unchanged, so the sum is bit-identical to adding the blobs one by one.
    """
    reach = GAUSSIAN_TRUNCATE_SIGMAS * sigma
    # a blob whose truncation box misses the image adds nothing
    touches = ((np.floor(x - reach) < width) & (np.ceil(x + reach) >= 0)
               & (np.floor(y - reach) < height) & (np.ceil(y + reach) >= 0))
    x, y = x[touches], y[touches]
    k = 2 * math.ceil(reach) + 2       # >= the widest truncation box
    padded_w = width + 2 * k
    acc = np.zeros((height + 2 * k) * padded_w)
    template = np.arange(k)[:, None] * padded_w + np.arange(k)
    for s in range(0, len(x), BLOBS_PER_CHUNK):
        r0, c0, g = _blob_weights(x[s:s + BLOBS_PER_CHUNK],
                                  y[s:s + BLOBS_PER_CHUNK], sigma, k)
        corner = (r0 + k) * padded_w + c0 + k
        np.add.at(acc, (corner[:, None, None] + template).ravel(), g.ravel())
    return acc.reshape(-1, padded_w)[k:k + height, k:k + width]


def render_oracle_density(head_pixels, cfg: OracleNoiseConfig,
                          width: int, height: int) -> DensityMap:
    """Render ground-truth head positions as a synthetic density map.

    Each head is dropped independently with probability fn_rate; a
    Poisson(fp_rate) number of spurious blobs is added at uniform positions.
    Deterministic for a given (inputs, seed) pair.

    Blob i adds exp(-(dr^2 + dc^2) / (2 sigma^2)) / (2 pi sigma^2) to each
    pixel of its truncation box, 4 sigma around it, sampled at the pixel
    center. All blobs are summed at once by ``_blob_sum``, heads first and
    spurious blobs after, each pixel in the order of adding the blobs one
    by one; the misses, the Poisson count and the spurious positions are
    drawn in the order of one scalar draw each. The float64 sum is rounded
    to float32 once, at the end.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    heads = np.asarray(head_pixels, dtype=float).reshape(-1, 2)
    if not np.isfinite(heads).all():
        raise ValueError("head pixel positions must be finite")
    rng = np.random.default_rng(cfg.seed)
    if cfg.fn_rate > 0:
        heads = heads[~(rng.random(len(heads)) < cfg.fn_rate)]
    n_fp = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0
    if n_fp:
        # x then y per blob, the order of two scalar draws
        heads = np.concatenate(
            [heads, rng.uniform(0.0, (width, height), size=(n_fp, 2))])
    values = _blob_sum(heads[:, 0], heads[:, 1], cfg.sigma_px, width, height)
    return DensityMap(values.astype(np.float32))


def occupancy_from_density(d: DensityMap) -> OccupancyGrid:
    """Binarize, dilate with a 9x9 square (two 5x5 dilations), then invert.

    The square is applied separably: along each axis, three shift-and-OR
    steps of 1, 2 and 1 pixels grow every person pixel by 4 each way.
    Pixels past the image border count as empty. Final semantics:
    0 = occupied by people, 255 = free.
    """
    person = (d.values - d.values.min()) > MIN_EQUALITY_TOL
    for axis in (0, 1):
        for step in (1, 2, 1):
            head = (slice(None),) * axis + (slice(step, None),)
            tail = (slice(None),) * axis + (slice(None, -step),)
            grown = person.copy()
            grown[head] |= person[tail]
            grown[tail] |= person[head]
            person = grown
    return OccupancyGrid((~person).view(np.uint8) * np.uint8(255))


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
