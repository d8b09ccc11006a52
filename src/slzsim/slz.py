"""Distance transform on the head-plane grid and circular landing zone extraction.

The largest people-free circle is located as the maximum of the Euclidean
distance transform of the occupancy grid. The found disk is then rasterized
as occupied and the search repeats, yielding up to n_p candidates with
radius at least r0.

Extraction computes one distance transform per call, over the window of
the grid that holds its free cells, and then updates it locally after each
disk. Painting a disk of radius R only lowers distances, and no distance
exceeds R (R is the maximum), so only cells within 2R of the centre can
change; there the map is lowered to the distance to the new disk. Every
distance is the square root of an exact integer, and the minimum commutes
with sqrt and scaling, so the result is bit-identical to a full transform
of the whole grid after every disk.

The distance to a disk is read from one quadrant of its squared distance
field (see ``_disk_quadrant``), which is kept in a small LRU cache keyed
by the disk's squared radius in cells. The cache is exact for two
reasons. First, every distance is sqrt(integer) * cell: the radius R is
a distance from the transform, sqrt(k) * cell for an integer k, so
(R / cell)^2 lies within about 1e-12 of k, and the rim test
a^2 + b^2 > (R / cell)^2 + 1e-9 picks the same cells as
a^2 + b^2 > k + 1e-9, both thresholds lying strictly between the
integers k and k + 1. Second, the quadrant holds the integer squares
exactly, and sqrt of them rounds as the transform's own sqrt does. Only a
squared radius within 1e-10 of an integer uses the cache; any other one,
such as the half-integer radius of a fully free grid's first disk (the
boundary case), takes the direct transform. The cache holds at most
``DISK_CACHE_BYTES`` and starts empty.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import ndimage


@dataclass
class DistanceMap:
    values: np.ndarray      # meters, shape (rows, cols), 0 on occupied cells
    cell_size: float


@dataclass(frozen=True)
class SlzProposal:
    cx: float       # circle center, world frame (m)
    cy: float
    radius: float   # meters
    frame_index: int = 0

    @property
    def area(self) -> float:
        return float(np.pi * self.radius ** 2)


@dataclass(frozen=True)
class SlzConfig:
    n_p: int = 10   # max proposals per frame
    r0: float = 1.0  # minimum safety radius (m)

    def __post_init__(self):
        if self.n_p < 1:
            raise ValueError("n_p must be at least 1")
        if not 0 < self.r0 < math.inf:
            raise ValueError("r0 must be finite and positive")


def _boundary_distance_cells(rows: int, cols: int) -> np.ndarray:
    """Distance from each cell center to the nearest point outside the grid
    boundary, in cell units."""
    i = np.arange(rows, dtype=float)
    j = np.arange(cols, dtype=float)
    di = np.minimum(i, rows - 1 - i) + 0.5
    dj = np.minimum(j, cols - 1 - j) + 0.5
    return np.minimum(di[:, None], dj[None, :])


def _distance_cells(free: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each cell of the boolean `free` map to
    the nearest occupied cell center, in cell units; falls back to the grid
    boundary when no cell is occupied."""
    if free.all():
        return _boundary_distance_cells(*free.shape)
    return ndimage.distance_transform_edt(free)


def euclidean_distance_transform(grid) -> DistanceMap:
    """Per-cell distance in meters to the nearest occupied cell center.

    Fully free grids measure distance to the grid boundary instead, so
    landing proposals never extend past the mapped region.
    """
    return DistanceMap(_distance_cells(grid.values != 0) * grid.cell_size,
                       grid.cell_size)


def _disk_quadrant(rc2: float, half: int) -> np.ndarray:
    """Squared distance (cell units) from offset (a, b), 0 <= a, b <= half,
    to the nearest cell of the disk a^2 + b^2 <= rc2 centred at (0, 0); the
    comparison runs in squared cell units to dodge float rounding at the
    rim. Each distance joins two cell centres, so its square is an integer,
    and the square root of the result gives the transform's distances back
    bit for bit.

    One quadrant suffices: clamping a disk cell's offsets to >= 0 keeps it
    in the disk and brings it no farther from a point of this quadrant.
    """
    a = np.arange(half + 1)
    d = ndimage.distance_transform_edt(
        a[:, None] ** 2 + a[None, :] ** 2 > rc2 + 1e-9)
    return np.rint(d * d)


DISK_CACHE_BYTES = 512 << 10


class _DiskCache:
    """Disk quadrants keyed by the integer squared radius k in cells, least
    recently used first out, holding at most ``max_bytes``. A quadrant is
    kept in the smallest unsigned integer type that holds it, mostly 2
    bytes a cell.

    Each quadrant spans offsets up to isqrt(4k) + 2, the largest half-width
    extraction asks for: ceil(2 sqrt(k)) + 1, plus one when a perfect
    square's radius rounds up. Every disk cell lies within sqrt(k) of the
    centre, inside any smaller quadrant too, so a slice of a larger
    quadrant equals the transform of the smaller one.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._quadrants: OrderedDict[int, np.ndarray] = OrderedDict()

    @staticmethod
    def span(k: int) -> int:
        return math.isqrt(4 * k) + 2

    def get(self, k: int) -> np.ndarray:
        q = self._quadrants.get(k)
        if q is not None:
            self._quadrants.move_to_end(k)
            return q
        q = _disk_quadrant(k, self.span(k))
        q = q.astype(np.min_scalar_type(int(q.max())))
        q.flags.writeable = False
        if q.nbytes <= self.max_bytes:  # a larger one would flush the rest
            self._quadrants[k] = q
            self.nbytes += q.nbytes
            while self.nbytes > self.max_bytes:
                self.nbytes -= self._quadrants.popitem(last=False)[1].nbytes
        return q


# one cache per process: an entry depends on k alone, so sharing it changes
# no result, only which transforms are taken again
_DISK_CACHE = _DiskCache(DISK_CACHE_BYTES)


def _disk_sqdist_cells(rc2: float, half: int) -> np.ndarray:
    """``_disk_quadrant(rc2, half)``, read from the cache when ``rc2`` is an
    integer up to rounding; a cached result is a read-only view."""
    k = round(rc2)
    if abs(rc2 - k) < 1e-10 and half <= _DiskCache.span(k):
        return _DISK_CACHE.get(k)[:half + 1, :half + 1]
    return _disk_quadrant(rc2, half)


def _mirrored_blocks(quadrant: np.ndarray, di: int, dj: int, shape):
    """Split a window of ``shape`` whose cell (di, dj) is a disk's centre
    into up to four blocks, one per quadrant around the centre. Yields the
    window slices of each block with the matching view of ``quadrant``,
    mirrored so that it is indexed by |offset|."""
    rows, cols = shape
    for wr, qr in ((slice(0, di), slice(di, 0, -1)),
                   (slice(di, rows), slice(0, rows - di))):
        for wc, qc in ((slice(0, dj), slice(dj, 0, -1)),
                       (slice(dj, cols), slice(0, cols - dj))):
            yield (wr, wc), quadrant[qr, qc]


def extract_slz(grid, cfg: SlzConfig, frame_index: int = 0) -> list[SlzProposal]:
    """Iteratively extract the biggest inscribed circles with radius >= r0.

    Each emitted disk is rasterized as occupied before the next search;
    results come out in extraction order (non-increasing radius). Tie
    locations resolve to the lowest (row, col).

    The distance map (metres) is computed once, inside the bounding box of
    the free cells grown by one cell: every cell outside it is occupied,
    and the box's occupied rim is nearer to a cell inside than any cell
    beyond it. After a disk of radius R cells, only the box of half-width
    ceil(2R) + 1 around its centre is updated: the map is lowered there to
    the distance to the disk. A cell outside that box is more than R from
    every disk cell, so it keeps its distance. A fully free grid starts
    from the boundary distance, which is no distance transform, so after
    its first disk the full transform is taken instead.
    """
    cell = grid.cell_size
    free = grid.values != 0
    free_rows = np.flatnonzero(free.any(axis=1))
    if not len(free_rows):
        return []
    free_cols = np.flatnonzero(free.any(axis=0))
    top, left = max(free_rows[0] - 1, 0), max(free_cols[0] - 1, 0)
    free = free[top:free_rows[-1] + 2, left:free_cols[-1] + 2]
    rows, cols = free.shape
    dist = _distance_cells(free) * cell
    fully_free = bool(free.all())  # only when the window is the whole grid
    proposals = []
    while True:
        flat = int(np.argmax(dist))  # first occurrence = lowest (row, col)
        radius = float(dist.flat[flat])
        if radius < cfg.r0:
            break
        i, j = divmod(flat, cols)
        cx = grid.origin_x + (left + j) * cell
        cy = grid.origin_y + (top + i) * cell
        proposals.append(SlzProposal(cx, cy, radius, frame_index))
        if len(proposals) == cfg.n_p:
            break
        half = math.ceil(2 * radius / cell) + 1
        i0, i1 = max(i - half, 0), min(i + half + 1, rows)
        j0, j1 = max(j - half, 0), min(j + half + 1, cols)
        disk = _disk_sqdist_cells((radius / cell) ** 2, half)
        blocks = _mirrored_blocks(disk, i - i0, j - j0, (i1 - i0, j1 - j0))
        if fully_free:
            work = np.ones((rows, cols), dtype=bool)
            box = work[i0:i1, j0:j1]
            for at, block in blocks:
                box[at] = block > 0
            dist = ndimage.distance_transform_edt(work) * cell
            fully_free = False
        else:
            box = dist[i0:i1, j0:j1]
            for at, block in blocks:
                d = np.sqrt(block, dtype=float)  # the transform's own sqrt
                d *= cell
                np.minimum(box[at], d, out=box[at])
    return proposals
