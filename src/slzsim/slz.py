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
"""

from __future__ import annotations

import math
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


def _disk_distance_cells(rc2: float, half: int) -> np.ndarray:
    """Distance (cell units) from offset (a, b), 0 <= a, b <= half, to the
    nearest cell of the disk a^2 + b^2 <= rc2 centred at (0, 0); the
    comparison runs in squared cell units to dodge float rounding at the
    rim.

    One quadrant suffices: clamping a disk cell's offsets to >= 0 keeps it
    in the disk and brings it no farther from a point of this quadrant.
    """
    a = np.arange(half + 1)
    return ndimage.distance_transform_edt(
        a[:, None] ** 2 + a[None, :] ** 2 > rc2 + 1e-9)


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
        disk = _disk_distance_cells((radius / cell) ** 2, half)
        disk = disk[np.ix_(np.abs(np.arange(i0 - i, i1 - i)),
                           np.abs(np.arange(j0 - j, j1 - j)))]
        if fully_free:
            work = np.ones((rows, cols), dtype=bool)
            work[i0:i1, j0:j1] = disk > 0
            dist = ndimage.distance_transform_edt(work) * cell
            fully_free = False
        else:
            box = dist[i0:i1, j0:j1]
            np.minimum(box, disk * cell, out=box)
    return proposals
