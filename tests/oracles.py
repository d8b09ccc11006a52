"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's own code paths: distances by
all-pairs minimum, dilation by explicit shifting, density maps by adding
one blob at a time, assignment by permutation enumeration, areas by Monte
Carlo.
"""

import itertools
import math

import numpy as np


def brute_force_sqdist_cells(values: np.ndarray) -> np.ndarray:
    """All-pairs squared distance (integer cell units) from every cell to the
    nearest occupied (0) cell. Requires at least one occupied cell."""
    occ = np.argwhere(values == 0)
    assert len(occ), "oracle needs at least one occupied cell"
    rows, cols = values.shape
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    cells = np.stack([ii.ravel(), jj.ravel()], axis=1)
    d2 = ((cells[:, None, :] - occ[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return d2.reshape(rows, cols)


def boundary_distance_cells(rows: int, cols: int) -> np.ndarray:
    """Distance from cell centers to the nearest point outside the grid."""
    i = np.arange(rows, dtype=float)
    j = np.arange(cols, dtype=float)
    di = np.minimum(i, rows - 1 - i) + 0.5
    dj = np.minimum(j, cols - 1 - j) + 0.5
    return np.minimum(di[:, None], dj[None, :])


def largest_empty_circle_cells(values: np.ndarray):
    """(row, col, radius_cells) of the biggest inscribed circle; ties break
    to the lowest (row, col)."""
    if (values == 0).any():
        dist = np.sqrt(brute_force_sqdist_cells(values).astype(float))
    else:
        dist = boundary_distance_cells(*values.shape)
    flat = int(np.argmax(dist))
    i, j = divmod(flat, values.shape[1])
    return i, j, float(dist[i, j])


def _shift(mask: np.ndarray, di: int, dj: int) -> np.ndarray:
    out = np.zeros_like(mask)
    rows, cols = mask.shape
    src_i = slice(max(0, -di), min(rows, rows - di))
    dst_i = slice(max(0, di), min(rows, rows + di))
    src_j = slice(max(0, -dj), min(cols, cols - dj))
    dst_j = slice(max(0, dj), min(cols, cols + dj))
    out[dst_i, dst_j] = mask[src_i, src_j]
    return out


def dilate_5x5_oracle(mask: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Morphological dilation by a 5x5 all-ones kernel via explicit shifts;
    out-of-image neighbors count as empty."""
    out = mask.astype(bool)
    for _ in range(iterations):
        acc = np.zeros_like(out)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                acc |= _shift(out, di, dj)
        out = acc
    return out


def _add_blob(values: np.ndarray, x: float, y: float, sigma: float) -> None:
    h, w = values.shape
    reach = 4.0 * sigma
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
    values[r0:r1, c0:c1] += g / (2.0 * math.pi * sigma * sigma)


def blob_sum_oracle(points, sigma: float, width: int,
                    height: int) -> np.ndarray:
    """Float64 sum of Gaussian blobs at pixel positions, one blob at a
    time, in the given order."""
    values = np.zeros((height, width), dtype=np.float64)
    for x, y in points:
        _add_blob(values, float(x), float(y), sigma)
    return values


def render_density_oracle(head_pixels, cfg, width: int,
                          height: int) -> np.ndarray:
    """Float32 density map of ``render_oracle_density``, built one blob and
    one random draw at a time: a miss draw per head, then the Poisson
    count, then an (x, y) pair per spurious blob."""
    rng = np.random.default_rng(cfg.seed)
    points = [(x, y) for x, y in head_pixels
              if not (cfg.fn_rate > 0 and rng.random() < cfg.fn_rate)]
    n_fp = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0
    for _ in range(n_fp):
        points.append((rng.uniform(0, width), rng.uniform(0, height)))
    return blob_sum_oracle(points, cfg.sigma_px, width,
                           height).astype(np.float32)


def min_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum assignment cost over all permutations."""
    cost = np.asarray(cost, dtype=float)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    n, m = cost.shape
    rows = np.arange(n)
    return min(cost[rows, list(p)].sum()
               for p in itertools.permutations(range(m), n))


def monte_carlo_circle_iou(a, b, n_samples: int = 10_000_000,
                           seed: int = 0) -> float:
    """IoU of two disks estimated by uniform sampling over the union's
    bounding box."""
    x1, y1, r1 = a
    x2, y2, r2 = b
    lo = np.array([min(x1 - r1, x2 - r2), min(y1 - r1, y2 - r2)])
    hi = np.array([max(x1 + r1, x2 + r2), max(y1 + r1, y2 + r2)])
    rng = np.random.default_rng(seed)
    n_inter = n_union = 0
    chunk = 2_000_000
    remaining = n_samples
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        pts = rng.uniform(lo, hi, size=(n, 2))
        in_a = (pts[:, 0] - x1) ** 2 + (pts[:, 1] - y1) ** 2 <= r1 * r1
        in_b = (pts[:, 0] - x2) ** 2 + (pts[:, 1] - y2) ** 2 <= r2 * r2
        n_inter += int((in_a & in_b).sum())
        n_union += int((in_a | in_b).sum())
    return n_inter / n_union if n_union else 0.0
