"""Distance transform and iterative landing-zone extraction."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy import ndimage

from slzsim import PlaneGrid, SlzConfig, euclidean_distance_transform, extract_slz
from slzsim import slz as slz_mod

from oracles import (boundary_distance_cells, brute_force_sqdist_cells,
                     largest_empty_circle_cells)


def _grid(values, cell=1.0, ox=0.0, oy=0.0):
    values = np.asarray(values, dtype=np.uint8)
    return PlaneGrid(ox, oy, cell, values.shape[0], values.shape[1], values)


def _random_grid(rng, max_side=32, p_occ=None):
    rows = int(rng.integers(2, max_side + 1))
    cols = int(rng.integers(2, max_side + 1))
    p = p_occ if p_occ is not None else rng.uniform(0.02, 0.5)
    values = np.where(rng.random((rows, cols)) < p, 0, 255).astype(np.uint8)
    return _grid(values, cell=float(rng.uniform(0.05, 1.0)))


# ---------------------------------------------------------------------------
# distance transform

def test_edt_3x3_center_occupied():
    values = np.full((3, 3), 255)
    values[1, 1] = 0
    dm = euclidean_distance_transform(_grid(values))
    expected = np.array([[np.sqrt(2), 1, np.sqrt(2)],
                         [1, 0, 1],
                         [np.sqrt(2), 1, np.sqrt(2)]])
    assert np.allclose(dm.values, expected)


def test_edt_random_vs_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(30):
        grid = _random_grid(rng, max_side=16)
        if not (grid.values == 0).any():
            grid.values[0, 0] = 0
        dm = euclidean_distance_transform(grid)
        got = np.rint((dm.values / grid.cell_size) ** 2).astype(int)
        assert np.array_equal(got, brute_force_sqdist_cells(grid.values))


def test_edt_zero_on_occupied_cells():
    rng = np.random.default_rng(32)
    grid = _random_grid(rng, p_occ=0.3)
    dm = euclidean_distance_transform(grid)
    assert (dm.values[grid.values == 0] == 0).all()
    assert (dm.values[grid.values == 255] > 0).all()


def test_edt_fully_free_uses_boundary():
    grid = _grid(np.full((10, 10), 255))
    dm = euclidean_distance_transform(grid)
    assert np.allclose(dm.values, boundary_distance_cells(10, 10))
    # even-sided grid: maximum is half the extent minus half a cell
    assert dm.values.max() == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# extraction

def test_extract_fully_occupied_empty():
    grid = _grid(np.zeros((20, 20)))
    assert extract_slz(grid, SlzConfig()) == []


def test_extract_fully_free_40x40():
    grid = _grid(np.full((40, 40), 255), cell=0.25, ox=0.0, oy=0.0)
    proposals = extract_slz(grid, SlzConfig(n_p=10, r0=1.0))
    assert proposals
    first = proposals[0]
    # boundary-limited: radius within half a cell of the 5 m half-extent,
    # center at the lowest of the four central cells
    assert first.radius == pytest.approx(19.5 * 0.25)
    assert abs(first.radius - 5.0) <= grid.cell_size / 2
    assert first.cx == pytest.approx(19 * 0.25)
    assert first.cy == pytest.approx(19 * 0.25)
    assert all(p.radius >= 1.0 for p in proposals)


def test_extract_two_pockets():
    values = np.full((15, 31), 255)
    values[:, 15] = 0  # occupied wall splitting two 15x15 pockets
    grid = _grid(values)
    proposals = extract_slz(grid, SlzConfig(n_p=10, r0=5.0))
    assert len(proposals) == 2
    assert {p.cx < 15 for p in proposals} == {True, False}


def test_first_proposal_matches_brute_force_oracle():
    rng = np.random.default_rng(33)
    for _ in range(30):
        grid = _random_grid(rng, max_side=24, p_occ=0.05)
        cfg = SlzConfig(n_p=1, r0=grid.cell_size * 0.51)
        proposals = extract_slz(grid, cfg)
        i, j, r_cells = largest_empty_circle_cells(grid.values)
        if r_cells * grid.cell_size < cfg.r0:
            assert proposals == []
            continue
        p = proposals[0]
        assert p.radius == pytest.approx(r_cells * grid.cell_size, rel=1e-9)
        gi = round((p.cy - grid.origin_y) / grid.cell_size)
        gj = round((p.cx - grid.origin_x) / grid.cell_size)
        assert abs(gi - i) <= 1 and abs(gj - j) <= 1


def _oracle_sequence(grid, cfg):
    """Every proposal re-derived by brute force: the distances are
    recomputed from scratch after each disk is painted, and a fully free
    grid starts from the boundary distance."""
    work = grid.values.copy()
    cell = grid.cell_size
    ii, jj = np.indices(work.shape)
    out = []
    while len(out) < cfg.n_p:
        if (work == 0).any():
            d2 = brute_force_sqdist_cells(work)
            dist = np.sqrt(d2.astype(float)) * cell
        else:
            dist = boundary_distance_cells(*work.shape) * cell
        i, j = np.unravel_index(np.argmax(dist), work.shape)  # lowest (row, col)
        radius = float(dist[i, j])
        if radius < cfg.r0:
            break
        out.append((grid.origin_x + j * cell, grid.origin_y + i * cell, radius))
        work[(ii - i) ** 2 + (jj - j) ** 2 <= (radius / cell) ** 2 + 1e-9] = 0
    return out


def _assert_sequence_matches_oracle(grid, cfg):
    got = [(p.cx, p.cy, p.radius) for p in extract_slz(grid, cfg)]
    assert got == _oracle_sequence(grid, cfg)


def _edge_grids():
    """Grids whose first circle touches the grid edge, or whose free cells
    sit in a window of an occupied grid, so the updated box around each
    disk is clipped."""
    values = np.full((30, 40), 255)
    values[29, 39] = 0  # first circle centred on the opposite corner
    yield _grid(values, cell=0.25)
    values = np.full((24, 24), 255)
    values[10:14, 10:14] = 0  # one block in the middle: circles in corners
    yield _grid(values, cell=0.5, ox=-3.0, oy=2.0)
    values = np.full((5, 60), 255)
    values[:, 30] = 0  # thin strip: every box clipped top and bottom
    yield _grid(values, cell=0.1)
    values = np.zeros((40, 50))
    values[6:30, 9:41] = 255  # free window inside an occupied frame
    values[12, 20] = values[25, 33] = 0
    yield _grid(values, cell=0.2)
    values = np.zeros((20, 20))
    values[0:7, 13:20] = 255  # free window in the grid's corner
    yield _grid(values, cell=0.1)


def test_extraction_sequence_matches_brute_force_oracle():
    rng = np.random.default_rng(36)
    grids = [_random_grid(rng, max_side=24, p_occ=p)
             for p in (0.01, 0.03, 0.1) for _ in range(10)]
    grids += [_grid(np.full((17, 23), 255), cell=0.3),
              _grid(np.full((40, 40), 255), cell=0.25)]
    grids += list(_edge_grids())
    for grid in grids:
        for r0 in (grid.cell_size * 0.51, grid.cell_size * 2):
            _assert_sequence_matches_oracle(grid, SlzConfig(n_p=10, r0=r0))


@settings(max_examples=60, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 14), st.integers(1, 14)),
              elements=st.sampled_from([0, 255, 255, 255])),
       st.sampled_from([0.1, 0.25, 1.0]))
def test_extraction_sequence_matches_oracle_on_small_grids(values, cell):
    grid = _grid(values, cell=cell, ox=1.5, oy=-2.0)
    _assert_sequence_matches_oracle(grid, SlzConfig(n_p=10, r0=cell * 0.51))


# ---------------------------------------------------------------------------
# disk distance cache

def _direct_quadrant(rc2, half):
    a = np.arange(half + 1)
    return ndimage.distance_transform_edt(
        a[:, None] ** 2 + a[None, :] ** 2 > rc2 + 1e-9)


def _assert_quadrant_exact(got, rc2, half):
    """``got`` holds the squares of the direct transform's distances, and
    its square roots are those distances bit for bit."""
    want = _direct_quadrant(rc2, half)
    assert np.array_equal(got, np.rint(want * want))
    assert np.array_equal(np.sqrt(got, dtype=float), want)


@pytest.fixture
def disk_cache(monkeypatch):
    """A fresh, empty disk cache with the default budget."""
    cache = slz_mod._DiskCache(slz_mod.DISK_CACHE_BYTES)
    monkeypatch.setattr(slz_mod, "_DISK_CACHE", cache)
    return cache


def test_cached_disk_quadrant_matches_direct_transform(disk_cache):
    for k in range(2001):
        # a radius sqrt(k) cells from the transform, as extraction sees it
        for cell in (0.1, 0.25, 0.3):
            radius = math.sqrt(k) * cell
            rc2 = (radius / cell) ** 2
            half = math.ceil(2 * radius / cell) + 1
            assert abs(rc2 - k) < 1e-10
            got = slz_mod._disk_sqdist_cells(rc2, half)
            assert not got.flags.writeable  # served from the cache
            _assert_quadrant_exact(got, rc2, half)
        # a perfect square's half-width is one less unless its radius
        # rounds up; both half-widths read the same entry
        for half in (math.isqrt(4 * k) + 1, math.isqrt(4 * k) + 2):
            _assert_quadrant_exact(slz_mod._disk_sqdist_cells(float(k), half),
                                   k, half)
    assert 0 < disk_cache.nbytes <= slz_mod.DISK_CACHE_BYTES
    # radii of 10 and 20 m at 0.1 m cells; the larger needs 4-byte squares
    for k in (10_000, 40_000):
        span = math.isqrt(4 * k) + 2
        _assert_quadrant_exact(slz_mod._disk_sqdist_cells(float(k), span),
                               k, span)


def test_non_integer_squared_radius_takes_direct_path(disk_cache):
    for m in range(60):
        rc2 = (m + 0.5) ** 2  # a fully free grid's first disk
        half = math.ceil(2 * (m + 0.5)) + 1
        got = slz_mod._disk_sqdist_cells(rc2, half)
        assert got.flags.writeable
        _assert_quadrant_exact(got, rc2, half)
    assert disk_cache.nbytes == 0


def test_disk_cache_stays_within_byte_budget(monkeypatch):
    cache = slz_mod._DiskCache(16 << 10)
    monkeypatch.setattr(slz_mod, "_DISK_CACHE", cache)
    for k in range(0, 3000, 7):
        slz_mod._disk_sqdist_cells(float(k), math.isqrt(4 * k) + 2)
        held = sum(q.nbytes for q in cache._quadrants.values())
        assert cache.nbytes == held <= cache.max_bytes
    # a quadrant larger than the whole budget is served but not kept, and
    # evicts nothing
    slz_mod._disk_sqdist_cells(100.0, 22)
    before = list(cache._quadrants)
    assert 100 in before
    slz_mod._disk_sqdist_cells(40_000.0, 402)
    assert list(cache._quadrants) == before
    tiny = slz_mod._DiskCache(0)
    monkeypatch.setattr(slz_mod, "_DISK_CACHE", tiny)
    for grid in _edge_grids():
        _assert_sequence_matches_oracle(
            grid, SlzConfig(n_p=10, r0=grid.cell_size * 0.51))
    assert tiny.nbytes == 0 and not tiny._quadrants


def test_disk_cache_starts_empty():
    code = "from slzsim import slz; print(slz._DISK_CACHE.nbytes)"
    src = os.path.dirname(os.path.dirname(slz_mod.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_proposal_invariants():
    rng = np.random.default_rng(34)
    for _ in range(20):
        grid = _random_grid(rng, max_side=40, p_occ=0.03)
        cfg = SlzConfig(n_p=10, r0=grid.cell_size)
        proposals = extract_slz(grid, cfg, frame_index=3)
        radii = [p.radius for p in proposals]
        assert radii == sorted(radii, reverse=True)
        for a in range(len(proposals)):
            pa = proposals[a]
            assert pa.frame_index == 3
            # later centers lie outside every earlier disk
            for b in range(a + 1, len(proposals)):
                pb = proposals[b]
                d = np.hypot(pa.cx - pb.cx, pa.cy - pb.cy)
                assert d >= pa.radius - 1e-9
            # the disk covers only free cells of the original grid
            ii, jj = np.nonzero(grid.values == 0)
            if len(ii):
                xs = grid.origin_x + jj * grid.cell_size
                ys = grid.origin_y + ii * grid.cell_size
                d2 = (xs - pa.cx) ** 2 + (ys - pa.cy) ** 2
                assert d2.min() >= pa.radius ** 2 - 1e-9


def test_extra_occupancy_never_grows_proposals():
    rng = np.random.default_rng(35)
    for _ in range(10):
        grid = _random_grid(rng, max_side=32, p_occ=0.02)
        if not (grid.values == 0).any():
            # the fully-free boundary fallback has different (tighter)
            # semantics than the occupied-cell distance; skip that regime
            grid.values[0, 0] = 0
        more = grid.copy()
        extra = rng.random(more.values.shape) < 0.02
        more.values[extra] = 0
        cfg = SlzConfig(n_p=10, r0=grid.cell_size)
        first = extract_slz(grid, cfg)
        second = extract_slz(more, cfg)
        if second:
            assert first, "extra occupancy cannot create proposals"
            # the global free-space maximum only shrinks, so no proposal of
            # the denser grid can beat the first proposal of the original
            assert max(p.radius for p in second) <= first[0].radius + 1e-9


def test_slz_config_validation():
    with pytest.raises(ValueError):
        SlzConfig(n_p=0)
    with pytest.raises(ValueError):
        SlzConfig(r0=0.0)


@pytest.mark.parametrize("r0", [float("nan"), float("inf"), -1.0])
def test_slz_config_rejects_non_finite_r0(r0):
    with pytest.raises(ValueError, match="r0"):
        SlzConfig(r0=r0)
