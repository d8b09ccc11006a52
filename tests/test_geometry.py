"""Rigid transforms, head-plane projection, and grid resampling."""

import numpy as np
import pytest

from slzsim import (BehindCamera, CameraModel, DegenerateView, HeadPlane,
                    OccupancyGrid, PlaneGrid, RigidTransform,
                    back_project_pixel, compose, grid_footprint,
                    project_plane_point, sample_occupancy_to_plane)
from slzsim import ScenarioConfig, geometry, parallel, simulate_mission
from slzsim.cli import main
from slzsim.fileio import write_annotations, write_poses
from slzsim.geometry import apply_geofence

from conftest import nadir_w2c, random_rotation


def _rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _random_transform(rng):
    return RigidTransform(random_rotation(rng), rng.normal(size=3))


# ---------------------------------------------------------------------------
# RigidTransform / compose

def test_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))


def test_rejects_reflection():
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(7)
    t = _random_transform(rng)
    out = compose(RigidTransform.identity(), t)
    assert np.allclose(out.rotation, t.rotation)
    assert np.allclose(out.translation, t.translation)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = _random_transform(rng)
        out = compose(t, t.inverse())
        assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(out.translation).max() < 1e-9


def test_two_quarter_turns_make_half_turn():
    quarter = RigidTransform(_rot_z(np.pi / 2), np.zeros(3))
    half = compose(quarter, quarter)
    assert np.allclose(half.rotation, _rot_z(np.pi), atol=1e-12)


def test_apply_matches_manual_matrix():
    rng = np.random.default_rng(9)
    t = _random_transform(rng)
    pts = rng.normal(size=(50, 3))
    expected = (t.rotation @ pts.T).T + t.translation
    assert np.allclose(t.apply(pts), expected)
    assert np.allclose(t.apply(pts[0]), expected[0])


def test_compose_applies_b_then_a():
    rng = np.random.default_rng(10)
    a, b = _random_transform(rng), _random_transform(rng)
    p = rng.normal(size=3)
    assert np.allclose(compose(a, b).apply(p), a.apply(b.apply(p)))


# ---------------------------------------------------------------------------
# projection

def test_optical_axis_point_hits_principal_point(cam400):
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    u, v, lam = project_plane_point((0.0, 0.0, 1.7), w2c, cam400)
    assert u == pytest.approx(cam400.cx, abs=1e-9)
    assert v == pytest.approx(cam400.cy, abs=1e-9)
    assert lam == pytest.approx(8.3, abs=1e-12)


def test_offaxis_point_pixel_offset(cam400):
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    u, v, lam = project_plane_point((1.0, 0.0, 1.7), w2c, cam400)
    assert u == pytest.approx(cam400.cx + 400.0 / 8.3, abs=1e-9)
    assert v == pytest.approx(cam400.cy, abs=1e-9)


def test_projection_matches_matrix_oracle(cam400):
    # oracle: full homogeneous K [R|t] multiplication, independent of the
    # implementation's scalar arithmetic
    rng = np.random.default_rng(11)
    plane = HeadPlane()
    for _ in range(50):
        w2c = _random_transform(rng)
        p = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), plane.h_h])
        p_cam = w2c.rotation @ p + w2c.translation
        if p_cam[2] <= 1e-3:
            continue
        proj = cam400.intrinsics @ np.hstack(
            [w2c.rotation, w2c.translation[:, None]]) @ np.append(p, 1.0)
        u, v, lam = project_plane_point(p, w2c, cam400)
        assert lam == pytest.approx(proj[2], rel=1e-12)
        assert u == pytest.approx(proj[0] / proj[2], rel=1e-9)
        assert v == pytest.approx(proj[1] / proj[2], rel=1e-9)


def test_behind_camera_raises(cam400):
    # nadir camera below the head plane looks away from it
    w2c = nadir_w2c(0.0, 0.0, 1.0)
    with pytest.raises(BehindCamera):
        project_plane_point((0.0, 0.0, 1.7), w2c, cam400)


def test_lambda_is_camera_frame_depth(cam400):
    rng = np.random.default_rng(12)
    w2c = nadir_w2c(3.0, -2.0, 12.0)
    for _ in range(20):
        p = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), 1.7])
        _, _, lam = project_plane_point(p, w2c, cam400)
        assert lam == pytest.approx(w2c.apply(p)[2], abs=1e-12)
        assert lam > 0


def test_back_projection_round_trip(cam400):
    rng = np.random.default_rng(13)
    plane = HeadPlane()
    w2c = nadir_w2c(1.0, 2.0, 10.0)
    for _ in range(100):
        p = np.array([rng.uniform(-3, 5), rng.uniform(-1, 5), plane.h_h])
        u, v, _ = project_plane_point(p, w2c, cam400)
        back = back_project_pixel(u, v, w2c, cam400, plane)
        assert np.abs(back - p).max() < 1e-6


# ---------------------------------------------------------------------------
# grid footprint

def test_footprint_square_half_extent(cam400):
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    margin = 1.0
    grid = grid_footprint(cam400, w2c, HeadPlane(), cell_size=0.1,
                          margin=margin)
    # (10 - 1.7) * (cx / fx) = 8.3 m from center to each footprint edge
    assert grid.origin_x == pytest.approx(-8.3 - margin + 0.05, abs=1e-9)
    assert grid.origin_y == pytest.approx(-8.3 - margin + 0.05, abs=1e-9)
    assert grid.rows == grid.cols == 186
    assert (grid.values == 255).all()


def test_footprint_pitched_camera_degenerate(cam400):
    # camera pitched 90 degrees: optical axis horizontal, corner rays skim
    # or leave the head plane
    r = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    w2c = RigidTransform(r, -r @ np.array([0.0, 0.0, 10.0]))
    with pytest.raises(DegenerateView):
        grid_footprint(cam400, w2c, HeadPlane(), 0.1, 1.0)


def test_footprint_requires_camera_above_plane(cam400):
    with pytest.raises(DegenerateView):
        grid_footprint(cam400, nadir_w2c(0, 0, 1.0), HeadPlane(), 0.1, 1.0)


# ---------------------------------------------------------------------------
# occupancy resampling

def test_sample_all_free_inside_footprint(cam400):
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    plane = HeadPlane()
    occ = OccupancyGrid(np.full((800, 800), 255, np.uint8))
    grid = PlaneGrid(-4.0, -4.0, 0.5, 17, 17)
    out = sample_occupancy_to_plane(occ, grid, w2c, cam400, plane)
    assert (out.values == 255).all()


def test_sample_all_occupied(cam400):
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    occ = OccupancyGrid(np.zeros((800, 800), np.uint8))
    grid = PlaneGrid(-4.0, -4.0, 0.5, 17, 17)
    out = sample_occupancy_to_plane(occ, grid, w2c, cam400, HeadPlane())
    assert (out.values == 0).all()


def test_sample_left_half_per_cell_oracle(cam400):
    w2c = nadir_w2c(0.3, -0.2, 9.0)
    plane = HeadPlane()
    values = np.full((800, 800), 255, np.uint8)
    values[:, :400] = 0
    occ = OccupancyGrid(values)
    grid = PlaneGrid(-3.05, -3.05, 0.37, 18, 18)
    out = sample_occupancy_to_plane(occ, grid, w2c, cam400, plane)
    for i in range(grid.rows):
        for j in range(grid.cols):
            x = grid.origin_x + j * grid.cell_size
            y = grid.origin_y + i * grid.cell_size
            u, v, _ = project_plane_point((x, y, plane.h_h), w2c, cam400)
            col, row = int(np.floor(u)), int(np.floor(v))
            if 0 <= col < 800 and 0 <= row < 800:
                expected = 0 if col < 400 else 255
            else:
                expected = 0
            assert out.values[i, j] == expected, (i, j)


def _sample_per_cell(occ, grid, w2c, cam, plane):
    """(values, visible) of plane sampling, one project_plane_point a cell."""
    values = np.zeros((grid.rows, grid.cols), np.uint8)
    visible = np.zeros(values.shape, bool)
    for i in range(grid.rows):
        for j in range(grid.cols):
            x = grid.origin_x + j * grid.cell_size
            y = grid.origin_y + i * grid.cell_size
            try:
                u, v, _ = project_plane_point((x, y, plane.h_h), w2c, cam)
            except BehindCamera:
                continue
            col, row = int(np.floor(u)), int(np.floor(v))
            if 0 <= col < occ.width and 0 <= row < occ.height:
                visible[i, j] = True
                values[i, j] = occ.values[row, col]
    return values, visible


def test_sample_matches_per_cell_projection():
    # small tilted and yawed cameras over a wide grid: cells behind the
    # camera, outside the image and on every image edge
    rng = np.random.default_rng(15)
    plane = HeadPlane()
    for case in range(12):
        cam = CameraModel(fx=30.0, fy=25.0, cx=20.0, cy=15.0, width=40,
                          height=30)
        w2c = _random_transform(rng) if case % 2 else compose(
            RigidTransform(_rot_z(rng.uniform(-np.pi, np.pi)), np.zeros(3)),
            nadir_w2c(*rng.uniform(-2, 2, 2), rng.uniform(3, 9)))
        occ = OccupancyGrid(np.where(rng.random((30, 40)) < 0.5, 0, 255)
                            .astype(np.uint8))
        grid = PlaneGrid(*rng.uniform(-12, -8, 2), 0.7, 31, 29)
        out, visible = sample_occupancy_to_plane(occ, grid, w2c, cam, plane,
                                                 return_visible=True)
        values, mask = _sample_per_cell(occ, grid, w2c, cam, plane)
        assert np.array_equal(visible, mask), case
        assert np.array_equal(out.values, values), case
        assert np.array_equal(out.values, sample_occupancy_to_plane(
            occ, grid, w2c, cam, plane).values)


# the four proper rotations whose off-diagonal entries are all 0
AXIS_ALIGNED = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0),
                (-1.0, -1.0, 1.0)]


def _refuse_path(*args):
    raise AssertionError("the view took the wrong sampling path")


@pytest.mark.parametrize("diag", AXIS_ALIGNED)
def test_axis_aligned_sampling_matches_gemm_and_per_cell(cam400, diag,
                                                         monkeypatch):
    general = geometry._sample_general
    monkeypatch.setattr(geometry, "_sample_general", _refuse_path)
    r = np.diag(diag)
    rng = np.random.default_rng(int(diag[0] > 0) + 2 * int(diag[1] > 0))
    small = CameraModel(fx=30.0, fy=25.0, cx=20.0, cy=15.0, width=40,
                        height=30)
    # the first case puts cell centers exactly on all four image edges: at
    # depth 8 the outermost cells, x = +-8 and y = +-8, map to 0 and 800
    cases = [(cam400, HeadPlane(2.0),
              np.array([0.0, 0.0, 2.0 - 8.0 * r[2, 2]]),
              PlaneGrid(-8.0, -8.0, 0.5, 33, 33))]
    for case in range(60):
        plane = HeadPlane(rng.uniform(1.0, 2.0))
        # depth in front of the camera, zero, or behind it
        depth = (rng.uniform(0.3, 3.0), 0.0, -rng.uniform(0.1, 2.0))[case % 3]
        center = np.array([*rng.uniform(-3.0, 3.0, 2),
                           plane.h_h - r[2, 2] * depth])
        rows, cols = [(1, 1), (1, 17), (13, 1), (11, 19)][case % 4]
        cell = rng.uniform(0.05, 0.25)
        # every fifth grid lies wholly off the image
        origin = (center[:2] + (40.0 if case % 5 == 4 else 0.0)
                  - rng.uniform(0.0, 1.0, 2) * np.array([cols, rows]) * cell)
        cases.append((small, plane, center,
                      PlaneGrid(*origin, cell, rows, cols)))
    seen, counts = set(), []
    for cam, plane, center, grid in cases:
        w2c = RigidTransform(r, -r @ center)
        occ = OccupancyGrid(np.where(rng.random((cam.height, cam.width))
                                     < 0.5, 0, 255).astype(np.uint8))
        out, visible = sample_occupancy_to_plane(occ, grid, w2c, cam, plane,
                                                 return_visible=True)
        xs = grid.origin_x + np.arange(grid.cols) * grid.cell_size
        ys = grid.origin_y + np.arange(grid.rows) * grid.cell_size
        gemm = general(occ, xs, ys, w2c, cam, plane.h_h)
        per_cell = _sample_per_cell(occ, grid, w2c, cam, plane)
        for values, mask in (gemm, per_cell):
            assert np.array_equal(out.values, values)
            assert np.array_equal(visible, mask)
        seen.add(min(visible.sum(), 1) + visible.all())
        counts.append(visible.sum())
    assert seen == {0, 1, 2}  # grids unseen, partly seen and wholly seen
    # u = 0 and v = 0 are seen, u = width and v = height are not
    assert counts[0] == 32 * 32


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(geometry, name)
    monkeypatch.setattr(geometry, name,
                        lambda *args: calls.append(1) or fn(*args))
    return calls


def test_rounding_noise_off_the_diagonal_takes_general_path(cam400,
                                                           monkeypatch):
    r = np.diag([1.0, -1.0, -1.0])
    r[0, 1] = 1e-12
    w2c = RigidTransform(r, -r @ np.array([0.3, -0.2, 9.0]))
    occ = OccupancyGrid(np.full((800, 800), 255, np.uint8))
    grid = PlaneGrid(-3.05, -3.05, 0.37, 18, 18)
    monkeypatch.setattr(geometry, "_sample_axis_aligned", _refuse_path)
    calls = _count_calls(monkeypatch, "_sample_general")
    _, visible = sample_occupancy_to_plane(occ, grid, w2c, cam400,
                                           HeadPlane(), return_visible=True)
    assert calls == [1]
    assert np.array_equal(visible, _sample_per_cell(occ, grid, w2c, cam400,
                                                    HeadPlane())[1])


def test_every_mission_and_identity_pose_replay_frame_is_axis_aligned(
        tmp_path, monkeypatch):
    # rounding noise in world_to_camera or load_poses would silently send
    # every frame down the general path; fail instead
    monkeypatch.setattr(geometry, "_sample_general", _refuse_path)
    calls = _count_calls(monkeypatch, "_sample_axis_aligned")
    log = simulate_mission(ScenarioConfig(seed=3, n_actors=30,
                                          max_mission_time=5.0))
    perceived = sum(f.exec_time is not None for f in log.frames)
    assert perceived > 0 and len(calls) == perceived

    calls.clear()
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
    ann, poses = tmp_path / "heads.csv", tmp_path / "poses.csv"
    write_annotations(ann, [(k, [(14.0, 15.0), (16.5, 15.5)])
                            for k in range(6)])
    write_poses(poses, [(k, (-15.0 + 0.1 * k, -15.0, -8.0),
                         (0.0, 0.0, 0.0, 1.0)) for k in range(6)])
    assert main(["replay", str(ann), str(poses),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 6


def test_sample_out_of_view_cells_occupied(cam400):
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    occ = OccupancyGrid(np.full((800, 800), 255, np.uint8))
    # grid much wider than the 8.3 m half-extent footprint
    grid = PlaneGrid(-20.0, -20.0, 1.0, 41, 41)
    out = sample_occupancy_to_plane(occ, grid, w2c, cam400, HeadPlane())
    assert out.values[0, 0] == 0 and out.values[-1, -1] == 0
    assert out.values[20, 20] == 255


def test_sample_monotone_safety(cam400):
    rng = np.random.default_rng(14)
    w2c = nadir_w2c(0.0, 0.0, 10.0)
    plane = HeadPlane()
    grid = PlaneGrid(-6.0, -6.0, 0.25, 49, 49)
    for _ in range(10):
        base = rng.random((800, 800)) < 0.1
        extra = base | (rng.random((800, 800)) < 0.1)
        o1 = OccupancyGrid(np.where(base, 0, 255).astype(np.uint8))
        o2 = OccupancyGrid(np.where(extra, 0, 255).astype(np.uint8))
        s1 = sample_occupancy_to_plane(o1, grid, w2c, cam400, plane)
        s2 = sample_occupancy_to_plane(o2, grid, w2c, cam400, plane)
        # every cell occupied under o1 stays occupied under the superset o2
        assert not ((s1.values == 0) & (s2.values == 255)).any()


def test_geofence_matches_per_cell_test():
    rng = np.random.default_rng(61)
    for _ in range(100):
        cell = float(rng.choice([0.1, 0.25, 0.5]))
        rows, cols = (int(n) for n in rng.integers(1, 90, size=2))
        # origins on the cell lattice put some centres exactly on 0 and on
        # roi_side, where the ROI is closed
        ox, oy = (float(v) * cell for v in rng.integers(-40, 40, size=2))
        roi_side = float(rng.integers(1, 60)) * cell
        values = np.where(rng.random((rows, cols)) < 0.3, 0, 255)
        grid = PlaneGrid(ox, oy, cell, rows, cols, values.astype(np.uint8))
        expected = grid.values.copy()
        for i in range(rows):
            for j in range(cols):
                x, y = ox + j * cell, oy + i * cell
                if not (0 <= x <= roi_side and 0 <= y <= roi_side):
                    expected[i, j] = 0
        apply_geofence(grid, roi_side)
        assert np.array_equal(grid.values, expected)


def test_plane_grid_validation():
    with pytest.raises(ValueError):
        PlaneGrid(0, 0, 0.1, 4, 4, np.full((4, 4), 7, np.uint8))
    with pytest.raises(ValueError):
        PlaneGrid(0, 0, -0.1, 4, 4)


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
    with pytest.raises(ValueError):
        CameraModel(fx=1, fy=1, cx=20, cy=0, width=10, height=10)


@pytest.mark.parametrize("field", ["fx", "fy"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_camera_model_rejects_bad_focal_length(field, value):
    kw = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    with pytest.raises(ValueError, match=field):
        CameraModel(**{**kw, field: value})


@pytest.mark.parametrize("h_h", [float("nan"), float("inf"), -1.0])
def test_head_plane_rejects_bad_height(h_h):
    with pytest.raises(ValueError, match="h_h"):
        HeadPlane(h_h)
