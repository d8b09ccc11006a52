"""Rigid transforms, head-plane projection, and grid resampling."""

import numpy as np
import pytest

from slzsim import (BehindCamera, CameraModel, DegenerateView, HeadPlane,
                    OccupancyGrid, PlaneGrid, RigidTransform,
                    back_project_pixel, compose, grid_footprint,
                    project_plane_point, sample_occupancy_to_plane)

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
        for i in range(grid.rows):
            for j in range(grid.cols):
                x = grid.origin_x + j * grid.cell_size
                y = grid.origin_y + i * grid.cell_size
                try:
                    u, v, _ = project_plane_point((x, y, plane.h_h), w2c, cam)
                    col, row = int(np.floor(u)), int(np.floor(v))
                    seen = 0 <= col < 40 and 0 <= row < 30
                except BehindCamera:
                    seen = False
                assert visible[i, j] == seen, (case, i, j)
                assert out.values[i, j] == (occ.values[row, col] if seen
                                            else 0), (case, i, j)
        assert np.array_equal(out.values, sample_occupancy_to_plane(
            occ, grid, w2c, cam, plane).values)


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
