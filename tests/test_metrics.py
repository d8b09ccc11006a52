"""Risk counts, ground-truth zones, aggregation, and annotation replay."""

import concurrent.futures

import numpy as np
import pytest

from slzsim import parallel
from slzsim import (DroneState, EmptyGroundTruth, HeadPlane, MissionLog,
                    OccupancyGrid, OracleNoiseConfig, PlaneGrid,
                    ScenarioConfig, SlzConfig, TrackState, aggregate,
                    best_iou, ground_truth_slz,
                    replay_annotations, risk_counts,
                    sample_occupancy_to_plane, simulate_mission)
from slzsim.geometry import apply_geofence
from slzsim.metrics import TargetMetrics, evaluate_target
from slzsim.world import FrameRecord, default_camera, perceive

from oracles import largest_empty_circle_cells


def _free_grid(side_m=20.0, cell=0.2):
    n = int(round(side_m / cell))
    return PlaneGrid(cell / 2, cell / 2, cell, n, n)


# ---------------------------------------------------------------------------
# risk counts

def test_risk_counts_no_heads():
    assert risk_counts((0.0, 0.0, 2.0), []) == (0, 0)


def test_risk_counts_head_at_center():
    assert risk_counts((0.0, 0.0, 3.0), [(0.0, 0.0)]) == (1, 1)


def test_risk_counts_warning_without_danger():
    assert risk_counts((0.0, 0.0, 3.0), [(2.0, 0.0)]) == (1, 0)


def test_risk_counts_boundary_strictness():
    # on the disk rim: not strictly inside, no warning; exactly 1 m out:
    # still danger (closed disk)
    assert risk_counts((0.0, 0.0, 2.0), [(2.0, 0.0)]) == (0, 0)
    assert risk_counts((0.0, 0.0, 2.0), [(1.0, 0.0)]) == (1, 1)


def test_risk_counts_danger_le_warning_for_big_targets():
    rng = np.random.default_rng(61)
    for _ in range(100):
        target = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(1.0, 4))
        heads = rng.uniform(-6, 6, size=(20, 2))
        w, d = risk_counts(target, heads)
        assert d <= w


def test_risk_counts_rejects_bad_radius():
    with pytest.raises(ValueError):
        risk_counts((0.0, 0.0, 0.0), [])


# ---------------------------------------------------------------------------
# ground truth zones

def test_ground_truth_no_heads_spans_grid():
    grid = _free_grid()
    zones = ground_truth_slz([], grid, SlzConfig(n_p=1, r0=1.0))
    assert len(zones) == 1
    # boundary-limited: the single dominant zone spans the whole grid
    _, _, r_cells = largest_empty_circle_cells(grid.values)
    assert zones[0][2] == pytest.approx(r_cells * grid.cell_size)
    assert zones[0][0] == pytest.approx(10.0, abs=grid.cell_size)
    assert zones[0][1] == pytest.approx(10.0, abs=grid.cell_size)


def test_ground_truth_single_head_matches_oracle():
    grid = _free_grid(20.0, 0.2)
    heads = [(10.0, 10.0)]
    zones = ground_truth_slz(heads, grid, SlzConfig(n_p=1, r0=1.0))
    # oracle: rasterize the personal-space square independently, then search
    ref = grid.copy()
    ii, jj = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols),
                         indexing="ij")
    xs = grid.origin_x + jj * grid.cell_size
    ys = grid.origin_y + ii * grid.cell_size
    inside = (np.abs(xs - 10.0) <= 0.2 + 1e-9) & (np.abs(ys - 10.0) <= 0.2 + 1e-9)
    ref.values[inside] = 0
    i, j, r_cells = largest_empty_circle_cells(ref.values)
    assert zones[0][2] == pytest.approx(r_cells * grid.cell_size)
    assert zones[0][0] == pytest.approx(grid.origin_x + j * grid.cell_size)
    assert zones[0][1] == pytest.approx(grid.origin_y + i * grid.cell_size)


def test_ground_truth_wall_of_heads_gives_two_pockets():
    grid = _free_grid(20.0, 0.2)
    wall = [(10.0, y) for y in np.arange(0.0, 20.01, 0.3)]
    zones = ground_truth_slz(wall, grid, SlzConfig(n_p=2, r0=1.0))
    assert len(zones) == 2
    sides = sorted(z[0] for z in zones)
    assert sides[0] < 10.0 < sides[1]


def test_ground_truth_radii_non_increasing():
    rng = np.random.default_rng(62)
    grid = _free_grid(15.0, 0.25)
    heads = rng.uniform(0, 15, size=(25, 2))
    zones = ground_truth_slz(heads, grid)
    radii = [z[2] for z in zones]
    assert radii == sorted(radii, reverse=True)
    assert len(zones) <= 10


# ---------------------------------------------------------------------------
# best IoU

def test_best_iou_identity_and_disjoint():
    gt = [(0.0, 0.0, 2.0), (10.0, 10.0, 1.5)]
    assert best_iou((0.0, 0.0, 2.0), gt) == pytest.approx(1.0)
    assert best_iou((-10.0, -10.0, 1.0), gt) == 0.0


def test_best_iou_concentric_shrink():
    gt = [(3.0, 3.0, 2.0)]
    assert best_iou((3.0, 3.0, 1.0), gt) == pytest.approx(0.25)


def test_best_iou_empty_ground_truth_raises():
    with pytest.raises(EmptyGroundTruth):
        best_iou((0.0, 0.0, 1.0), [])


# ---------------------------------------------------------------------------
# aggregation

def _stub_log(outcome, warnings=(0,), alt=5.0):
    log = MissionLog(seed=0, criterion="biggest", policy="slz",
                     outcome=outcome, start_altitude=10.0)
    for k, w in enumerate(warnings):
        log.frames.append(FrameRecord(
            index=k, t=0.1 * k, drone=[0.0, 0.0, alt], command="land",
            proposals=[], tracks=[], target_id=0, target=[0, 0, 2.0],
            warning=w, danger=0, slz_area=12.0, best_iou=0.5,
            nearest_person=1.5, exec_time=0.01, actors=[]))
    return log


def test_aggregate_success_rates():
    assert aggregate([_stub_log("LandedSafe")] * 4).success_rate == 1.0
    logs = [_stub_log("LandedSafe"), _stub_log("Collision")]
    assert aggregate(logs).success_rate == 0.5


def test_aggregate_single_log_equals_frame_means():
    log = _stub_log("LandedSafe", warnings=(0, 1, 2))
    rep = aggregate([log])
    assert rep.warning_avg == pytest.approx(1.0)
    assert rep.danger_avg == 0.0
    assert rep.slz_area_avg == pytest.approx(12.0)
    assert rep.best_iou_avg == pytest.approx(0.5)
    assert rep.nearest_person_avg == pytest.approx(1.5)
    assert rep.n_missions == 1 and rep.n_frames == 3


def test_aggregate_zero_actor_mission_zero_risk():
    log = simulate_mission(ScenarioConfig(seed=1, n_actors=0,
                                          max_mission_time=40.0))
    rep = aggregate([log])
    assert rep.warning_avg == 0.0 and rep.danger_avg == 0.0
    assert rep.success_rate == 1.0


def test_aggregate_requires_logs():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------------------
# replay

def _hover_pose(x, y, z):
    return DroneState(np.array([x, y, z])).world_to_camera()


def test_replay_zero_heads_high_iou():
    cam = default_camera()
    frames = [(k, np.zeros((0, 2))) for k in range(10)]
    poses = {k: _hover_pose(15.0, 15.0, 8.0) for k in range(10)}
    rows, rep = replay_annotations(frames, poses, cam, HeadPlane())
    assert len(rows) == 10
    assert all(r.warning in (None, 0) for r in rows)
    targeted = [r for r in rows if r.best_iou is not None]
    assert targeted and all(r.best_iou > 0.9 for r in targeted)


def test_replay_single_static_head_danger_zero_when_far():
    cam = default_camera()
    head = np.array([[13.0, 15.0]])
    frames = [(k, head) for k in range(12)]
    poses = {k: _hover_pose(15.0, 15.0, 8.0) for k in range(12)}
    rows, _ = replay_annotations(frames, poses, cam, HeadPlane())
    for r in rows:
        if r.target is None:
            continue
        dist = np.hypot(r.target[0] - 13.0, r.target[1] - 15.0)
        if dist > 1.0:
            assert r.danger == 0


def test_replay_missing_pose_raises():
    frames = [(0, np.zeros((0, 2)))]
    with pytest.raises(KeyError):
        replay_annotations(frames, {}, default_camera(), HeadPlane())


def test_replay_missing_pose_raises_before_any_worker_starts(monkeypatch):
    def no_pool(n_tasks):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    monkeypatch.setattr(parallel, "ordered_map", no_pool)
    frames = [(k, np.array([[14.0, 15.0]])) for k in range(3)]
    poses = {k: _hover_pose(15.0, 15.0, 8.0) for k in (0, 2)}
    with pytest.raises(KeyError, match="frame 1"):
        replay_annotations(frames, poses, default_camera(), HeadPlane())


def test_replay_zero_frames_start_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rows, rep = replay_annotations(iter(()), {}, default_camera(),
                                   HeadPlane())
    assert rows == [] and rep.n_frames == 0


def test_replay_accepts_a_generator_of_frames(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    frames = [(k, np.array([[13.0, 15.0], [16.0, 14.5]])) for k in range(5)]
    poses = {k: _hover_pose(15.0, 15.0, 8.0) for k in range(5)}
    listed, _ = replay_annotations(frames, poses, default_camera(),
                                   HeadPlane())
    generated, _ = replay_annotations((f for f in frames), poses,
                                      default_camera(), HeadPlane())
    for row in (*listed, *generated):
        row.exec_time = None
    assert generated == listed
    assert any(row.best_iou is not None for row in listed)


def test_replay_matches_simulated_mission_proposals():
    # self-consistency: replaying a mission's own actor positions and drone
    # poses reproduces the per-frame proposal counts, as long as the
    # footprint stays inside the ROI (geofence inactive) and perception ran
    cam = default_camera()
    cfg = ScenarioConfig(seed=13, n_actors=20, start_altitude=6.0,
                         ceiling=7.0, max_mission_time=30.0)
    log = simulate_mission(cfg)
    # the log records the post-step drone pose; perception at frame k ran
    # from the pose recorded at frame k - 1
    margin = 1.0
    inside = []
    for prev, f in zip(log.frames, log.frames[1:]):
        if f.exec_time is None:
            continue
        x, y, z = prev.drone
        half = (z - 1.7) * cam.cx / cam.fx + margin
        if half <= min(x, y, cfg.roi_side - x, cfg.roi_side - y):
            inside.append((f, prev.drone))
    assert len(inside) >= 10
    frames = [(f.index, np.array(f.actors)) for f, _ in inside]
    poses = {f.index: _hover_pose(*pose) for f, pose in inside}
    inside = [f for f, _ in inside]
    rows, _ = replay_annotations(frames, poses, cam, HeadPlane(),
                                 noise_cfg=OracleNoiseConfig(seed=cfg.seed))
    by_index = {f.index: f for f in inside}
    for r in rows:
        assert r.n_proposals == len(by_index[r.frame_id].proposals)


def _evaluate_by_reprojection(target, heads, grid, w2c, cam, plane, r0,
                              roi_side):
    """Target metrics with the view rebuilt by sampling an all-free image
    onto the grid, as a second projection of the grid cells."""
    circle = [float(target.mean[0]), float(target.mean[1]),
              max(float(target.mean[2]), 1e-6)]
    warning, danger = risk_counts(circle, heads)
    all_free = OccupancyGrid(np.full((cam.height, cam.width), 255, np.uint8))
    view = sample_occupancy_to_plane(all_free, grid, w2c, cam, plane)
    if roi_side is not None:
        apply_geofence(view, roi_side)
    gt = ground_truth_slz(heads, view, SlzConfig(n_p=10, r0=r0))
    return TargetMetrics(circle, warning, danger,
                         float(np.pi * circle[2] ** 2),
                         best_iou(circle, gt) if gt else None)


def test_evaluate_target_shared_mask_matches_reprojection():
    cam, plane, slz_cfg = default_camera(), HeadPlane(), SlzConfig()
    rng = np.random.default_rng(61)
    scored = 0
    for case in range(12):
        heads = rng.uniform(0, 30, size=(int(rng.integers(0, 60)), 2))
        drone = DroneState(np.array([*rng.uniform(3, 27, 2),
                                     rng.uniform(4, 12)]),
                           yaw=float(rng.uniform(-np.pi, np.pi)))
        w2c = drone.world_to_camera()
        roi_side = 30.0 if case % 2 else None
        grid, visible, proposals, _ = perceive(
            heads, w2c, case, cam, plane, OracleNoiseConfig(seed=case),
            slz_cfg, 0.1, 1.0, roi_side)
        assert visible.shape == grid.values.shape
        circles = [(p.cx, p.cy, p.radius) for p in proposals]
        circles.append((*rng.uniform(5, 25, 2), 0.0))  # radius floored
        for i, (cx, cy, r) in enumerate(circles):
            t = TrackState(i, np.array([cx, cy, r, 0.0, 0.0, 0.0]), np.eye(6))
            got = evaluate_target(t, heads, grid, visible, slz_cfg.r0,
                                  roi_side)
            assert got == _evaluate_by_reprojection(
                t, heads, grid, w2c, cam, plane, slz_cfg.r0, roi_side)
            scored += 1
    assert scored >= 30
