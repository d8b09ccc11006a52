"""Safety metrics over mission logs and offline annotation replays.

warning counts people strictly inside the target landing disk; danger counts
people within the 1 m safety radius of its center. Ground-truth landing
zones are rebuilt from true head positions by rasterizing a 0.16 m^2
personal-space square per person and extracting the 10 biggest circles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import world
# occupancy_from_density, render_oracle_density, grid_footprint and
# sample_occupancy_to_plane are called only by world.perceive; they stay
# imported here because the benchmark's tracer (perfbench/tracing.py) wraps
# them in this namespace too.
from .density import (OracleNoiseConfig, occupancy_from_density,
                      render_oracle_density)
from .errors import EmptyGroundTruth
from .geometry import (CameraModel, HeadPlane, PlaneGrid, apply_geofence,
                       grid_footprint, sample_occupancy_to_plane)
from .slz import SlzConfig, extract_slz
from .tracking import TrackManager, TrackerConfig, circle_iou

DANGER_RADIUS = 1.0            # safety minimum radius around the target center
PERSONAL_SPACE_SIDE = 0.4      # 0.4 m x 0.4 m = 0.16 m^2 per person
GROUND_TRUTH_COUNT = 10


def risk_counts(target, heads) -> tuple[int, int]:
    """(warning, danger) person counts for one target circle.

    warning: heads strictly inside the target disk; danger: heads within
    1 m of the target center.
    """
    cx, cy, r = float(target[0]), float(target[1]), float(target[2])
    if r <= 0:
        raise ValueError("target radius must be positive")
    heads = np.asarray(heads, dtype=float).reshape(-1, 2)
    d2 = (heads[:, 0] - cx) ** 2 + (heads[:, 1] - cy) ** 2
    warning = int((d2 < r * r).sum())
    danger = int((d2 <= DANGER_RADIUS ** 2).sum())
    return warning, danger


def ground_truth_slz(heads, grid_template: PlaneGrid,
                     cfg: SlzConfig | None = None) -> list[tuple[float, float, float]]:
    """Ground-truth landing circles from true head positions.

    Rasterizes one personal-space square per head onto a copy of the grid
    template, then extracts up to 10 circles by distance transform. Returns
    (cx, cy, radius) tuples ordered by non-increasing radius.
    """
    cfg = cfg or SlzConfig(n_p=GROUND_TRUTH_COUNT, r0=1.0)
    grid = grid_template.copy()
    half = PERSONAL_SPACE_SIDE / 2
    cell = grid.cell_size
    hx, hy = np.asarray(heads, dtype=float).reshape(-1, 2).T
    i0 = np.maximum(np.ceil((hy - half - grid.origin_y) / cell - 1e-9), 0)
    i1 = np.minimum(np.floor((hy + half - grid.origin_y) / cell + 1e-9),
                    grid.rows - 1)
    j0 = np.maximum(np.ceil((hx - half - grid.origin_x) / cell - 1e-9), 0)
    j1 = np.minimum(np.floor((hx + half - grid.origin_x) / cell + 1e-9),
                    grid.cols - 1)
    boxes = np.stack([i0, i1 + 1, j0, j1 + 1], axis=1)
    for a, b, c, d in boxes[(i0 <= i1) & (j0 <= j1)].astype(int).tolist():
        grid.values[a:b, c:d] = 0
    return [(p.cx, p.cy, p.radius) for p in extract_slz(grid, cfg)]


def best_iou(target, gt) -> float:
    """Best circle IoU of the target against any ground-truth zone."""
    if not gt:
        raise EmptyGroundTruth("no ground-truth landing zones")
    return max(circle_iou(target, g) for g in gt)


@dataclass
class TargetMetrics:
    """Per-frame metrics of the selected target; all None without one."""
    target: list | None = None       # [cx, cy, r]
    warning: int | None = None
    danger: int | None = None
    slz_area: float | None = None
    best_iou: float | None = None


def evaluate_target(target, heads, grid: PlaneGrid, visible: np.ndarray,
                    r0: float, roi_side: float | None = None) -> TargetMetrics:
    """Score the target track against the true heads (n, 2).

    Ground truth is extracted from the heads over the cells of ``grid``
    (only its geometry is used) that the camera sees, the bool mask
    ``visible`` that ``world.perceive`` returns, geofenced to the ROI when
    ``roi_side`` is given.
    """
    if target is None:
        return TargetMetrics()
    circle = [float(target.mean[0]), float(target.mean[1]),
              max(float(target.mean[2]), 1e-6)]
    warning, danger = risk_counts(circle, heads)
    view = PlaneGrid(grid.origin_x, grid.origin_y, grid.cell_size, grid.rows,
                     grid.cols, np.where(visible, 255, 0).astype(np.uint8))
    if roi_side is not None:
        apply_geofence(view, roi_side)
    gt = ground_truth_slz(heads, view,
                          SlzConfig(n_p=GROUND_TRUTH_COUNT, r0=r0))
    return TargetMetrics(circle, warning, danger,
                         float(np.pi * circle[2] ** 2),
                         best_iou(circle, gt) if gt else None)


@dataclass
class MetricsReport:
    warning_avg: float = 0.0
    warning_std: float = 0.0
    danger_avg: float = 0.0
    danger_std: float = 0.0
    slz_area_avg: float = 0.0
    best_iou_avg: float = 0.0
    nearest_person_avg: float = 0.0
    success_rate: float | None = None
    exec_time_avg: float = 0.0
    exec_time_max: float = 0.0
    exec_time_min: float = 0.0
    n_missions: int = 0
    n_frames: int = 0


def _pool(rep: MetricsReport, runs) -> MetricsReport:
    """Pool the frame metrics of several runs (lists of frames) into rep.

    Averages are means of per-run frame means; standard deviations and
    exec times are over all frames pooled. Frames without a value (None)
    are skipped.
    """
    def values(frames, attr):
        return [v for f in frames if (v := getattr(f, attr)) is not None]

    for attr in ("warning", "danger", "slz_area", "best_iou"):
        means = [float(np.mean(v)) for v in (values(fs, attr) for fs in runs)
                 if v]
        if means:
            setattr(rep, f"{attr}_avg", float(np.mean(means)))
    for attr in ("warning", "danger"):
        pooled = [v for fs in runs for v in values(fs, attr)]
        if pooled:
            setattr(rep, f"{attr}_std", float(np.std(pooled)))
    times = [v for fs in runs for v in values(fs, "exec_time")]
    if times:
        rep.exec_time_avg = float(np.mean(times))
        rep.exec_time_max = float(max(times))
        rep.exec_time_min = float(min(times))
    rep.n_frames = sum(len(fs) for fs in runs)
    return rep


def aggregate(logs) -> MetricsReport:
    """Pool per-frame metrics: per-mission means averaged across missions.

    Standard deviations are over all frames pooled. nearest_person is
    averaged over descent frames only (altitude below the start altitude).
    """
    if not logs:
        raise ValueError("aggregate requires at least one mission log")
    rep = _pool(MetricsReport(n_missions=len(logs)),
                [log.frames for log in logs])
    descents = ([f.nearest_person for f in log.frames
                 if f.nearest_person is not None
                 and f.drone[2] < log.start_altitude] for log in logs)
    nearest = [float(np.mean(d)) for d in descents if d]
    if nearest:
        rep.nearest_person_avg = float(np.mean(nearest))
    rep.success_rate = sum(log.outcome == "LandedSafe"
                           for log in logs) / len(logs)
    return rep


@dataclass(kw_only=True)
class ReplayFrame(TargetMetrics):
    frame_id: int
    n_heads: int
    n_proposals: int
    exec_time: float


def replay_annotations(frames, poses, cam: CameraModel, plane: HeadPlane,
                       slz_cfg: SlzConfig | None = None,
                       tracker_cfg: TrackerConfig | None = None,
                       noise_cfg: OracleNoiseConfig | None = None,
                       criterion: str = "biggest",
                       cell_size: float = 0.10,
                       margin: float = 1.0) -> tuple[list[ReplayFrame], MetricsReport]:
    """Run the perception pipeline over annotated head positions.

    frames: iterable of (frame_id, heads array (n, 2) in world meters).
    poses: mapping frame_id -> world-to-camera RigidTransform.
    No drone motion is simulated; per-frame metrics use the selected
    criterion's target track.
    """
    slz_cfg = slz_cfg or SlzConfig()
    tracker_cfg = tracker_cfg or TrackerConfig()
    noise_cfg = noise_cfg or OracleNoiseConfig()
    manager = TrackManager(tracker_cfg)
    rows: list[ReplayFrame] = []

    for frame_id, heads in frames:
        if frame_id not in poses:
            raise KeyError(f"no camera pose for frame {frame_id}")
        w2c = poses[frame_id]
        heads = np.asarray(heads, dtype=float).reshape(-1, 2)
        grid, visible, proposals, exec_time = world.perceive(
            heads, w2c, frame_id, manager, cam, plane, noise_cfg, slz_cfg,
            cell_size, margin)
        target = world.select_target(manager.tracks, criterion)
        scored = evaluate_target(target, heads, grid, visible, slz_cfg.r0)
        rows.append(ReplayFrame(frame_id=frame_id, n_heads=len(heads),
                                n_proposals=len(proposals),
                                exec_time=exec_time, **vars(scored)))
    return rows, _pool(MetricsReport(n_missions=0), [rows])
