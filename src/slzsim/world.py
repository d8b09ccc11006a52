"""Deterministic 2-D crowd world, drone kinematics, and the landing policy.

One mission = one seeded state machine: actors random-walk on a lattice at
10 Hz, the drone carries a nadir camera, and each tick runs the perception
pipeline (oracle density -> occupancy -> head-plane grid -> SLZ extraction
-> tracking), selects a target zone, and steps a first-order point-mass
drone toward it. Collisions are checked whenever the drone is inside the
crowd layer (altitude at or below the head plane) and at touchdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics as metrics_mod
from .density import (DensityMap, OracleNoiseConfig, occupancy_from_density,
                      render_oracle_density)
from .errors import PlacementFailure
from .geometry import (CameraModel, HeadPlane, PlaneGrid, RigidTransform,
                       apply_geofence, compose, grid_footprint,
                       sample_occupancy_to_plane)
from .slz import SlzConfig, extract_slz
from .tracking import TrackManager, TrackerConfig

LAND_ALTITUDE = 2.0        # waypoint height above ground / landing threshold
LAND_HORIZ_TOL = 0.5       # max horizontal offset to the target center at Land


@dataclass
class Actor:
    x: float
    y: float
    moving: bool = False
    body_radius: float = 0.3

    def __post_init__(self):
        if self.body_radius <= 0:
            raise ValueError("body_radius must be positive")


def nadir_camera_mount() -> RigidTransform:
    """Body-to-camera transform for a straight-down camera (image x east,
    image y south, optical axis pointing to the ground)."""
    return RigidTransform(np.diag([1.0, -1.0, -1.0]), np.zeros(3))


@dataclass
class DroneState:
    position: np.ndarray
    yaw: float = 0.0
    speed_xy: float = 2.0
    speed_z: float = 1.0
    camera_mount: RigidTransform = field(default_factory=nadir_camera_mount)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if self.position[2] < 0:
            raise ValueError("drone altitude must be non-negative")

    def world_to_camera(self) -> RigidTransform:
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        r_wb = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        # a yaw rotation is orthonormal by construction: no checks needed
        world_to_body = RigidTransform._unchecked(r_wb.T,
                                                  -r_wb.T @ self.position)
        return compose(self.camera_mount, world_to_body)


@dataclass(frozen=True)
class ScenarioConfig:
    roi_side: float = 30.0
    n_actors: int | None = None      # None: drawn uniformly from [80, 120]
    frac_moving: float = 0.0
    seed: int = 0
    dt_sim: float = 0.1
    criterion: str = "biggest"       # biggest | oldest
    max_mission_time: float = 60.0
    start_altitude: float = 10.0
    ceiling: float = 12.0
    body_radius: float = 0.3
    drone_radius: float = 0.25
    speed_xy: float = 2.0
    speed_z: float = 1.0
    abort_hold_time: float = 10.0    # held at ceiling with no target -> Aborted

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("roi_side", "dt_sim", "max_mission_time", "body_radius",
                     "drone_radius", "speed_xy", "speed_z", "abort_hold_time"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if (self.n_actors or 0) < 0:
            raise ValueError("n_actors must be non-negative")
        if not 0 <= self.frac_moving <= 1:
            raise ValueError("frac_moving must be in [0, 1]")
        if self.criterion not in ("biggest", "oldest"):
            raise ValueError("criterion must be 'biggest' or 'oldest'")


@dataclass
class WorldState:
    actors: list[Actor]
    drone: DroneState
    plane: HeadPlane
    roi_side: float
    rng: np.random.Generator

    def actor_positions(self) -> np.ndarray:
        if not self.actors:
            return np.zeros((0, 2))
        return np.array([[a.x, a.y] for a in self.actors])


# ---------------------------------------------------------------------------
# commands

@dataclass(frozen=True)
class GotoWaypoint:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class Land:
    pass


@dataclass(frozen=True)
class Ascend:
    pass


@dataclass(frozen=True)
class Hold:
    pass


# ---------------------------------------------------------------------------

def random_walk_step(a: Actor, rng: np.random.Generator,
                     roi_side: float) -> Actor:
    """One 10 Hz lattice step: each axis shifts by 0.2 * alpha with alpha
    uniform on {-1, 0, 1}; the result is clamped to the ROI."""
    alpha = rng.integers(-1, 2, size=2)
    x = min(max(a.x + 0.2 * float(alpha[0]), 0.0), roi_side)
    y = min(max(a.y + 0.2 * float(alpha[1]), 0.0), roi_side)
    return replace(a, x=x, y=y)


MAX_PLACEMENT_REJECTIONS = 100_000


def spawn_scenario(cfg: ScenarioConfig,
                   plane: HeadPlane | None = None) -> WorldState:
    """Place actors uniformly in the ROI without overlap and the drone at a
    uniform position at start altitude. Deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    plane = plane or HeadPlane()
    n = cfg.n_actors if cfg.n_actors is not None else int(rng.integers(80, 121))
    positions: list[tuple[float, float]] = []
    rejections = 0
    min_sep2 = (2 * cfg.body_radius) ** 2
    while len(positions) < n:
        x = rng.uniform(0, cfg.roi_side)
        y = rng.uniform(0, cfg.roi_side)
        if any((x - px) ** 2 + (y - py) ** 2 < min_sep2 for px, py in positions):
            rejections += 1
            if rejections > MAX_PLACEMENT_REJECTIONS:
                raise PlacementFailure(
                    f"could not place {n} actors in a {cfg.roi_side} m ROI")
            continue
        positions.append((x, y))
    n_moving = int(np.floor(cfg.frac_moving * n))
    moving_idx = set(rng.choice(n, size=n_moving, replace=False).tolist()) \
        if n_moving else set()
    actors = [Actor(px, py, moving=(i in moving_idx),
                    body_radius=cfg.body_radius)
              for i, (px, py) in enumerate(positions)]
    drone = DroneState(np.array([rng.uniform(0, cfg.roi_side),
                                 rng.uniform(0, cfg.roi_side),
                                 cfg.start_altitude]),
                       speed_xy=cfg.speed_xy, speed_z=cfg.speed_z)
    return WorldState(actors, drone, plane, cfg.roi_side, rng)


def observe(heads, w2c: RigidTransform, cam: CameraModel, plane: HeadPlane,
            noise: OracleNoiseConfig) -> DensityMap:
    """Render the oracle density map of world head positions (n, 2) seen
    through world-to-camera ``w2c``. Heads behind the camera or whose blob
    cannot touch the image are skipped.

    All heads are projected at once. The stacked product
    ``p[:, None, :] @ R.T`` takes one vector-matrix product per head, the
    operation ``project_plane_point`` does, so every pixel is bit-identical
    to projecting the heads one by one; a plain ``P @ R.T`` goes through a
    matrix-matrix kernel whose rounding differs.
    """
    heads = np.asarray(heads, dtype=float).reshape(-1, 2)
    p = np.column_stack([heads, np.full(len(heads), plane.h_h)])
    p_cam = np.matmul(p[:, None, :], w2c.rotation.T)[:, 0] + w2c.translation
    p_cam = p_cam[p_cam[:, 2] > 0]
    lam = p_cam[:, 2]
    u = cam.fx * p_cam[:, 0] / lam + cam.cx
    v = cam.fy * p_cam[:, 1] / lam + cam.cy
    reach = 4.0 * noise.sigma_px
    keep = ((-reach <= u) & (u <= cam.width + reach)
            & (-reach <= v) & (v <= cam.height + reach))
    return render_oracle_density(np.column_stack([u[keep], v[keep]]), noise,
                                 cam.width, cam.height)


def perceive(heads, w2c: RigidTransform, frame: int, cam: CameraModel,
             plane: HeadPlane, noise: OracleNoiseConfig, slz_cfg: SlzConfig,
             cell_size: float, margin: float, roi_side: float | None = None
             ) -> tuple[PlaneGrid, np.ndarray, list, float]:
    """One frame of detection, shared by missions and replay: oracle
    density -> occupancy -> head-plane grid -> SLZ extraction. It reads no
    state of earlier frames; the caller steps its tracker with the
    proposals. The oracle noise is reseeded per frame; with ``roi_side``
    the grid is geofenced to the ROI before extraction.
    Returns the head-plane grid, the mask of its cells the camera sees
    (before the geofence), the proposals and the host seconds taken.
    """
    t0 = time.perf_counter()
    frame_noise = replace(noise, seed=noise.seed * 1_000_003 + frame)
    occ = occupancy_from_density(observe(heads, w2c, cam, plane, frame_noise))
    grid, visible = sample_occupancy_to_plane(
        occ, grid_footprint(cam, w2c, plane, cell_size, margin), w2c, cam,
        plane, return_visible=True)
    if roi_side is not None:
        apply_geofence(grid, roi_side)
    proposals = extract_slz(grid, slz_cfg, frame)
    return grid, visible, proposals, time.perf_counter() - t0


def select_target(tracks, criterion: str):
    """Pick the track with the largest radius or the greatest age; ties break
    to the lower id. Returns None when no tracks are live."""
    if not tracks:
        return None
    if criterion == "biggest":
        key = lambda t: (t.mean[2], -t.id)
    elif criterion == "oldest":
        key = lambda t: (t.age, -t.id)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return max(tracks, key=key)


def landing_policy_step(drone: DroneState, target, cfg: ScenarioConfig):
    """Issue the next command: descend toward the target, land when low and
    centered, or ascend to enlarge the footprint when no target exists."""
    if target is None:
        if drone.position[2] < cfg.ceiling - 1e-9:
            return Ascend()
        return Hold()
    tx = min(max(float(target.mean[0]), 0.0), cfg.roi_side)
    ty = min(max(float(target.mean[1]), 0.0), cfg.roi_side)
    horiz = np.hypot(drone.position[0] - tx, drone.position[1] - ty)
    if drone.position[2] <= LAND_ALTITUDE + 1e-9 and horiz <= LAND_HORIZ_TOL:
        return Land()
    return GotoWaypoint(tx, ty, LAND_ALTITUDE)


# ---------------------------------------------------------------------------
# mission log

@dataclass
class FrameRecord:
    index: int
    t: float
    drone: list          # [x, y, z]
    command: str
    proposals: list      # [[cx, cy, r], ...]
    tracks: list         # [[id, x, y, r, age, misses], ...]
    target_id: int | None
    target: list | None  # [cx, cy, r]
    warning: int | None
    danger: int | None
    slz_area: float | None
    best_iou: float | None
    nearest_person: float | None
    exec_time: float | None
    actors: list         # [[x, y], ...]


OUTCOMES = ("LandedSafe", "Collision", "Timeout", "Aborted")


@dataclass
class MissionLog:
    seed: int
    criterion: str
    policy: str
    outcome: str = "Timeout"          # one of OUTCOMES
    touchdown: list | None = None
    start_altitude: float = 10.0
    frames: list[FrameRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------

def _command_name(cmd) -> str:
    if isinstance(cmd, GotoWaypoint):
        return f"goto {cmd.x:.3f} {cmd.y:.3f} {cmd.z:.3f}"
    return type(cmd).__name__.lower()


def _step_drone(drone: DroneState, cmd, dt: float, cfg: ScenarioConfig) -> None:
    p = drone.position
    if isinstance(cmd, Land):
        p[2] = max(p[2] - drone.speed_z * dt, 0.0)
    elif isinstance(cmd, GotoWaypoint):
        dx, dy = cmd.x - p[0], cmd.y - p[1]
        dist = np.hypot(dx, dy)
        step = drone.speed_xy * dt
        if dist > step:
            p[0] += dx / dist * step
            p[1] += dy / dist * step
        else:
            p[0], p[1] = cmd.x, cmd.y
        dz = cmd.z - p[2]
        p[2] += np.clip(dz, -drone.speed_z * dt, drone.speed_z * dt)
    elif isinstance(cmd, Ascend):
        p[2] = min(p[2] + drone.speed_z * dt, cfg.ceiling)


def _collision(pos: np.ndarray, drone_xyz: np.ndarray, plane: HeadPlane,
               cfg: ScenarioConfig) -> bool:
    """Whether the drone at ``drone_xyz``, inside the crowd layer, overlaps
    an actor at one of the positions ``pos`` (n, 2)."""
    if drone_xyz[2] > plane.h_h or not len(pos):
        return False
    d2 = ((pos - drone_xyz[:2]) ** 2).sum(axis=1)
    return bool(d2.min() < (cfg.body_radius + cfg.drone_radius) ** 2)


def default_camera() -> CameraModel:
    return CameraModel(fx=128.0, fy=128.0, cx=128.0, cy=128.0,
                       width=256, height=256)


def default_tracker_config(dt: float, cell_size: float) -> TrackerConfig:
    # Missions use a longer miss budget and looser gate than the library
    # defaults: proposals vanish while the footprint shrinks below r0 on
    # final approach and the incumbent track must coast through it.
    return TrackerConfig(dt=dt, mu1=15, iou_gate=0.15, min_radius=cell_size)


def simulate_mission(cfg: ScenarioConfig,
                     cam: CameraModel | None = None,
                     plane: HeadPlane | None = None,
                     slz_cfg: SlzConfig | None = None,
                     tracker_cfg: TrackerConfig | None = None,
                     noise_cfg: OracleNoiseConfig | None = None,
                     cell_size: float = 0.10,
                     margin: float = 1.0,
                     policy: str = "slz",
                     frame_callback=None) -> MissionLog:
    """Run one landing mission to a terminal outcome.

    policy "slz" runs the full perception loop; "random" is the blind
    baseline that descends onto a uniformly drawn touchdown point.
    """
    if policy not in ("slz", "random"):
        raise ValueError("policy must be 'slz' or 'random'")
    cam = cam or default_camera()
    plane = plane or HeadPlane()
    slz_cfg = slz_cfg or SlzConfig()
    tracker_cfg = tracker_cfg or default_tracker_config(cfg.dt_sim, cell_size)
    noise_cfg = noise_cfg or OracleNoiseConfig(seed=cfg.seed)

    world = spawn_scenario(cfg, plane)
    manager = TrackManager(tracker_cfg)
    log = MissionLog(cfg.seed, cfg.criterion, policy,
                     start_altitude=cfg.start_altitude)

    if policy == "random":
        blind_xy = world.rng.uniform(0, cfg.roi_side, size=2)

    incumbent_id = None
    landing = False
    hold_time = 0.0
    n_steps = int(round(cfg.max_mission_time / cfg.dt_sim))

    for k in range(n_steps):
        t = k * cfg.dt_sim
        for i, a in enumerate(world.actors):
            if a.moving:
                world.actors[i] = random_walk_step(a, world.rng, cfg.roi_side)
        # the actors stay put for the rest of the frame
        pos = world.actor_positions()

        grid, proposals, exec_time, target = None, [], None, None
        scored = metrics_mod.TargetMetrics()
        if policy == "slz" and not landing:
            w2c = world.drone.world_to_camera()
            grid, visible, proposals, exec_time = perceive(
                pos, w2c, k, cam, plane, noise_cfg, slz_cfg, cell_size,
                margin, cfg.roi_side)
            manager.step(proposals)
            target, incumbent_id = _select_with_hysteresis(
                manager.tracks, cfg.criterion, incumbent_id)
            scored = metrics_mod.evaluate_target(
                target, pos, grid, visible, slz_cfg.r0, cfg.roi_side)

        if landing:
            cmd = Land()
        elif policy == "random":
            horiz = np.hypot(*(blind_xy - world.drone.position[:2]))
            if world.drone.position[2] <= LAND_ALTITUDE + 1e-9 \
                    and horiz <= LAND_HORIZ_TOL:
                cmd = Land()
            else:
                cmd = GotoWaypoint(float(blind_xy[0]), float(blind_xy[1]),
                                   LAND_ALTITUDE)
        else:
            cmd = landing_policy_step(world.drone, target, cfg)
        if isinstance(cmd, Land):
            landing = True

        _step_drone(world.drone, cmd, cfg.dt_sim, cfg)

        log.frames.append(_make_record(k, t, pos, world.drone, cmd, proposals,
                                       manager.tracks, target, scored,
                                       exec_time))
        if frame_callback is not None:
            frame_callback(k, world, grid, proposals, manager.tracks, target)

        if _collision(pos, world.drone.position, world.plane, cfg):
            log.outcome = "Collision"
            log.touchdown = [float(world.drone.position[0]),
                             float(world.drone.position[1])]
            return log
        if landing and world.drone.position[2] <= 0.0:
            log.outcome = "LandedSafe"
            log.touchdown = [float(world.drone.position[0]),
                             float(world.drone.position[1])]
            return log

        if isinstance(cmd, Hold) and target is None:
            hold_time += cfg.dt_sim
            if hold_time >= cfg.abort_hold_time:
                log.outcome = "Aborted"
                return log
        else:
            hold_time = 0.0

    log.outcome = "Timeout"
    return log


def _select_with_hysteresis(tracks, criterion: str, incumbent_id):
    """Re-target only when the incumbent died or a challenger beats it by
    more than 10 % on the criterion value; prevents waypoint thrash."""
    value = (lambda t: t.mean[2]) if criterion == "biggest" else (lambda t: t.age)
    best = select_target(tracks, criterion)
    if best is None:
        return None, None
    incumbent = next((t for t in tracks if t.id == incumbent_id), None)
    if incumbent is None or value(best) > 1.1 * value(incumbent):
        return best, best.id
    return incumbent, incumbent.id


def _make_record(k, t, pos, drone, cmd, proposals, tracks, target, scored,
                 exec_time) -> FrameRecord:
    nearest = None
    if len(pos):
        nearest = float(np.sqrt(
            ((pos - drone.position[:2]) ** 2).sum(axis=1).min()))
    return FrameRecord(
        index=k, t=float(t),
        drone=[float(v) for v in drone.position],
        command=_command_name(cmd),
        proposals=[[p.cx, p.cy, p.radius] for p in proposals],
        tracks=[[t2.id, *[float(v) for v in t2.mean[:3]], t2.age, t2.misses]
                for t2 in tracks],
        target_id=None if target is None else target.id,
        nearest_person=nearest, exec_time=exec_time,
        actors=pos.tolist(),
        **vars(scored))
