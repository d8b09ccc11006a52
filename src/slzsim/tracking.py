"""Multi-instance tracking of landing-zone circles.

Constant-velocity Kalman filters over (x, y, r), circle-IoU affinity,
minimum-cost assignment, and a birth/death lifecycle: a track dies after
mu1 consecutive misses, a new track is born after a proposal re-appears
for mu2 consecutive frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SingularInnovation


@dataclass(frozen=True)
class TrackerConfig:
    sigma_a: float = 0.5                 # acceleration uncertainty
    r_meas: np.ndarray = None            # 3x3 measurement covariance
    dt: float = 0.1                      # frame interval (s)
    n_p: int = 10                        # max live trackers
    iou_gate: float = 0.2                # minimum IoU for a valid match
    mu1: int = 5                         # consecutive misses before deletion
    mu2: int = 3                         # consecutive detections before birth
    min_radius: float = 0.1              # radius clamp after update (one cell)

    def __post_init__(self):
        if self.r_meas is None:
            r = np.eye(3) * 0.25
        elif np.isscalar(self.r_meas):
            r = np.eye(3) * float(self.r_meas)
        else:
            r = np.asarray(self.r_meas, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("r_meas must be a 3x3 matrix")
        object.__setattr__(self, "r_meas", r)
        if self.sigma_a <= 0 or self.dt <= 0 or self.n_p < 1:
            raise ValueError("sigma_a, dt must be positive and n_p >= 1")
        if not 0 < self.iou_gate < 1:
            raise ValueError("iou_gate must be in (0, 1)")
        if self.mu1 < 1 or self.mu2 < 1:
            raise ValueError("mu1 and mu2 must be positive")

    def transition(self) -> np.ndarray:
        f = np.eye(6)
        f[:3, 3:] = self.dt * np.eye(3)
        return f

    def process_noise(self) -> np.ndarray:
        dt = self.dt
        q = np.zeros((6, 6))
        q[:3, :3] = dt ** 4 / 4 * np.eye(3)
        q[:3, 3:] = dt ** 3 / 2 * np.eye(3)
        q[3:, :3] = dt ** 3 / 2 * np.eye(3)
        q[3:, 3:] = dt ** 2 * np.eye(3)
        return self.sigma_a * q


@dataclass
class TrackState:
    id: int
    mean: np.ndarray          # (x, y, r, vx, vy, vr)
    covariance: np.ndarray    # 6x6 SPD
    age: int = 0
    misses: int = 0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(6)
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(6, 6)

    @property
    def circle(self) -> tuple[float, float, float]:
        return float(self.mean[0]), float(self.mean[1]), float(self.mean[2])


_H = np.hstack([np.eye(3), np.zeros((3, 3))])


def kf_predict(t: TrackState, cfg: TrackerConfig) -> TrackState:
    f = cfg.transition()
    mean = f @ t.mean
    cov = f @ t.covariance @ f.T + cfg.process_noise()
    return TrackState(t.id, mean, cov, t.age, t.misses)


def kf_update(t: TrackState, z, cfg: TrackerConfig) -> TrackState:
    z = np.asarray(z, dtype=float).reshape(3)
    s = _H @ t.covariance @ _H.T + cfg.r_meas
    if np.linalg.cond(s) > 1e12:
        raise SingularInnovation("innovation covariance is numerically singular")
    k = t.covariance @ _H.T @ np.linalg.inv(s)
    mean = t.mean + k @ (z - _H @ t.mean)
    ikh = np.eye(6) - k @ _H
    cov = ikh @ t.covariance @ ikh.T + k @ cfg.r_meas @ k.T  # Joseph form
    cov = 0.5 * (cov + cov.T)
    mean[2] = max(mean[2], cfg.min_radius)
    return TrackState(t.id, mean, cov, t.age, 0)


def circle_iou(a, b) -> float:
    """Closed-form intersection-over-union of two disks (cx, cy, r)."""
    x1, y1, r1 = a
    x2, y2, r2 = b
    if r1 <= 0 or r2 <= 0:
        raise ValueError("circle radii must be positive")
    d = math.hypot(x2 - x1, y2 - y1)
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        small, big = min(r1, r2), max(r1, r2)
        return (small * small) / (big * big)
    alpha = math.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
    beta = math.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
    inter = alpha * r1 * r1 + beta * r2 * r2 - d * r1 * math.sin(alpha)
    union = math.pi * (r1 * r1 + r2 * r2) - inter
    return inter / union


def hungarian_assign(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost assignment of min(n, m) row/column pairs."""
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


@dataclass
class StepEvents:
    births: list = field(default_factory=list)    # new track ids
    deaths: list = field(default_factory=list)    # removed track ids
    matches: list = field(default_factory=list)   # (track id, proposal index)


@dataclass
class _BirthCandidate:
    circle: tuple
    hits: int


class TrackManager:
    """Owns the live track list and the birth-candidate pool for one pipeline."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[TrackState] = []
        self._pool: list[_BirthCandidate] = []
        self._next_id = 0

    def _new_track(self, circle) -> TrackState:
        cov = np.zeros((6, 6))
        cov[:3, :3] = self.cfg.r_meas
        cov[3:, 3:] = np.eye(3)  # uninformative velocities
        t = TrackState(self._next_id,
                       np.array([circle[0], circle[1], circle[2], 0, 0, 0],
                                dtype=float),
                       cov)
        self._next_id += 1
        return t

    def step(self, proposals) -> StepEvents:
        """Advance one frame: predict, associate, update, cull, birth."""
        cfg = self.cfg
        events = StepEvents()
        self.tracks = [kf_predict(t, cfg) for t in self.tracks]
        circles = [(p.cx, p.cy, p.radius) for p in proposals]

        matched_props = set()
        matched_tracks = set()
        if self.tracks and circles:
            # predicted radii can dip below zero; clamp for association only
            t_circles = [(t.mean[0], t.mean[1], max(t.mean[2], cfg.min_radius))
                         for t in self.tracks]
            iou = np.array([[circle_iou(tc, c) for c in circles]
                            for tc in t_circles])
            for ti, pi in hungarian_assign(1.0 - iou):
                if iou[ti, pi] < cfg.iou_gate:
                    continue
                self.tracks[ti] = kf_update(self.tracks[ti], circles[pi], cfg)
                matched_tracks.add(ti)
                matched_props.add(pi)
                events.matches.append((self.tracks[ti].id, pi))

        survivors = []
        for i, t in enumerate(self.tracks):
            if i not in matched_tracks:
                t.misses += 1
            if t.misses > cfg.mu1:
                events.deaths.append(t.id)
            else:
                survivors.append(t)
        self.tracks = survivors

        # birth pool: unmatched proposals must re-appear mu2 consecutive frames
        unmatched = [circles[i] for i in range(len(circles))
                     if i not in matched_props]
        new_pool = []
        claimed = set()
        for cand in self._pool:
            best, best_iou = None, cfg.iou_gate
            for i, c in enumerate(unmatched):
                if i in claimed:
                    continue
                v = circle_iou(cand.circle, c)
                if v >= best_iou:
                    best, best_iou = i, v
            if best is None:
                continue  # no re-appearance: drop the pool entry
            claimed.add(best)
            cand.circle = unmatched[best]
            cand.hits += 1
            if cand.hits >= cfg.mu2 and len(self.tracks) < cfg.n_p:
                t = self._new_track(cand.circle)
                self.tracks.append(t)
                events.births.append(t.id)
            else:
                new_pool.append(cand)
        for i, c in enumerate(unmatched):
            if i in claimed:
                continue
            if cfg.mu2 <= 1 and len(self.tracks) < cfg.n_p:
                t = self._new_track(c)
                self.tracks.append(t)
                events.births.append(t.id)
            else:
                new_pool.append(_BirthCandidate(c, 1))
        self._pool = new_pool

        for t in self.tracks:
            t.age += 1
        return events
