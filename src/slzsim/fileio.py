"""File formats: head annotations, camera poses, and mission logs.

All writers format floats with repr() so that a write -> read -> write
cycle is byte-identical.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import MalformedFile
from .geometry import RigidTransform
from .world import OUTCOMES, FrameRecord, MissionLog

ANNOTATION_HEADER = "HEADS v1"
POSE_HEADER = "POSE v1"


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# head annotations: "frame_id,head_id,x_m,y_m" in world-frame meters

def write_annotations(path, frames) -> None:
    """frames: iterable of (frame_id, heads (n, 2) array)."""
    with open(path, "w") as fh:
        fh.write(ANNOTATION_HEADER + "\n")
        for frame_id, heads in frames:
            for head_id, (x, y) in enumerate(np.asarray(heads).reshape(-1, 2)):
                fh.write(f"{int(frame_id)},{head_id},{_fmt(x)},{_fmt(y)}\n")


def load_annotations(path) -> list[tuple[int, np.ndarray]]:
    """Parse an annotation stream into (frame_id, heads) groups.

    Frame ids must be non-decreasing through the file.
    """
    frames: list[tuple[int, list]] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != ANNOTATION_HEADER:
            raise MalformedFile(f"{path}: bad annotation header {header!r}")
        last = None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise MalformedFile(f"{path}:{lineno}: expected 4 fields")
            try:
                frame_id = int(parts[0])
                x, y = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
            if last is not None and frame_id < last:
                raise MalformedFile(
                    f"{path}:{lineno}: non-monotone frame id {frame_id}")
            if last != frame_id:
                frames.append((frame_id, []))
                last = frame_id
            frames[-1][1].append((x, y))
    return [(fid, np.array(heads, dtype=float).reshape(-1, 2))
            for fid, heads in frames]


# ---------------------------------------------------------------------------
# camera poses: "frame_id,tx,ty,tz,qx,qy,qz,qw", world-to-body

def write_poses(path, poses) -> None:
    """poses: iterable of (frame_id, (tx, ty, tz), (qx, qy, qz, qw))."""
    with open(path, "w") as fh:
        fh.write(POSE_HEADER + "\n")
        for frame_id, t, q in poses:
            fields = [str(int(frame_id))] + [_fmt(v) for v in (*t, *q)]
            fh.write(",".join(fields) + "\n")


def load_pose_rows(path) -> list[tuple[int, tuple, tuple]]:
    """Parse a pose file into raw (frame_id, (tx, ty, tz), (qx, qy, qz, qw))
    rows, preserving the stored quaternion exactly.

    Frame ids must be strictly increasing; quaternions must be unit within 1 %.
    """
    rows: list[tuple[int, tuple, tuple]] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != POSE_HEADER:
            raise MalformedFile(f"{path}: bad pose header {header!r}")
        last = None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise MalformedFile(f"{path}:{lineno}: expected 8 fields")
            try:
                frame_id = int(parts[0])
                vals = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
            if last is not None and frame_id <= last:
                raise MalformedFile(
                    f"{path}:{lineno}: non-monotone frame id {frame_id}")
            last = frame_id
            q = np.array(vals[3:])
            norm = np.linalg.norm(q)
            if not 0.99 < norm < 1.01:
                raise MalformedFile(
                    f"{path}:{lineno}: quaternion norm {norm:.4f} not unit")
            rows.append((frame_id, tuple(vals[:3]), tuple(vals[3:])))
    return rows


def load_poses(path) -> dict[int, RigidTransform]:
    """Parse world-to-body transforms keyed by frame id.

    Frame ids must be strictly increasing.
    """
    poses: dict[int, RigidTransform] = {}
    for frame_id, t, q in load_pose_rows(path):
        q = np.asarray(q)
        rot = Rotation.from_quat(q / np.linalg.norm(q)).as_matrix()
        # re-orthonormalize so construction tolerances hold exactly
        u, _, vt = np.linalg.svd(rot)
        poses[frame_id] = RigidTransform(u @ vt, np.array(t))
    return poses


# ---------------------------------------------------------------------------
# mission logs: line-delimited JSON, one self-describing record per frame

def write_mission_log(path, log: MissionLog) -> None:
    with open(path, "w") as fh:
        meta = {"type": "meta", "seed": log.seed, "criterion": log.criterion,
                "policy": log.policy, "start_altitude": log.start_altitude}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for frame in log.frames:
            rec = {"type": "frame", **dataclasses.asdict(frame)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        term = {"type": "outcome", "outcome": log.outcome,
                "touchdown": log.touchdown}
        fh.write(json.dumps(term, sort_keys=True) + "\n")


def load_mission_log(path) -> MissionLog:
    log = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
            kind = rec.pop("type", None)
            if kind == "meta":
                log = MissionLog(seed=rec["seed"], criterion=rec["criterion"],
                                 policy=rec["policy"],
                                 start_altitude=rec["start_altitude"])
            elif kind == "frame":
                if log is None:
                    raise MalformedFile(f"{path}:{lineno}: frame before meta")
                log.frames.append(FrameRecord(**rec))
            elif kind == "outcome":
                if log is None:
                    raise MalformedFile(f"{path}:{lineno}: outcome before meta")
                if rec["outcome"] not in OUTCOMES:
                    raise MalformedFile(
                        f"{path}:{lineno}: unknown outcome {rec['outcome']!r}")
                log.outcome = rec["outcome"]
                log.touchdown = rec["touchdown"]
            else:
                raise MalformedFile(f"{path}:{lineno}: unknown record {kind!r}")
    if log is None:
        raise MalformedFile(f"{path}: empty mission log")
    return log
