"""Annotation, pose, and mission-log file formats."""

import numpy as np
import pytest

from slzsim import MalformedFile, ScenarioConfig, simulate_mission
from slzsim.fileio import (load_annotations, load_mission_log, load_pose_rows,
                           load_poses, write_annotations, write_mission_log,
                           write_poses)


def _sample_frames(rng, n=6):
    frames = []
    for k in range(n):
        heads = rng.uniform(0, 30, size=(int(rng.integers(0, 5)), 2))
        frames.append((k, heads))
    return frames


# ---------------------------------------------------------------------------
# annotations

def test_annotations_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(71)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_annotations(p1, _sample_frames(rng))
    loaded = load_annotations(p1)
    write_annotations(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_annotations_grouping(tmp_path):
    path = tmp_path / "a.csv"
    write_annotations(path, [(0, [(1.0, 2.0), (3.0, 4.0)]), (2, [(5.0, 6.0)])])
    loaded = load_annotations(path)
    assert [fid for fid, _ in loaded] == [0, 2]
    assert np.array_equal(loaded[0][1], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(loaded[1][1], [[5.0, 6.0]])


def test_annotations_reject_non_monotone(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("HEADS v1\n3,0,1.0,1.0\n1,0,2.0,2.0\n")
    with pytest.raises(MalformedFile):
        load_annotations(path)


def test_annotations_reject_bad_header_and_fields(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("HEADZ v9\n")
    with pytest.raises(MalformedFile):
        load_annotations(path)
    path.write_text("HEADS v1\n1,0,2.0\n")
    with pytest.raises(MalformedFile):
        load_annotations(path)


# ---------------------------------------------------------------------------
# poses

def _sample_poses(rng, n=5):
    rows = []
    for k in range(n):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        rows.append((k, tuple(rng.uniform(-10, 10, 3)), tuple(q)))
    return rows


def test_poses_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(72)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_poses(p1, _sample_poses(rng))
    write_poses(p2, load_pose_rows(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_poses_loaded_as_valid_transforms(tmp_path):
    rng = np.random.default_rng(73)
    path = tmp_path / "p.csv"
    rows = _sample_poses(rng)
    write_poses(path, rows)
    poses = load_poses(path)
    assert sorted(poses) == [r[0] for r in rows]
    for (fid, t, _q) in rows:
        assert np.allclose(poses[fid].translation, t)
        r = poses[fid].rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9


def test_poses_identity_quaternion(tmp_path):
    path = tmp_path / "p.csv"
    write_poses(path, [(0, (1.0, 2.0, 3.0), (0.0, 0.0, 0.0, 1.0))])
    pose = load_poses(path)[0]
    assert np.allclose(pose.rotation, np.eye(3))
    assert np.allclose(pose.translation, [1.0, 2.0, 3.0])


def test_poses_reject_non_monotone_and_bad_quat(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("POSE v1\n2,0,0,0,0,0,0,1\n2,0,0,0,0,0,0,1\n")
    with pytest.raises(MalformedFile):
        load_pose_rows(path)
    path.write_text("POSE v1\n0,0,0,0,0,0,0,2\n")
    with pytest.raises(MalformedFile):
        load_pose_rows(path)
    path.write_text("POSES v2\n")
    with pytest.raises(MalformedFile):
        load_pose_rows(path)


# ---------------------------------------------------------------------------
# mission logs

def test_mission_log_round_trip_byte_identical(tmp_path):
    log = simulate_mission(ScenarioConfig(seed=6, n_actors=10,
                                          start_altitude=6.0, ceiling=7.0,
                                          max_mission_time=30.0))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_mission_log(p1, log)
    write_mission_log(p2, load_mission_log(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_mission_log_fields_survive(tmp_path):
    log = simulate_mission(ScenarioConfig(seed=6, n_actors=0,
                                          max_mission_time=40.0))
    path = tmp_path / "m.jsonl"
    write_mission_log(path, log)
    loaded = load_mission_log(path)
    assert loaded.outcome == log.outcome
    assert loaded.seed == log.seed
    assert loaded.touchdown == log.touchdown
    assert len(loaded.frames) == len(log.frames)
    assert loaded.frames[-1].drone == log.frames[-1].drone


def test_mission_log_rejects_garbage(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("not json\n")
    with pytest.raises(MalformedFile):
        load_mission_log(path)
    path.write_text('{"type": "frame"}\n')
    with pytest.raises(MalformedFile):
        load_mission_log(path)
    path.write_text("")
    with pytest.raises(MalformedFile):
        load_mission_log(path)


def test_mission_log_rejects_unknown_outcome(tmp_path):
    path = tmp_path / "m.jsonl"
    write_mission_log(path, simulate_mission(
        ScenarioConfig(seed=1, n_actors=0, max_mission_time=0.3)))
    text = path.read_text()
    assert '"outcome": "Timeout"' in text
    path.write_text(text.replace('"outcome": "Timeout"', '"outcome": "Crashed"'))
    with pytest.raises(MalformedFile, match="'Crashed'"):
        load_mission_log(path)
