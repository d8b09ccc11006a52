"""Regression pins: missions and a replay reproduce recorded behaviour.

The pins in ``regression_pins.json`` hold, per mission, the outcome, the
frame count, the proposal count and target id of every frame, and the
``aggregate`` fields; and, for one replay of a mission's own actors and
poses, the same per-frame counts and the replay report. Counts and ids
must match exactly. Floats are compared to a relative 1e-9, since the
Kalman update's matrix inverse may differ in the last bits between BLAS
builds.

Re-record (only for an intended behaviour change, and say so):

    PYTHONPATH=src python tests/test_regression.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from slzsim import (DroneState, HeadPlane, OracleNoiseConfig, ScenarioConfig,
                    aggregate, replay_annotations, simulate_mission)
from slzsim.world import default_camera

PINS = Path(__file__).with_name("regression_pins.json")
MISSIONS = {"static-0": dict(seed=0), "static-1": dict(seed=1),
            "static-2": dict(seed=2),
            "moving-3": dict(seed=3, frac_moving=0.2),
            "moving-4": dict(seed=4, frac_moving=0.2)}
REPLAY_MISSION = dict(seed=13, n_actors=20, start_altitude=6.0, ceiling=7.0,
                      max_mission_time=30.0)
REPORT_FIELDS = ("success_rate", "warning_avg", "warning_std", "danger_avg",
                 "danger_std", "slz_area_avg", "best_iou_avg",
                 "nearest_person_avg", "n_missions", "n_frames")


def _report(rep) -> dict:
    return {k: getattr(rep, k) for k in REPORT_FIELDS}


def mission_pin(cfg: ScenarioConfig) -> dict:
    log = simulate_mission(cfg)
    return {"outcome": log.outcome, "frames": len(log.frames),
            "proposals": [len(f.proposals) for f in log.frames],
            "target_ids": [f.target_id for f in log.frames],
            "report": _report(aggregate([log]))}


def replay_pin(cfg: ScenarioConfig) -> dict:
    """Replay every perception frame of a mission from the drone pose it
    was perceived from (the pose recorded one frame earlier)."""
    log = simulate_mission(cfg)
    frames, poses = [], {}
    for prev, f in zip(log.frames, log.frames[1:]):
        if f.exec_time is not None:
            frames.append((f.index, np.array(f.actors)))
            poses[f.index] = DroneState(np.array(prev.drone)).world_to_camera()
    rows, rep = replay_annotations(frames, poses, default_camera(),
                                   HeadPlane(),
                                   noise_cfg=OracleNoiseConfig(seed=cfg.seed))
    return {"frames": len(rows),
            "proposals": [r.n_proposals for r in rows],
            "risk": [[r.warning, r.danger] for r in rows],
            "report": _report(rep)}


def record() -> dict:
    pins = {name: mission_pin(ScenarioConfig(**kw))
            for name, kw in MISSIONS.items()}
    pins["replay-13"] = replay_pin(ScenarioConfig(**REPLAY_MISSION))
    return pins


def _assert_matches(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key == "report":
            assert got[key] == pytest.approx(value, rel=1e-9, abs=0.0)
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_mission_matches_pin(name):
    want = json.loads(PINS.read_text())[name]
    _assert_matches(mission_pin(ScenarioConfig(**MISSIONS[name])), want)


def test_replay_matches_pin():
    want = json.loads(PINS.read_text())["replay-13"]
    _assert_matches(replay_pin(ScenarioConfig(**REPLAY_MISSION)), want)


if __name__ == "__main__":
    PINS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
