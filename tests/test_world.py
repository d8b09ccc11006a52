"""Crowd world, drone kinematics, landing policy, and full missions."""

import dataclasses

import numpy as np
import pytest

from slzsim import (Actor, DroneState, PlacementFailure, ScenarioConfig,
                    TrackState, landing_policy_step, random_walk_step,
                    select_target, simulate_mission, spawn_scenario)
from slzsim.density import OracleNoiseConfig
from slzsim.world import (Ascend, GotoWaypoint, Hold, Land, default_camera,
                          observe)
from slzsim.geometry import back_project_pixel, HeadPlane


def _strip_exec_times(log):
    return [dataclasses.replace(f, exec_time=None) for f in log.frames]


# ---------------------------------------------------------------------------
# actors

def test_random_walk_displacements_on_lattice():
    rng = np.random.default_rng(51)
    a = Actor(15.0, 15.0, moving=True)
    allowed = {0.0, 0.2, round(0.2 * np.sqrt(2), 12)}
    for _ in range(300):
        b = random_walk_step(a, rng, 30.0)
        d = round(np.hypot(b.x - a.x, b.y - a.y), 12)
        assert d in allowed
        a = b
    assert 0.0 <= a.x <= 30.0 and 0.0 <= a.y <= 30.0


def test_random_walk_clamps_to_roi():
    rng = np.random.default_rng(52)
    a = Actor(0.0, 0.0, moving=True)
    for _ in range(100):
        a = random_walk_step(a, rng, 0.1)
        assert 0.0 <= a.x <= 0.1 and 0.0 <= a.y <= 0.1


def test_random_walk_deterministic():
    a = Actor(5.0, 5.0, moving=True)
    r1 = random_walk_step(a, np.random.default_rng(3), 30.0)
    r2 = random_walk_step(a, np.random.default_rng(3), 30.0)
    assert (r1.x, r1.y) == (r2.x, r2.y)


# ---------------------------------------------------------------------------
# spawn

def test_spawn_deterministic_and_separated():
    cfg = ScenarioConfig(seed=5, n_actors=120)
    w1 = spawn_scenario(cfg)
    w2 = spawn_scenario(cfg)
    assert np.array_equal(w1.actor_positions(), w2.actor_positions())
    assert np.array_equal(w1.drone.position, w2.drone.position)
    pos = w1.actor_positions()
    assert len(pos) == 120
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() >= (2 * cfg.body_radius) ** 2


def test_spawn_actor_count_range_when_unset():
    for seed in range(5):
        w = spawn_scenario(ScenarioConfig(seed=seed))
        assert 80 <= len(w.actors) <= 120


def test_spawn_frac_moving():
    w = spawn_scenario(ScenarioConfig(seed=1, n_actors=100, frac_moving=0.2))
    assert sum(a.moving for a in w.actors) == 20
    w0 = spawn_scenario(ScenarioConfig(seed=1, n_actors=100))
    assert not any(a.moving for a in w0.actors)


def test_spawn_placement_failure_when_overpacked():
    with pytest.raises(PlacementFailure):
        spawn_scenario(ScenarioConfig(seed=0, n_actors=50, roi_side=1.0))


# ---------------------------------------------------------------------------
# observation

def _observe(w, cam):
    return observe(w.actor_positions(), w.drone.world_to_camera(), cam,
                   w.plane, OracleNoiseConfig())


def test_observe_empty_world_zero_map():
    w = spawn_scenario(ScenarioConfig(seed=0, n_actors=0))
    d = _observe(w, default_camera())
    assert (d.values == 0).all()


def test_observe_actor_below_drone_blobs_at_principal_point():
    cam = default_camera()
    w = spawn_scenario(ScenarioConfig(seed=0, n_actors=0))
    w.drone.position[:] = (10.0, 10.0, 10.0)
    w.actors.append(Actor(10.0, 10.0))
    d = _observe(w, cam)
    r, c = np.unravel_index(np.argmax(d.values), d.values.shape)
    # blob centered on the continuous principal point: the four adjacent
    # pixel centers share the maximum
    assert abs(r + 0.5 - cam.cy) <= 1.0 and abs(c + 0.5 - cam.cx) <= 1.0


def test_observe_footprint_edge_actor_blobs_at_border():
    cam = default_camera()
    w = spawn_scenario(ScenarioConfig(seed=0, n_actors=0))
    w.drone.position[:] = (15.0, 15.0, 10.0)
    edge = back_project_pixel(2.0, cam.cy, w.drone.world_to_camera(), cam,
                              HeadPlane())
    w.actors.append(Actor(float(edge[0]), float(edge[1])))
    d = _observe(w, cam)
    r, c = np.unravel_index(np.argmax(d.values), d.values.shape)
    assert abs(c + 0.5 - 2.0) <= 1.0
    assert abs(r + 0.5 - cam.cy) <= 1.0


# ---------------------------------------------------------------------------
# target selection and policy

def _mk_track(tid, r, age):
    return TrackState(tid, np.array([0.0, 0.0, r, 0, 0, 0]), np.eye(6),
                      age=age)


def test_select_target_biggest_and_oldest():
    tracks = [_mk_track(0, 2.0, 10), _mk_track(1, 3.0, 4)]
    assert select_target(tracks, "biggest").id == 1
    assert select_target(tracks, "oldest").id == 0
    assert select_target([], "biggest") is None


def test_select_target_ties_break_to_lower_id():
    tracks = [_mk_track(3, 2.0, 5), _mk_track(1, 2.0, 5)]
    assert select_target(tracks, "biggest").id == 1
    assert select_target(tracks, "oldest").id == 1


def test_policy_land_when_low_and_centered():
    cfg = ScenarioConfig()
    drone = DroneState(np.array([5.0, 5.0, 1.9]))
    target = TrackState(0, np.array([5.1, 5.0, 2.0, 0, 0, 0]), np.eye(6))
    assert isinstance(landing_policy_step(drone, target, cfg), Land)


def test_policy_waypoint_two_meters_above_target():
    cfg = ScenarioConfig()
    drone = DroneState(np.array([0.0, 0.0, 10.0]))
    target = TrackState(0, np.array([5.0, 5.0, 2.0, 0, 0, 0]), np.eye(6))
    cmd = landing_policy_step(drone, target, cfg)
    assert cmd == GotoWaypoint(5.0, 5.0, 2.0)


def test_policy_ascend_then_hold_without_target():
    cfg = ScenarioConfig(ceiling=12.0)
    low = DroneState(np.array([0.0, 0.0, 10.0]))
    assert isinstance(landing_policy_step(low, None, cfg), Ascend)
    top = DroneState(np.array([0.0, 0.0, 12.0]))
    assert isinstance(landing_policy_step(top, None, cfg), Hold)


# ---------------------------------------------------------------------------
# missions

def test_mission_empty_roi_lands_safely():
    cfg = ScenarioConfig(seed=3, n_actors=0, max_mission_time=40.0)
    log = simulate_mission(cfg)
    assert log.outcome == "LandedSafe"
    assert 0.0 <= log.touchdown[0] <= cfg.roi_side
    assert 0.0 <= log.touchdown[1] <= cfg.roi_side
    assert log.frames[-1].drone[2] == pytest.approx(0.0)


def test_mission_carpeted_roi_never_lands_on_person():
    # shoulder-to-shoulder crowd: no free circle of radius r0 anywhere
    cfg = ScenarioConfig(seed=7, n_actors=40, roi_side=5.0,
                         start_altitude=8.0, ceiling=9.0,
                         max_mission_time=30.0)
    log = simulate_mission(cfg)
    assert log.outcome in ("Timeout", "Aborted")


def test_mission_deterministic_log():
    cfg = ScenarioConfig(seed=11, n_actors=30, start_altitude=6.0,
                         ceiling=7.0, max_mission_time=30.0)
    a = simulate_mission(cfg)
    b = simulate_mission(cfg)
    assert a.outcome == b.outcome and a.touchdown == b.touchdown
    assert _strip_exec_times(a) == _strip_exec_times(b)


def test_mission_actor_count_constant_and_frames_ordered():
    cfg = ScenarioConfig(seed=2, n_actors=25, frac_moving=0.3,
                         start_altitude=6.0, ceiling=7.0,
                         max_mission_time=30.0)
    log = simulate_mission(cfg)
    counts = {len(f.actors) for f in log.frames}
    assert counts == {25}
    times = [f.t for f in log.frames]
    assert times == sorted(times)


def test_mission_land_issued_only_over_clear_target():
    # static crowd: the first Land frame's target disk must contain no actor
    cfg = ScenarioConfig(seed=4, n_actors=30, start_altitude=6.0,
                         ceiling=7.0, max_mission_time=40.0)
    log = simulate_mission(cfg)
    assert log.outcome == "LandedSafe"
    first_land = next(f for f in log.frames if f.command == "land")
    assert first_land.target is not None
    assert first_land.warning == 0


def test_mission_random_policy_runs():
    cfg = ScenarioConfig(seed=9, n_actors=0, max_mission_time=40.0)
    log = simulate_mission(cfg, policy="random")
    assert log.policy == "random"
    assert log.outcome == "LandedSafe"


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(frac_moving=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(criterion="nearest")
    with pytest.raises(ValueError):
        simulate_mission(ScenarioConfig(n_actors=0), policy="hover")


@pytest.mark.parametrize("field, value", [("roi_side", float("nan")),
                                          ("n_actors", -3),
                                          ("max_mission_time", -1.0),
                                          ("dt_sim", 0.0),
                                          ("ceiling", float("inf")),
                                          ("body_radius", -1.0),
                                          ("drone_radius", 0.0),
                                          ("speed_xy", float("nan")),
                                          ("speed_z", -1.0),
                                          ("abort_hold_time", 0.0)])
def test_scenario_config_rejects_bad_value(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{field: value})
