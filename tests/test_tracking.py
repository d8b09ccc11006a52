"""Kalman filtering, circle IoU, assignment, and the track lifecycle."""

import math

import numpy as np
import pytest

from slzsim import (SingularInnovation, SlzProposal, TrackManager, TrackState,
                    TrackerConfig, circle_iou, hungarian_assign, kf_predict,
                    kf_update)

from oracles import min_assignment_cost


def _track(mean, cov=None, **kw):
    return TrackState(0, np.asarray(mean, dtype=float),
                      np.eye(6) if cov is None else cov, **kw)


# ---------------------------------------------------------------------------
# config structure

def test_transition_and_process_noise_blocks():
    cfg = TrackerConfig(dt=0.1, sigma_a=0.5)
    f = cfg.transition()
    assert np.array_equal(f[:3, :3], np.eye(3))
    assert np.allclose(f[:3, 3:], 0.1 * np.eye(3))
    q = cfg.process_noise()
    assert np.allclose(q[:3, :3], 0.5 * 0.1 ** 4 / 4 * np.eye(3))
    assert np.allclose(q[:3, 3:], 0.5 * 0.1 ** 3 / 2 * np.eye(3))
    assert np.allclose(q[3:, 3:], 0.5 * 0.1 ** 2 * np.eye(3))


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(sigma_a=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(iou_gate=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(r_meas=np.eye(2))
    cfg = TrackerConfig(r_meas=0.5)
    assert np.allclose(cfg.r_meas, 0.5 * np.eye(3))


# ---------------------------------------------------------------------------
# predict / update

def test_predict_zero_velocity_keeps_position():
    t = _track([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    out = kf_predict(t, TrackerConfig(dt=0.25))
    assert np.allclose(out.mean[:3], [1.0, 2.0, 3.0])


def test_predict_propagates_velocity():
    t = _track([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    out = kf_predict(t, TrackerConfig(dt=0.1))
    assert np.allclose(out.mean, [0.1, 0.0, 1.0, 1.0, 0.0, 0.0])


def test_predict_trace_strictly_increases():
    t = _track([0.0, 0.0, 1.0, 0.5, -0.5, 0.0])
    out = kf_predict(t, TrackerConfig(dt=0.1, sigma_a=0.5))
    assert np.trace(out.covariance) > np.trace(t.covariance)


def test_update_zero_innovation_keeps_mean():
    cfg = TrackerConfig()
    t = _track([3.0, -2.0, 1.5, 0.1, 0.2, 0.0])
    out = kf_update(t, [3.0, -2.0, 1.5], cfg)
    assert np.allclose(out.mean, t.mean)
    assert out.misses == 0


def test_update_tiny_r_snaps_to_measurement():
    cfg = TrackerConfig(r_meas=np.eye(3) * 1e-12)
    t = _track([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    out = kf_update(t, [5.0, 5.0, 2.0], cfg)
    assert np.abs(out.mean[:3] - [5.0, 5.0, 2.0]).max() < 1e-6


def test_update_position_covariance_contracts():
    rng = np.random.default_rng(41)
    cfg = TrackerConfig()
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        cov = a @ a.T + 0.1 * np.eye(6)
        t = _track(rng.normal(size=6), cov)
        out = kf_update(t, rng.normal(size=3), cfg)
        prior = t.covariance[:3, :3]
        post = out.covariance[:3, :3]
        assert np.linalg.eigvalsh(prior - post).min() > -1e-9


def test_update_singular_innovation_raises():
    cfg = TrackerConfig(r_meas=np.diag([1.0, 1.0, 1e-20]))
    cov = np.eye(6)
    cov[2, 2] = 1e-20
    t = _track([0, 0, 1, 0, 0, 0], cov)
    with pytest.raises(SingularInnovation):
        kf_update(t, [0.0, 0.0, 1.0], cfg)


def test_update_radius_clamped():
    cfg = TrackerConfig(min_radius=0.1, r_meas=np.eye(3) * 1e-9)
    t = _track([0, 0, 1, 0, 0, 0])
    out = kf_update(t, [0.0, 0.0, -3.0], cfg)
    assert out.mean[2] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# circle IoU

def test_iou_identical_circles():
    assert circle_iou((2.0, 3.0, 1.5), (2.0, 3.0, 1.5)) == pytest.approx(1.0)


def test_iou_disjoint_circles():
    assert circle_iou((0.0, 0.0, 1.0), (3.0, 0.0, 1.0)) == 0.0
    assert circle_iou((0.0, 0.0, 1.0), (2.0, 0.0, 1.0)) == 0.0


def test_iou_unit_circles_at_distance_one():
    inter = 2.0 * math.acos(0.5) - math.sqrt(3.0) / 2.0
    expected = inter / (2.0 * math.pi - inter)
    got = circle_iou((0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.2430, abs=1e-3)


def test_iou_concentric_is_radius_ratio_squared():
    assert circle_iou((1.0, 1.0, 2.0), (1.0, 1.0, 1.0)) == pytest.approx(0.25)
    assert circle_iou((0.0, 0.0, 1.0), (0.1, 0.0, 3.0)) == pytest.approx(1 / 9)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 3))
        b = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 3))
        v = circle_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(circle_iou(b, a), abs=1e-12)


def test_iou_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        circle_iou((0, 0, 0.0), (0, 0, 1.0))


# ---------------------------------------------------------------------------
# assignment

def test_assign_zero_diagonal_identity():
    cost = np.full((3, 3), 9.0)
    np.fill_diagonal(cost, 0.0)
    assert sorted(hungarian_assign(cost)) == [(0, 0), (1, 1), (2, 2)]


def test_assign_two_by_two_cross():
    pairs = hungarian_assign(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert sorted(pairs) == [(0, 1), (1, 0)]


def test_assign_random_vs_permutation_oracle():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.integers(0, 100, size=(n, m)).astype(float)
        pairs = hungarian_assign(cost)
        assert len(pairs) == min(n, m)
        got = sum(cost[i, j] for i, j in pairs)
        assert got == min_assignment_cost(cost)


def test_assign_scale_invariance():
    rng = np.random.default_rng(44)
    for _ in range(20):
        cost = rng.integers(0, 50, size=(5, 5)).astype(float)
        base = hungarian_assign(cost)
        scaled = hungarian_assign(cost * 7.5)
        assert sum(cost[i, j] for i, j in scaled) == \
            sum(cost[i, j] for i, j in base)


def test_assign_empty_and_nonfinite():
    assert hungarian_assign(np.zeros((0, 3))) == []
    with pytest.raises(ValueError):
        hungarian_assign(np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# lifecycle

def _prop(cx, cy, r, k=0):
    return SlzProposal(cx, cy, r, k)


def test_birth_after_mu2_consecutive_frames():
    cfg = TrackerConfig(mu2=3)
    mgr = TrackManager(cfg)
    for k in range(2):
        events = mgr.step([_prop(1.0, 1.0, 2.0, k)])
        assert events.births == [] and mgr.tracks == []
    events = mgr.step([_prop(1.0, 1.0, 2.0, 2)])
    assert len(events.births) == 1
    assert len(mgr.tracks) == 1


def test_death_after_mu1_plus_one_misses():
    cfg = TrackerConfig(mu1=4, mu2=1)
    mgr = TrackManager(cfg)
    mgr.step([_prop(0.0, 0.0, 2.0)])
    assert len(mgr.tracks) == 1
    tid = mgr.tracks[0].id
    for k in range(cfg.mu1):
        mgr.step([])
        assert len(mgr.tracks) == 1
    events = mgr.step([])
    assert events.deaths == [tid]
    assert mgr.tracks == []


def test_track_converges_to_offset_proposal():
    cfg = TrackerConfig(mu2=1, r_meas=np.eye(3) * 0.01)
    mgr = TrackManager(cfg)
    mgr.step([_prop(0.0, 0.0, 2.0)])
    residuals = []
    for k in range(1, 25):
        mgr.step([_prop(0.1, 0.0, 2.0, k)])
        residuals.append(abs(mgr.tracks[0].mean[0] - 0.1))
    # the inferred velocity can overshoot briefly, so require decay over a
    # window rather than per step
    assert residuals[0] < 0.1
    assert residuals[-1] < 0.001
    assert max(residuals[15:]) < max(residuals[:5])


def test_live_track_count_capped_at_n_p():
    cfg = TrackerConfig(mu2=1, n_p=3)
    mgr = TrackManager(cfg)
    props = [_prop(10.0 * i, 0.0, 1.0) for i in range(6)]
    for k in range(4):
        mgr.step(props)
        assert len(mgr.tracks) <= 3


def test_track_ids_never_reused():
    cfg = TrackerConfig(mu1=1, mu2=1)
    mgr = TrackManager(cfg)
    mgr.step([_prop(0.0, 0.0, 2.0)])
    first_id = mgr.tracks[0].id
    mgr.step([])
    mgr.step([])
    assert mgr.tracks == []
    mgr.step([_prop(0.0, 0.0, 2.0)])
    assert mgr.tracks[0].id > first_id


def test_matched_track_resets_misses_and_ages():
    cfg = TrackerConfig(mu2=1, mu1=5)
    mgr = TrackManager(cfg)
    mgr.step([_prop(0.0, 0.0, 2.0)])
    mgr.step([])
    assert mgr.tracks[0].misses == 1
    mgr.step([_prop(0.0, 0.0, 2.0)])
    assert mgr.tracks[0].misses == 0
    assert mgr.tracks[0].age == 3


def test_interrupted_pool_candidate_is_dropped():
    cfg = TrackerConfig(mu2=3)
    mgr = TrackManager(cfg)
    mgr.step([_prop(1.0, 1.0, 2.0)])
    mgr.step([])  # candidate misses a frame: counter resets
    mgr.step([_prop(1.0, 1.0, 2.0)])
    events = mgr.step([_prop(1.0, 1.0, 2.0)])
    assert events.births == []  # only two consecutive appearances so far
    events = mgr.step([_prop(1.0, 1.0, 2.0)])
    assert len(events.births) == 1
