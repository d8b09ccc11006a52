"""Kalman filtering, circle IoU, assignment, and the track lifecycle."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_kf_constants_are_built_once_and_read_only():
    cfg = TrackerConfig(dt=0.1, sigma_a=0.5)
    assert cfg.transition() is cfg.transition()
    assert cfg.process_noise() is cfg.process_noise()
    t = _track([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    before = kf_predict(t, cfg)
    for m in (cfg.transition(), cfg.process_noise()):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            m *= 2.0
    after = kf_predict(t, cfg)
    assert np.array_equal(after.mean, before.mean)
    assert np.array_equal(after.covariance, before.covariance)


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(sigma_a=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(iou_gate=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(r_meas=np.eye(2))
    cfg = TrackerConfig(r_meas=0.5)
    assert np.allclose(cfg.r_meas, 0.5 * np.eye(3))


def test_config_constants_stay_read_only_through_pickle():
    cfg = pickle.loads(pickle.dumps(TrackerConfig(r_meas=np.diag([1., 2., 3.]))))
    assert not cfg.transition().flags.writeable
    assert not cfg.process_noise().flags.writeable
    assert np.array_equal(cfg.r_meas, np.diag([1., 2., 3.]))


@pytest.mark.parametrize("field, value", [("sigma_a", float("nan")),
                                          ("sigma_a", float("inf")),
                                          ("dt", float("nan")),
                                          ("dt", -0.1),
                                          ("min_radius", float("nan")),
                                          ("min_radius", -1.0),
                                          ("r_meas", float("nan")),
                                          ("r_meas", np.diag([1.0, np.inf, 1.0])),
                                          ("n_p", 0)])
def test_config_rejects_bad_value(field, value):
    with pytest.raises(ValueError, match=field):
        TrackerConfig(**{field: value})


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


_coord = st.floats(-50.0, 50.0, allow_nan=False)
_radius = st.floats(1e-3, 50.0, allow_nan=False)
_circle = st.tuples(_coord, _coord, _radius)


@settings(max_examples=300, deadline=None)
@given(_circle, _circle)
# nearly concentric equal disks, whose closed form rounds above 1
@example((0.0, 0.0, 0.001), (0.0, 2.2250738585e-313, 0.001))
# centres so close that 2 d r underflows to 0
@example((0.0, 0.0, 0.25), (0.0, 5e-324, 0.25))
# a small disk on a large disk's rim
@example((0.0, 0.0, 46.0), (0.0, 46.0, 0.001))
def test_iou_symmetric_and_bounded_property(a, b):
    v = circle_iou(a, b)
    assert 0.0 <= v <= 1.0
    # the closed form is asymmetric in rounding: acos loses digits when a
    # small disk sits on a large disk's rim, where the IoU is near 0
    assert v == pytest.approx(circle_iou(b, a), rel=1e-9, abs=1e-9)


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


_stream_circle = st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0),
                           st.floats(0.2, 3.0))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.lists(st.lists(_stream_circle, max_size=6), max_size=25))
def test_track_ids_unique_and_live_tracks_capped(n_p, mu1, mu2, stream):
    mgr = TrackManager(TrackerConfig(n_p=n_p, mu1=mu1, mu2=mu2))
    born = set()
    for k, circles in enumerate(stream):
        events = mgr.step([_prop(*c, k) for c in circles])
        assert born.isdisjoint(events.births)
        assert len(set(events.births)) == len(events.births)
        born.update(events.births)
        ids = [t.id for t in mgr.tracks]
        assert len(ids) == len(set(ids)) <= n_p
        assert set(ids) <= born
        assert set(events.deaths) <= born and set(events.deaths).isdisjoint(ids)
