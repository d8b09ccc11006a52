"""Annotation, pose, and mission-log file formats."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzsim import MalformedFile, ScenarioConfig, simulate_mission
from slzsim.fileio import (_load_annotation_lines, load_annotations,
                           load_mission_log, load_pose_rows, load_poses,
                           write_annotations, write_mission_log, write_poses)


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
    for body, fault in [("1,0,2.0\n", "expected 4 fields"),
                        ("1,0,2.0,x\n", "could not convert"),
                        ("1,0,2.0,3.0 # note\n", "could not convert"),
                        ("1.0,0,2.0,3.0\n", "invalid literal for int")]:
        path.write_text("HEADS v1\n0,0,1.0,1.0\n\n" + body)
        with pytest.raises(MalformedFile, match=f":4: {fault}"):
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
    meta = ('{"type": "meta", "seed": 1, "criterion": "oldest", '
            '"policy": "slz", "start_altitude": 10.0}\n')
    for text in ["[1, 2]\n", '{"type": "meta", "seed": 1}\n',
                 meta + '{"type": "frame", "index": 0}\n',
                 meta + '{"type": "outcome", "outcome": "Timeout"}\n']:
        path.write_text(text)
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


def test_annotations_refuse_float_frame_id_numpy_reads_with_a_warning(
        tmp_path, monkeypatch):
    # numpy 1.23-1.26 read "1.0" into an int64 field with a DeprecationWarning
    loadtxt = np.loadtxt

    def lenient_loadtxt(fh, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning)
        return loadtxt(io.StringIO(fh.read().replace("1.0,0,", "1,0,")),
                       **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    path = tmp_path / "h.csv"
    path.write_text("HEADS v1\n0,0,1.0,1.0\n1.0,0,2.0,3.0\n")
    with pytest.raises(MalformedFile, match=":3: invalid literal for int"):
        load_annotations(path)


# ---------------------------------------------------------------------------
# fuzzed contents: every loader fails with MalformedFile or not at all

@st.composite
def _mutated(draw, text: bytes) -> bytes:
    """``text`` with a few short spans replaced by random or telling bytes."""
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data[i:j] = draw(st.binary(max_size=8) | st.sampled_from(
            [b"", b",", b"\n", b" ", b"#", b"-", b"e", b"_", b"0", b"1.5",
             b"nan", b"{", b"}", b"[", b'"', b"\xff", b"\xc3"]))
    return bytes(data)


def _valid_files(tmp) -> dict:
    """One valid file of each format, as bytes."""
    rng = np.random.default_rng(5)
    write_annotations(tmp / "a", [(0, [(1.0, 2.0), (3.0, 4.0)]),
                                  (2, [(5.0, 6.0)])])
    write_poses(tmp / "p", _sample_poses(rng, n=3))
    write_mission_log(tmp / "m", simulate_mission(
        ScenarioConfig(seed=1, n_actors=2, max_mission_time=0.2)))
    return {name: (tmp / name).read_bytes() for name in "apm"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return tmp, _valid_files(tmp)


@pytest.mark.parametrize("name, loader", [("a", load_annotations),
                                          ("p", load_pose_rows),
                                          ("m", load_mission_log)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_malformed_file(fuzz_dir, name, loader, data):
    tmp, valid = fuzz_dir
    path = tmp / f"fuzzed_{name}"
    path.write_bytes(data.draw(st.binary(max_size=64) | _mutated(valid[name])))
    try:
        loader(path)
    except MalformedFile:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_annotation_array_parse_matches_line_parser(fuzz_dir, data):
    tmp, valid = fuzz_dir
    path = tmp / "fuzzed_lines"
    text = data.draw(_mutated(valid["a"]))
    path.write_bytes(text)
    results = []
    for load in (load_annotations, _load_annotation_lines):
        try:
            results.append([(fid, heads.shape, heads.tobytes())
                            for fid, heads in load(path)])
        except MalformedFile as exc:
            results.append(str(exc))
    if text.startswith(b"HEADS v1\n"):  # else only the header is read
        assert results[0] == results[1]
