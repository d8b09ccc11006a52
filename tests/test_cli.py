"""End-to-end command-line behavior: run, batch, replay, exit codes."""

import dataclasses

import numpy as np
import pytest

from slzsim import aggregate
from slzsim.cli import build_parser, build_run_config, main
from slzsim.fileio import load_mission_log, write_annotations, write_poses


FAST = ["--actors", "0", "--seed", "1"]


def _ini(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return str(path)


def _write_replay_inputs(tmp_path, n_frames=10, monotone=True):
    ann = tmp_path / "heads.csv"
    poses = tmp_path / "poses.csv"
    frames = [(k, [(14.0, 15.0), (16.5, 15.5)]) for k in range(n_frames)]
    if not monotone and n_frames >= 2:
        frames[1] = (0, frames[1][1])
        frames[0] = (1, frames[0][1])
    write_annotations(ann, frames)
    # world-to-body of a level drone hovering at (15, 15, 8)
    write_poses(poses, [(k, (-15.0, -15.0, -8.0), (0.0, 0.0, 0.0, 1.0))
                        for k in range(n_frames)])
    return str(ann), str(poses)


# ---------------------------------------------------------------------------
# run

def test_run_zero_actors_exits_ok(tmp_path):
    out = tmp_path / "out"
    assert main(["run", *FAST, "--out", str(out)]) == 0
    log = load_mission_log(out / "mission_1.jsonl")
    assert log.outcome == "LandedSafe"


def test_run_missing_config_exits_64(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 64


def test_run_invalid_config_value_exits_64(tmp_path):
    cfg = _ini(tmp_path, "[scenario]\nfrac_moving = 2.0\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


BAD_INI = [("slz", "r0", "nan"), ("plane", "h_h", "nan"),
           ("camera", "fx", "nan"), ("noise", "fp_rate", "inf"),
           ("tracker", "sigma_a", "nan"), ("tracker", "r_meas", "nan"),
           ("tracker", "min_radius", "-1"), ("grid", "cell_size", "nan"),
           ("grid", "margin", "-5"), ("scenario", "body_radius", "-1"),
           ("noise", "sigma_px", "nan"), ("scenario", "speed_z", "-1"),
           ("output", "render", "maybe"), ("scenario", "roi_sid", "20"),
           ("scenari", "roi_side", "20")]


@pytest.mark.parametrize("section, key, value", BAD_INI)
def test_run_bad_ini_value_exits_64(tmp_path, capsys, section, key, value):
    cfg = _ini(tmp_path, f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", "--seed", "1", "--actors", "5", "--config", cfg,
                 "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"[{section}]" in err and key in err and "Traceback" not in err
    assert not out.exists()


# every accepted key, at its default value
ALL_DEFAULTS_INI = """
[scenario]
roi_side = 30.0
n_actors =
frac_moving = 0.0
seed = 0
dt_sim = 0.1
criterion = biggest
max_mission_time = 60.0
start_altitude = 10.0
ceiling = 12.0
body_radius = 0.3
drone_radius = 0.25
speed_xy = 2.0
speed_z = 1.0
abort_hold_time = 10.0

[camera]
fx = 128.0
fy = 128.0
cx = 128.0
cy = 128.0
width = 256
height = 256

[plane]
h_h = 1.7

[slz]
n_p = 10
r0 = 1.0

[grid]
cell_size = 0.10
margin = 1.0

[tracker]
sigma_a = 0.5
r_meas = 0.25
dt = 0.1
n_p = 10
iou_gate = 0.15
mu1 = 15
mu2 = 3
min_radius = 0.1

[noise]
sigma_px = 3.0
fp_rate = 0.0
fn_rate = 0.0

[output]
out_dir = out
render = false
"""


def _run_config(*argv):
    return build_run_config(build_parser().parse_args(["run", *argv]))


def _assert_same_fields(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_same_fields(x, y)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def test_ini_with_every_key_at_default_equals_no_file(tmp_path):
    cfg = _ini(tmp_path, ALL_DEFAULTS_INI)
    _assert_same_fields(_run_config("--config", cfg), _run_config())


def test_ini_abort_hold_time_reaches_scenario(tmp_path):
    cfg = _ini(tmp_path, "[scenario]\nabort_hold_time = 0.5\n")
    assert _run_config("--config", cfg).scenario.abort_hold_time == 0.5


def test_ini_noise_seed_is_not_a_key(tmp_path, capsys):
    cfg = _ini(tmp_path, "[noise]\nseed = 3\n")
    assert main(["run", *FAST, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 64
    assert "[noise] seed: unknown key" in capsys.readouterr().err


def test_run_render_emits_one_ppm_per_perception_frame(tmp_path):
    out = tmp_path / "out"
    cfg = _ini(tmp_path, "[scenario]\nn_actors = 5\nstart_altitude = 6\n"
                         "ceiling = 7\nmax_mission_time = 30\n")
    assert main(["run", "--config", cfg, "--seed", "2", "--render",
                 "--out", str(out)]) == 0
    log = load_mission_log(out / "mission_2.jsonl")
    n_perception = sum(1 for f in log.frames if f.exec_time is not None)
    assert len(list(out.glob("*.ppm"))) == n_perception
    assert len(list(out.glob("*_occ.pgm"))) == n_perception


@pytest.mark.parametrize("key", ["start_altitude", "ceiling"])
@pytest.mark.parametrize("value", ["1", "1.7"])
def test_run_at_or_below_head_plane_exits_64(tmp_path, capsys, key, value):
    cfg = _ini(tmp_path, f"[scenario]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, *FAST, "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert key in err and "head plane" in err and "Traceback" not in err
    assert not out.exists()  # rejected before any world is spawned


def test_run_placement_failure_exits_70(tmp_path, capsys):
    cfg = _ini(tmp_path, "[scenario]\nroi_side = 1\nn_actors = 50\n")
    assert main(["run", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 70
    err = capsys.readouterr().err
    assert "PlacementFailure" in err and "Traceback" not in err


def test_usage_error_exits_64_not_collision_code(capsys):
    assert main(["run", "--criterion", "nearest"]) == 64
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "invalid choice: 'nearest'" in err


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# batch

def test_batch_row_count_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["batch", *FAST, "--runs", "3", "--out", str(out)]) == 0
    summary = (a / "summary.csv").read_text().splitlines()
    assert len(summary) == 4  # header + one row per run
    assert summary[0].startswith("seed,outcome,frames,")
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()
    assert (a / "timings.csv").exists()


def test_batch_single_run_matches_run_metrics(tmp_path):
    run_out, batch_out = tmp_path / "r", tmp_path / "b"
    assert main(["run", *FAST, "--out", str(run_out)]) == 0
    assert main(["batch", *FAST, "--runs", "1", "--out", str(batch_out)]) == 0
    log = load_mission_log(run_out / "mission_1.jsonl")
    rep = aggregate([log])
    row = (batch_out / "summary.csv").read_text().splitlines()[1].split(",")
    assert int(row[0]) == 1 and row[1] == log.outcome
    assert int(row[2]) == len(log.frames)
    assert float(row[5] or 0) == pytest.approx(rep.slz_area_avg)
    assert float(row[7] or 0) == pytest.approx(rep.nearest_person_avg)


def test_batch_rejects_bad_runs(tmp_path):
    assert main(["batch", *FAST, "--runs", "0",
                 "--out", str(tmp_path / "o")]) == 64


def test_batch_bad_runs_leaves_no_output_dir(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["batch", *FAST, "--runs", "0", "--out", str(out)]) == 64
    assert "--runs" in capsys.readouterr().err
    assert not out.exists()  # rejected before the output directory is made


# ---------------------------------------------------------------------------
# replay

def test_replay_emits_one_row_per_frame(tmp_path):
    ann, poses = _write_replay_inputs(tmp_path, n_frames=10)
    out = tmp_path / "out"
    assert main(["replay", ann, poses, "--out", str(out)]) == 0
    rows = (out / "replay_frames.csv").read_text().splitlines()
    assert len(rows) == 11  # header + 10 frames
    summary = (out / "replay_summary.csv").read_text()
    assert "n_frames,10" in summary


def test_replay_non_monotone_exits_65(tmp_path):
    ann, poses = _write_replay_inputs(tmp_path, n_frames=4, monotone=False)
    assert main(["replay", ann, poses, "--out", str(tmp_path / "o")]) == 65


def test_replay_missing_pose_exits_65(tmp_path, capsys):
    ann, _ = _write_replay_inputs(tmp_path, n_frames=4)
    (tmp_path / "short").mkdir()
    _, poses = _write_replay_inputs(tmp_path / "short", n_frames=2)
    assert main(["replay", ann, poses, "--out", str(tmp_path / "o")]) == 65
    assert "no pose for annotated frame 2" in capsys.readouterr().err


def test_replay_empty_body_exits_ok(tmp_path):
    ann = tmp_path / "empty.csv"
    ann.write_text("HEADS v1\n")
    _, poses = _write_replay_inputs(tmp_path, n_frames=1)
    out = tmp_path / "out"
    assert main(["replay", str(ann), poses, "--out", str(out)]) == 0
    assert "n_frames,0" in (out / "replay_summary.csv").read_text()


# ---------------------------------------------------------------------------
# precedence: flag > file > built-in default

def test_seed_precedence(tmp_path):
    cfg = _ini(tmp_path, "[scenario]\nseed = 5\nn_actors = 0\n")
    out_flag = tmp_path / "flag"
    assert main(["run", "--config", cfg, "--seed", "7",
                 "--out", str(out_flag)]) == 0
    assert (out_flag / "mission_7.jsonl").exists()

    out_file = tmp_path / "file"
    assert main(["run", "--config", cfg, "--out", str(out_file)]) == 0
    assert (out_file / "mission_5.jsonl").exists()

    out_default = tmp_path / "default"
    assert main(["run", "--actors", "0", "--out", str(out_default)]) == 0
    assert (out_default / "mission_0.jsonl").exists()


def test_flag_overrides_file_value_of_same_key(tmp_path):
    cfg = _ini(tmp_path, "[scenario]\nn_actors = 50\nfrac_moving = 0.5\n"
                         "[output]\nout_dir = from_file\n")
    rc = _run_config("--config", cfg, "--actors", "3", "--frac-moving", "0.1",
                     "--out", str(tmp_path / "flag"), "--render")
    assert rc.scenario.n_actors == 3 and rc.scenario.frac_moving == 0.1
    assert rc.out_dir == tmp_path / "flag" and rc.render
    rc = _run_config("--config", cfg)
    assert rc.scenario.n_actors == 50 and rc.scenario.frac_moving == 0.5
    assert str(rc.out_dir) == "from_file" and not rc.render
