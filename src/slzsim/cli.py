"""Command-line entry point: run, batch, replay.

Configuration is a flat INI file; command-line flags override file values,
which override built-in defaults. Batch summaries are split into a
deterministic summary.csv / aggregate.csv pair and a wall-clock timings.csv
so identical invocations produce byte-identical summaries.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import fileio, metrics, render
from .density import OracleNoiseConfig
from .errors import ConfigError, MalformedFile, SlzSimError
from .geometry import CameraModel, HeadPlane, compose
from .slz import SlzConfig
from .tracking import TrackerConfig
from .world import (MissionLog, ScenarioConfig, default_camera,
                    default_tracker_config, nadir_camera_mount,
                    simulate_mission)

EXIT_OK = 0
EXIT_COLLISION = 2
EXIT_TIMEOUT = 3
EXIT_CONFIG = 64
EXIT_MALFORMED = 65
EXIT_SIMULATION = 70       # any other SlzSimError, e.g. a degenerate view
EXIT_IO = 74

SUMMARY_COLUMNS = ["seed", "outcome", "frames", "warning_avg", "danger_avg",
                   "slz_area_avg", "best_iou_avg", "nearest_person_avg"]


@dataclasses.dataclass
class RunConfig:
    scenario: ScenarioConfig
    cam: CameraModel
    plane: HeadPlane
    slz: SlzConfig
    tracker: TrackerConfig
    noise: OracleNoiseConfig
    cell_size: float
    margin: float
    out_dir: Path
    render: bool


def _load_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parser


def _get(parser, section, key, default, cast):
    if parser.has_option(section, key):
        try:
            return cast(parser.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return default


def build_run_config(args) -> RunConfig:
    ini = _load_ini(args.config)
    g = lambda sec, key, default, cast=float: _get(ini, sec, key, default, cast)

    seed = g("scenario", "seed", 0, int)
    if args.seed is not None:
        seed = args.seed
    frac_moving = g("scenario", "frac_moving", 0.0)
    if args.frac_moving is not None:
        frac_moving = args.frac_moving
    n_actors = g("scenario", "n_actors", None,
                 lambda s: None if s == "" else int(s))
    if args.actors is not None:
        n_actors = args.actors
    criterion = g("scenario", "criterion", "biggest", str)
    if args.criterion is not None:
        criterion = args.criterion

    try:
        scenario = ScenarioConfig(
            roi_side=g("scenario", "roi_side", 30.0),
            n_actors=n_actors,
            frac_moving=frac_moving,
            seed=seed,
            dt_sim=g("scenario", "dt_sim", 0.1),
            criterion=criterion,
            max_mission_time=g("scenario", "max_mission_time", 60.0),
            start_altitude=g("scenario", "start_altitude", 10.0),
            ceiling=g("scenario", "ceiling", 12.0),
            body_radius=g("scenario", "body_radius", 0.3),
            drone_radius=g("scenario", "drone_radius", 0.25),
            speed_xy=g("scenario", "speed_xy", 2.0),
            speed_z=g("scenario", "speed_z", 1.0),
        )
        default_cam = default_camera()
        cam = CameraModel(
            fx=g("camera", "fx", default_cam.fx),
            fy=g("camera", "fy", default_cam.fy),
            cx=g("camera", "cx", default_cam.cx),
            cy=g("camera", "cy", default_cam.cy),
            width=g("camera", "width", default_cam.width, int),
            height=g("camera", "height", default_cam.height, int),
        )
        plane = HeadPlane(h_h=g("plane", "h_h", 1.7))
        for name in ("start_altitude", "ceiling"):
            if getattr(scenario, name) <= plane.h_h:
                raise ValueError(f"{name} must be above the head plane "
                                 f"(h_h = {plane.h_h})")
        slz_cfg = SlzConfig(n_p=g("slz", "n_p", 10, int),
                            r0=g("slz", "r0", 1.0))
        cell_size = g("grid", "cell_size", 0.10)
        margin = g("grid", "margin", 1.0)
        base_tracker = default_tracker_config(scenario.dt_sim, cell_size)
        tracker = TrackerConfig(
            sigma_a=g("tracker", "sigma_a", base_tracker.sigma_a),
            r_meas=np.eye(3) * g("tracker", "r_meas", 0.25),
            dt=g("tracker", "dt", scenario.dt_sim),
            n_p=g("tracker", "n_p", base_tracker.n_p, int),
            iou_gate=g("tracker", "iou_gate", base_tracker.iou_gate),
            mu1=g("tracker", "mu1", base_tracker.mu1, int),
            mu2=g("tracker", "mu2", base_tracker.mu2, int),
            min_radius=g("tracker", "min_radius", base_tracker.min_radius),
        )
        noise = OracleNoiseConfig(
            sigma_px=g("noise", "sigma_px", 3.0),
            fp_rate=g("noise", "fp_rate", 0.0),
            fn_rate=g("noise", "fn_rate", 0.0),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = Path(args.out if args.out is not None
                   else g("output", "out_dir", "out", str))
    do_render = bool(args.render) or g("output", "render", False,
                                       lambda s: s.lower() in ("1", "true", "yes"))
    return RunConfig(scenario, cam, plane, slz_cfg, tracker, noise,
                     cell_size, margin, out_dir, do_render)


def _run_one(rc: RunConfig, seed: int, criterion: str | None = None,
             policy: str = "slz", frame_callback=None) -> MissionLog:
    scenario = dataclasses.replace(rc.scenario, seed=seed,
                                   criterion=criterion or rc.scenario.criterion)
    noise = dataclasses.replace(rc.noise, seed=seed)
    return simulate_mission(scenario, cam=rc.cam, plane=rc.plane,
                            slz_cfg=rc.slz, tracker_cfg=rc.tracker,
                            noise_cfg=noise, cell_size=rc.cell_size,
                            margin=rc.margin, policy=policy,
                            frame_callback=frame_callback)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _summary_row(log: MissionLog) -> list:
    rep = metrics.aggregate([log])
    return [log.seed, log.outcome, len(log.frames), rep.warning_avg,
            rep.danger_avg, rep.slz_area_avg, rep.best_iou_avg,
            rep.nearest_person_avg]


def cmd_run(args) -> int:
    rc = build_run_config(args)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    callback = None
    if rc.render:
        def callback(k, world, grid, proposals, tracks, target):
            if grid is None:
                return
            render.write_pgm(rc.out_dir / f"frame_{k:05d}_occ.pgm", grid.values)
            render.write_ppm(rc.out_dir / f"frame_{k:05d}.ppm",
                             render.render_frame(grid, proposals, tracks, target))
    log = _run_one(rc, rc.scenario.seed, frame_callback=callback)
    fileio.write_mission_log(rc.out_dir / f"mission_{rc.scenario.seed}.jsonl", log)
    print(f"seed {rc.scenario.seed}: {log.outcome} "
          f"after {len(log.frames)} frames")
    if log.outcome == "LandedSafe":
        return EXIT_OK
    if log.outcome == "Collision":
        return EXIT_COLLISION
    return EXIT_TIMEOUT


def cmd_batch(args) -> int:
    rc = build_run_config(args)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    if args.runs < 1:
        raise ConfigError("--runs must be at least 1")
    base = rc.scenario.seed
    logs = []
    for i in range(args.runs):
        logs.append(_run_one(rc, base + i))

    with open(rc.out_dir / "summary.csv", "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for log in logs:
            fh.write(",".join(_fmt_cell(v) for v in _summary_row(log)) + "\n")

    rep = metrics.aggregate(logs)
    with open(rc.out_dir / "aggregate.csv", "w") as fh:
        fh.write("metric,value\n")
        for key in ("success_rate", "warning_avg", "warning_std", "danger_avg",
                    "danger_std", "slz_area_avg", "best_iou_avg",
                    "nearest_person_avg", "n_missions", "n_frames"):
            fh.write(f"{key},{_fmt_cell(getattr(rep, key))}\n")

    # wall-clock timings are non-deterministic and live in a sidecar file
    with open(rc.out_dir / "timings.csv", "w") as fh:
        fh.write("seed,exec_time_avg,exec_time_max,exec_time_min\n")
        for log in logs:
            r = metrics.aggregate([log])
            fh.write(f"{log.seed},{_fmt_cell(r.exec_time_avg)},"
                     f"{_fmt_cell(r.exec_time_max)},{_fmt_cell(r.exec_time_min)}\n")

    print(f"{args.runs} missions: success_rate={rep.success_rate:.3f}")
    return EXIT_OK


def cmd_replay(args) -> int:
    rc = build_run_config(args)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    frames = fileio.load_annotations(args.annotations)
    body_poses = fileio.load_poses(args.poses)
    missing = next((fid for fid, _ in frames if fid not in body_poses), None)
    if missing is not None:
        raise MalformedFile(f"{args.poses}: no pose for annotated frame {missing}")
    mount = nadir_camera_mount()
    poses = {fid: compose(mount, t) for fid, t in body_poses.items()}
    rows, rep = metrics.replay_annotations(
        frames, poses, rc.cam, rc.plane, slz_cfg=rc.slz,
        tracker_cfg=rc.tracker, noise_cfg=rc.noise,
        criterion=rc.scenario.criterion, cell_size=rc.cell_size,
        margin=rc.margin)

    with open(rc.out_dir / "replay_frames.csv", "w") as fh:
        fh.write("frame_id,n_heads,n_proposals,warning,danger,"
                 "slz_area,best_iou,exec_time\n")
        for r in rows:
            fh.write(",".join(_fmt_cell(v) for v in
                              (r.frame_id, r.n_heads, r.n_proposals, r.warning,
                               r.danger, r.slz_area, r.best_iou,
                               r.exec_time)) + "\n")
    with open(rc.out_dir / "replay_summary.csv", "w") as fh:
        fh.write("metric,value\n")
        fh.write(f"n_frames,{rep.n_frames}\n")
        for key in ("warning_avg", "warning_std", "danger_avg", "danger_std",
                    "slz_area_avg", "best_iou_avg", "exec_time_avg",
                    "exec_time_max", "exec_time_min"):
            fh.write(f"{key},{_fmt_cell(getattr(rep, key))}\n")
    if not rows:
        print("replay: no frames in annotation stream")
    else:
        print(f"replay: {len(rows)} frames, warning_avg={rep.warning_avg:.3f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError (exit 64)
    instead of SystemExit(2), which would read as a collision."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slzsim",
        description="Safe-landing-zone pipeline simulator and evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--criterion", choices=("biggest", "oldest"),
                       default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--frac-moving", dest="frac_moving", type=float,
                       default=None)
        p.add_argument("--actors", type=int, default=None)
        p.add_argument("--render", action="store_true")

    p_run = sub.add_parser("run", help="simulate one mission")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="seeded batch evaluation")
    common(p_batch)
    p_batch.add_argument("--runs", type=int, default=100)
    p_batch.set_defaults(func=cmd_batch)

    p_replay = sub.add_parser("replay", help="replay head annotations")
    common(p_replay)
    p_replay.add_argument("annotations", help="HEADS v1 annotation file")
    p_replay.add_argument("poses", help="POSE v1 camera pose file")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedFile as exc:
        print(f"malformed file: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except SlzSimError as exc:
        print(f"simulation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
