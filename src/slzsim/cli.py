"""Command-line entry point: run, batch, replay.

Configuration is an INI file whose sections map onto the config objects,
one key per field; command-line flags override file values, which override
the objects' defaults. Batch summaries are split into a
deterministic summary.csv / aggregate.csv pair and a wall-clock timings.csv
so identical invocations produce byte-identical summaries.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from pathlib import Path

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
    cell_size: float = 0.10
    margin: float = 1.0
    out_dir: Path = Path("out")
    render: bool = False

    def __post_init__(self):
        if not 0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be finite and positive")
        if not 0 <= self.margin < math.inf:
            raise ValueError("margin must be finite and non-negative")


def _load_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}]: unknown section")
    return parser


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# declared field type (the first of a union) -> parser of its INI text
_PARSERS = {"float": float, "int": int, "str": str, "bool": _parse_bool,
            "Path": Path}


def _section(ini, name, base, keys=None, **flags):
    """`base` with the keys of INI section `name` replaced, then `flags`.

    Each key must name a field of `base` (one of `keys`, if given) and is
    parsed by the field's declared type; an empty value reads as None where
    the type allows it. The section is consumed, so any left in `ini` at
    the end is unknown. The constructor of `base` validates the result.
    """
    types = {f.name: f.type.split(" | ") for f in dataclasses.fields(base)
             if keys is None or f.name in keys}
    values = {}
    for key, text in ini.items(name) if ini.has_section(name) else ():
        if key not in types:
            raise ConfigError(f"[{name}] {key}: unknown key")
        try:
            values[key] = (None if text == "" and "None" in types[key]
                           else _PARSERS[types[key][0]](text))
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
    ini.remove_section(name)
    try:
        return dataclasses.replace(base, **{**values, **flags})
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def build_run_config(args) -> RunConfig:
    ini = _load_ini(args.config)
    flags = {"seed": args.seed, "frac_moving": args.frac_moving,
             "n_actors": args.actors, "criterion": args.criterion}
    scenario = _section(ini, "scenario", ScenarioConfig(),
                        **{k: v for k, v in flags.items() if v is not None})
    plane = _section(ini, "plane", HeadPlane())
    for name in ("start_altitude", "ceiling"):
        if getattr(scenario, name) <= plane.h_h:
            raise ConfigError(f"[scenario] {name} must be above the head "
                              f"plane (h_h = {plane.h_h})")
    rc = RunConfig(
        scenario, _section(ini, "camera", default_camera()), plane,
        _section(ini, "slz", SlzConfig()),
        None,  # the tracker: its defaults depend on the grid, read below
        _section(ini, "noise", OracleNoiseConfig(seed=scenario.seed),
                 keys=("sigma_px", "fp_rate", "fn_rate")))
    rc = _section(ini, "grid", rc, keys=("cell_size", "margin"))
    output = {"out_dir": Path(args.out)} if args.out is not None else {}
    if args.render:
        output["render"] = True
    rc = _section(ini, "output", rc, keys=("out_dir", "render"), **output)
    rc.tracker = _section(ini, "tracker",
                          default_tracker_config(scenario.dt_sim, rc.cell_size))
    if ini.sections():
        name = ini.sections()[0]
        raise ConfigError(f"[{name}]: unknown section "
                          f"(keys: {', '.join(ini.options(name))})")
    return rc


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


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # no affinity call on this platform
        return os.cpu_count() or 1


def cmd_batch(args) -> int:
    # imported here so that `run` and `replay` do not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    rc = build_run_config(args)
    if args.runs < 1:
        raise ConfigError("--runs must be at least 1")
    # fork shares the imported numpy and scipy; a spawned worker would
    # import them again, which costs more than a short batch. slzsim starts
    # no threads of its own, and a pool with a fork context starts all its
    # workers before its manager thread.
    forkable = "fork" in multiprocessing.get_all_start_methods()
    workers = min(args.runs, _usable_cores()) if forkable else 1
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    seeds = range(rc.scenario.seed, rc.scenario.seed + args.runs)
    # map() yields results in seed order, with or without a pool
    if workers == 1:
        logs = list(map(_run_one, [rc] * args.runs, seeds))
    else:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=ctx) as ex:
            logs = list(ex.map(_run_one, [rc] * args.runs, seeds))

    reps = [metrics.aggregate([log]) for log in logs]
    _write_csv(rc.out_dir / "summary.csv", SUMMARY_COLUMNS,
               [[log.seed, log.outcome, len(log.frames), r.warning_avg,
                 r.danger_avg, r.slz_area_avg, r.best_iou_avg,
                 r.nearest_person_avg] for log, r in zip(logs, reps)])
    rep = metrics.aggregate(logs)
    _write_csv(rc.out_dir / "aggregate.csv", ["metric", "value"],
               [[key, getattr(rep, key)] for key in (
                   "success_rate", "warning_avg", "warning_std", "danger_avg",
                   "danger_std", "slz_area_avg", "best_iou_avg",
                   "nearest_person_avg", "n_missions", "n_frames")])
    # wall-clock timings are non-deterministic and live in a sidecar file
    _write_csv(rc.out_dir / "timings.csv",
               ["seed", "exec_time_avg", "exec_time_max", "exec_time_min"],
               [[log.seed, r.exec_time_avg, r.exec_time_max, r.exec_time_min]
                for log, r in zip(logs, reps)])
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

    _write_csv(rc.out_dir / "replay_frames.csv",
               ["frame_id", "n_heads", "n_proposals", "warning", "danger",
                "slz_area", "best_iou", "exec_time"],
               [[r.frame_id, r.n_heads, r.n_proposals, r.warning, r.danger,
                 r.slz_area, r.best_iou, r.exec_time] for r in rows])
    _write_csv(rc.out_dir / "replay_summary.csv", ["metric", "value"],
               [[key, getattr(rep, key)] for key in (
                   "n_frames", "warning_avg", "warning_std", "danger_avg",
                   "danger_std", "slz_area_avg", "best_iou_avg",
                   "exec_time_avg", "exec_time_max", "exec_time_min")])
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
