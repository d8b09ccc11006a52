"""The benchmark's three workloads.

A workload turns the benchmark seed into a fixed list of jobs. One job is
one mission (``static``) or one CLI command (``dynamic-batch``,
``replay-dense``). The timed loop runs the jobs in order and starts over
until time is up. The first job always runs again, so the outputs of a
repeat can be checked against the first execution. The traced run uses
the first ``TRACED_JOBS`` jobs only, so its counts repeat exactly.

A workload's ``run(job)`` makes the timed slzsim calls; only it runs with
the traced run's wrappers installed. ``check(job, result)`` then verifies
and hashes the outputs, untimed and untraced. Jobs call only slzsim's
public API and CLI entry point, and always through the module object
(``world.simulate_mission``), so that the wrappers see them. Any input
files are written before timing starts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slzsim import cli, density, fileio, geometry, metrics, slz, world


@dataclass
class JobResult:
    """What one job produced: host time inside slzsim, counts, checks."""

    host_s: float = 0.0
    frames: int = 0
    attempted: int = 0
    failed: int = 0
    missions: int = 0
    landed: int = 0
    mission_s: list = field(default_factory=list)
    frame_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digest: str = ""
    output: object = None      # what run() hands to check(), then dropped


def percentile(vals, q) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    return float(np.percentile(vals, q)) if len(vals) else 0.0


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def _summary_line(seed, rep: metrics.MetricsReport, log) -> str:
    """One summary.csv-equivalent row."""
    return ",".join(_fmt(v) for v in (
        seed, log.outcome, len(log.frames), rep.warning_avg, rep.danger_avg,
        rep.slz_area_avg, rep.best_iou_avg, rep.nearest_person_avg))


def heads_inside(heads, proposals) -> int:
    """Heads strictly inside any of the circles ``proposals`` (the pipeline
    safety invariant requires 0)."""
    if not len(proposals) or not len(heads):
        return 0
    heads = np.asarray(heads, dtype=float)
    props = np.asarray(proposals, dtype=float)
    d2 = ((heads[None, :, 0] - props[:, 0, None]) ** 2
          + (heads[None, :, 1] - props[:, 1, None]) ** 2)
    return int((d2 < props[:, 2, None] ** 2).sum())


def actors_inside_proposals(log) -> int:
    """Actors strictly inside an emitted proposal, over all frames."""
    return sum(heads_inside(f.actors, f.proposals) for f in log.frames)


def _call_cli(argv: list[str], res: JobResult) -> int | None:
    """Run ``slzsim`` in-process; returns its exit code, or None if it
    raised. The command's own stdout is dropped."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    res.host_s += time.perf_counter() - t0
    return rc


class Static:
    """Seeded missions with the default ScenarioConfig, each log written
    and read back as ``slzsim run`` writes it."""

    name = "static"
    MISSIONS = 11         # enough distinct crowds that the seed barely matters
    TRACED_JOBS = 5

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.jobs = [rng.randrange(2**31) for _ in range(self.MISSIONS)]
        self.workdir = workdir

    def run(self, mission_seed: int) -> JobResult:
        res = JobResult(attempted=1, missions=1)
        path = self.workdir / f"mission_{mission_seed}.jsonl"
        marks: list[float] = []
        t0 = time.perf_counter()
        try:
            log = world.simulate_mission(
                world.ScenarioConfig(seed=mission_seed),
                frame_callback=lambda *_: marks.append(time.perf_counter()))
            fileio.write_mission_log(path, log)
            t1 = time.perf_counter()
            res.output = fileio.load_mission_log(path)
            res.host_s = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            res.failed = 1
            res.problems.append(f"mission {mission_seed} raised")
            return res
        res.mission_s.append(t1 - t0)
        res.frame_ms = list(np.diff([t0, *marks]) * 1e3)
        res.frames = len(res.output.frames)
        if len(marks) != res.frames:
            res.problems.append(f"mission {mission_seed}: {len(marks)} frame "
                                f"callbacks for {res.frames} frames")
        return res

    def check(self, mission_seed: int, res: JobResult) -> None:
        loaded = res.output
        res.landed = int(loaded.outcome == "LandedSafe")
        inside = actors_inside_proposals(loaded)
        if inside:
            res.failed = 1
            res.problems.append(f"mission {mission_seed}: {inside} actors "
                                f"inside emitted proposals")
        line = _summary_line(mission_seed, metrics.aggregate([loaded]), loaded)
        res.digest = hashlib.sha256(line.encode()).hexdigest()


class DynamicBatch:
    """``slzsim batch --frac-moving 0.2 --criterion oldest`` over windows of
    consecutive mission seeds."""

    name = "dynamic-batch"
    # missions per command: more than one, so summary.csv and aggregate.csv
    # cover several logs; few enough that all COMMANDS and a repeat of the
    # first fit in one run
    RUNS = 2
    COMMANDS = 6
    TRACED_JOBS = 2

    def __init__(self, seed: int, workdir: Path):
        base = random.Random(seed).randrange(2**31 - self.RUNS * self.COMMANDS)
        self.jobs = [base + i * self.RUNS for i in range(self.COMMANDS)]
        self.out = workdir / "batch"

    def run(self, first_seed: int) -> JobResult:
        res = JobResult(attempted=self.RUNS, missions=self.RUNS)
        shutil.rmtree(self.out, ignore_errors=True)
        rc = _call_cli(["batch", "--frac-moving", "0.2", "--criterion",
                        "oldest", "--runs", str(self.RUNS), "--seed",
                        str(first_seed), "--out", str(self.out)], res)
        if rc != 0:
            res.failed = self.RUNS
            res.problems.append(f"batch --seed {first_seed} exited {rc}")
        return res

    def check(self, first_seed: int, res: JobResult) -> None:
        summary = (self.out / "summary.csv").read_bytes()
        aggregate = (self.out / "aggregate.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(summary.decode())))
        if [int(r["seed"]) for r in rows] != \
                list(range(first_seed, first_seed + self.RUNS)):
            res.problems.append(f"batch --seed {first_seed}: summary.csv "
                                f"rows do not match the seeds run")
        res.frames = sum(int(r["frames"]) for r in rows)
        res.landed = sum(r["outcome"] == "LandedSafe" for r in rows)
        res.mission_s = [res.host_s / self.RUNS]
        res.frame_ms = [res.host_s / max(res.frames, 1) * 1e3]
        res.digest = hashlib.sha256(summary + aggregate).hexdigest()


class ReplayDense:
    """``slzsim replay`` of a dense walking crowd under a slow orbit.

    Every replayed frame is fully occupied and yields no proposal, so the
    replay's own outputs do not depend on the seed. The check therefore
    also runs a few *probe frames* through the public functions the replay
    calls: a sparse subset of the frame's heads is projected, rendered,
    turned into occupancy, sampled onto the head plane and extracted, and
    the results are checked and hashed.
    """

    name = "replay-dense"
    FRAMES = 120
    SIDE = 30              # ROI side in metres; one head per square metre
    ALTITUDE = 12.0
    ORBIT_RADIUS = 3.0     # keeps the footprint inside the ROI
    ORBIT_PERIOD = 60.0    # seconds per revolution at 10 Hz frames
    PROBE_FRAMES = (0, FRAMES // 2, FRAMES - 1)
    PROBE_STRIDE = 9       # every 9th head: free ground between heads
    TRACED_JOBS = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.heads = workdir / "heads.csv"
        self.poses = workdir / "poses.csv"
        self.out = workdir / "replay"
        self.probe_heads = self._write_inputs(np.random.default_rng(seed))
        self.jobs = [seed]
        self.rc = cli.build_run_config(cli.build_parser().parse_args(
            ["replay", str(self.heads), str(self.poses), "--seed", str(seed)]))
        mount = world.nadir_camera_mount()
        body = fileio.load_poses(self.poses)
        self.probe_poses = {k: geometry.compose(mount, body[k])
                            for k in self.PROBE_FRAMES}

    def _write_inputs(self, rng: np.random.Generator) -> dict:
        """Write the HEADS and POSE files; return the probe frames' heads."""
        side = self.SIDE
        cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)),
                         axis=-1).reshape(-1, 2) + 0.5
        # jitter of +-0.2 m on a 1 m lattice keeps heads 0.6 m apart
        heads = cells + rng.uniform(-0.2, 0.2, cells.shape)
        frames = []
        for k in range(self.FRAMES):
            frames.append((k, heads))
            # the world's 10 Hz lattice walk: 0.2 m * {-1, 0, 1} per axis
            step = 0.2 * rng.integers(-1, 2, heads.shape)
            heads = np.clip(heads + step, 0.0, side)
        fileio.write_annotations(self.heads, frames)

        phase = rng.uniform(0, 2 * np.pi)
        poses = []
        for k in range(self.FRAMES):
            a = phase + 2 * np.pi * k * 0.1 / self.ORBIT_PERIOD
            body = np.array([side / 2 + self.ORBIT_RADIUS * np.cos(a),
                             side / 2 + self.ORBIT_RADIUS * np.sin(a),
                             self.ALTITUDE])
            # world-to-body with zero yaw: identity rotation
            poses.append((k, tuple(-body), (0.0, 0.0, 0.0, 1.0)))
        fileio.write_poses(self.poses, poses)
        return {k: frames[k][1][::self.PROBE_STRIDE]
                for k in self.PROBE_FRAMES}

    def run(self, seed: int) -> JobResult:
        res = JobResult(attempted=self.FRAMES)
        shutil.rmtree(self.out, ignore_errors=True)
        rc = _call_cli(["replay", str(self.heads), str(self.poses), "--seed",
                        str(seed), "--out", str(self.out)], res)
        if rc != 0:
            res.failed = self.FRAMES
            res.problems.append(f"replay exited {rc}")
        return res

    def check(self, seed: int, res: JobResult) -> None:
        with open(self.out / "replay_frames.csv") as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        if [int(r[0]) for r in rows] != list(range(self.FRAMES)):
            res.problems.append(f"replay_frames.csv has {len(rows)} rows "
                                f"for {self.FRAMES} frames")
        keep = [i for i, name in enumerate(header) if name != "exec_time"]
        digest = hashlib.sha256()
        for r in [header, *rows]:
            digest.update((",".join(r[i] for i in keep) + "\n").encode())
        with open(self.out / "replay_summary.csv") as fh:
            for line in fh:
                if not line.startswith("exec_time"):
                    digest.update(line.encode())
        for k in self.PROBE_FRAMES:
            grid, proposals = self._probe(k, res.problems)
            digest.update(grid.values.tobytes())
            digest.update(repr(proposals).encode())
        res.frames = len(rows)
        res.mission_s = [res.host_s]
        res.frame_ms = [res.host_s / max(res.frames, 1) * 1e3]
        res.digest = digest.hexdigest()

    def _probe(self, k: int, problems: list) -> tuple:
        """Run probe frame ``k`` through projection, render, occupancy,
        plane sampling and extraction; append any broken invariant to
        ``problems``. Returns the head-plane grid and the proposals."""
        rc, heads, w2c = self.rc, self.probe_heads[k], self.probe_poses[k]
        pixels = np.array([geometry.project_plane_point(
            (x, y, rc.plane.h_h), w2c, rc.cam)[:2] for x, y in heads])
        occ = density.occupancy_from_density(density.render_oracle_density(
            pixels, rc.noise, rc.cam.width, rc.cam.height))
        grid = geometry.sample_occupancy_to_plane(
            occ, geometry.grid_footprint(rc.cam, w2c, rc.plane, rc.cell_size,
                                         rc.margin),
            w2c, rc.cam, rc.plane)
        proposals = [(p.cx, p.cy, p.radius)
                     for p in slz.extract_slz(grid, rc.slz, k)]

        u, v = np.floor(pixels).astype(int).T
        seen = (u >= 0) & (u < occ.width) & (v >= 0) & (v < occ.height)
        j = np.round((heads[:, 0] - grid.origin_x) / grid.cell_size).astype(int)
        i = np.round((heads[:, 1] - grid.origin_y) / grid.cell_size).astype(int)
        on_grid = (i >= 0) & (i < grid.rows) & (j >= 0) & (j < grid.cols)
        if not seen.any() or (occ.values[v[seen], u[seen]] != 0).any():
            problems.append(f"probe frame {k}: a head pixel is not occupied")
        if not on_grid.any() or (grid.values[i[on_grid], j[on_grid]] != 0).any():
            problems.append(f"probe frame {k}: a head's plane cell is free")
        if not (grid.values == 255).any():
            problems.append(f"probe frame {k}: no free plane cell")
        inside = heads_inside(heads, proposals)
        if inside:
            problems.append(f"probe frame {k}: {inside} heads inside proposals")
        return grid, proposals


WORKLOADS = {w.name: w for w in (Static, DynamicBatch, ReplayDense)}
