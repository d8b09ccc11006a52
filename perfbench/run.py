#!/usr/bin/env python3
"""slzsim benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload static --seed 1 --seconds 25 --trace 0

Run from anywhere; it uses the slzsim sources in ``src/`` next to this
directory and writes only under ``.perfbench/`` there. With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. End-to-end times are scaled to a reference host speed
(see hostspeed.py). The lines before it list every metric with its unit,
the host-speed factor and the unscaled times, the correctness checks, the
SHA-256 of the deterministic outputs and the environment. See README.md
in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One thread per BLAS/OpenMP pool; set before numpy is first imported.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_RUNS = 5
SETUP_CODE = ("import slzsim.cli as c; "
              "c.build_run_config(c.build_parser().parse_args(['run'])); "
              "print('ready', flush=True)")
SUCCESS_THRESHOLD = 0.95   # criterion 7, checked on static


def measure_setup(env: dict) -> float:
    """Median time from starting a fresh interpreter until slzsim.cli is
    imported and the default run config is built."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                                stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit or None,
            "threads": {k: os.environ.get(k) for k in sorted(THREAD_ENV)},
            "processes": 1}


class Runner:
    """Runs a workload's jobs in a cycle and checks repeats."""

    def __init__(self, workload, speed_sample):
        self.workload = workload
        self.speed_sample = speed_sample
        self.speed: list[float] = []   # host-speed kernel samples
        self.first: dict[int, str] = {}
        self.results = []      # (job index, JobResult)
        self.problems: list[str] = []

    def run_job(self, i: int, tracer=None):
        """Run job ``i``, traced if a tracer is given, then check it
        untraced."""
        job = self.workload.jobs[i]
        if tracer is not None:
            tracer.install()
        try:
            res = self.workload.run(job)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not res.failed:
            self.workload.check(job, res)
        res.output = None
        self.problems += res.problems
        if res.digest:
            if i not in self.first:
                self.first[i] = res.digest
            elif self.first[i] != res.digest:
                self.problems.append(f"job {i}: outputs differ on repeat")
        self.results.append((i, res))
        return res

    def loop(self, seconds: float, min_jobs: int) -> list:
        """Run jobs cyclically for about ``seconds``: stop once ``min_jobs``
        ran and the next job would end nearer after the deadline than
        before it. A full garbage collection and a host-speed sample,
        both untimed, precede every job; one more sample follows the
        last."""
        n = len(self.workload.jobs)
        done, walls = [], []
        t_start = time.perf_counter()
        while True:
            self.speed.append(self.speed_sample())
            elapsed = time.perf_counter() - t_start
            if len(done) >= min_jobs and \
                    elapsed + statistics.fmean(walls) / 2 >= seconds:
                return done
            i = len(done) % n
            gc.collect()
            t0 = time.perf_counter()
            done.append((i, self.run_job(i)))
            walls.append(time.perf_counter() - t0)

    def trace_loop(self, tracer, seconds: float) -> tuple[list, list]:
        """Run each of the workload's traced jobs twice in a row, once
        traced and once not, in whole cycles, for about ``seconds``. The
        order alternates, so a drift in host speed does not bias the
        tracing overhead."""
        n = self.workload.TRACED_JOBS
        traced, untraced = [], []
        t_start = time.perf_counter()
        while True:
            for i in range(n):
                first = len(traced) % 2 == 0
                for on in (first, not first):
                    gc.collect()
                    res = self.run_job(i, tracer if on else None)
                    (traced if on else untraced).append((i, res))
            elapsed = time.perf_counter() - t_start
            if elapsed * (1 + n / len(traced) / 2) >= seconds:
                return traced, untraced

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.first):
            h.update(self.first[i].encode())
        return h.hexdigest()


def _fps(results) -> float:
    host = sum(r.host_s for r in results)
    return sum(r.frames for r in results) / host if host else 0.0


def job_means(done: list) -> tuple[float, list, list]:
    """Frames per second, frame times and mission times with each distinct
    job counted once, however often it ran. A job's host time is the mean
    over its executions, and its frame and mission times are means taken
    element-wise: frame ``k`` of a mission is the same computation on every
    repeat. So the mix of frames is the seed's, not one that depends on how
    many repeats the host's speed allowed."""
    import numpy as np

    execs: dict[int, list] = {}
    for i, r in done:
        if not r.failed:
            execs.setdefault(i, []).append(r)
    frames = host = 0.0
    frame_ms, mission_s = [], []
    for reps in execs.values():
        frames += reps[0].frames
        host += statistics.fmean(r.host_s for r in reps)
        for attr, out in (("frame_ms", frame_ms), ("mission_s", mission_s)):
            n = min(len(getattr(r, attr)) for r in reps)
            out += list(np.mean([getattr(r, attr)[:n] for r in reps], axis=0))
    return (frames / host if host else 0.0), frame_ms, mission_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slzsim" / "__init__.py").is_file():
        print(f"benchmark: no slzsim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import hostspeed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_s = None if args.trace else measure_setup(env)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    # warm every layer's first-call paths outside timing
    workloads.world.simulate_mission(
        workloads.world.ScenarioConfig(seed=args.seed, max_mission_time=0.5))

    runner = Runner(workload, hostspeed.sample)
    info = {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.workload)
        traced, untraced = runner.trace_loop(tracer, args.seconds)
        tracer.write(OUT / f"spans-{tag}.jsonl")
        traced_fps = _fps([r for _, r in traced])
        untraced_fps = _fps([r for _, r in untraced])
        layer = tracing.layer_metrics(
            tracer.spans, sum(r.host_s for _, r in traced),
            len(traced) // workload.TRACED_JOBS)
        layer["trace.frames_per_s.traced"] = (traced_fps, "1/s")
        layer["trace.frames_per_s.untraced"] = (untraced_fps, "1/s")
        layer["trace.overhead"] = (
            (untraced_fps / traced_fps - 1) * 100 if traced_fps else 0.0, "%")
        reported = layer
    else:
        fps, frame_ms, mission_s = job_means(
            runner.loop(args.seconds, len(workload.jobs) + 1))
        pct = workloads.percentile
        # host times as measured, then scaled to the reference host speed
        raw = {"frames_per_s": (fps, "1/s"),
               "frame_ms.p50": (pct(frame_ms, 50), "ms"),
               "frame_ms.p99": (pct(frame_ms, 99), "ms"),
               "mission_s.p50": (pct(mission_s, 50), "s")}
        speed = hostspeed.factor(runner.speed)
        info["host_speed_factor"] = (speed, "ratio")
        info.update({f"raw.{k}": v for k, v in raw.items()})
        reported = {
            "setup_s": (setup_s, "s"),
            **{k: (v / speed if u == "1/s" else v * speed, u)
               for k, (v, u) in raw.items()},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }

    results = runner.results
    attempted = sum(r.attempted for _, r in results)
    failed = sum(r.failed for _, r in results)
    # success over distinct missions: a repeat lands exactly as its first run
    distinct = {}
    for i, r in results:
        distinct.setdefault(i, r)
    missions = sum(r.missions for r in distinct.values())
    success = (sum(r.landed for r in distinct.values()) / missions
               if missions else None)
    problems = list(runner.problems)
    if args.workload == "static" and (success or 0.0) < SUCCESS_THRESHOLD:
        problems.append(f"success_rate {success} below {SUCCESS_THRESHOLD}")
    info.update({"success_rate": (success, "fraction"),
                 "fail_rate": (failed / attempted, "fraction"),
                 "jobs": (len(results), "count")})
    digest = runner.digest()
    env_record = environment()

    for name, (value, unit) in {**reported, **info}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit}")
    for p in problems:
        print(f"check failed: {p}")
    print(f"checks: {'ok' if not problems else 'FAILED'}")
    print(f"outputs sha256: {digest}")
    print("environment: " + json.dumps(env_record, sort_keys=True))

    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in reported.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "info": {k: v for k, (v, _) in info.items()},
              "problems": problems, "outputs_sha256": digest,
              "jobs": [{"job": i, "host_s": r.host_s, "frames": r.frames}
                       for i, r in results],
              "environment": env_record}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
