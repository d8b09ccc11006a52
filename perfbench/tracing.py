"""Spans for the traced benchmark run, recorded from outside the package.

The tracer installs wrappers around the public functions of each slzsim
module. A wrapper goes into the namespace of the module that *calls* the
function: callers bind names at import time, so ``slzsim.world`` holds its
own reference to ``extract_slz`` and patching ``slzsim.slz`` would miss it.

Every span records its parent, so a call nested inside another traced call
(``extract_slz`` inside ``ground_truth_slz``) counts once in self time.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import slzsim.cli
import slzsim.fileio
import slzsim.metrics
import slzsim.tracking
import slzsim.world
from workloads import percentile

# Layer names, in the order the per-layer metrics are reported.
LAYERS = ("density", "geometry", "slz", "tracking", "metrics", "world",
          "fileio", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    frame: int | None
    counts: dict | None = None


class Tracer:
    """Collects nested spans for one workload in one thread."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._frame: int | None = None

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._frame))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``count(args, result)`` may return a dict of counts for the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx].counts = count(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_mission(self, owner, attr: str) -> None:
        """Wrap ``simulate_mission`` so that each frame gets a span.

        A frame span runs from one ``frame_callback`` call to the next, the
        first one from mission start, which is how the untraced run times
        frames. The caller's own callback still runs, outside frame spans.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, frame_callback=None, **kwargs):
            mission = self.open("world.mission")
            self._frame = 0
            current = [self.open("world.frame")]

            def on_frame(*cb_args):
                self.close(current[0])
                if frame_callback is not None:
                    frame_callback(*cb_args)
                self._frame += 1
                current[0] = self.open("world.frame")

            try:
                return original(*args, frame_callback=on_frame, **kwargs)
            finally:
                # the span opened after the last callback holds only the
                # terminal checks; it is not a frame
                self.spans[current[0]].name = "world.exit"
                self.close(current[0])
                self._frame = None
                self.close(mission)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced call site of the slzsim package."""
        world, metrics = slzsim.world, slzsim.metrics
        cli, fileio = slzsim.cli, slzsim.fileio

        def heads(args, result):
            return {"heads": len(args[0])}

        def occupied(args, result):
            return {"occupied": float(np.mean(result.values == 0))}

        def cells(args, result):
            return {"cells": result.rows * result.cols}

        def proposals(args, result):
            return {"proposals": len(result)}

        def step_events(args, result):
            return {"proposals": len(args[1]), "births": len(result.births),
                    "deaths": len(result.deaths),
                    "matches": len(result.matches)}

        for caller in (world, metrics):
            self.wrap(caller, "render_oracle_density", "density.render", heads)
            self.wrap(caller, "occupancy_from_density", "density.occupancy",
                      occupied)
            self.wrap(caller, "grid_footprint", "geometry.footprint", cells)
            self.wrap(caller, "sample_occupancy_to_plane", "geometry.sample")
            self.wrap(caller, "extract_slz", "slz.extract", proposals)
        # a method is looked up on the class at each call
        self.wrap(slzsim.tracking.TrackManager, "step", "tracking.step",
                  step_events)
        # world, cli and the benchmark reach these through the module object
        self.wrap(metrics, "ground_truth_slz", "metrics.ground_truth")
        self.wrap(metrics, "aggregate", "metrics.aggregate")
        self.wrap(metrics, "replay_annotations", "metrics.replay")
        self.wrap(world, "observe", "world.observe")
        self.wrap(world, "spawn_scenario", "world.spawn")
        self.wrap_mission(world, "simulate_mission")
        self.wrap_mission(cli, "simulate_mission")
        self.wrap(fileio, "write_mission_log", "fileio.write_log",
                  lambda args, result: {"bytes": os.path.getsize(args[0])})
        self.wrap(fileio, "load_mission_log", "fileio.load_log")
        self.wrap(fileio, "load_annotations", "fileio.load_annotations")
        self.wrap(fileio, "load_poses", "fileio.load_poses")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - t0,
                    "end": s.end - t0, "parent": s.parent,
                    "workload": self.workload, "frame": s.frame,
                    "counts": s.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover.

    One thread runs every span, so children never overlap and their
    coverage is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], traced_s: float, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` passes that took
    ``traced_s`` seconds of host time in slzsim calls.

    ``*_ms`` are per-call durations (p50 and p95), ``.share`` is a layer's
    self time as a share of ``traced_s``, and counts are per pass over the
    workload's input set, so they repeat exactly for a given seed.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ms(name, use_self=False):
        return [(selfs[i] if use_self else spans[i].end - spans[i].start) * 1e3
                for i in by_name.get(name, [])]

    def calls(name):
        return len(by_name.get(name, [])) / passes

    def total(name, key):
        return sum(spans[i].counts[key] for i in by_name.get(name, []))

    def mean(name, key):
        idx = by_name.get(name, [])
        return total(name, key) / len(idx) if idx else 0.0

    out: dict[str, tuple[float, str]] = {}

    def timing(key, vals):
        out[f"{key}.p50"] = (percentile(vals, 50), "ms")
        out[f"{key}.p95"] = (percentile(vals, 95), "ms")

    timing("density.render_ms", ms("density.render"))
    out["density.heads"] = (mean("density.render", "heads"), "count")
    timing("density.occupancy_ms", ms("density.occupancy"))
    out["density.occupied_frac"] = (mean("density.occupancy", "occupied"),
                                    "fraction")
    timing("geometry.footprint_ms", ms("geometry.footprint"))
    timing("geometry.sample_ms", ms("geometry.sample"))
    out["geometry.sample.calls"] = (calls("geometry.sample"), "count")
    out["geometry.cells"] = (mean("geometry.footprint", "cells"), "count")
    timing("slz.extract_ms", ms("slz.extract"))
    out["slz.extract.calls"] = (calls("slz.extract"), "count")
    out["slz.proposals"] = (mean("slz.extract", "proposals"), "count")
    timing("tracking.step_ms", ms("tracking.step"))
    for key in ("births", "deaths", "matches"):
        out[f"tracking.{key}"] = (total("tracking.step", key) / passes, "count")
    fed = total("tracking.step", "proposals")
    out["tracking.match_ratio"] = (
        total("tracking.step", "matches") / fed if fed else 0.0, "ratio")
    timing("metrics.ground_truth_ms", ms("metrics.ground_truth"))
    out["metrics.ground_truth.calls"] = (calls("metrics.ground_truth"),
                                         "count")
    timing("metrics.aggregate_ms", ms("metrics.aggregate"))
    timing("world.observe_ms", ms("world.observe"))
    timing("world.spawn_ms", ms("world.spawn"))
    timing("world.self_ms", ms("world.frame", use_self=True))
    timing("fileio.write_log_ms", ms("fileio.write_log"))
    timing("fileio.load_log_ms", ms("fileio.load_log"))
    out["fileio.log_bytes"] = (mean("fileio.write_log", "bytes"), "bytes")
    timing("fileio.load_annotations_ms", ms("fileio.load_annotations"))
    timing("fileio.load_poses_ms", ms("fileio.load_poses"))
    timing("cli.self_ms", ms("cli.main", use_self=True))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[s.name.split(".", 1)[0]] += t
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / traced_s, "fraction")
    return out
