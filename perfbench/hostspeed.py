"""Host speed, measured with a fixed reference kernel.

The measuring machine is a share of a busy host, and its speed drifts by a
third and more over tens of seconds while CPU time keeps tracking wall
time. The timed loop therefore runs this module's kernel before every job
and after the last one. The kernel is the benchmark's own code, never
slzsim's, so no change to the program moves it: image-sized numpy
arithmetic like that of render and occupancy, and a distance transform and
dilation of a plane-sized grid like those of extraction. Its inputs come
from a fixed seed, not the workload seed.

``factor(samples)`` is ``REFERENCE_S`` over the median kernel time of a
run. Multiplying a run's host times by it puts them on the scale of a host
on which the kernel takes ``REFERENCE_S``; a host that runs the kernel
slowly gets a factor below 1.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

# kernel time on the 2-vCPU Xeon VM the baseline was measured on, taken
# when that host ran fast; it only sets the scale of the reported times
REFERENCE_S = 0.010
REPEATS = 3          # one sample is the fastest of this many kernel runs

_rng = np.random.default_rng(20220328)
_IMAGE = _rng.random((480, 640))
_GRID = _rng.random((200, 200)) > 0.03


def _kernel() -> None:
    for _ in range(4):
        blob = np.exp(-_IMAGE * _IMAGE)
        int((blob > 0.5).sum())
        np.sort(_IMAGE[0])
    ndimage.distance_transform_edt(_GRID)
    ndimage.binary_dilation(_GRID, iterations=2)


def sample() -> float:
    """Seconds for one kernel run: the fastest of ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(samples: list[float]) -> float:
    """Scale for a run's host times, from its kernel samples."""
    return REFERENCE_S / statistics.median(samples)
