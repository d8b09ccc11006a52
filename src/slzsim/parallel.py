"""The process pool that `slzsim batch` and annotation replay share.

Its policy is worked out, not set: one worker per usable core, no more
workers than tasks, and no pool at all where that comes to one worker or
the platform cannot fork. There are no flags for it.
"""

from __future__ import annotations

import contextlib
import os


def _usable_cores() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def ordered_map(n_tasks: int):
    """Yield a ``map`` for ``n_tasks`` tasks whose results come in input
    order as they are ready: a forked process pool's, or the built-in one,
    which runs every task in this process. No worker outlives the block,
    and an error in it drops the tasks not yet started.
    """
    workers = min(n_tasks, _usable_cores())
    if workers > 1:
        # imported here so that commands that run in-process do not pay
        import multiprocessing
        # fork shares the imported numpy and scipy; a spawned worker would
        # import them again, which costs more than a short batch. slzsim
        # starts no threads of its own, and a pool with a fork context
        # starts all its workers before its manager thread.
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor
    ex = ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"))
    try:
        yield ex.map
    finally:
        ex.shutdown(cancel_futures=True)
