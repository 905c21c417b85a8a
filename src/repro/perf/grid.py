"""Forked grid runner: cells share the simulation up to the first heartbeat.

Cells that differ *only* in policy run the same events until the
balancer is first consulted at the first heartbeat
(``config.heartbeat_interval``).  So each group of such cells is one
forked task: it builds the cluster, runs every event before that barrier
(``SimulatedCluster.run_shared_prefix``) and forks its cells, which
inherit the run copy-on-write, inject their policies and finish.
Records are byte-identical to unsplit runs
(``tests/integration/test_grid_equivalence.py``).

At most *jobs* simulations run at once.  With fewer groups than *jobs*,
the slots are shared out and a task with *k* slots runs up to *k* cells
at a time off its one prefix.  A task of one cell runs its cold path.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import tempfile
import time
import traceback
from contextlib import suppress
from functools import partial
from typing import IO, Any, Callable, Hashable, Sequence


def fork_supported() -> bool:
    """True where the forked grid runner can run."""
    return hasattr(os, "fork") and sys.platform != "win32"


def run_forked(cells: Sequence[Any], *,
               key: Callable[[Any], Hashable],
               begin: Callable[[Any], Any],
               finish: Callable[[Any, Any], Any],
               cold: Callable[[Any], Any],
               jobs: int = 1) -> list[Any]:
    """Run every cell in a forked child; results in *cells* order.

    ``key(cell)`` groups cells whose runs agree up to the first
    heartbeat.  ``begin(cell)`` returns a cluster with the workload
    begun and no policy; ``finish(cluster, cell)`` injects the cell's
    policy, runs to completion and returns its result.  ``cold(cell)``
    runs a lone cell from scratch.
    """
    groups: dict[Hashable, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(key(cell), []).append(index)
    tasks = list(groups.values())
    jobs = max(1, jobs)
    # Slots of task k: they add up to jobs when there are fewer tasks.
    slots = [max(1, (jobs + k) // len(tasks)) for k in range(len(tasks))]

    def run_task(task: list[int], slots: int) -> list[Any]:
        if len(task) == 1:
            return [cold(cells[task[0]])]
        cluster = begin(cells[task[0]])
        cluster.run_shared_prefix(cluster.config.heartbeat_interval)
        return _fork_all([partial(finish, cluster, cells[index])
                          for index in task], slots)

    done = _fork_all([partial(run_task, task, width)
                      for task, width in zip(tasks, slots)],
                     min(jobs, len(tasks)))
    results = {index: result for task, task_results in zip(tasks, done)
               for index, result in zip(task, task_results)}
    return [results[index] for index in range(len(cells))]


def _fork_all(thunks: Sequence[Callable[[], Any]], width: int) -> list[Any]:
    """Run each thunk in a forked child, at most *width* at once.

    A child's exception is re-raised with its traceback.  On any failure
    the live children get SIGTERM, which unwinds them so they stop their
    own children, and are reaped first.  Only these pids are waited on.
    """
    results: list[Any] = [None] * len(thunks)
    live: dict[int, tuple[int, IO[bytes]]] = {}  # pid -> (index, result)
    try:
        for index, thunk in enumerate(thunks):
            while len(live) >= width:
                _reap_one(live, results)
            result = tempfile.TemporaryFile()
            live[_spawn(thunk, result)] = (index, result)
        while live:
            _reap_one(live, results)
    except BaseException:
        for pid in live:
            with suppress(OSError):
                os.kill(pid, signal.SIGTERM)
        for pid, (_index, result) in live.items():
            with suppress(OSError):
                os.waitpid(pid, 0)
            result.close()
        raise
    return results


def _reap_one(live: dict[int, tuple[int, IO[bytes]]],
              results: list[Any]) -> None:
    """Wait for one pid in *live* to exit; store its result."""
    while True:
        for pid, (index, result) in live.items():
            if os.waitpid(pid, os.WNOHANG)[0]:
                del live[pid]
                results[index] = _collect(pid, result)
                return
        time.sleep(0.005)


def _spawn(thunk: Callable[[], Any], result: IO[bytes]) -> int:
    """Fork a child that pickles ``thunk()`` (or its traceback) to *result*."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
        try:
            payload = ("ok", thunk())
        except BaseException:  # noqa: BLE001 - report, do not unwind
            payload = ("err", traceback.format_exc())
        pickle.dump(payload, result, protocol=pickle.HIGHEST_PROTOCOL)
        result.flush()
        status = 0
    finally:
        # No interpreter teardown: no duplicated atexit or flush effects.
        os._exit(status)


def _collect(pid: int, result: IO[bytes]) -> Any:
    """The result the reaped child *pid* left; re-raise its error."""
    with result:
        result.seek(0)
        try:
            outcome, value = pickle.load(result)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(
                f"grid child {pid} died without a result") from None
    if outcome == "err":
        raise RuntimeError(f"grid child {pid} failed:\n{value}")
    return value
