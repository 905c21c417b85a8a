"""Single-server FIFO service stations.

An MDS CPU, an OSD disk, and the journal device are all stations.  The
station tracks busy time and queue length so heartbeats can report CPU
utilisation and queue depth (the ``MDSs[i]["cpu"]`` and ``MDSs[i]["q"]``
metrics of paper Table 2).

A job's finish time is fixed when it is submitted, by Lindley's
recursion: it starts at ``max(arrival, previous job's finish)`` and
finishes one service time later.  So each job is one deque entry and one
finish event, scheduled at submission; the deque head is the job in
service.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable

import numpy as np

from .engine import Completion, SimEngine
from .rng import ServiceTime


class FifoStation:
    """A single-server (M/G/1-style) FIFO service station.

    ``submit`` returns a :class:`Completion` that fires when the job's
    service finishes.  An optional ``executor`` callback runs at service
    completion (before the completion fires) -- this is where an MDS applies
    the operation to the namespace.
    """

    def __init__(self, engine: SimEngine, name: str,
                 rng: np.random.Generator,
                 executor: Callable[[Any], Any] | None = None) -> None:
        self.engine = engine
        self.name = name
        self.rng = rng
        self.executor = executor
        #: ``(payload, completion, enqueued_at, started_at, epoch)`` per
        #: unfinished job, in FIFO order; the head is in service.  The
        #: entry is also its finish event's argument tuple.
        self._jobs: deque[tuple[Any, Completion | None, float, float, int]] \
            = deque()
        #: When the last submitted job finishes.
        self._free_at = 0.0
        #: Bumped by ``drain``; finish events of an older epoch are stale.
        self._epoch = 0
        # Accounting.
        self.busy_time = 0.0
        self.jobs_done = 0
        self.total_wait = 0.0
        self._last_window_mark = 0.0
        self._window_busy = 0.0

    # -- metrics ------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return max(0, len(self._jobs) - 1)

    @property
    def in_service(self) -> int:
        return 1 if self._jobs else 0

    def utilization_since_mark(self) -> float:
        """Busy fraction since the last call to this method.

        Heartbeats call this every tick, yielding the windowed, noisy-ish
        CPU metric the paper's balancers consume.
        """
        now = self.engine.now
        mark = self._last_window_mark
        window = now - mark
        busy = self._window_busy
        if self._jobs:
            # Add the partial busy time of the job in service.
            busy += now - max(self._jobs[0][3], mark)
        self._last_window_mark = now
        self._window_busy = 0.0
        if window <= 0:
            return 1.0 if self._jobs else 0.0
        return min(1.0, busy / window)

    def mean_wait(self) -> float:
        return self.total_wait / self.jobs_done if self.jobs_done else 0.0

    # -- control ------------------------------------------------------------
    def drain(self) -> list[tuple[Any, Completion | None]]:
        """Abandon all queued and in-service jobs (a server crash).

        Busy time already accrued is accounted; the jobs' completions are
        left unfired -- the caller decides whether to requeue, redirect or
        cancel each one.  Returns ``(payload, completion)`` of the
        abandoned jobs, in-service first.
        """
        jobs = self._jobs
        if not jobs:
            return []
        now = self.engine.now
        started = jobs[0][3]
        self.busy_time += now - started
        self._window_busy += now - max(started, self._last_window_mark)
        abandoned = [(job[0], job[1]) for job in jobs]
        jobs.clear()
        self._epoch += 1
        self._free_at = now
        return abandoned

    # -- submission ------------------------------------------------------
    def submit(self, payload: Any,
               service: float | ServiceTime | None = None,
               want_completion: bool = True) -> Completion | None:
        """Queue *payload*; the returned completion fires with the executor's
        return value once service completes.

        Callers that discard the completion (fire-and-forget work such as
        request intake and background flushes) pass ``want_completion=False``
        to skip allocating it -- one Completion per metadata op otherwise.
        """
        if isinstance(service, ServiceTime):
            service_time = service.sample(self.rng)
        elif service is None:
            raise ValueError("service time required")
        else:
            service_time = float(service)
        engine = self.engine
        now = engine.now
        completion = Completion(engine) if want_completion else None
        free_at = self._free_at
        started = free_at if free_at > now else now
        finish = started + service_time
        self._free_at = finish
        job = (payload, completion, now, started, self._epoch)
        self._jobs.append(job)
        # engine.schedule() inlined: a finish time is never in the past.
        heappush(engine._heap, (finish, next(engine._seq), self._finish, job))
        return completion

    # -- internals ---------------------------------------------------------
    def _finish(self, payload: Any, completion: Completion | None,
                enqueued_at: float, started: float, epoch: int) -> None:
        if epoch != self._epoch:
            return  # abandoned by drain()
        jobs = self._jobs
        jobs.popleft()
        if jobs:
            # The next job enters service now: count its wait here, as a
            # job that finds the station idle counts its wait (zero).
            head = jobs[0]
            self.total_wait += head[3] - head[2]
        now = self.engine.now
        self.busy_time += now - started
        mark = self._last_window_mark
        self._window_busy += now - (started if started >= mark else mark)
        self.jobs_done += 1
        result: Any = None
        if self.executor is not None:
            result = self.executor(payload)
        if completion is not None and not completion._done:
            completion.succeed(result)
