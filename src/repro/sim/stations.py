"""Service stations: FIFO queues in front of one or more servers.

An MDS CPU, an OSD disk, and the journal device are all stations.  The
station tracks busy time and queue length so heartbeats can report CPU
utilisation and queue depth (the ``MDSs[i]["cpu"]`` and ``MDSs[i]["q"]``
metrics of paper Table 2).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable

import numpy as np

from .engine import (_COMPACT_EVERY_MASK, _COMPACT_MIN_HEAP, Completion,
                     EventHandle, SimEngine)
from .rng import ServiceTime


class Job:
    """One queued unit of work; ``started_at`` is set when service starts."""

    __slots__ = ("payload", "service", "completion", "enqueued_at",
                 "started_at")

    def __init__(self, payload: Any, service: float,
                 completion: Completion, enqueued_at: float) -> None:
        self.payload = payload
        self.service = service
        self.completion = completion
        self.enqueued_at = enqueued_at


class FifoStation:
    """An M/G/c-style FIFO service station.

    ``submit`` returns a :class:`Completion` that fires when the job's
    service finishes.  An optional ``executor`` callback runs at service
    completion (before the completion fires) -- this is where an MDS applies
    the operation to the namespace.
    """

    def __init__(self, engine: SimEngine, name: str,
                 rng: np.random.Generator,
                 servers: int = 1,
                 executor: Callable[[Any], Any] | None = None) -> None:
        if servers < 1:
            raise ValueError("need at least one server")
        self.engine = engine
        self.name = name
        self.rng = rng
        self.servers = servers
        self.executor = executor
        self._queue: deque[Job] = deque()
        self._busy_servers = 0
        self._paused = False
        #: Jobs in service -> their completion events, in start order.
        self._in_service: dict[Job, EventHandle] = {}
        # Accounting.
        self.busy_time = 0.0
        self.jobs_done = 0
        self.total_wait = 0.0
        self.total_service = 0.0
        self._last_window_mark = 0.0
        self._window_busy = 0.0

    # -- metrics ------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._busy_servers

    def utilization_since_mark(self) -> float:
        """Busy fraction since the last call to this method.

        Heartbeats call this every tick, yielding the windowed, noisy-ish
        CPU metric the paper's balancers consume.
        """
        now = self.engine.now
        window = now - self._last_window_mark
        busy = self._window_busy
        # Add partial busy time of still-running jobs.
        for job in self._in_service:
            busy += now - max(job.started_at, self._last_window_mark)
        self._last_window_mark = now
        self._window_busy = 0.0
        if window <= 0:
            return 1.0 if self._busy_servers else 0.0
        return min(1.0, busy / (window * self.servers))

    def mean_wait(self) -> float:
        return self.total_wait / self.jobs_done if self.jobs_done else 0.0

    # -- control ------------------------------------------------------------
    def pause(self) -> None:
        """Stop dispatching new jobs (used while a subtree is frozen)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._dispatch()

    def drain(self) -> list[Job]:
        """Abandon all queued and in-service jobs (a server crash).

        Busy time already accrued is accounted; the jobs' completions are
        left unfired -- the caller decides whether to requeue, redirect or
        cancel each one.  Returns the abandoned jobs, in-service first.
        """
        now = self.engine.now
        abandoned: list[Job] = []
        for job, handle in self._in_service.items():
            handle.cancel()
            started = job.started_at
            span = now - started
            self.busy_time += span
            self._window_busy += now - max(started, self._last_window_mark)
            abandoned.append(job)
        self._in_service.clear()
        self._busy_servers = 0
        abandoned.extend(self._queue)
        self._queue.clear()
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
        completion = self.engine.completion() if want_completion else None
        job = Job(payload, service_time, completion, self.engine.now)
        if self._queue or self._paused or self._busy_servers >= self.servers:
            # Queued jobs start from _finish or resume(); an idle, running
            # station never holds a queue, so FIFO order is kept.
            self._queue.append(job)
        else:
            self._start(job)
        return completion

    # -- internals ---------------------------------------------------------
    def _dispatch(self) -> None:
        while (not self._paused and self._queue
               and self._busy_servers < self.servers):
            job = self._queue.popleft()
            self._start(job)

    def _start(self, job: Job) -> None:
        engine = self.engine
        now = engine.now
        self._busy_servers += 1
        job.started_at = now
        self.total_wait += now - job.enqueued_at
        # engine.schedule() inlined (service times are never negative);
        # the bookkeeping matches schedule() exactly.
        time = now + job.service
        seq = next(engine._seq)
        handle = EventHandle.__new__(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.fn = self._finish
        handle.args = (job,)
        handle.cancelled = False
        heappush(engine._heap, (time, seq, handle))
        engine._scheduled += 1
        if (engine._scheduled & _COMPACT_EVERY_MASK) == 0 \
                and len(engine._heap) >= _COMPACT_MIN_HEAP:
            engine._maybe_compact()
        self._in_service[job] = handle

    def _finish(self, job: Job) -> None:
        del self._in_service[job]
        now = self.engine.now
        started = job.started_at
        span = now - started
        self.busy_time += span
        mark = self._last_window_mark
        self._window_busy += now - (started if started >= mark else mark)
        self.total_service += span
        self.jobs_done += 1
        self._busy_servers -= 1
        result: Any = None
        if self.executor is not None:
            result = self.executor(job.payload)
        completion = job.completion
        if completion is not None and not completion._done:
            completion.succeed(result)
        if self._queue and not self._paused \
                and self._busy_servers < self.servers:
            self._dispatch()
