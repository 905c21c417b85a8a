"""Discrete-event simulation engine.

A single-threaded event heap with a simulated clock (seconds, float).
Components interact through three primitives:

* :meth:`SimEngine.schedule` -- run a callback after a delay,
* :class:`Completion` -- a one-shot future used for request/response flows,
* :meth:`SimEngine.process` -- drive a generator that ``yield``s delays or
  :class:`Completion` objects (a lightweight simpy-style coroutine), which is
  how multi-step operations such as migrations and rank restarts are
  written.  Closed-loop clients are plain reply callbacks instead.

The engine is deterministic: ties in time are broken by insertion order.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional


class CancelledError(Exception):
    """Raised inside a process whose awaited completion was cancelled."""


class EventHandle:
    """Handle to a scheduled callback; supports O(1) cancellation.

    The heap itself stores ``(time, seq, handle)`` tuples so ordering is
    resolved by C-level tuple comparison without calling back into Python;
    the handle carries the payload and the cancellation flag.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., None],
                 args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Completion:
    """A one-shot future: fires callbacks when succeeded or failed."""

    __slots__ = ("engine", "_done", "_value", "_error", "_callbacks")

    def __init__(self, engine: "SimEngine") -> None:
        self.engine = engine
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: list[Callable[["Completion"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("completion not done")
        if self._error is not None:
            raise self._error
        return self._value

    def succeed(self, value: Any = None) -> None:
        # _finish inlined: success is the per-op common case.
        if self._done:
            raise RuntimeError("completion already done")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def fail(self, error: BaseException) -> None:
        self._finish(None, error)

    def cancel(self) -> None:
        if not self._done:
            self.fail(CancelledError())

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        if self._done:
            raise RuntimeError("completion already done")
        self._done = True
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Completion"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)


class Process:
    """Drives a generator: ``yield <float delay>`` or ``yield <Completion>``.

    The generator resumes with the completion's value (or the exception is
    thrown into it).  The process itself is a completion that fires with the
    generator's return value.

    A running process can be *interrupted*: :meth:`interrupt` throws an
    exception into the generator at its current wait point (abandoning the
    wait), which is how multi-step operations like migrations are aborted
    when a fault strikes mid-flight.  Each wait holds a token; a resume
    whose token is stale (because an interrupt superseded it) is ignored,
    so interrupting never touches the completion being waited on -- other
    waiters see it fire normally.
    """

    __slots__ = ("engine", "generator", "name", "completion", "_wait_token")

    def __init__(self, engine: "SimEngine",
                 generator: Generator[Any, Any, Any], name: str = "") -> None:
        self.engine = engine
        self.generator = generator
        self.name = name
        self.completion = Completion(engine)
        self._wait_token = 0
        engine.schedule(0.0, self._resume_guard, 0, None, None)

    def interrupt(self, error: Optional[BaseException] = None) -> bool:
        """Throw *error* (default :class:`CancelledError`) into the process.

        Returns False if the process already finished.  The exception is
        delivered at the current wait point; whatever the process was
        waiting on is left untouched and its eventual firing is ignored.
        """
        if self.completion.done:
            return False
        self._wait_token += 1
        self.engine.schedule(0.0, self._resume_guard, self._wait_token,
                             None, error if error is not None
                             else CancelledError())
        return True

    def _resume_guard(self, token: int, value: Any,
                      error: Optional[BaseException]) -> None:
        if token != self._wait_token or self.completion.done:
            return  # superseded by an interrupt (or already finished)
        self._resume(value, error)

    def _resume(self, value: Any, error: Optional[BaseException]) -> None:
        try:
            if error is not None:
                yielded = self.generator.throw(error)
            else:
                yielded = self.generator.send(value)
        except StopIteration as stop:
            if not self.completion.done:
                self.completion.succeed(getattr(stop, "value", None))
            return
        except CancelledError:
            if not self.completion.done:
                self.completion.cancel()
            return
        except BaseException as exc:
            if exc is error:
                # The generator did not catch the injected error; fail the
                # process instead of crashing the whole event loop.
                if not self.completion.done:
                    self.completion.fail(exc)
                return
            raise
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        self._wait_token += 1
        token = self._wait_token
        if isinstance(yielded, Completion):
            # Resume synchronously when the completion fires instead of
            # bouncing through a zero-delay event.  Sim time is the same
            # either way; only exact-timestamp ties could order differently.
            def on_done(completion: Completion) -> None:
                if token != self._wait_token or self.completion._done:
                    return  # superseded by an interrupt
                error = completion._error
                self._resume(None if error is not None
                             else completion._value, error)

            yielded.add_callback(on_done)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise ValueError(f"negative delay {yielded}")
            self.engine.schedule(float(yielded), self._resume_guard, token,
                                 None, None)
        else:
            raise TypeError(
                f"process {self.name!r} yielded {type(yielded).__name__}; "
                "expected a delay or a Completion"
            )


#: Compaction is considered once every this many schedules...
_COMPACT_EVERY_MASK = 0x3FFF
#: ...and only bothers when the heap is at least this large.
_COMPACT_MIN_HEAP = 8192


class _PeriodicTimer:
    """Allocation-free periodic callback: one EventHandle, re-armed in place.

    ``engine.every`` used to build a fresh handle per tick; the heartbeat
    loop re-arms every 10 simulated seconds on every rank, so reusing the
    handle keeps the hot loop allocation-free.  Firing order is unchanged:
    each re-arm consumes the next sequence number exactly as a fresh
    ``schedule`` call would.
    """

    __slots__ = ("engine", "interval", "fn", "jitter", "stopped", "handle")

    def __init__(self, engine: "SimEngine", interval: float,
                 fn: Callable[[], None],
                 jitter: Callable[[], float] | None) -> None:
        self.engine = engine
        self.interval = interval
        self.fn = fn
        self.jitter = jitter
        self.stopped = False
        self.handle: EventHandle | None = None

    def tick(self) -> None:
        if self.stopped:
            return
        self.fn()
        delay = self.interval + (self.jitter() if self.jitter else 0.0)
        engine = self.engine
        handle = self.handle
        handle.time = engine.now + max(1e-9, delay)
        handle.seq = next(engine._seq)
        heappush(engine._heap, (handle.time, handle.seq, handle))

    def stop(self) -> None:
        self.stopped = True


class SimEngine:
    """The event loop: heap of (time, seq) ordered callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._executed = 0
        self._scheduled = 0

    # -- scheduling -----------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after *delay* simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        time = self.now + delay
        seq = next(self._seq)
        # EventHandle built without the __init__ frame: one handle per
        # event makes this the most-allocated object in the simulator.
        handle = EventHandle.__new__(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        heappush(self._heap, (time, seq, handle))
        self._scheduled += 1
        if (self._scheduled & _COMPACT_EVERY_MASK) == 0 \
                and len(self._heap) >= _COMPACT_MIN_HEAP:
            self._maybe_compact()
        return handle

    def _maybe_compact(self) -> None:
        """Rebuild the heap when cancelled entries dominate it.

        Cancelled handles are lazily deleted (skipped on pop); workloads
        that cancel a lot of far-future events (crash drains, abandoned
        deadlines) would otherwise keep dead entries resident.  Rebuilding
        preserves (time, seq) ordering exactly, so execution order -- and
        therefore results -- cannot change.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[2].cancelled]
        if len(live) * 2 <= len(heap):
            # In place: run loops hold a local alias to the heap list.
            heap[:] = live
            heapify(heap)

    def schedule_at(self, time: float, fn: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated *time*."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self.schedule(time - self.now, fn, *args)

    def every(self, interval: float, fn: Callable[..., None],
              *, start_after: float | None = None,
              jitter: Callable[[], float] | None = None) -> Callable[[], None]:
        """Run *fn* periodically.  Returns a stop function."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        timer = _PeriodicTimer(self, interval, fn, jitter)
        first = interval if start_after is None else start_after
        timer.handle = self.schedule(max(0.0, first), timer.tick)
        return timer.stop

    # -- futures & processes --------------------------------------------
    def completion(self) -> Completion:
        return Completion(self)

    def timeout(self, delay: float, value: Any = None) -> Completion:
        completion = Completion(self)
        self.schedule(delay, completion.succeed, value)
        return completion

    def process(self, generator: Generator[Any, Any, Any],
                name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------
    @property
    def pending(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    @property
    def events_executed(self) -> int:
        return self._executed

    def step(self) -> bool:
        """Execute the next event; returns False when the heap is empty."""
        heap = self._heap
        while heap:
            when, _seq, handle = heappop(heap)
            if handle.cancelled:
                continue
            if when < self.now - 1e-12:  # pragma: no cover - invariant
                raise RuntimeError("time went backwards")
            self.now = when
            self._executed += 1
            handle.fn(*handle.args)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= *time*; clock ends at *time*."""
        heap = self._heap
        while heap:
            entry = heap[0]
            handle = entry[2]
            if handle.cancelled:
                heappop(heap)
                continue
            when = entry[0]
            if when > time:
                break
            heappop(heap)
            self.now = when
            self._executed += 1
            handle.fn(*handle.args)
        self.now = max(self.now, time)

    def run_before(self, time: float,
                   completion: Optional[Completion] = None) -> None:
        """Run all events with timestamp strictly < *time* (a fork barrier).

        Unlike :meth:`run_until` this never executes an event *at* *time*
        and never advances the clock past the last executed event, so a
        run split as ``run_before(t)`` + ``run_until_complete(done)``
        executes exactly the same event sequence as an unsplit
        ``run_until_complete(done)`` -- the property the forked grid
        runner's shared prefix relies on.  When *completion* is given the loop also stops
        as soon as it fires (matching ``run_until_complete``, which stops
        mid-heap when its completion is done).
        """
        heap = self._heap
        while heap:
            if completion is not None and completion._done:
                return
            entry = heap[0]
            handle = entry[2]
            if handle.cancelled:
                heappop(heap)
                continue
            when = entry[0]
            if when >= time:
                return
            heappop(heap)
            self.now = when
            self._executed += 1
            handle.fn(*handle.args)

    def run(self, max_events: int | None = None) -> None:
        """Run until the heap drains (or *max_events* fire)."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely livelock"
                )

    def run_until_complete(self, completion: Completion,
                           max_events: int | None = None) -> Any:
        """Run until *completion* fires; returns its value."""
        heap = self._heap
        count = 0
        while not completion._done:
            while True:
                if not heap:
                    raise RuntimeError(
                        "event heap drained before completion fired"
                    )
                when, _seq, handle = heappop(heap)
                if not handle.cancelled:
                    break
            self.now = when
            self._executed += 1
            handle.fn(*handle.args)
            count += 1
            if max_events is not None and count >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely livelock"
                )
        return completion.value
