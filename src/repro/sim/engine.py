"""The discrete-event engine: clock, event queue, process registry.

The queue has two lanes.  Zero-delay callbacks (``call_soon``, event
wakeups) go in a FIFO lane; everything else goes in a heap of
``(time, seq, handle)`` tuples.  :meth:`Engine.step` pops whichever head
is first by ``(time, seq)``, so callbacks run in exactly the order a
single heap ordered by ``(time, seq)`` would give them.  The lane is
already in that order: its handles are appended with the current time
and increasing sequence numbers, and the clock never runs backwards
while it holds any.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, LivelockError, SimulationError
from repro.obs.spans import ObsCollector
from repro.sim.events import Event, Timeout

__all__ = ["Engine", "Handle"]


class Handle:
    """A cancellable scheduled callback (returned by :meth:`Engine.schedule`)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True


class Engine:
    """Deterministic discrete-event scheduler.

    Time is a float in seconds starting at 0.  Callbacks scheduled for
    the same instant run in scheduling order, which (with single-shot
    events and deferred wakeups) makes every simulation replayable.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
        obs=None,
    ) -> None:
        self.now: float = 0.0
        #: Positive-delay callbacks as ``(time, seq, handle)``, a heap.
        self._heap: list[tuple[float, int, Handle]] = []
        #: Zero-delay callbacks as ``(time, seq, handle)``, in order.
        self._lane: deque[tuple[float, int, Handle]] = deque()
        self._seq = 0
        self._alive_processes: set = set()
        self._failed: list[BaseException] = []
        #: Observability collector (:mod:`repro.obs`).  ``obs`` may be
        #: ``None`` (inert), an :class:`~repro.obs.config.ObsConfig`,
        #: or a ready-made collector; sites guard emission with
        #: ``if engine.obs.enabled:``.
        self.obs = ObsCollector.attach(obs, clock=lambda: self.now)
        #: Progress-watchdog budgets: exceeding either raises
        #: :class:`LivelockError` from :meth:`run` instead of spinning
        #: forever (e.g. a retransmission loop that stops converging).
        self.max_events = max_events
        self.max_sim_time = max_sim_time
        #: Callbacks executed so far (cancelled handles don't count).
        self.events_executed = 0

    # -- scheduling ---------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        time = self.now + delay
        handle = Handle(time, seq, fn, args)
        if delay == 0:
            self._lane.append((time, seq, handle))
        else:
            heappush(self._heap, (time, seq, handle))
        return handle

    def call_soon(self, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` at the current instant, after the current
        callback completes (deferred, never re-entrant)."""
        self._seq = seq = self._seq + 1
        now = self.now
        handle = Handle(now, seq, fn, args)
        self._lane.append((now, seq, handle))
        return handle

    # -- waitable constructors ----------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    def timer(self, delay: float, value: Any = None) -> Event:
        """An :class:`Event` that succeeds after ``delay`` seconds —
        a Timeout usable inside :class:`AllOf`/:class:`AnyOf`."""
        event = Event(self, name=f"timer+{delay:g}")
        self.schedule(delay, event.succeed, value)
        return event

    # -- processes ----------------------------------------------------
    def process(
        self,
        gen: Generator | Callable[..., Generator],
        *args: Any,
        name: str = "",
        daemon: bool = False,
    ) -> "Process":  # noqa: F821
        """Spawn a process from a generator (or generator function).

        The process starts at the current instant (deferred first step).
        Daemon processes (service loops: DMA engine, progress engines)
        are excluded from deadlock detection and may outlive the run.
        """
        from repro.sim.process import Process

        if callable(gen) and not isinstance(gen, Generator):
            gen = gen(*args)
        elif args:
            raise SimulationError("args are only accepted with a generator function")
        return Process(self, gen, name=name, daemon=daemon)

    def _register(self, process) -> None:
        self._alive_processes.add(process)

    def _unregister(self, process) -> None:
        self._alive_processes.discard(process)

    def _record_failure(self, exc: BaseException) -> None:
        self._failed.append(exc)

    # -- main loop ----------------------------------------------------
    def _first(self) -> tuple[float, int, Handle]:
        """The queued entry ``step`` takes next (cancelled or not)."""
        lane, heap = self._lane, self._heap
        if lane and not (heap and heap[0] < lane[0]):
            return lane[0]
        return heap[0]

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False if none left."""
        lane, heap = self._lane, self._heap
        while lane or heap:
            if lane and not (heap and heap[0] < lane[0]):
                time, _, handle = lane.popleft()
            else:
                time, _, handle = heappop(heap)
            if handle.cancelled:
                continue
            if time < self.now - 1e-18:
                raise SimulationError("event queue corrupted: time went backwards")
            self.now = time
            handle.fn(*handle.args)
            self.events_executed += 1
            if self._failed:
                raise self._failed[0]
            return True
        return False

    def _progress_snapshot(self) -> dict[str, float]:
        """Per-process last-progress timestamps (watchdog diagnostics)."""
        return {
            (p.name or repr(p)): p.last_progress for p in self._alive_processes
        }

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
    ) -> float:
        """Run until the queue drains (or past ``until``).

        Raises :class:`DeadlockError` if the queue drains while processes
        are still parked on events, and re-raises the first uncaught
        exception from any process.  The progress watchdog —
        ``max_events`` / ``max_sim_time``, defaulting to the budgets
        given at construction — raises :class:`LivelockError` (with
        per-process last-progress timestamps) when a run keeps
        scheduling events without converging, so a diverging retry loop
        fails loudly instead of spinning forever.
        """
        if max_events is None:
            max_events = self.max_events
        if max_sim_time is None:
            max_sim_time = self.max_sim_time
        lane, heap = self._lane, self._heap
        while lane or heap:
            if until is not None and self._first()[0] > until:
                if lane:
                    # ``until`` lies before the clock: the lane joins the
                    # heap, which keeps the ``(time, seq)`` order.
                    heap.extend(lane)
                    heapify(heap)
                    lane.clear()
                self.now = until
                return self.now
            self.step()
            if max_events is not None and self.events_executed > max_events:
                raise LivelockError(
                    f"event budget of {max_events} exceeded",
                    self.events_executed,
                    self.now,
                    self._progress_snapshot(),
                )
            if max_sim_time is not None and self.now > max_sim_time:
                raise LivelockError(
                    f"sim-time budget of {max_sim_time:g}s exceeded",
                    self.events_executed,
                    self.now,
                    self._progress_snapshot(),
                )
        if self._alive_processes:
            blocked = sorted(p.name or repr(p) for p in self._alive_processes)
            raise DeadlockError(blocked)
        return self.now

    def run_processes(
        self,
        gens: Iterable[Generator | Callable[[], Generator]],
        until: Optional[float] = None,
    ) -> list[Any]:
        """Spawn one process per generator, run to completion, return
        their results in order."""
        procs = [self.process(g, name=f"proc-{i}") for i, g in enumerate(gens)]
        self.run(until=until)
        return [p.result for p in procs]
