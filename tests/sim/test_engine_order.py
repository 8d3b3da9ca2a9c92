"""The two-lane engine runs callbacks in single-heap order.

``SingleHeapEngine`` below keeps every callback in one heap ordered by
``(time, seq)``, as the engine did before zero-delay callbacks got their
own FIFO lane.  Seeded programs (plain callbacks, then processes) run on
both engines and must log the same callbacks at the same instants,
including when they stop on a watchdog or a deadlock.
"""

import heapq
import random

import pytest

from repro.errors import DeadlockError, LivelockError, SimulationError
from repro.sim import AllOf, AnyOf, Engine, Handle


class SingleHeapEngine(Engine):
    """Reference queue: one heap of ``(time, seq, handle)``."""

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        handle = Handle(self.now + delay, self._seq, fn, args)
        heapq.heappush(self._heap, (handle.time, handle.seq, handle))
        return handle

    def call_soon(self, fn, *args):
        return self.schedule(0.0, fn, *args)

    def step(self):
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            if time < self.now - 1e-18:
                raise SimulationError("time went backwards")
            self.now = time
            handle.fn(*handle.args)
            self.events_executed += 1
            if self._failed:
                raise self._failed[0]
            return True
        return False


ENGINES = (Engine, SingleHeapEngine)

#: Dyadic delays make sums land on the same float instant; 1e-300 is a
#: positive delay that does not move the clock (``now + d == now``).
DELAYS = (0.0, 0.0, 0.0, 1e-300, 0.25, 0.5, 0.75, 1.0)


# ------------------------------------------------------------ callbacks
def _callbacks(eng, seed, log, budget=400):
    """Self-spawning callbacks that cancel random pending handles."""
    rng = random.Random(seed)
    pending = []

    def cb(name):
        log.append((name, eng.now.hex()))
        if len(log) >= budget:
            return
        for k in range(rng.choice((0, 1, 1, 2, 3))):
            delay = rng.choice(DELAYS)
            child = len(log) * 10 + k
            if delay == 0.0 and rng.random() < 0.5:
                pending.append(eng.call_soon(cb, child))
            else:
                pending.append(eng.schedule(delay, cb, child))
        if pending and rng.random() < 0.25:
            pending.pop(rng.randrange(len(pending))).cancel()

    for root in range(5):
        pending.append(eng.schedule(rng.choice(DELAYS), cb, -root))


def _drive(engine_cls, seed, plan):
    """Run the callback program under ``plan``: a list of ("step", n),
    ("soon", tag), ("until", t) and ("run", None) moves.  "soon" queues
    a zero-delay callback from outside the run."""
    eng = engine_cls()
    log = []
    _callbacks(eng, seed, log)
    for move, arg in plan:
        if move == "step":
            for _ in range(arg):
                eng.step()
        elif move == "soon":
            eng.call_soon(lambda tag=arg: log.append((tag, eng.now.hex())))
        elif move == "until":
            eng.run(until=arg)
        else:
            eng.run()
        log.append((move, eng.now.hex(), eng.events_executed))
    return log


@pytest.mark.parametrize("seed", range(10))
def test_callback_order_matches_single_heap(seed):
    plan = [("run", None)]
    logs = [_drive(cls, seed, plan) for cls in ENGINES]
    assert logs[0] == logs[1]
    assert len(logs[0]) > 100


@pytest.mark.parametrize("seed", range(10))
def test_run_until_with_a_busy_lane_matches_single_heap(seed):
    """Manual steps leave zero-delay callbacks queued when ``run(until)``
    starts.  One ``until`` lies before the clock and rewinds it; what is
    queued after that at the rewound instant still runs first."""
    plan = [
        ("step", 7), ("soon", "a"), ("until", 0.5), ("step", 3),
        ("soon", "b"), ("until", 0.5), ("until", 1.25), ("step", 5),
        ("soon", "c"), ("until", 0.75), ("soon", "d"), ("step", 4),
        ("until", 2.0), ("run", None),
    ]
    logs = [_drive(cls, seed, plan) for cls in ENGINES]
    assert logs[0] == logs[1]


def test_positive_delay_at_the_same_instant_runs_in_seq_order():
    """At t=1.0 a heap handle scheduled at t=0.5 runs before a zero-delay
    handle scheduled at t=1.0: same instant, so ``seq`` decides."""
    for cls in ENGINES:
        eng = cls()
        seen = []

        def at_half():
            eng.schedule(0.5, seen.append, "heap")  # due at 1.0
            eng.schedule(1e-300, seen.append, "tiny")  # due at 0.5, in the heap

        def at_one():
            eng.call_soon(seen.append, "lane")

        eng.schedule(0.5, at_half)
        eng.call_soon(seen.append, "first")
        eng.schedule(1.0, at_one)
        eng.run()
        assert seen == ["first", "tiny", "heap", "lane"], cls


@pytest.mark.parametrize("lane", ["heap", "lane"])
def test_cancel_works_in_either_lane(lane):
    eng = Engine()
    seen = []
    if lane == "lane":
        handle = eng.call_soon(seen.append, "x")
    else:
        handle = eng.schedule(1.0, seen.append, "x")
    eng.call_soon(seen.append, "y")
    handle.cancel()
    handle.cancel()
    eng.run()
    assert seen == ["y"]
    assert eng.events_executed == 1


@pytest.mark.parametrize("lane", ["heap", "lane"])
def test_time_going_backwards_raises_in_either_lane(lane):
    eng = Engine()
    if lane == "lane":
        eng.call_soon(lambda: None)
    else:
        eng.schedule(1.0, lambda: None)
    eng.now = 5.0
    with pytest.raises(SimulationError, match="backwards"):
        eng.step()


# ------------------------------------------------------------ processes
def _processes(eng, seed, log, stuck=False, spin=False):
    """Workers that sleep, trigger and wait on shared events, and join
    timers through AllOf/AnyOf; optionally a process parked forever or
    one that never stops."""
    rng = random.Random(seed)
    signals = [eng.event(f"s{i}") for i in range(6)]

    def worker(w):
        for step in range(rng.randrange(3, 9)):
            pick = rng.random()
            if pick < 0.3:
                yield rng.choice(DELAYS)
            elif pick < 0.5:
                signal = rng.choice(signals)
                if not signal.triggered:
                    signal.succeed(w)
                yield 0
            elif pick < 0.7:
                yield AllOf(eng, [eng.timer(rng.choice(DELAYS)),
                                  eng.timer(rng.choice(DELAYS))])
            else:
                yield AnyOf(eng, [rng.choice(signals), eng.timer(rng.choice(DELAYS))])
            log.append((w, step, eng.now.hex()))
        return w

    for w in range(6):
        eng.process(worker, w, name=f"w{w}")
    if stuck:
        def parked():
            yield eng.event("never")

        eng.process(parked, name="parked")
    if spin:
        def spinner():
            while True:
                yield rng.choice(DELAYS)

        eng.process(spinner, name="spinner")


def _outcome(engine_cls, seed, **kwargs):
    eng = engine_cls()
    log = []
    budget = kwargs.pop("max_events", None)
    _processes(eng, seed, log, **kwargs)
    try:
        eng.run(max_events=budget)
        error = None
    except (DeadlockError, LivelockError) as exc:
        error = (type(exc).__name__, str(exc))
    return log, error, eng.now.hex(), eng.events_executed


@pytest.mark.parametrize("seed", range(8))
def test_process_order_matches_single_heap(seed):
    got, want = (_outcome(cls, seed) for cls in ENGINES)
    assert got == want
    assert got[1] is None


@pytest.mark.parametrize("seed", range(4))
def test_deadlock_matches_single_heap(seed):
    got, want = (_outcome(cls, seed, stuck=True) for cls in ENGINES)
    assert got == want
    assert got[1][0] == "DeadlockError"
    assert "parked" in got[1][1]


@pytest.mark.parametrize("seed", range(4))
def test_livelock_matches_single_heap(seed):
    got, want = (_outcome(cls, seed, spin=True, max_events=300) for cls in ENGINES)
    assert got == want
    assert got[1][0] == "LivelockError"
    assert got[3] == 301
