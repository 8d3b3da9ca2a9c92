"""ProcessorSharing against the job-object reference, bit for bit.

Both servers run the same seeded arrival mix on their own engine.  Every
completion time must match as ``float.hex``, the waiters must wake in
the same order, and the engines must execute the same number of
callbacks (so the completion timers fire in lockstep too).
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, ProcessorSharing

from .reference_ps import ReferenceProcessorSharing


def _run_mix(server_cls, seed, base=0.0, rate=1.0, jobs=60):
    """Submit a seeded job mix; returns (wake order, completion hexes,
    events executed, the server)."""
    rng = random.Random(seed)
    feedback = random.Random(seed + 1)
    eng = Engine()
    server = server_cls(eng, rate=rate, name="bus")
    events = []
    order = []
    # Few distinct instants, so many arrivals land on the same float.
    instants = [base + k * 0.25 for k in range(6)]

    def on_done(index, event):
        order.append((index, event.value.hex()))
        # Closed loop: some departures submit a job at their instant.
        if feedback.random() < 0.3:
            submit(len(events), feedback.uniform(0.0, 0.5) * rate, False)

    def submit(index, work, waited):
        event = server.request(work)
        events.append(event)
        if waited:
            event.add_callback(lambda e, i=index: on_done(i, e))

    for index in range(jobs):
        if rng.random() < 0.7:
            at = rng.choice(instants)
        else:
            at = base + rng.uniform(0.0, 2.0)
        work = rng.choice((
            0, 0.0, 1e-12 * rate, rng.uniform(0.0, 1.0) * rate,
            rng.expovariate(1.0) * rate,
        ))
        # Fire-and-forget jobs (writebacks): nobody waits on them.
        eng.schedule(at, submit, index, work, rng.random() < 0.7)
    eng.run()
    return order, [e.value.hex() for e in events], eng.events_executed, server


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("rate", [1.0, 3.2e9])
def test_completion_times_match_reference(seed, rate):
    got = _run_mix(ProcessorSharing, seed, rate=rate)
    want = _run_mix(ReferenceProcessorSharing, seed, rate=rate)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3].load == want[3].load == 0


@pytest.mark.parametrize("seed", range(6))
def test_float_drift_departures_match_reference(seed):
    """Far from t=0 the clock's rounding leaves the finishing job with
    more than eps of work, and the drift branch retires the job with
    the least work left."""
    got = _run_mix(ProcessorSharing, seed, base=1e9, rate=1.0)
    want = _run_mix(ReferenceProcessorSharing, seed, base=1e9, rate=1.0)
    assert want[3].drift_completions > 0
    assert got[:3] == want[:3]


@pytest.mark.parametrize("server_cls", [ProcessorSharing, ReferenceProcessorSharing])
def test_negative_work_rejected_by_both(server_cls):
    server = server_cls(Engine(), rate=1.0)
    with pytest.raises(SimulationError):
        server.request(-1e-9)
