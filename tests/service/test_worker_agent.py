"""Worker agents: external attach, incarnation tags, chaos-kill recovery."""

import threading
import time

import pytest

from repro.campaign import CampaignSpec, ChaosPlan, canonical_json, run_campaign
from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.service.protocol import connect
from repro.service.stores import MemoryStore
from repro.service.worker import agent_loop
from repro.units import KiB

SPEC = CampaignSpec(
    name="svc",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

FAST = dict(
    lease_ttl=30.0, retry_budget=2, backoff_base=0.01,
    telemetry_interval=0.1,
)


def test_external_agent_drains_campaign(tmp_path):
    """A coordinator with no local pool is fully served by an attached
    external agent (the ``repro-bench service worker`` path)."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ).start()
    try:
        reply = ServiceClient(co.endpoint).submit(SPEC)
        ran = []
        agent = threading.Thread(
            target=lambda: ran.append(
                agent_loop(co.host, co.port, "bench-node2")
            )
        )
        agent.start()
        co.wait_settled(reply["sub"], timeout=120)
        co.stop()  # the agent's next pull returns "shutdown"
        agent.join(timeout=30)
        assert ran == [4]
        workers = {w for (w, _s, _h) in co.dispatch_log}
        assert workers == {"bench-node2.1"}
    finally:
        co.stop()


def test_agents_are_incarnation_tagged(tmp_path):
    """Two attaches under one name get distinct worker ids — a
    reattached (restarted) agent can never be mistaken for its own
    previous life when stale reports arrive."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ) as co:
        ids = []
        for _ in range(2):
            with connect(co.host, co.port) as conn:
                conn.send({"type": "attach", "agent": "ext"})
                ids.append(conn.recv()["worker"])
        assert ids == ["ext.1", "ext.2"]


def test_agent_max_trials_detaches_cleanly(tmp_path):
    """A bounded agent hands back the fleet mid-campaign; a successor
    (fresh incarnation) finishes the rest."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ).start()
    try:
        reply = ServiceClient(co.endpoint).submit(SPEC)
        first = agent_loop(co.host, co.port, "batch", max_trials=2)
        assert first == 2
        status = ServiceClient(co.endpoint).status(reply["sub"])
        assert status["done"] == 2 and not status["settled"]
        rest = []
        agent = threading.Thread(
            target=lambda: rest.append(agent_loop(co.host, co.port, "batch"))
        )
        agent.start()
        co.wait_settled(reply["sub"], timeout=120)
        co.stop()
        agent.join(timeout=30)
        assert rest == [2]
        workers = {w for (w, _s, _h) in co.dispatch_log}
        assert workers == {"batch.1", "batch.2"}
    finally:
        co.stop()


def test_chaos_killed_local_agents_requeue_and_recover(tmp_path):
    """The acceptance scenario: injected worker death mid-campaign.

    The chaos plan kills every trial's first attempt, so each local
    agent is SIGKILLed mid-trial on its first dispatch.  The dropped
    socket requeues the lease, the tick loop respawns the slot, and the
    campaign completes with a document byte-identical to a serial run
    — deaths are invisible in the science.
    """
    plan = ChaosPlan(kill_prob=1.0, max_kill_attempts=1)
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=2, chaos=plan,
        **FAST,
    ) as co:
        client = ServiceClient(co.endpoint)
        reply = client.submit(SPEC)
        co.wait_settled(reply["sub"], timeout=120)

        assert co.metrics.counter("campaign.requeues").value >= 1
        assert co.metrics.counter("campaign.worker_deaths").value >= 1
        doc = client.fetch(reply["sub"])
        assert doc["summary"]["quarantined"] == 0
    # The chaos detour never reaches the document: byte-identical to a
    # serial, chaos-free campaign run.
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_agent_survives_idle_then_serves_late_submission(tmp_path):
    """An agent attached before any work exists must idle-poll, then
    pick up a submission that arrives later."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ).start()
    try:
        ran = []
        agent = threading.Thread(
            target=lambda: ran.append(agent_loop(co.host, co.port, "early",
                                                 poll=0.01))
        )
        agent.start()
        time.sleep(0.1)  # let it idle at least once
        reply = ServiceClient(co.endpoint).submit(SPEC)
        co.wait_settled(reply["sub"], timeout=120)
        co.stop()
        agent.join(timeout=30)
        assert ran == [4]
    finally:
        co.stop()
