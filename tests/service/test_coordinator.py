"""Coordinator end-to-end: submit/fetch equivalence, priority, dedup.

These tests run a real coordinator — socket, local agent processes and
all — against the in-memory store: the coordinator is the store's sole
writer (agents report records over the wire), so the memory backing
exercises exactly the code paths a fleet-shared store does.
"""

import json
import time

import pytest

from repro.campaign import CampaignSpec, ChaosPlan, canonical_json, run_campaign
from repro.campaign.queue import append_event
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.service.stores import MemoryStore, SqliteStore
from repro.units import KiB

SPEC = CampaignSpec(
    name="svc",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

#: A different spec (disjoint trial hashes) for priority races.
OTHER = CampaignSpec(name="svc", backends=("knem",), sizes=(256 * KiB,), seeds=(0,))

FAST = dict(
    local_workers=2, lease_ttl=30.0, retry_budget=2, backoff_base=0.01,
    telemetry_interval=0.1,
)


@pytest.fixture
def co(tmp_path):
    with Coordinator(MemoryStore(), tmp_path / "state", **FAST) as c:
        yield c


def client_for(co, name="test"):
    return ServiceClient(co.endpoint, client=name)


def sans_provenance(doc):
    """A document with the cache-provenance fields neutralized.

    ``cached`` flags (and the executed/cache_hits tallies they roll up
    into) record *how* each record arrived — store hit vs fresh run —
    which legitimately differs between a first submission and a
    deduplicated resubmission.  The science (configs, metrics,
    aggregates) must not.
    """
    doc = {**doc, "summary": {**doc["summary"], "executed": 0, "cache_hits": 0}}
    doc["trials"] = [
        {k: v for k, v in t.items() if k != "cached"} for t in doc["trials"]
    ]
    return doc


def test_ping(co):
    pong = client_for(co).ping()
    assert pong["name"] == "service"
    assert pong["uptime"] >= 0


def test_served_document_matches_serial_campaign(co):
    client = client_for(co)
    reply = client.submit(SPEC)
    assert reply["trials"] == 4 and reply["hits"] == 0
    co.wait_settled(reply["sub"])
    doc = client.fetch(reply["sub"])
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_resubmit_is_all_store_hits(co):
    client = client_for(co)
    first = client.submit(SPEC)
    co.wait_settled(first["sub"])
    n_dispatched = len(co.dispatch_log)

    again = client.submit(SPEC)
    assert again["hits"] == again["trials"] == 4
    assert again["pending"] == 0
    status = client.status(again["sub"])
    assert status["settled"] and status["state"] == "done"
    assert len(co.dispatch_log) == n_dispatched  # nothing re-ran
    first_doc = client.fetch(first["sub"])
    again_doc = client.fetch(again["sub"])
    assert all(t["cached"] for t in again_doc["trials"])
    assert canonical_json(sans_provenance(first_doc)) == canonical_json(
        sans_provenance(again_doc)
    )


def test_prepopulated_store_settles_instantly(tmp_path):
    store = MemoryStore()
    for record in run_campaign(SPEC).records:
        store.put(record["hash"], {k: v for k, v in record.items()
                                   if k != "cached"})
    with Coordinator(store, tmp_path / "state", **FAST) as co:
        reply = client_for(co).submit(SPEC)
        assert reply["hits"] == reply["trials"]
        assert client_for(co).status(reply["sub"])["settled"]
        assert co.dispatch_log == []


def test_unknown_submission_rejected(co):
    client = client_for(co)
    with pytest.raises(ServiceError, match="unknown submission"):
        client.status("sub99")
    with pytest.raises(ServiceError, match="unknown submission"):
        client.fetch("sub99")


def test_bad_priority_rejected(co):
    with pytest.raises(ServiceError, match="priority"):
        client_for(co).submit(SPEC, priority="urgent")


def test_bad_spec_rejected(co):
    with pytest.raises(ServiceError):
        client_for(co)._request(
            {"type": "submit", "spec": {"no_such_axis": 1}, "client": "t"}
        )


def test_fetch_before_settled_reports_status(co):
    co.pause()
    reply = client_for(co).submit(SPEC)
    with pytest.raises(ServiceError, match="not settled"):
        client_for(co).fetch(reply["sub"])
    co.resume()
    co.wait_settled(reply["sub"])
    assert client_for(co).fetch(reply["sub"])["summary"]["trials"] == 4


def test_cancel(co):
    co.pause()
    client = client_for(co)
    reply = client.submit(SPEC)
    assert client.cancel(reply["sub"])["state"] == "cancelled"
    assert client.cancel(reply["sub"])["state"] == "cancelled"  # idempotent
    with pytest.raises(ServiceError, match="cancelled"):
        client.fetch(reply["sub"])
    co.resume()


def test_interactive_preempts_bulk_at_trial_boundary(tmp_path):
    """Bulk submitted first, interactive second — the dispatch log must
    show every interactive trial leased before any bulk trial."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", **{**FAST, "local_workers": 1}
    ) as co:
        co.pause()  # stage the race: both submissions queue while frozen
        client = client_for(co)
        bulk = client.submit(SPEC, priority="bulk")
        inter = client.submit(OTHER, priority="interactive")
        co.resume()
        co.wait_settled(bulk["sub"])
        co.wait_settled(inter["sub"])

        owners = [sub_id for (_w, sub_id, _h) in co.dispatch_log]
        assert set(owners) == {bulk["sub"], inter["sub"]}
        last_inter = max(i for i, s in enumerate(owners) if s == inter["sub"])
        first_bulk = min(i for i, s in enumerate(owners) if s == bulk["sub"])
        assert last_inter < first_bulk, (
            f"interactive trials must all dispatch before bulk: {owners}"
        )


def test_identical_concurrent_submissions_execute_once(co):
    """Three-layer dedup: two clients submit the same spec before any
    trial lands; every hash executes exactly once and the second
    submission's records arrive as dedup completions."""
    co.pause()
    a = client_for(co, "alice").submit(SPEC)
    b = client_for(co, "bob").submit(SPEC)
    co.resume()
    co.wait_settled(a["sub"])
    co.wait_settled(b["sub"])

    dispatched = [h for (_w, _s, h) in co.dispatch_log]
    assert len(dispatched) == len(set(dispatched)) == 4  # once per hash
    assert co.metrics.counter("service.dedup_completions").value == 4
    assert canonical_json(
        sans_provenance(client_for(co).fetch(a["sub"]))
    ) == canonical_json(sans_provenance(client_for(co).fetch(b["sub"])))


def test_status_document_shape(co):
    client = client_for(co, "shape")
    reply = client.submit(SPEC)
    co.wait_settled(reply["sub"])
    doc = client.status()
    assert doc["name"] == "service"
    assert [s["sub"] for s in doc["submissions"]] == [reply["sub"]]
    assert doc["store"]["kind"] == "memory"
    assert doc["store"]["records"] == 4
    agents = doc["agents"]
    assert len(agents) == 2 and all(a.startswith("local") for a in agents)


def test_shutdown_via_client(tmp_path):
    co = Coordinator(MemoryStore(), tmp_path / "state", **FAST).start()
    client_for(co).shutdown()
    deadline = time.time() + 10
    while not co.stopping and time.time() < deadline:
        time.sleep(0.05)
    assert co.stopping
    co.stop()  # idempotent
    # The client-triggered stop runs on its own thread; the endpoint
    # file disappears when its cleanup finishes.
    deadline = time.time() + 10
    while (tmp_path / "state" / "service.json").exists():
        assert time.time() < deadline, "endpoint file never removed"
        time.sleep(0.05)


def test_sqlite_backed_coordinator_round_trip(tmp_path):
    """The sqlite store serves the daemon across its threads (the
    connection-handler and tick threads all call in under the lock) and
    persists: a second coordinator on the same file serves the spec as
    pure store hits."""
    db = tmp_path / "results.db"
    with Coordinator(SqliteStore(db), tmp_path / "s1", **FAST) as co:
        reply = client_for(co).submit(SPEC)
        co.wait_settled(reply["sub"])
        doc = client_for(co).fetch(reply["sub"])
        assert doc["summary"]["trials"] == 4
    with Coordinator(SqliteStore(db), tmp_path / "s2", **FAST) as co:
        reply = client_for(co).submit(SPEC)
        assert reply["hits"] == 4 and reply["pending"] == 0
        assert co.dispatch_log == []


def test_telemetry_files_written(co):
    reply = client_for(co).submit(SPEC)
    co.wait_settled(reply["sub"])
    co.stop()  # final flush
    state = co.state_dir
    assert (state / "status.json").exists()
    assert (state / "metrics.prom").exists()
    prom = (state / "metrics.prom").read_text()
    assert "service_submits" in prom.replace(".", "_") or "service" in prom


def _journal_events(journal, kind, h):
    events = []
    for line in journal.read_text().splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if event.get("ev") == kind and event.get("hash") == h:
            events.append(event)
    return events


def test_restart_resumes_from_journal(tmp_path):
    """A restarted coordinator replays its submission's journal: an
    earlier quarantine lands as the failed record without a new lease,
    and an orphaned lease is requeued at submit instead of waiting out
    its deadline."""
    mixed = CampaignSpec(
        name="svc", backends=("default",), sizes=(64 * KiB,),
        pairs=((0, 1), (0, 99)), seeds=(0,),  # core 99 does not exist
    )
    good, bad = mixed.trials()
    bad_only = CampaignSpec(
        name="svc", backends=("default",), sizes=(64 * KiB,),
        pairs=((0, 99),), seeds=(0,),
    )
    state, store = tmp_path / "state", str(tmp_path / "results")
    opts = {**FAST, "local_workers": 1, "retry_budget": 1}
    with Coordinator(store, state, **opts) as co:
        reply = client_for(co).submit(bad_only)
        co.wait_settled(reply["sub"])
        assert client_for(co).status(reply["sub"])["quarantined"] == 1
    journal = state / "subs" / "sub1" / "journal.jsonl"
    append_event(journal, {
        "ev": "lease", "hash": good.hash, "worker": "local0.1",
        "attempt": 1, "token": 99, "deadline": 1e12,
    })

    with Coordinator(store, state, **opts) as co:
        client = client_for(co)
        reply = client.submit(mixed)
        assert reply["sub"] == "sub1"  # replays the same journal
        requeues = _journal_events(journal, "requeue", good.hash)
        assert [e["reason"] for e in requeues] == ["recovered"]
        co.wait_settled(reply["sub"], timeout=20)
        doc = client.fetch(reply["sub"])
    assert len(_journal_events(journal, "lease", bad.hash)) == 1
    assert doc["quarantined"] == [bad.hash]
    ok, failed = doc["trials"]
    assert failed["status"] == "failed" and "MpiError" in failed["error"]
    serial = run_campaign(mixed).document()
    assert canonical_json(ok) == canonical_json(serial["trials"][0])
    assert failed == serial["trials"][1]


def test_watchdog_kills_a_hung_local_agent(tmp_path):
    """A local agent that hangs holding a lease is SIGKILLed when the
    lease deadline passes, and its slot respawns to finish the work."""
    h = SPEC.trials()[0].hash
    plan = ChaosPlan(forced=((h, 1, "hang"),))
    opts = {**FAST, "local_workers": 1, "lease_ttl": 1.0}
    with Coordinator(MemoryStore(), tmp_path / "state", chaos=plan,
                     **opts) as co:
        client = client_for(co)
        reply = client.submit(SPEC)
        co.wait_settled(reply["sub"], timeout=20)
        assert co.metrics.counter("campaign.watchdog_kills").value == 1
        assert co.metrics.counter("campaign.requeues").value == 1
        doc = client.fetch(reply["sub"])
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_stop_refuses_agents_that_have_not_attached(tmp_path):
    """Local agents fork holding the listening socket.  When a
    submission settles before they attach (an all-cache-hit run), stop()
    must refuse them, not leave them blocked in a backlog nobody serves
    until the kill deadline."""
    for i in range(5):
        co = Coordinator(MemoryStore(), tmp_path / f"s{i}", **FAST)
        sub = co.submit(SPEC, trials=[])
        co.start()
        co.wait_settled(sub.sub_id, timeout=10.0)
        co.stop()
        assert [p.exitcode for p in co._local.values()] == [0, 0]
