"""Satellite 2: a torn sqlite store rebuilds and journal replay refills it.

The store is the crash-consistency substrate; the lease journal is the
recovery log.  When the database file itself is destroyed, the store
side-steps sqlite's unrecoverable-file problem by moving the wreck
aside and starting empty — and the journal's ``done``-with-no-result
reconciliation requeues exactly the trials whose contents were lost,
so a resumed campaign re-derives them and lands on the same document.
"""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    canonical_json,
    run_campaign,
)
from repro.errors import BenchmarkError
from repro.service import run_supervised
from repro.service.stores import SqliteStore
from repro.units import KiB

SPEC = CampaignSpec(
    name="fleet",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

FAST = dict(backoff_base=0.01, retry_budget=2)


def test_truncated_db_rebuilds_and_serves(tmp_path):
    path = tmp_path / "results.db"
    store = SqliteStore(path)
    key = "ab" * 32
    store.put(key, {"status": "ok"})
    store.close()

    path.write_bytes(b"not a database at all")
    store = SqliteStore(path)
    assert store.get(key) is None  # rebuilt empty, not crashed
    assert store.rebuilt >= 1
    assert path.with_suffix(".corrupt").exists()  # wreck kept for forensics
    store.put(key, {"status": "ok"})  # and writable again
    assert store.get(key) == {"status": "ok"}
    store.close()


def test_rebuild_mid_connection(tmp_path):
    """Corruption detected on a live connection (not just at open)."""
    path = tmp_path / "results.db"
    store = SqliteStore(path)
    store.put("ab" * 32, {"status": "ok"})
    # Overwrite the file under the open connection; WAL checkpointing
    # will hit the torn pages on the next statement.
    store._conn.close()
    path.write_bytes(b"\x00" * 64)
    store._connect()
    assert store.get("ab" * 32) is None
    assert store.rebuilt >= 1
    store.close()


def test_supervised_campaign_recovers_from_torn_sqlite_store(tmp_path):
    """End to end: run → destroy the DB → resume → byte-identical doc.

    The resume sees every trial ``done`` in the journal but missing
    from the rebuilt (empty) store, requeues them all, and re-derives
    the exact same campaign document.
    """
    db = tmp_path / "results.db"
    state = tmp_path / "state"

    cache = ResultCache(SqliteStore(db))
    first = run_supervised(SPEC, cache=cache, state_dir=state, workers=2, **FAST)
    cache.close()
    assert first.executed == len(first.records)

    db.write_bytes(b"garbage " * 100)  # the torn store

    store = SqliteStore(db)
    cache = ResultCache(store)
    resumed = run_supervised(
        SPEC, cache=cache, state_dir=state, workers=2, **FAST
    )
    assert store.rebuilt >= 1
    # Journal replay requeued the lost trials (store-missing events).
    journal = state / "subs" / "sub1" / "journal.jsonl"
    requeues = [
        json.loads(line)
        for line in journal.read_text().splitlines()
        if json.loads(line).get("ev") == "requeue"
        and json.loads(line).get("reason") == "store-missing"
    ]
    assert len(requeues) == len(first.records)
    assert canonical_json(resumed.document()) == canonical_json(
        first.document()
    )
    # And the rebuilt store now holds every record again.
    assert len(store) == len(first.records)
    cache.close()


def test_recovered_store_matches_plain_campaign(tmp_path):
    """The recovery detour is invisible in the document."""
    db = tmp_path / "results.db"
    state = tmp_path / "state"
    cache = ResultCache(SqliteStore(db))
    run_supervised(SPEC, cache=cache, state_dir=state, workers=2, **FAST)
    cache.close()
    db.write_bytes(b"\xff" * 32)

    cache = ResultCache(SqliteStore(db))
    resumed = run_supervised(
        SPEC, cache=cache, state_dir=state, workers=2, **FAST
    )
    cache.close()
    assert canonical_json(resumed.document()) == canonical_json(
        run_campaign(SPEC).document()
    )


def test_memory_store_rejected_for_supervised_runs(tmp_path):
    from repro.errors import CampaignError
    from repro.service.stores import MemoryStore

    with pytest.raises(CampaignError, match="process-local"):
        run_supervised(
            SPEC, cache=ResultCache(MemoryStore()),
            state_dir=tmp_path / "state", workers=1, **FAST,
        )
