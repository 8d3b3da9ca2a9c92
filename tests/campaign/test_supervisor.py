"""The coordinator-driven fleet runner (``repro.service.run_supervised``):
equivalence with the serial runner, quarantine, crash-resume, hygiene.

The file keeps the name of the supervisor module it once tested, so
that the ids of its tests stay stable.
"""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    Trial,
    canonical_json,
    run_campaign,
)
from repro.campaign.queue import append_event
from repro.errors import CampaignError, TrialQuarantined
from repro.service import run_supervised
from repro.units import KiB

SPEC = CampaignSpec(
    name="fleet",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0,),
)

FAST = dict(backoff_base=0.01, retry_budget=2)


def journal_events(state_dir, kind, hash_=None):
    events = []
    journal = state_dir / "subs" / "sub1" / "journal.jsonl"
    for line in journal.read_text().splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if event.get("ev") == kind and (
            hash_ is None or event.get("hash") == hash_
        ):
            events.append(event)
    return events


def test_supervised_document_matches_plain_run(tmp_path):
    plain = run_campaign(SPEC)
    supervised = run_supervised(
        SPEC, cache=ResultCache(tmp_path / "results"),
        state_dir=tmp_path / "state", workers=2, **FAST,
    )
    # The fleet is pure plumbing: the documents are byte-identical.
    assert canonical_json(supervised.document()) == canonical_json(
        plain.document()
    )
    assert supervised.fleet["campaign.leases"] == 2
    assert "campaign.worker_deaths" not in supervised.fleet


def test_second_supervised_run_is_all_cache_hits(tmp_path):
    cache = ResultCache(tmp_path / "results")
    first = run_supervised(
        SPEC, cache=cache, state_dir=tmp_path / "s1", workers=2, **FAST,
    )
    again = run_supervised(
        SPEC, cache=cache, state_dir=tmp_path / "s2", workers=2, **FAST,
    )
    assert again.cache_hits == 2 and again.executed == 0
    assert all(r["cached"] for r in again.records)
    assert [r["metrics"] for r in again.records] == [
        r["metrics"] for r in first.records
    ]


def test_deterministic_failure_quarantines_after_exact_budget(tmp_path):
    good = SPEC.trials()[0]
    bad = Trial(config={**good.config, "pair": [0, 99]})  # no such core
    run = run_supervised(
        SPEC, cache=ResultCache(tmp_path / "results"),
        state_dir=tmp_path / "state", workers=2,
        trials=[good, bad], retry_budget=2, backoff_base=0.01,
    )
    ok, failed = run.records
    assert ok["status"] == "ok"
    assert failed["status"] == "failed" and "MpiError" in failed["error"]
    assert run.quarantined == [bad.hash]
    assert run.document()["summary"]["quarantined"] == 1
    with pytest.raises(TrialQuarantined, match=bad.hash[:8]):
        run.raise_for_quarantine()
    # Exactly retry_budget attempts — no more, no fewer, no hang.
    assert len(journal_events(tmp_path / "state", "lease", bad.hash)) == 2
    assert len(journal_events(tmp_path / "state", "quarantine", bad.hash)) == 1
    assert run.fleet["campaign.quarantines"] == 1


def test_resume_after_supervisor_crash_requeues_dead_leases(tmp_path):
    """A journal full of orphaned leases (the supervisor itself died)
    must drain to the same document as an undisturbed run."""
    state_dir = tmp_path / "state"
    (state_dir / "subs" / "sub1").mkdir(parents=True)
    for i, trial in enumerate(SPEC.trials()):
        append_event(state_dir / "subs" / "sub1" / "journal.jsonl", {
            "ev": "lease", "hash": trial.hash, "worker": f"w{i}.1",
            "attempt": 1, "token": i + 1, "deadline": 1e12,
        })
    run = run_supervised(
        SPEC, cache=ResultCache(tmp_path / "results"),
        state_dir=state_dir, workers=2, **FAST,
    )
    assert run.fleet["campaign.requeues"] == 2
    assert canonical_json(run.document()) == canonical_json(
        run_campaign(SPEC).document()
    )


def test_resume_honours_prior_quarantine_without_rerunning(tmp_path):
    good = SPEC.trials()[0]
    bad = Trial(config={**good.config, "pair": [0, 99]})
    state_dir = tmp_path / "state"
    (state_dir / "subs" / "sub1").mkdir(parents=True)
    append_event(state_dir / "subs" / "sub1" / "journal.jsonl", {
        "ev": "quarantine", "hash": bad.hash, "attempts": 2,
        "error": "MpiError: rank 99 does not exist",
    })
    run = run_supervised(
        SPEC, cache=ResultCache(tmp_path / "results"),
        state_dir=state_dir, workers=2, trials=[good, bad], **FAST,
    )
    assert run.quarantined == [bad.hash]
    assert run.records[1]["status"] == "failed"
    assert "MpiError" in run.records[1]["error"]
    # The quarantined trial was never re-leased.
    assert journal_events(state_dir, "lease", bad.hash) == []


def test_supervised_requires_a_cache(tmp_path):
    with pytest.raises(CampaignError, match="ResultCache"):
        run_supervised(SPEC, cache=None, state_dir=tmp_path / "state")


def test_run_supervised_validates_fleet_options(tmp_path):
    cache = ResultCache(tmp_path / "results")
    with pytest.raises(CampaignError):
        run_supervised(SPEC, cache=cache, state_dir=tmp_path / "s", workers=0)
    with pytest.raises(CampaignError):
        run_supervised(SPEC, cache=cache, state_dir=tmp_path / "s",
                       lease_ttl=0.0)


def test_max_wall_turns_stall_into_error(tmp_path):
    bad = Trial(config={**SPEC.trials()[0].config, "pair": [0, 99]})
    with pytest.raises(CampaignError, match="max_wall"):
        run_supervised(
            SPEC, cache=ResultCache(tmp_path / "results"),
            state_dir=tmp_path / "state", workers=1, trials=[bad],
            retry_budget=3, backoff_base=30.0,  # backoff outlasts the wall
            max_wall=1.0,
        )
