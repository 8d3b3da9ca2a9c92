"""Chaos harness: seeded kills at every torn-state window, exact resume."""

import json

import pytest

from repro.bench.cli import main
from repro.campaign import (
    CampaignSpec,
    ChaosPlan,
    ChaosState,
    ResultCache,
    canonical_json,
    run_campaign,
    run_trial,
)
from repro.campaign.queue import append_event, journal_counters
from repro.errors import CampaignError
from repro.service import run_chaos_check, run_supervised
from repro.units import KiB

SPEC = CampaignSpec(
    name="chaos",
    backends=("default",),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

FAST = dict(backoff_base=0.01, retry_budget=3)


# ------------------------------------------------------------------ plan
def test_plan_validates():
    with pytest.raises(CampaignError):
        ChaosPlan(kill_prob=1.5)
    with pytest.raises(CampaignError):
        ChaosPlan(points=("mid-trial", "wat"))
    with pytest.raises(CampaignError):
        ChaosPlan(points=())
    with pytest.raises(CampaignError):
        ChaosPlan(forced=(("aa" * 8, 1),))  # not a triple
    with pytest.raises(CampaignError):
        ChaosPlan(forced=(("aa" * 8, 1, "wat"),))
    assert not ChaosPlan().armed
    assert ChaosPlan(kill_prob=0.5).armed
    assert ChaosPlan(forced=(("aa" * 8, 1, "hang"),)).armed


def test_kill_decisions_are_deterministic_and_bounded():
    plan = ChaosPlan(seed=7, kill_prob=0.5, max_kill_attempts=2)
    # Substreams key on the leading 12 hex chars, so vary those.
    hashes = [f"{i:012x}0000" for i in range(64)]
    first = [ChaosState(plan).kill_point(h, 1) for h in hashes]
    again = [ChaosState(plan).kill_point(h, 1) for h in hashes]
    assert first == again  # the schedule is part of the experiment
    assert any(first) and not all(first)  # p=0.5 over 64 draws
    assert all(p in (None,) + plan.points for p in first)
    # Attempts past the bound never die — the termination guarantee.
    assert all(
        ChaosState(plan).kill_point(h, 3) is None for h in hashes
    )
    # A different seed draws a different schedule.
    other = ChaosPlan(seed=8, kill_prob=0.5, max_kill_attempts=2)
    assert [ChaosState(other).kill_point(h, 1) for h in hashes] != first


def test_forced_kills_fire_regardless_of_probability():
    plan = ChaosPlan(kill_prob=0.0, forced=(("aa" * 8, 2, "hang"),))
    state = ChaosState(plan)
    assert state.kill_point("aa" * 8, 1) is None
    assert state.kill_point("aa" * 8, 2) == "hang"
    assert state.kill_point("bb" * 8, 2) is None
    assert state.kills_injected == 1


def test_unarmed_plan_is_rejected(tmp_path):
    with pytest.raises(CampaignError, match="armed"):
        run_chaos_check(SPEC, ChaosPlan(), state_dir=tmp_path)


# ------------------------------------------------- kill points, exact resume
def _chaos_run(tmp_path, point, **kwargs):
    """A supervised run with one forced kill at ``point`` on trial 0."""
    trial = SPEC.trials()[0]
    plan = ChaosPlan(forced=((trial.hash, 1, point),))
    kwargs = {**FAST, **kwargs}
    return run_supervised(
        SPEC, cache=ResultCache(tmp_path / "results"),
        state_dir=tmp_path / "state", workers=1, chaos=plan, **kwargs,
    )


@pytest.mark.parametrize("point", ["mid-trial"])
def test_kill_point_recovers_byte_identical(tmp_path, point):
    run = _chaos_run(tmp_path, point)
    assert run.fleet["campaign.worker_deaths"] == 1
    assert canonical_json(run.document()) == canonical_json(
        run_campaign(SPEC).document()
    )
    journal = (tmp_path / "state" / "subs" / "sub1" / "journal.jsonl").read_text()
    assert f'"point":"{point}"' in journal
    if point == "mid-trial":
        # Nothing landed before death: the lease must be requeued.
        assert run.fleet["campaign.requeues"] == 1


def test_spawn_kill_point_respawns_and_recovers(tmp_path):
    plan = ChaosPlan(spawn_kill_prob=1.0, max_kill_attempts=1)
    run = run_supervised(
        SPEC, cache=ResultCache(tmp_path / "results"),
        state_dir=tmp_path / "state", workers=1, chaos=plan, **FAST,
    )
    # Incarnation 1 died before its first lease; incarnation 2 is past
    # the kill bound, survived, and drained the queue exactly.
    assert run.fleet["campaign.worker_deaths"] >= 1
    assert run.fleet["campaign.worker_spawns"] >= 2
    journal = (tmp_path / "state" / "subs" / "sub1" / "journal.jsonl").read_text()
    assert '"point":"spawn"' in journal
    assert canonical_json(run.document()) == canonical_json(
        run_campaign(SPEC).document()
    )


@pytest.mark.parametrize("window", ["torn-store-record", "torn-journal-tail"])
def test_writer_crash_window_resumes_byte_identical(tmp_path, window):
    """The coordinator, the only store and journal writer, died inside
    a write; resuming on the same state dir must recover exactly.

    * ``torn-store-record``: a lease was granted and half the record
      sits at the store's final path (a non-atomic store lost power).
      The store self-heals the fragment and the trial re-runs.
    * ``torn-journal-tail``: the record landed, then half a
      ``complete`` line.  Replay skips the fragment and completes the
      trial from the store without re-running it.
    """
    trial = SPEC.trials()[0]
    state = tmp_path / "state"
    journal = state / "subs" / "sub1" / "journal.jsonl"
    journal.parent.mkdir(parents=True)
    cache = ResultCache(tmp_path / "results")
    append_event(journal, {
        "ev": "lease", "hash": trial.hash, "worker": "local0.1",
        "attempt": 1, "token": 1, "deadline": 1e12,
    })
    record = run_trial(trial.config)
    if window == "torn-store-record":
        text = canonical_json(record)
        cache.path(trial.hash).write_text(text[: len(text) // 2])
    else:
        cache.put(trial.hash, record)
        complete = canonical_json({
            "ev": "complete", "hash": trial.hash, "worker": "local0.1",
            "attempt": 1, "token": 1,
        })
        with open(journal, "a") as fh:
            fh.write(complete[: len(complete) // 2])
    run = run_supervised(
        SPEC, cache=cache, state_dir=state, workers=1, **FAST,
    )
    assert canonical_json(run.document()) == canonical_json(
        run_campaign(SPEC).document()
    )
    if window == "torn-store-record":
        assert cache.corrupt_healed == 1
        assert run.fleet["campaign.requeues"] == 1
    else:
        assert journal_counters(journal)["torn_lines"] == 1
        assert run.fleet.get("campaign.requeues", 0) == 0
        assert run.fleet["campaign.leases"] == 1  # only the other trial ran


def test_hang_point_is_reclaimed_by_the_lease_deadline(tmp_path):
    run = _chaos_run(tmp_path, "hang", lease_ttl=1.0, max_wall=60.0)
    # The hung agent kept its socket open: only the watchdog could kill it.
    assert run.fleet["campaign.watchdog_kills"] == 1
    assert run.fleet["campaign.requeues"] == 1
    assert canonical_json(run.document()) == canonical_json(
        run_campaign(SPEC).document()
    )


# ------------------------------------------------------------- self-check
def test_run_chaos_check_forces_a_kill_when_draws_miss(tmp_path):
    """The harness must always bite: with a kill_prob so small the
    seeded draws produce zero kills, one is forced deterministically."""
    report = run_chaos_check(
        SPEC, ChaosPlan(seed=0, kill_prob=0.001),
        state_dir=tmp_path, workers=1, backoff_base=0.01,
    )
    assert report.ok
    assert report.worker_deaths >= 1 and report.kills_journaled >= 1
    assert "byte-identical: yes" in report.describe()


def test_chaos_cli_end_to_end(tmp_path, capsys):
    out_file = tmp_path / "chaos.json"
    rc = main([
        "campaign", "chaos",
        "--seed", "0", "--kill-prob", "0.3",
        "--state-dir", str(tmp_path / "fleet"),
        "--backoff-base", "0.01",
        "--out", str(out_file),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "byte-identical: yes" in out
    assert "worker death(s)" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "campaign"
    assert doc["summary"]["failures"] == 0
