"""Supervised campaigns: one spec through an in-process coordinator.

:func:`run_supervised` is the parallel ``run_campaign`` with a
survival story, and the only parallel trial runner: ``campaign
run|resume|compare --workers N`` calls it.  It starts a
:class:`~repro.service.coordinator.Coordinator` with ``workers`` local
agents, submits the spec in-process, waits for the submission to
settle and returns the coordinator's
:class:`~repro.campaign.executor.CampaignRun`, whose document is
byte-identical to the serial ``run_campaign``'s.  Everything that makes
it crash-tolerant is the coordinator's: the durable lease journal
under ``<state_dir>/subs/sub1/``, requeue on socket EOF, the
lease-deadline watchdog, retry budgets and quarantine, and journal
reconciliation when a run resumes on the same state directory.  One
state directory holds one run: a second run of the spec over it replays the
journal and reproduces the first run's document, so a new run needs a
new state directory.

:func:`run_chaos_check` runs a spec once undisturbed and once under a
seeded :class:`~repro.campaign.chaos.ChaosPlan`, and proves the two
documents byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.chaos import ChaosPlan, ChaosState
from repro.campaign.executor import CampaignRun
from repro.campaign.queue import journal_counters
from repro.campaign.spec import CampaignSpec, Trial, canonical_json
from repro.errors import CampaignError, ServiceError
from repro.service.coordinator import Coordinator

__all__ = ["run_supervised", "run_chaos_check", "ChaosReport"]


def run_supervised(
    spec: CampaignSpec,
    cache: ResultCache,
    *,
    state_dir: str | Path,
    workers: int = 2,
    trials: Optional[Sequence[Trial]] = None,
    trace_dir: Optional[str] = None,
    chaos: Optional[ChaosPlan] = None,
    retry_budget: int = 3,
    lease_ttl: float = 60.0,
    backoff_base: float = 0.05,
    max_wall: Optional[float] = None,
) -> CampaignRun:
    """Drain ``spec`` through a coordinator with ``workers`` local agents.

    Same contract as :func:`repro.campaign.executor.run_campaign` —
    records in spec-expansion order, cache hits served without
    execution — plus: survives agent death at any point, quarantines
    deterministically failing trials after ``retry_budget`` attempts,
    never hangs on a wedged agent, and resumes exactly from
    ``state_dir``.  The result store is mandatory and must be shared
    (directory or sqlite): it is the crash-consistency substrate.
    """
    if cache is None:
        raise CampaignError(
            "supervised campaigns need a ResultCache: the store is the "
            "crash-consistency substrate (use run_campaign for cacheless "
            "one-shots)"
        )
    if not cache.shared:
        raise CampaignError(
            f"supervised campaigns need a cross-process store; the "
            f"{cache.store.kind!r} backing is process-local (use the "
            "directory or sqlite store)"
        )
    if workers < 1:
        raise CampaignError(f"workers must be >= 1, got {workers}")
    if lease_ttl <= 0:
        raise CampaignError(f"lease_ttl must be > 0, got {lease_ttl}")
    cache.sweep_tmp()
    co = Coordinator(
        cache,
        state_dir,
        local_workers=workers,
        lease_ttl=lease_ttl,
        retry_budget=retry_budget,
        backoff_base=backoff_base,
        trace_dir=trace_dir if trace_dir is not None else spec.trace_dir,
        name=spec.name,
        chaos=chaos,
    )
    try:
        # Submitted before the agents spawn, so a spawn kill is
        # journaled in this submission's journal.
        sub = co.submit(spec, trials)
        co.start()
        try:
            co.wait_settled(
                sub.sub_id, timeout=math.inf if max_wall is None else max_wall
            )
        except ServiceError as exc:
            raise CampaignError(
                f"supervised run exceeded max_wall={max_wall}s "
                f"({sub.queue.describe()})"
            ) from exc
    finally:
        co.stop()  # the final telemetry flush agrees with the result
    return co.campaign_run(sub.sub_id)


@dataclass
class ChaosReport:
    """Outcome of :func:`run_chaos_check` (the chaos harness verdict)."""

    clean_doc: dict
    chaos_doc: dict
    identical: bool
    worker_deaths: int
    requeues: int
    kills_journaled: int
    quarantined: list
    fleet: dict
    journal_path: str

    @property
    def ok(self) -> bool:
        """Chaos actually bit (>=1 kill, >=1 requeue) and the recovered
        document is byte-identical to the undisturbed run's."""
        return self.identical and self.worker_deaths >= 1 and self.requeues >= 1

    def describe(self) -> str:
        lines = [
            f"chaos: {self.worker_deaths} worker death(s) observed, "
            f"{self.kills_journaled} kill(s) journaled, "
            f"{self.requeues} requeue(s), "
            f"{len(self.quarantined)} quarantined",
            f"byte-identical: {'yes' if self.identical else 'NO'}",
        ]
        for name in sorted(self.fleet):
            value = self.fleet[name]
            # Histogram snapshots (wall.* latency dicts) have their own
            # surface in the telemetry files; only scalars print here.
            if isinstance(value, (int, float)):
                lines.append(f"  {name} = {value:g}")
        return "\n".join(lines)


def run_chaos_check(
    spec: CampaignSpec,
    plan: ChaosPlan,
    *,
    state_dir: str | Path,
    workers: int = 2,
    retry_budget: int = 3,
    lease_ttl: float = 60.0,
    backoff_base: float = 0.05,
) -> ChaosReport:
    """Run ``spec`` once undisturbed and once under ``plan``, compare.

    Both runs start from cold, separate stores under ``state_dir``
    (``clean/`` and ``chaos/``), so the only difference between them is
    the injected kills — byte-identical documents therefore prove that
    requeue and journal replay recover *exactly*.
    """
    if not plan.armed:
        raise CampaignError("chaos check needs an armed plan (kill_prob > 0)")
    # The check's whole point is that chaos *bites*: with few trials and
    # a modest kill_prob the seeded draws can legitimately come up all
    # clean, so precompute them and force exactly one first-attempt kill
    # when that happens (still deterministic — same spec + plan always
    # forces the same kill).
    trials = list(spec.trials())
    if not plan.forced and trials:
        # Only attempt-1 draws can *start* a kill chain (attempt n > 1
        # exists only because attempt n-1 was already killed), so probe
        # those — a hit at a later attempt alone would never be reached.
        probe = ChaosState(plan)
        would_fire = any(
            probe.kill_point(t.hash, 1) for t in trials
        ) or any(probe.spawn_kill(slot, 1) for slot in range(workers))
        if not would_fire:
            plan = dataclasses.replace(
                plan, forced=((trials[0].hash, 1, plan.points[0]),)
            )
    state_dir = Path(state_dir)
    runs = {}
    for label, run_plan in (("clean", None), ("chaos", plan)):
        runs[label] = run_supervised(
            spec, cache=ResultCache(state_dir / label / "results"),
            workers=workers, state_dir=state_dir / label, chaos=run_plan,
            retry_budget=retry_budget, lease_ttl=lease_ttl,
            backoff_base=backoff_base,
        )
    clean_doc = runs["clean"].document()
    chaos_doc = runs["chaos"].document()
    fleet = dict(runs["chaos"].fleet or {})
    # A fresh coordinator numbers its only submission sub1.
    journal = state_dir / "chaos" / "subs" / "sub1" / "journal.jsonl"
    return ChaosReport(
        clean_doc=clean_doc,
        chaos_doc=chaos_doc,
        identical=canonical_json(clean_doc) == canonical_json(chaos_doc),
        worker_deaths=int(fleet.get("campaign.worker_deaths", 0)),
        requeues=int(fleet.get("campaign.requeues", 0)),
        kills_journaled=journal_counters(journal)["chaos_kills"],
        quarantined=list(runs["chaos"].quarantined),
        fleet=fleet,
        journal_path=str(journal),
    )
