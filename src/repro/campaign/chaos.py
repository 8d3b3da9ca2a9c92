"""Seeded chaos injection for the campaign fleet.

This is :mod:`repro.faults` lifted one layer up: where a
:class:`~repro.faults.FaultPlan` drops packets on the simulated wire,
a :class:`ChaosPlan` SIGKILLs *real worker processes* — the
coordinator's local agents — and the same seeded-substream discipline
applies, so two runs with the same plan kill the same (trial, attempt)
pairs at the same points regardless of worker scheduling.

Kill points, each targeting one death detector of the coordinator:

* ``mid-trial`` — die holding a lease with nothing reported; the
  dropped socket must requeue the trial;
* ``spawn`` — die before taking any lease (worker death while idle);
  drawn per (slot, incarnation) with ``spawn_kill_prob``;
* ``hang`` — sleep forever with the socket still open, so only the
  lease-deadline watchdog can reclaim the trial.

Attempts past ``max_kill_attempts`` are never killed, so every trial
settles: chaos perturbs *when* work happens, never *what* the final
campaign document says — which
:func:`repro.service.fleet.run_chaos_check` proves by byte-comparing
the recovered document against an undisturbed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import CampaignError

__all__ = [
    "KILL_POINTS",
    "ChaosPlan",
    "ChaosState",
]

#: Kill points a plan may draw from (see the module docstring).
KILL_POINTS = ("mid-trial", "spawn", "hang")


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise CampaignError(f"{name} must be a probability in [0, 1], got {p}")


@dataclass(frozen=True)
class ChaosPlan:
    """Immutable, seeded description of the kills to inject."""

    seed: int = 0
    #: Per-(trial, attempt) kill probability.
    kill_prob: float = 0.0
    #: Kill points drawn (uniformly, from the same substream) on a hit.
    points: tuple = ("mid-trial",)
    #: Attempts beyond this are never killed — the termination bound.
    max_kill_attempts: int = 3
    #: Probability a freshly spawned worker dies before its first
    #: lease (the "before lease" kill point; per incarnation).
    spawn_kill_prob: float = 0.0
    #: Kills injected unconditionally: ``(trial_hash, attempt, point)``
    #: triples.  ``run_chaos_check`` uses this to guarantee the
    #: harness always bites — when the seeded draws happen to produce
    #: zero kills for a small trial set, it forces exactly one,
    #: deterministically.
    forced: tuple = ()

    def __post_init__(self) -> None:
        _check_prob("ChaosPlan.kill_prob", self.kill_prob)
        _check_prob("ChaosPlan.spawn_kill_prob", self.spawn_kill_prob)
        for p in self.points:
            if p not in KILL_POINTS:
                raise CampaignError(
                    f"unknown kill point {p!r}; pick from {KILL_POINTS}"
                )
        if not self.points:
            raise CampaignError("ChaosPlan.points is empty")
        if self.max_kill_attempts < 0:
            raise CampaignError(
                f"max_kill_attempts must be >= 0: {self.max_kill_attempts}"
            )
        for entry in self.forced:
            if len(entry) != 3 or entry[2] not in KILL_POINTS:
                raise CampaignError(f"bad forced kill {entry!r}")

    @property
    def armed(self) -> bool:
        return (
            self.kill_prob > 0 or self.spawn_kill_prob > 0 or bool(self.forced)
        )


class ChaosState:
    """Decision maker for a plan (the coordinator holds one).

    Decisions are drawn from ``default_rng([seed, key...])`` substreams
    keyed on the trial hash and attempt (or worker slot and
    incarnation), so they are identical in every process and across
    runs — the chaos schedule is part of the experiment's identity.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self.kills_injected = 0

    @staticmethod
    def _key(trial_hash: str) -> int:
        return int(trial_hash[:12], 16)

    def kill_point(self, trial_hash: str, attempt: int) -> Optional[str]:
        """The kill point for (trial, attempt), or None to run clean."""
        plan = self.plan
        for forced_hash, forced_attempt, point in plan.forced:
            if trial_hash == forced_hash and attempt == forced_attempt:
                self.kills_injected += 1
                return point
        if plan.kill_prob <= 0 or attempt > plan.max_kill_attempts:
            return None
        rng = np.random.default_rng([plan.seed, self._key(trial_hash), attempt])
        if rng.random() >= plan.kill_prob:
            return None
        self.kills_injected += 1
        return plan.points[int(rng.integers(len(plan.points)))]

    def spawn_kill(self, slot: int, incarnation: int) -> bool:
        """Whether this worker incarnation dies before its first lease."""
        plan = self.plan
        if plan.spawn_kill_prob <= 0 or incarnation > plan.max_kill_attempts:
            return False
        rng = np.random.default_rng([plan.seed, 0x5BA, slot, incarnation])
        return bool(rng.random() < plan.spawn_kill_prob)

