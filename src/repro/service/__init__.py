"""repro.service: the long-running campaign serving layer.

Turns :mod:`repro.campaign` from a one-shot CLI into a daemon: a
:class:`~repro.service.coordinator.Coordinator` accepts campaign specs
over a JSONL socket API, shards trials across attached worker agents
(each an incarnation-tagged lease consumer), and streams progress to
many concurrent clients, deduplicating work fleet-wide through a
pluggable :class:`~repro.campaign.stores.ResultStore`.
:func:`~repro.service.fleet.run_supervised` runs one spec through an
in-process coordinator with local agents (``campaign run --workers N``;
the only parallel trial runner) and
:func:`~repro.service.fleet.run_chaos_check` proves it recovers
byte-exactly from seeded agent kills.

Import structure: the store backends live in :mod:`repro.campaign.stores`
and are re-exported here and from ``repro.service.stores``; the
coordinator/client/worker/fleet resolve lazily through ``__getattr__``,
so importing the package stays cheap.
"""

from __future__ import annotations

from repro.campaign.stores import (
    DirectoryStore,
    MemoryStore,
    ResultStore,
    SqliteStore,
    open_store,
)

__all__ = [
    "ResultStore",
    "DirectoryStore",
    "SqliteStore",
    "MemoryStore",
    "open_store",
    "Coordinator",
    "ServiceClient",
    "agent_loop",
    "run_supervised",
    "run_chaos_check",
    "ChaosReport",
]

_LAZY = {
    "Coordinator": ("repro.service.coordinator", "Coordinator"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "agent_loop": ("repro.service.worker", "agent_loop"),
    "run_supervised": ("repro.service.fleet", "run_supervised"),
    "run_chaos_check": ("repro.service.fleet", "run_chaos_check"),
    "ChaosReport": ("repro.service.fleet", "ChaosReport"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
