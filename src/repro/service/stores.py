"""The result-store backends, under their serving-layer import path.

They live in :mod:`repro.campaign.stores`, below the coordinator; this
module re-exports them so ``from repro.service.stores import ...``
keeps working.
"""

from repro.campaign.stores import (
    STORE_KINDS,
    DirectoryStore,
    MemoryStore,
    ResultStore,
    SqliteStore,
    check_key,
    open_store,
)

__all__ = [
    "ResultStore",
    "DirectoryStore",
    "SqliteStore",
    "MemoryStore",
    "open_store",
    "check_key",
    "STORE_KINDS",
]
