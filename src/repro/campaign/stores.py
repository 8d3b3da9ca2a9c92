"""Pluggable result stores: the serving layer's dedup substrate.

The campaign stack's content-addressed result cache used to *be* a
directory of ``<hash>.json`` files.  The coordinator serves many
concurrent clients off one shared store, so the backing becomes an
interface — :class:`ResultStore` — with three implementations:

* :class:`DirectoryStore` — the original layout (one atomic JSON file
  per trial hash), still the default and still what the chaos harness
  tears mid-write;
* :class:`SqliteStore` — one connection, WAL journal mode, the content
  hash as primary key.  WAL gives concurrent readers/writers across
  the fleet's processes one file instead of one file *per record*, and
  a truncated/corrupt database file is detected, moved aside and the
  schema rebuilt empty — the lease journal's recovery scan then
  requeues every trial whose result went missing, so the store heals
  by *re-deriving* its contents, never by trusting damaged bytes;
* :class:`MemoryStore` — records held as serialized JSON text in a
  dict; process-local, for tests and cacheless one-shots.

Every store heals its own corruption (a record that will not parse is
deleted and reported as a miss — the trial simply re-runs) and owns
``sweep_tmp`` (a no-op where the backing has no tmp litter).  The
read-side hit/miss counters stay in the
:class:`~repro.campaign.cache.ResultCache` facade, which fronts any of
these backends without its callers noticing.

Keys are hex content hashes (see :func:`repro.campaign.spec.trial_hash`);
:func:`check_key` rejects anything else before it can touch the
backing, which is also what keeps the directory store's filenames and
the sqlite store's primary keys injection-proof.

:func:`open_store` maps a URL-ish string to a backend — ``sqlite:`` or
a ``.db`` suffix picks sqlite, ``mem:`` picks memory, anything else is
a directory path — so worker processes can reopen the coordinator's
store from one string.
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import string
from pathlib import Path
from typing import Optional

from repro.bench.store import atomic_write_text
from repro.errors import BenchmarkError

__all__ = [
    "ResultStore",
    "DirectoryStore",
    "SqliteStore",
    "MemoryStore",
    "open_store",
    "check_key",
    "STORE_KINDS",
]

#: Backend names :func:`open_store` understands (besides raw paths).
STORE_KINDS = ("directory", "sqlite", "memory")

_HEX = set(string.hexdigits.lower())


def check_key(key: str) -> str:
    """Validate a store key (hex content hash); returns it unchanged."""
    if not key or not set(key) <= _HEX:
        raise BenchmarkError(f"store key is not a hex digest: {key!r}")
    return key


def _parse(text: str) -> Optional[dict]:
    """The stored payload as a dict, or None if it is corrupt."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class ResultStore(abc.ABC):
    """Keyed record storage with self-healing reads.

    Contract shared by every backend:

    * :meth:`get` returns the stored dict or ``None`` — and a record
      that fails to parse is *deleted* before the miss is returned
      (``corrupt_healed`` counts these), so torn writes from any
      pre-atomic path can never wedge a trial;
    * :meth:`put` is atomic with respect to concurrent readers;
    * :attr:`url` is a string from which :func:`open_store` rebuilds
      an equivalent handle (worker processes use it);
    * :attr:`shared` says whether two processes opening :attr:`url`
      see the same records — the supervised fleet refuses stores where
      that is false.
    """

    #: Backend name ("directory" / "sqlite" / "memory").
    kind: str = "?"
    #: True when the backing is visible across processes.
    shared: bool = True

    def __init__(self) -> None:
        #: Corrupt records deleted-and-missed by :meth:`get`.
        self.corrupt_healed = 0
        #: Wholesale re-initializations (sqlite truncation recovery).
        self.rebuilt = 0

    @property
    @abc.abstractmethod
    def url(self) -> str:
        """String :func:`open_store` maps back to this backing."""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[dict]:
        """The stored record, or None (healing corruption en route)."""

    @abc.abstractmethod
    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (replacing any previous)."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key`` if present (idempotent)."""

    @abc.abstractmethod
    def keys(self) -> list[str]:
        """All stored keys, sorted."""

    def sweep_tmp(self) -> int:
        """Delete stale partial-write litter; returns how many items.

        Only the directory backend actually accumulates ``.tmp`` files
        (killed writers); the others override this with real work only
        if their backing needs it.
        """
        return 0

    def close(self) -> None:
        """Release backend handles (connections, file descriptors)."""

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def describe(self) -> str:
        return f"{self.kind} store at {self.url} ({len(self)} records)"


class DirectoryStore(ResultStore):
    """One atomic JSON file per key under a single directory."""

    kind = "directory"
    shared = True

    def __init__(self, root: str | Path) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def url(self) -> str:
        return str(self.root)

    def path(self, key: str) -> Path:
        return self.root / f"{check_key(key)}.json"

    def get(self, key: str) -> Optional[dict]:
        path = self.path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        payload = _parse(text)
        if payload is None:
            # Torn write from a pre-atomic store or manual tampering:
            # delete it so the trial re-runs and rewrites it.
            path.unlink(missing_ok=True)
            self.corrupt_healed += 1
            return None
        return payload

    def put(self, key: str, record: dict) -> None:
        # Unsorted, unlike atomic_write_json: every backend hands a
        # record back with the key order it was stored with.
        atomic_write_text(self.path(key), json.dumps(record, indent=2) + "\n")

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        # Cheaper than get(): presence is the filename, no parse.
        return self.path(key).exists()

    def sweep_tmp(self) -> int:
        """Delete stale ``.tmp`` files (writers killed mid-write).

        A ``.tmp`` is always either a finished write that never got
        renamed or a torn one — in both cases the trial re-runs, so
        the file is pure litter.
        """
        stale = list(self.root.glob("*.tmp"))
        for path in stale:
            path.unlink(missing_ok=True)
        return len(stale)


class SqliteStore(ResultStore):
    """All records in one SQLite database (WAL mode, hash primary key).

    One connection per process; WAL journal mode lets the fleet's
    worker processes read and write concurrently.  Records are stored
    as JSON text so they round-trip byte-for-byte (key order included)
    through the same serializer the directory store uses.

    A database file that SQLite refuses to read — truncated by a torn
    copy, overwritten, flipped bits in the header — is *rebuilt*: the
    damaged file is moved aside to ``<name>.corrupt`` and an empty
    schema recreated.  Recovery of the *contents* belongs to the lease
    journal: replay marks every trial ``done``, the post-replay scan
    finds the store empty, and requeues them all (the
    ``store-missing`` path in :meth:`repro.campaign.queue.LeaseQueue.recover`).
    """

    kind = "sqlite"
    shared = True

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS results ("
        "  key TEXT PRIMARY KEY,"
        "  payload TEXT NOT NULL"
        ")"
    )

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._connect()

    @property
    def url(self) -> str:
        return f"sqlite:{self.path}"

    # ------------------------------------------------------- connection
    def _connect(self) -> None:
        # check_same_thread off: the coordinator calls in from its
        # connection-handler and tick threads, serialized by its lock —
        # the store never sees concurrent statements on one connection.
        self._conn = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(self._SCHEMA)
        except sqlite3.DatabaseError:
            self._rebuild()

    def _rebuild(self) -> None:
        """Move the unreadable database aside and start empty.

        The journal replay re-derives what was lost: every ``done``
        trial with no stored record is requeued and re-runs, so the
        rebuilt store converges on exactly the same contents.
        """
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if self.path.exists():
            self.path.replace(self.path.with_suffix(".corrupt"))
        for suffix in ("-wal", "-shm"):
            Path(str(self.path) + suffix).unlink(missing_ok=True)
        self.rebuilt += 1
        # check_same_thread off: the coordinator calls in from its
        # connection-handler and tick threads, serialized by its lock —
        # the store never sees concurrent statements on one connection.
        self._conn = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(self._SCHEMA)

    def _execute(self, sql: str, params: tuple = ()):
        """Run one statement, rebuilding once on a damaged database."""
        try:
            return self._conn.execute(sql, params)
        except sqlite3.DatabaseError as exc:
            if isinstance(exc, sqlite3.OperationalError) and "locked" in str(exc):
                raise
            self._rebuild()
            return self._conn.execute(sql, params)

    # ------------------------------------------------------------- CRUD
    def get(self, key: str) -> Optional[dict]:
        row = self._execute(
            "SELECT payload FROM results WHERE key = ?", (check_key(key),)
        ).fetchone()
        if row is None:
            return None
        payload = _parse(row[0])
        if payload is None:
            self._execute("DELETE FROM results WHERE key = ?", (key,))
            self.corrupt_healed += 1
            return None
        return payload

    def put(self, key: str, record: dict) -> None:
        self._execute(
            "INSERT OR REPLACE INTO results (key, payload) VALUES (?, ?)",
            (check_key(key), json.dumps(record)),
        )

    def delete(self, key: str) -> None:
        self._execute("DELETE FROM results WHERE key = ?", (check_key(key),))

    def keys(self) -> list[str]:
        rows = self._execute("SELECT key FROM results ORDER BY key").fetchall()
        return [r[0] for r in rows]

    def __contains__(self, key: str) -> bool:
        row = self._execute(
            "SELECT 1 FROM results WHERE key = ?", (check_key(key),)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return int(
            self._execute("SELECT COUNT(*) FROM results").fetchone()[0]
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class MemoryStore(ResultStore):
    """Records as serialized JSON text in a dict (tests, one-shots).

    Serializing instead of keeping live dicts is deliberate: reads see
    exactly what a durable backend would return (an independent copy,
    key order preserved, mutation-proof), and the corruption-healing
    path stays testable by injecting garbage text.
    """

    kind = "memory"
    shared = False

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[str, str] = {}

    @property
    def url(self) -> str:
        return "mem:"

    def get(self, key: str) -> Optional[dict]:
        text = self._data.get(check_key(key))
        if text is None:
            return None
        payload = _parse(text)
        if payload is None:
            del self._data[key]
            self.corrupt_healed += 1
            return None
        return payload

    def put(self, key: str, record: dict) -> None:
        self._data[check_key(key)] = json.dumps(record)

    def delete(self, key: str) -> None:
        self._data.pop(check_key(key), None)

    def keys(self) -> list[str]:
        return sorted(self._data)

    def __contains__(self, key: str) -> bool:
        return check_key(key) in self._data

    def __len__(self) -> int:
        return len(self._data)

    # Test hook: plant a corrupt record without going through put().
    def inject_corrupt(self, key: str, text: str = "{torn") -> None:
        self._data[check_key(key)] = text


def open_store(url: str | Path) -> ResultStore:
    """Map a URL-ish string to a backend.

    ``sqlite:<path>`` (or any path ending in ``.db``) opens a
    :class:`SqliteStore`; ``mem:`` a fresh :class:`MemoryStore`;
    anything else is a :class:`DirectoryStore` root.  Round-trips
    every store's :attr:`~ResultStore.url`.
    """
    url = str(url)
    if url.startswith("sqlite:"):
        return SqliteStore(url[len("sqlite:"):])
    if url.startswith("mem:"):
        return MemoryStore()
    if url.endswith(".db"):
        return SqliteStore(url)
    return DirectoryStore(url)
