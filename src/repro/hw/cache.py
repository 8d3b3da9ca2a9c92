"""Exact fully-associative LRU cache, simulated at extent granularity.

The workloads in this reproduction touch memory in *bulk sequential
sweeps* (message copies, working-set scans).  Simulating every line of a
4 MiB copy individually would dominate runtime, so this cache stores its
contents as an LRU-ordered sequence of **extents** — contiguous runs of
cache lines — and processes a whole sweep with interval arithmetic.

The semantics are exactly those of a per-line fully-associative LRU
cache where each bulk access touches its lines in ascending address
order (a property test in ``tests/hw/test_cache_reference.py`` checks
bit-for-bit equality against a naive per-line model, including the
subtle case of sweeps that evict their own earlier lines).

Within one extent, recency ascends with address (the convention induced
by ascending-order sweeps): the highest-addressed line is the most
recently used of the extent.  Stack-adjacent extents that continue each
other in address are merged — the merged extent has identical per-line
depths, so coalescing is exactness-preserving and keeps the extent
count near the number of *distinct live regions*, not chunks.

Storage is three parallel NumPy arrays in MRU-to-LRU order
(``_starts``, ``_ends``, ``_dirty``); every operation is a bulk array
rebuild, so cost scales with the number of extents at NumPy constants.

Addresses here are **line numbers**, not bytes; callers divide by the
line size.  ``dirty`` tracking enables write-back accounting (evicted
dirty lines become bus traffic in :mod:`repro.hw.coherence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import HardwareError

__all__ = ["AccessResult", "ExtentLRUCache", "Extent"]

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_B = np.empty(0, dtype=bool)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one bulk access."""

    hits: int
    misses: int
    writebacks: int  # dirty lines evicted (to be charged as bus traffic)

    @property
    def lines(self) -> int:
        return self.hits + self.misses


@dataclass(frozen=True)
class Extent:
    """A contiguous run of resident lines (read-only view for tests)."""

    start: int
    end: int
    dirty: bool

    def __len__(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        flag = "D" if self.dirty else "C"
        return f"Extent[{self.start},{self.end}){flag}"


class ExtentLRUCache:
    """Fully-associative LRU cache over line extents.

    Parameters
    ----------
    capacity_lines:
        Cache size in lines (e.g. 4 MiB / 64 B = 65536).
    name:
        For diagnostics (e.g. ``"L2.die0"``).
    """

    def __init__(self, capacity_lines: int, name: str = "") -> None:
        if capacity_lines <= 0:
            raise HardwareError(f"cache capacity must be positive: {capacity_lines}")
        self.capacity = capacity_lines
        self.name = name
        # MRU first; pairwise disjoint in address.
        self._starts = _EMPTY_I
        self._ends = _EMPTY_I
        self._dirty = _EMPTY_B
        self._lines = 0

    # ------------------------------------------------------------- util
    @property
    def used_lines(self) -> int:
        return self._lines

    def __contains__(self, line: int) -> bool:
        return bool(np.any((self._starts <= line) & (line < self._ends)))

    def iter_extents(self) -> Iterator[Extent]:
        """MRU-to-LRU iteration (for tests and debugging)."""
        for s, e, d in zip(
            self._starts.tolist(), self._ends.tolist(), self._dirty.tolist()
        ):
            yield Extent(s, e, d)

    def resident_lines(self, start: int, end: int) -> int:
        """How many lines of [start, end) are currently resident."""
        if start >= end or not len(self._starts):
            return 0
        lo = np.maximum(self._starts, start)
        hi = np.minimum(self._ends, end)
        return int(np.maximum(hi - lo, 0).sum())

    def flush(self) -> int:
        """Drop everything; returns the number of dirty lines flushed."""
        dirty = int(((self._ends - self._starts) * self._dirty).sum())
        self._set(_EMPTY_I, _EMPTY_I, _EMPTY_B)
        return dirty

    def _set(self, starts, ends, dirty) -> None:
        self._starts = starts
        self._ends = ends
        self._dirty = dirty
        self._lines = int((ends - starts).sum())

    def _check(self) -> None:
        """Invariant check used by tests (disjointness, capacity, count)."""
        order = np.argsort(self._starts)
        s = self._starts[order]
        e = self._ends[order]
        if np.any(s >= e):
            raise HardwareError(f"{self.name}: empty extent present")
        if np.any(s[1:] < e[:-1]):
            raise HardwareError(f"{self.name}: overlapping extents")
        total = int((self._ends - self._starts).sum())
        if total != self._lines:
            raise HardwareError(f"{self.name}: line count drift {total} != {self._lines}")
        if total > self.capacity:
            raise HardwareError(f"{self.name}: over capacity {total} > {self.capacity}")

    # ------------------------------------------------------------ peek
    def peek(self, start: int, end: int) -> list[tuple[int, int, bool]]:
        """Resident overlaps of [start, end) as (start, end, dirty),
        in address order, without touching LRU state (a snoop probe).
        Address-adjacent same-dirty segments are merged."""
        if start >= end or not len(self._starts):
            return []
        lo = np.maximum(self._starts, start)
        hi = np.minimum(self._ends, end)
        mask = lo < hi
        if not mask.any():
            return []
        raw = sorted(zip(lo[mask].tolist(), hi[mask].tolist(), self._dirty[mask].tolist()))
        out: list[tuple[int, int, bool]] = []
        for a, b, dirty in raw:
            if out and out[-1][1] == a and out[-1][2] == dirty:
                out[-1] = (out[-1][0], b, dirty)
            else:
                out.append((a, b, dirty))
        return out

    # ---------------------------------------------------------- access
    def access(self, start: int, end: int, write: bool) -> AccessResult:
        """Bulk access of lines [start, end) in ascending order.

        Returns exact hit/miss counts and the number of dirty lines
        evicted (both mid-sweep self-evictions and capacity evictions).
        """
        if start >= end:
            return AccessResult(0, 0, 0)
        cap = self.capacity
        starts, ends, dirty = self._starts, self._ends, self._dirty
        n = len(starts)

        # -- 1. resident runs of R with the depth of their first line
        if n:
            lo = np.maximum(starts, start)
            hi = np.minimum(ends, end)
            ov = lo < hi
        else:
            ov = _EMPTY_B
        hits = 0
        misses = 0
        wb_self = 0
        survivors: list[tuple[int, int, bool]] = []
        if ov.any():
            sizes = ends - starts
            prefixes = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            idx = np.nonzero(ov)[0]
            run_lo = lo[idx]
            order = np.argsort(run_lo, kind="stable")
            idx = idx[order]
            runs = zip(
                lo[idx].tolist(),
                hi[idx].tolist(),
                dirty[idx].tolist(),
                (prefixes[idx] + ends[idx] - 1 - lo[idx]).tolist(),
            )
            # -- 2. sweep in address order, deciding survival per run.
            # Line x in [a, b) has pre-sweep depth d(x) = depth_a-(x-a)
            # and survives iff s(d(x)) > T, where s(d) counts
            # already-hit lines with pre-sweep depth < d; survivors
            # form an address prefix of each run.
            hit_depths: list[tuple[int, int]] = []
            cursor = start
            for a, b, run_dirty, depth_a in runs:
                misses += a - cursor
                cursor = b
                run_len = b - a
                T = hits + misses + depth_a - cap
                if T < 0:
                    survive = run_len
                else:
                    survive = _count_surviving(
                        hit_depths, depth_a - (run_len - 1), depth_a, T
                    )
                if survive > 0:
                    hits += survive
                    hit_depths.append((depth_a - survive + 1, depth_a + 1))
                    survivors.append((a, a + survive, run_dirty))
                failed = run_len - survive
                if failed > 0:
                    misses += failed
                    if run_dirty:
                        wb_self += failed
            misses += end - cursor
        else:
            misses = end - start

        # -- 3. top band covering R (descending address order)
        band = _build_band(start, end, write, survivors)

        # -- 4. remaining old extents: drop the overlap, keep the rest
        if n:
            new_starts, new_ends, new_dirty = _remove_range(
                starts, ends, dirty, start, end, ov
            )
            bs, be, bd = band
            new_starts = np.concatenate((bs, new_starts))
            new_ends = np.concatenate((be, new_ends))
            new_dirty = np.concatenate((bd, new_dirty))
        else:
            new_starts, new_ends, new_dirty = band

        # -- 5. trim to capacity from the bottom (deepest line of the
        # deepest extent = its lowest address)
        new_starts, new_ends, new_dirty, wb_evict = _trim(
            new_starts, new_ends, new_dirty, cap
        )
        self._set(*_merge_stack(new_starts, new_ends, new_dirty))
        return AccessResult(hits, misses, wb_self + wb_evict)

    # ------------------------------------------------------ coherence
    def invalidate(self, start: int, end: int) -> tuple[int, int]:
        """Remove [start, end); returns (resident_lines, dirty_lines)."""
        starts, ends, dirty = self._starts, self._ends, self._dirty
        if start >= end or not len(starts):
            return (0, 0)
        lo = np.maximum(starts, start)
        hi = np.minimum(ends, end)
        ov = lo < hi
        if not ov.any():
            return (0, 0)
        overlap = np.maximum(hi - lo, 0)
        resident = int(overlap[ov].sum())
        dirty_lines = int(overlap[ov & dirty].sum())
        self._set(*_remove_range(starts, ends, dirty, start, end, ov))
        return resident, dirty_lines

    def downgrade(self, start: int, end: int) -> int:
        """Mark [start, end) clean (after a snoop read forces a
        writeback); returns the number of lines that were dirty."""
        starts, ends, dirty = self._starts, self._ends, self._dirty
        if start >= end or not len(starts):
            return 0
        lo = np.maximum(starts, start)
        hi = np.minimum(ends, end)
        hot = (lo < hi) & dirty
        if not hot.any():
            return 0
        dirtied = int(np.maximum(hi - lo, 0)[hot].sum())
        # Fully-covered dirty extents just flip clean; partially covered
        # ones split into up to three pieces (high / clean middle / low)
        # preserving the depth convention.
        out_s: list[np.ndarray] = []
        out_e: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        full = hot & (starts >= start) & (ends <= end)
        partial_idx = np.nonzero(hot & ~full)[0]
        new_dirty = dirty.copy()
        new_dirty[full] = False
        prev = 0
        for i in partial_idx.tolist():
            _append_rows(out_s, out_e, out_d, starts, ends, new_dirty, prev, i)
            a, b = max(starts[i], start), min(ends[i], end)
            piece_s, piece_e, piece_d = [], [], []
            if b < ends[i]:
                piece_s.append(b)
                piece_e.append(ends[i])
                piece_d.append(True)
            piece_s.append(a)
            piece_e.append(b)
            piece_d.append(False)
            if starts[i] < a:
                piece_s.append(starts[i])
                piece_e.append(a)
                piece_d.append(True)
            out_s.append(np.array(piece_s, dtype=np.int64))
            out_e.append(np.array(piece_e, dtype=np.int64))
            out_d.append(np.array(piece_d, dtype=bool))
            prev = i + 1
        _append_rows(out_s, out_e, out_d, starts, ends, new_dirty, prev, len(starts))
        self._set(
            np.concatenate(out_s) if out_s else _EMPTY_I,
            np.concatenate(out_e) if out_e else _EMPTY_I,
            np.concatenate(out_d) if out_d else _EMPTY_B,
        )
        return dirtied


# ---------------------------------------------------------------- helpers
def _append_rows(out_s, out_e, out_d, starts, ends, dirty, lo: int, hi: int) -> None:
    if lo < hi:
        out_s.append(starts[lo:hi])
        out_e.append(ends[lo:hi])
        out_d.append(dirty[lo:hi])


def _remove_range(starts, ends, dirty, start: int, end: int, ov) -> tuple:
    """Drop [start, end) from the extents, keeping stack order.

    Fully-covered extents disappear; the (at most two) partially
    covered ones are replaced in place by their outside pieces, the
    higher-address piece first (it is the more recent one).
    """
    full = ov & (starts >= start) & (ends <= end)
    partial_idx = np.nonzero(ov & ~full)[0]
    keep = ~ov
    if not len(partial_idx):
        return starts[keep], ends[keep], dirty[keep]
    out_s: list[np.ndarray] = []
    out_e: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    prev = 0

    def keep_slice(lo, hi):
        if lo < hi:
            m = keep[lo:hi]
            out_s.append(starts[lo:hi][m])
            out_e.append(ends[lo:hi][m])
            out_d.append(dirty[lo:hi][m])

    for i in partial_idx.tolist():
        keep_slice(prev, i)
        piece_s, piece_e = [], []
        a, b = max(starts[i], start), min(ends[i], end)
        if b < ends[i]:  # higher-address remainder first (more recent)
            piece_s.append(b)
            piece_e.append(ends[i])
        if starts[i] < a:
            piece_s.append(starts[i])
            piece_e.append(a)
        out_s.append(np.array(piece_s, dtype=np.int64))
        out_e.append(np.array(piece_e, dtype=np.int64))
        out_d.append(np.full(len(piece_s), bool(dirty[i])))
        prev = i + 1
    keep_slice(prev, len(starts))
    return np.concatenate(out_s), np.concatenate(out_e), np.concatenate(out_d)


def _build_band(start: int, end: int, write: bool, survivors) -> tuple:
    """Piece arrays covering [start, end) in DESCENDING address order
    (most recent = highest address first).

    After a write the whole band is dirty.  After a read, only the
    surviving parts of previously-dirty runs stay dirty (failed dirty
    lines were written back and refetched clean).
    """
    if write:
        return (
            np.array([start], dtype=np.int64),
            np.array([end], dtype=np.int64),
            np.array([True]),
        )
    pieces: list[tuple[int, int, bool]] = []
    cursor = start

    def emit(a: int, b: int, dirty: bool) -> None:
        if a >= b:
            return
        if pieces and pieces[-1][1] == a and pieces[-1][2] == dirty:
            pieces[-1] = (pieces[-1][0], b, dirty)
        else:
            pieces.append((a, b, dirty))

    for a, b, dirty in survivors:
        if not dirty:
            continue
        emit(cursor, a, False)
        emit(a, b, True)
        cursor = b
    emit(cursor, end, False)
    pieces.reverse()
    return (
        np.array([p[0] for p in pieces], dtype=np.int64),
        np.array([p[1] for p in pieces], dtype=np.int64),
        np.array([p[2] for p in pieces], dtype=bool),
    )


def _trim(starts, ends, dirty, cap: int) -> tuple:
    """Evict from the stack bottom until within capacity; returns the
    trimmed arrays and the number of dirty lines written back."""
    sizes = ends - starts
    total = int(sizes.sum())
    if total <= cap:
        return starts, ends, dirty, 0
    cum = np.cumsum(sizes)
    # First extent index at which the running total exceeds capacity.
    cut = int(np.searchsorted(cum, cap, side="left"))
    wb = int((sizes[cut + 1 :] * dirty[cut + 1 :]).sum())
    keep_in_cut = cap - (int(cum[cut - 1]) if cut > 0 else 0)
    excess_in_cut = int(sizes[cut]) - keep_in_cut
    if dirty[cut]:
        wb += excess_in_cut
    starts = starts[: cut + 1].copy()
    ends = ends[: cut + 1]
    dirty = dirty[: cut + 1]
    if keep_in_cut == 0:
        starts, ends, dirty = starts[:cut], ends[:cut], dirty[:cut]
    else:
        # Deepest lines of an extent are its lowest addresses.
        starts[cut] = ends[cut] - keep_in_cut
    return starts, ends, dirty, wb


def _merge_stack(starts, ends, dirty) -> tuple:
    """Coalesce stack-adjacent extents that continue each other.

    If extent ``A`` sits directly above ``B`` in the stack and
    ``A.start == B.end`` with equal dirty flags, the merged extent has
    *identical* per-line depths under the ascending-recency convention,
    so merging is exactness-preserving.  Chunked sweeps produce exactly
    this pattern; without merging the stack would hold one extent per
    chunk.
    """
    n = len(starts)
    if n < 2:
        return starts, ends, dirty
    brk = (starts[:-1] != ends[1:]) | (dirty[:-1] != dirty[1:])
    if brk.all():
        return starts, ends, dirty
    heads = np.concatenate(([True], brk))
    tails = np.concatenate((brk, [True]))
    return starts[tails], ends[heads], dirty[heads]


def _count_surviving(
    hit_depths: list[tuple[int, int]], d_lo: int, d_hi: int, T: int
) -> int:
    """Count depths d in [d_lo, d_hi] (inclusive) with s(d) > T, where
    s(d) = number of already-hit lines with pre-sweep depth < d.

    s is nondecreasing in d, so qualifying depths are a suffix; binary
    search for its start.
    """

    def s(d: int) -> int:
        return sum(max(0, min(hi, d) - lo) for lo, hi in hit_depths)

    if s(d_hi) <= T:
        return 0
    if s(d_lo) > T:
        return d_hi - d_lo + 1
    lo, hi = d_lo, d_hi
    while lo < hi:
        mid = (lo + hi) // 2
        if s(mid) > T:
            hi = mid
        else:
            lo = mid + 1
    return d_hi - lo + 1
