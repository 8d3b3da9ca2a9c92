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
other in address can be merged — the merged extent has identical
per-line depths, so coalescing is exactness-preserving.  An access
merges its new top band with the old top of the stack, which keeps the
extent count near the number of *distinct live regions*, not chunks.

Storage is a Python list of extent records, LRU first, plus an address
index: the sorted list of extent starts and a ``start -> record`` dict,
kept current with :mod:`bisect` on every cut, split, merge and trim.
Each operation finds the extents overlapping its range in
O(log n + k) and touches only those.  An ``access`` that overlaps
nothing is a push, a merge with the old top and a trim from the bottom;
only an access with hits walks the stack, to find the depth of the
extents it hits.

Addresses here are **line numbers**, not bytes; callers divide by the
line size.  ``dirty`` tracking enables write-back accounting (evicted
dirty lines become bus traffic in :mod:`repro.hw.coherence`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.errors import HardwareError

__all__ = ["AccessResult", "ExtentLRUCache", "Extent"]


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


class _Rec:
    """One mutable stack entry: lines [start, end)."""

    __slots__ = ("start", "end", "dirty")

    def __init__(self, start: int, end: int, dirty: bool) -> None:
        self.start = start
        self.end = end
        self.dirty = dirty


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
        self._stack: list[_Rec] = []  # LRU first; pairwise disjoint in address
        self._starts: list[int] = []  # sorted extent starts
        self._by_start: dict[int, _Rec] = {}
        self._lines = 0

    # ------------------------------------------------------------- util
    @property
    def used_lines(self) -> int:
        return self._lines

    def __contains__(self, line: int) -> bool:
        i = bisect_right(self._starts, line) - 1
        return i >= 0 and line < self._by_start[self._starts[i]].end

    def iter_extents(self) -> Iterator[Extent]:
        """MRU-to-LRU iteration (for tests and debugging)."""
        for r in reversed(self._stack):
            yield Extent(r.start, r.end, r.dirty)

    def resident_lines(self, start: int, end: int) -> int:
        """How many lines of [start, end) are currently resident."""
        if start >= end:
            return 0
        return sum(
            min(r.end, end) - max(r.start, start)
            for r in self._recs(*self._span(start, end))
        )

    def flush(self) -> int:
        """Drop everything; returns the number of dirty lines flushed."""
        dirty = sum(r.end - r.start for r in self._stack if r.dirty)
        self._stack = []
        self._starts = []
        self._by_start = {}
        self._lines = 0
        return dirty

    def _check(self) -> None:
        """Invariant check used by tests: disjointness, capacity, line
        count, and an address index that matches the stack exactly."""
        recs = sorted(self._stack, key=lambda r: r.start)
        if any(r.start >= r.end for r in recs):
            raise HardwareError(f"{self.name}: empty extent present")
        if any(b.start < a.end for a, b in zip(recs, recs[1:])):
            raise HardwareError(f"{self.name}: overlapping extents")
        total = sum(r.end - r.start for r in recs)
        if total != self._lines:
            raise HardwareError(f"{self.name}: line count drift {total} != {self._lines}")
        if total > self.capacity:
            raise HardwareError(f"{self.name}: over capacity {total} > {self.capacity}")
        if self._starts != [r.start for r in recs]:
            raise HardwareError(f"{self.name}: start index out of step with the stack")
        if len(self._by_start) != len(recs) or any(
            self._by_start.get(r.start) is not r for r in recs
        ):
            raise HardwareError(f"{self.name}: stale or missing address-index entry")

    def _span(self, start: int, end: int) -> tuple[int, int]:
        """Slice [i, j) of ``_starts`` whose extents overlap [start, end)."""
        starts = self._starts
        i = bisect_right(starts, start) - 1
        if i < 0 or self._by_start[starts[i]].end <= start:
            i += 1
        return i, bisect_left(starts, end, i)

    def _recs(self, i: int, j: int) -> list[_Rec]:
        """The extents of ``_starts[i:j]``, in address order."""
        by_start = self._by_start
        return [by_start[s] for s in self._starts[i:j]]

    def _cut(self, start: int, end: int, i: int, j: int) -> tuple[int, int]:
        """Drop [start, end) from the extents in ``_starts[i:j]``, keeping
        stack order; returns (resident_lines, dirty_lines) dropped.

        Fully-covered extents disappear; the (at most two) partially
        covered ones are replaced in place by their outside pieces, the
        higher-address piece above (it is the more recent one).
        """
        stack, by_start = self._stack, self._by_start
        keys = []
        resident = dirty_lines = 0
        for s in self._starts[i:j]:
            r = by_start.pop(s)
            n = min(r.end, end) - max(s, start)
            resident += n
            if r.dirty:
                dirty_lines += n
            if s < start:
                keys.append(s)
                if r.end > end:
                    high = _Rec(end, r.end, r.dirty)
                    stack.insert(stack.index(r) + 1, high)
                    keys.append(end)
                    by_start[end] = high
                r.end = start
                by_start[s] = r
            elif r.end > end:
                r.start = end
                keys.append(end)
                by_start[end] = r
            else:
                stack.remove(r)
        self._starts[i:j] = keys
        self._lines -= resident
        return resident, dirty_lines

    # ------------------------------------------------------------ peek
    def peek(self, start: int, end: int) -> list[tuple[int, int, bool]]:
        """Resident overlaps of [start, end) as (start, end, dirty),
        in address order, without touching LRU state (a snoop probe).
        Address-adjacent same-dirty segments are merged."""
        if start >= end:
            return []
        i, j = self._span(start, end)
        if i == j:
            return []
        out: list[tuple[int, int, bool]] = []
        for r in self._recs(i, j):
            a, b, dirty = max(r.start, start), min(r.end, end), r.dirty
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
        i, j = self._span(start, end)
        if i == j:  # all miss: push, merge with the old top, trim
            self._push([(start, end, write)], i)
            wb = self._trim() if self._lines > cap else 0
            return AccessResult(0, end - start, wb)
        recs = self._recs(i, j)
        # -- 1. depth of each hit extent: lines above it in the stack
        above: dict[int, int] = {id(r): -1 for r in recs}
        todo = len(recs)
        depth = 0
        for r in reversed(self._stack):
            if id(r) in above:
                above[id(r)] = depth
                todo -= 1
                if not todo:
                    break
            depth += r.end - r.start
        # -- 2. sweep in address order, deciding survival per run.
        # Line x in [a, b) has pre-sweep depth d(x) = depth_a-(x-a)
        # and survives iff s(d(x)) > T, where s(d) counts
        # already-hit lines with pre-sweep depth < d; survivors
        # form an address prefix of each run.
        hits = misses = wb_self = 0
        survivors: list[tuple[int, int, bool]] = []
        hit_depths: list[tuple[int, int]] = []
        cursor = start
        for r in recs:
            a, b = max(r.start, start), min(r.end, end)
            depth_a = above[id(r)] + r.end - 1 - a
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
                survivors.append((a, a + survive, r.dirty))
            failed = run_len - survive
            if failed > 0:
                misses += failed
                if r.dirty:
                    wb_self += failed
        misses += end - cursor
        # -- 3. drop R from the old extents, keeping the rest
        self._cut(start, end, i, j)
        # -- 4. the band covering R goes on top
        self._push(
            _build_band(start, end, write, survivors),
            bisect_left(self._starts, start),
        )
        # -- 5. trim to capacity from the bottom
        if self._lines > cap:
            wb_self += self._trim()
        return AccessResult(hits, misses, wb_self)

    def _push(self, band: list[tuple[int, int, bool]], k: int) -> None:
        """Push ``band`` onto the top of the stack, merging its bottom
        piece into the old top when that continues it.

        ``band`` lists (start, end, dirty) pieces in ascending address
        order over a range that holds no resident line; their starts
        belong at ``_starts[k]``.
        """
        stack, by_start = self._stack, self._by_start
        a, b, dirty = band[0]
        self._lines += band[-1][1] - a
        if stack and stack[-1].end == a and stack[-1].dirty == dirty:
            stack[-1].end = b
            band = band[1:]
        keys = []
        for a, b, dirty in band:
            r = _Rec(a, b, dirty)
            stack.append(r)
            by_start[a] = r
            keys.append(a)
        self._starts[k:k] = keys

    def _trim(self) -> int:
        """Evict from the stack bottom until within capacity (the deepest
        line of the deepest extent is its lowest address); returns the
        number of dirty lines written back."""
        wb = 0
        stack, starts, by_start = self._stack, self._starts, self._by_start
        while self._lines > self.capacity:
            r = stack[0]
            excess = self._lines - self.capacity
            size = r.end - r.start
            k = bisect_left(starts, r.start)
            del by_start[r.start]
            if size <= excess:
                del stack[0]
                del starts[k]
                evicted = size
            else:
                r.start += excess
                starts[k] = r.start
                by_start[r.start] = r
                evicted = excess
            self._lines -= evicted
            if r.dirty:
                wb += evicted
        return wb

    # ------------------------------------------------------ coherence
    def invalidate(self, start: int, end: int) -> tuple[int, int]:
        """Remove [start, end); returns (resident_lines, dirty_lines)."""
        if start >= end:
            return (0, 0)
        return self._cut(start, end, *self._span(start, end))

    def downgrade(self, start: int, end: int) -> int:
        """Mark [start, end) clean (after a snoop read forces a
        writeback); returns the number of lines that were dirty."""
        if start >= end:
            return 0
        dirtied = 0
        stack, starts, by_start = self._stack, self._starts, self._by_start
        for r in self._recs(*self._span(start, end)):
            if not r.dirty:
                continue
            a, b, r_end = max(r.start, start), min(r.end, end), r.end
            dirtied += b - a
            # A partially covered extent splits into up to three pieces
            # (dirty low / clean middle / dirty high, bottom to top)
            # preserving the depth convention; the lowest piece keeps
            # the record.
            pieces = []
            if r.start < a:
                r.end = a
                pieces.append(_Rec(a, b, False))
            else:
                r.end, r.dirty = b, False
            if b < r_end:
                pieces.append(_Rec(b, r_end, True))
            if pieces:
                k = stack.index(r) + 1
                stack[k:k] = pieces
                k = bisect_left(starts, r.start) + 1
                starts[k:k] = [p.start for p in pieces]
                for p in pieces:
                    by_start[p.start] = p
        return dirtied


# ---------------------------------------------------------------- helpers
def _build_band(
    start: int, end: int, write: bool, survivors: list[tuple[int, int, bool]]
) -> list[tuple[int, int, bool]]:
    """Pieces covering [start, end) in ascending address order (bottom
    of the band first: the highest address is the most recent).

    After a write the whole band is dirty.  After a read, only the
    surviving parts of previously-dirty runs stay dirty (failed dirty
    lines were written back and refetched clean).
    """
    if write:
        return [(start, end, True)]
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
    return pieces


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
