"""Seeded differential test: ExtentLRUCache against the per-line
reference at the extent counts a NAS IS run reaches (hundreds of live
extents per L2).

The hypothesis suites cap capacity at 64 lines, so their caches never
hold more than a few dozen extents; the address index and the stack
walk of a large cache are exercised here instead.
"""

import random

from repro.hw.cache import ExtentLRUCache

from .reference_cache import ReferenceLRUCache

CAPACITY = 6000
NBUFS = 600
GAP = 48  # lines between buffer slots: buffers never touch
UNIVERSE = NBUFS * GAP
MIN_EXTENTS = 200


def _buffers(rng):
    """Scattered 1-32-line buffers, one per GAP-line slot."""
    out = []
    for k in range(NBUFS):
        length = rng.randint(1, 32)
        start = k * GAP + rng.randint(0, GAP - 32)
        out.append((start, start + length))
    return out


def _range(rng, bufs):
    """A whole buffer, a sub-range of one, or a run over neighbours."""
    k = rng.randrange(NBUFS)
    start, end = bufs[k]
    roll = rng.random()
    if roll < 0.15 and end - start > 1:
        a = rng.randrange(start, end)
        return a, rng.randint(a + 1, end)
    if roll < 0.25:
        return start, bufs[min(NBUFS - 1, k + rng.randint(1, 3))][1]
    return start, end


def test_many_extents_match_reference():
    rng = random.Random(20090922)
    bufs = _buffers(rng)
    ext = ExtentLRUCache(CAPACITY)
    ref = ReferenceLRUCache(CAPACITY)
    peak = 0
    for i in range(4000):
        start, end = _range(rng, bufs)
        roll = rng.random()
        if roll < 0.7:
            write = rng.random() < 0.5
            got = ext.access(start, end, write)
            want = ref.access(start, end, write)
            assert (got.hits, got.misses, got.writebacks) == want, (i, start, end)
        elif roll < 0.85:
            assert ext.invalidate(start, end) == ref.invalidate(start, end), i
        else:
            assert ext.downgrade(start, end) == ref.downgrade(start, end), i
        ext._check()
        assert ext.used_lines == ref.used_lines
        lo, hi = start - GAP, end + GAP
        assert ext.peek(lo, hi) == ref.peek(lo, hi), i
        assert ext.resident_lines(lo, hi) == ref.resident_lines(lo, hi), i
        peak = max(peak, sum(1 for _ in ext.iter_extents()))
        if i % 500 == 499:
            assert ext.peek(0, UNIVERSE) == ref.peek(0, UNIVERSE), i
    assert ext.peek(0, UNIVERSE) == ref.peek(0, UNIVERSE)
    assert peak >= MIN_EXTENTS, f"cache peaked at {peak} extents"
