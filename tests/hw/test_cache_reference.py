"""Property tests: ExtentLRUCache must match the naive per-line LRU
reference bit-for-bit on arbitrary access sequences.

This is the cornerstone of the reproduction: Table 2's cache-miss
counts and all copy timings derive from this model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import ExtentLRUCache

from .reference_cache import ReferenceLRUCache

# An operation: (kind, start, length, write)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["access", "access", "access", "invalidate", "downgrade"]),
        st.integers(min_value=0, max_value=40),   # start line
        st.integers(min_value=0, max_value=30),   # length
        st.booleans(),                            # write flag (access only)
    ),
    min_size=1,
    max_size=30,
)

_capacities = st.integers(min_value=1, max_value=24)


def _apply(cache, kind, start, length, write):
    end = start + length
    if kind == "access":
        return cache.access(start, end, write)
    if kind == "invalidate":
        return cache.invalidate(start, end)
    return cache.downgrade(start, end)


@settings(max_examples=400, deadline=None)
@given(capacity=_capacities, ops=_ops, data=st.data())
def test_extent_cache_matches_reference(capacity, ops, data):
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for i, (kind, start, length, write) in enumerate(ops):
        got = _apply(ext, kind, start, length, write)
        want = _apply(ref, kind, start, length, write)
        if kind == "access":
            assert (got.hits, got.misses, got.writebacks) == want, (
                f"op {i}: {kind}[{start},{start+length}) write={write}: "
                f"extent={got} reference={want}"
            )
        else:
            assert got == want, f"op {i}: {kind} mismatch {got} != {want}"
        ext._check()
        assert ext.used_lines == ref.used_lines
        # Full residency comparison over the touched universe.
        assert ext.peek(0, 80) == ref.peek(0, 80), f"state diverged at op {i}"
        # resident_lines and ``in`` answer from the address index, not
        # from peek: check both on a random sub-range.
        lo = data.draw(st.integers(min_value=0, max_value=80), label=f"lo{i}")
        hi = data.draw(st.integers(min_value=lo, max_value=80), label=f"hi{i}")
        assert ext.resident_lines(lo, hi) == ref.resident_lines(lo, hi), (
            f"op {i}: resident_lines[{lo},{hi}) diverged"
        )
        for line in range(lo, hi):
            assert (line in ext) == (line in ref), f"op {i}: line {line} membership"


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=4, max_value=64),
    sweeps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=120),  # sweeps larger than cache
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_large_sweeps_match_reference(capacity, sweeps):
    """Focus on the self-eviction regime (sweep length > capacity)."""
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for start, length, write in sweeps:
        got = ext.access(start, start + length, write)
        want = ref.access(start, start + length, write)
        assert (got.hits, got.misses, got.writebacks) == want
        ext._check()
        assert ext.peek(0, 230) == ref.peek(0, 230)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=32),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=8),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_dense_small_accesses_match_reference(capacity, ops):
    """Dense overlapping small accesses maximize extent fragmentation."""
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for start, length, write in ops:
        got = ext.access(start, start + length, write)
        want = ref.access(start, start + length, write)
        assert (got.hits, got.misses, got.writebacks) == want
        ext._check()
        assert ext.peek(0, 40) == ref.peek(0, 40)
