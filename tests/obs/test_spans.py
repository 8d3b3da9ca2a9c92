"""Span causality: one message == one connected tree.

The load-bearing property of repro.obs is that every span a message
produces — the rendezvous handshake, the KNEM cookie, each DMA
descriptor, every NIC attempt — links back (transitively) to the
``msg.send`` root, so a trace viewer groups the whole journey under
one id.  These tests pin that for the intranode knem+ioat path and for
fault-injected internode retransmission.
"""

from repro import ClusterSpec, FaultPlan, ObsConfig, run_cluster, run_mpi
from repro.hw import xeon_e5345
from repro.obs import ObsCollector
from repro.units import KiB, MiB

TOPO = xeon_e5345()
SPEC = ClusterSpec(node=TOPO, nnodes=2)
PAIR = [(0, 0), (1, 0)]


def _pingpong(nbytes, reps=1):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        status = None
        for rep in range(reps):
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                status = yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)
        return status.path if status else None

    return main


# ------------------------------------------------------- collector unit
def test_disabled_collector_is_inert():
    obs = ObsCollector()
    assert not obs.enabled
    span = obs.begin("x", kind="msg", track="core0")
    assert span is None
    obs.end(span)  # no-op, must not raise
    obs.annotate(span, a=1)
    assert obs.spans == []


def test_parent_links_and_trace_ids():
    obs = ObsCollector(config=ObsConfig(spans=True))
    root = obs.begin("msg.send", kind="msg", track="core0")
    child = obs.begin("cts.wait", kind="handshake", track="core0", parent=root)
    grandchild = obs.begin("dma.copy", kind="dma", track="dma.ch0",
                           parent=child.context)
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert root.trace_id == child.trace_id == grandchild.trace_id
    other = obs.begin("msg.send", kind="msg", track="core1")
    assert other.trace_id != root.trace_id
    assert obs.roots() == [root, other]
    assert set(s.span_id for s in obs.iter_descendants(root)) == {
        child.span_id,
        grandchild.span_id,
    }


def test_max_spans_keeps_newest_and_counts_drops():
    obs = ObsCollector(config=ObsConfig(spans=True, max_spans=2))
    for i in range(5):
        s = obs.begin(f"s{i}", kind="copy", track="core0")
        obs.end(s)
    assert [s.name for s in obs.spans] == ["s3", "s4"]
    assert obs.dropped_spans == 3


def test_span_clock_uses_engine_time():
    now = [0.0]
    obs = ObsCollector(config=ObsConfig(spans=True), clock=lambda: now[0])
    span = obs.begin("work", kind="copy", track="core0")
    now[0] = 2.5
    obs.end(span, nbytes=64)
    assert span.start == 0.0 and span.end == 2.5
    assert span.duration == 2.5
    assert span.attrs["nbytes"] == 64


# ------------------------------------------------- knem+ioat pingpong
def test_knem_ioat_pingpong_builds_one_tree_per_message():
    result = run_mpi(
        TOPO, 2, _pingpong(1 * MiB, reps=2), bindings=[0, 4],
        mode="knem-ioat", obs=ObsConfig(spans=True),
    )
    assert result.results[1] == "knem+ioat"
    obs = result.obs
    roots = obs.roots()
    # 2 reps x 2 directions = 4 messages, each one root.
    assert len(roots) == 4
    assert all(r.name == "msg.send" and r.kind == "msg" for r in roots)
    for root in roots:
        kinds = {s.kind for s in obs.iter_descendants(root)}
        names = {s.name for s in obs.iter_descendants(root)}
        # The whole journey hangs off the send: receive side, the
        # RTS/CTS handshake, the KNEM cookie commands, the DMA copies.
        assert "msg" in kinds        # the msg.recv
        assert "handshake" in kinds  # cts/done waits
        assert "cmd" in kinds        # knem.declare / knem.recv
        assert "dma" in kinds        # I/OAT descriptors
        assert {"knem.declare", "knem.recv", "dma.copy"} <= names
        # Connectivity: every span in this trace is reachable from root.
        tree = {root.span_id} | {s.span_id for s in obs.iter_descendants(root)}
        assert tree == {s.span_id for s in obs.trace(root.trace_id)}


def test_dma_spans_live_on_dma_tracks_with_message_parentage():
    result = run_mpi(
        TOPO, 2, _pingpong(1 * MiB), bindings=[0, 4],
        mode="knem-ioat", obs=ObsConfig(spans=True),
    )
    obs = result.obs
    dma_spans = [s for s in obs.spans if s.kind == "dma"]
    assert dma_spans
    assert all(s.track.startswith("dma.ch") for s in dma_spans)
    assert all(s.parent_id is not None for s in dma_spans)
    by_id = {s.span_id: s for s in obs.spans}

    def root_of(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span

    assert all(root_of(s).name == "msg.send" for s in dma_spans)


def test_untraced_run_produces_no_spans():
    result = run_mpi(TOPO, 2, _pingpong(1 * MiB), bindings=[0, 4],
                     mode="knem-ioat")
    assert result.obs is not None
    assert not result.obs.enabled
    assert result.obs.spans == []


def test_spans_leave_sim_timeline_byte_identical():
    """Recording spans on vs off changes nothing observable in
    simulated time: elapsed, event count, every per-core PAPI counter."""
    def run(obs):
        return run_mpi(TOPO, 2, _pingpong(1 * MiB, reps=2), bindings=[0, 4],
                       mode="knem-ioat", obs=obs)

    plain = run(None)
    traced = run(ObsConfig(spans=True))
    assert traced.obs.spans
    assert plain.elapsed == traced.elapsed
    assert (
        plain.world.engine.events_executed
        == traced.world.engine.events_executed
    )
    assert plain.machine.papi.snapshot() == traced.machine.papi.snapshot()


# ------------------------------------------------ fault-injected retries
def test_nic_retries_appear_as_sibling_attempts_under_one_send():
    result = run_cluster(
        SPEC, 2, _pingpong(256 * KiB, reps=2), bindings=PAIR,
        faults=FaultPlan(seed=3, drop=0.1), obs=ObsConfig(spans=True),
    )
    obs = result.obs
    retransmits = sum(n.retransmits for n in result.fabric.nics)
    assert retransmits > 0
    attempts = [s for s in obs.spans if s.kind == "attempt"]
    assert attempts
    assert all(s.parent_id is not None for s in attempts)
    by_parent: dict = {}
    for s in attempts:
        by_parent.setdefault(s.parent_id, []).append(s)
    retried = [group for group in by_parent.values() if len(group) > 1]
    assert retried, "expected at least one request with >1 attempt spans"
    for group in retried:
        # Siblings, ordered: attempt numbers increase with start time.
        group.sort(key=lambda s: s.start)
        nums = [s.attrs["attempt"] for s in group]
        assert nums == sorted(nums) and len(set(nums)) == len(nums)
    # The retransmit instants hang off the same trees.
    marks = obs.find("nic.retransmit")
    assert len(marks) == retransmits
    assert all(m.parent_id is not None for m in marks)
