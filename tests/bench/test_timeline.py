"""Tests for span-based timelines (the Fig. 2 visualization)."""

import pytest

from repro.bench.timeline import core_busy_fraction, render_timeline
from repro.errors import BenchmarkError
from repro.hw import modern_server, xeon_e5345
from repro.mpi import run_mpi
from repro.obs import ObsConfig
from repro.units import MiB

TOPO = xeon_e5345()


def _one_way(nbytes):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
        else:
            yield comm.Recv(buf, source=0)

    return main


def _traced_run(mode, obs=ObsConfig(spans=True)):
    return run_mpi(TOPO, 2, _one_way(2 * MiB), bindings=[0, 4], mode=mode, obs=obs)


def test_untraced_run_raises():
    r = _traced_run("knem", obs=None)
    with pytest.raises(BenchmarkError):
        render_timeline(r.obs.spans, ncores=8)


def test_knem_timeline_shows_receiver_core_copying():
    spans = _traced_run("knem").obs.spans
    text = render_timeline(spans, ncores=8)
    assert "core4" in text and "dma" in text
    # Receiver core (4) did the single copy; sender core (0) none.
    assert core_busy_fraction(spans, 4) > 0.5
    assert core_busy_fraction(spans, 0) < 0.05
    # No DMA activity in the kernel-copy mode.
    assert "=" not in text.splitlines()[9]


def test_ioat_timeline_shows_dma_lane_and_idle_cores():
    """The Fig. 2 picture: with I/OAT the copy runs in the DMA lane
    while both cores stay (almost) idle."""
    spans = _traced_run("knem-ioat").obs.spans
    text = render_timeline(spans, ncores=8)
    dma_line = next(l for l in text.splitlines() if l.startswith("dma"))
    assert "=" in dma_line
    assert core_busy_fraction(spans, 4) < 0.1


def test_dsa_timeline_draws_engine_descriptors_on_dma_lane():
    """DSA descriptors are ``kind="dma"`` spans on ``dsa.s<S>e<E>``
    tracks; they fill the DMA lane like I/OAT channel descriptors."""
    topo = modern_server()

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(32 * MiB)
        peer = 1 - ctx.rank
        if ctx.rank == 0:
            yield comm.Send(buf, dest=peer)
            yield comm.Recv(buf, source=peer)
        else:
            yield comm.Recv(buf, source=peer)
            yield comm.Send(buf, dest=peer)

    r = run_mpi(topo, 2, main, mode="dsa", obs=ObsConfig(spans=True))
    assert any(s.track.startswith("dsa.") for s in r.obs.spans)
    text = render_timeline(r.obs.spans, ncores=topo.ncores)
    dma_line = next(l for l in text.splitlines() if l.startswith("dma"))
    assert "=" in dma_line


def test_default_timeline_shows_both_cores_copying():
    spans = _traced_run("default").obs.spans
    # Both ends actively copy (pipelined through the ring; the sender
    # also waits on cell handoffs, so its busy fraction is lower).
    assert core_busy_fraction(spans, 0) > 0.2
    assert core_busy_fraction(spans, 4) > 0.35


def test_timeline_dimensions():
    text = render_timeline(_traced_run("knem").obs.spans, ncores=4, width=40)
    lanes = [l for l in text.splitlines() if l.startswith("core")]
    assert len(lanes) == 4
    assert all(len(l.split("|", 1)[1]) == 40 for l in lanes)


def test_cluster_timeline_shows_nic_wire_lanes():
    """Internode runs render one ``~`` lane per transmitting NIC, and
    the window bounds include the wire spans (a pure-wire run must not
    raise just because it has no copy/dma spans)."""
    from repro import ClusterSpec, run_cluster

    spec = ClusterSpec(node=TOPO, nnodes=2)
    r = run_cluster(
        spec, 2, _one_way(1 * MiB), bindings=[(0, 0), (1, 0)],
        obs=ObsConfig(spans=True),
    )
    text = render_timeline(r.obs.spans, ncores=2)
    nic_lanes = [l for l in text.splitlines() if l.startswith("nic")]
    assert nic_lanes and any("~" in l for l in nic_lanes)
    assert "~ nic wire" in text.splitlines()[-1]


def test_intranode_timeline_has_no_nic_lane_or_legend():
    text = render_timeline(_traced_run("knem").obs.spans, ncores=8)
    assert not any(l.startswith("nic") for l in text.splitlines())
    assert "~ nic wire" not in text
