"""Per-core activity timelines from causal spans.

Run any simulation with ``obs=ObsConfig(spans=True)``, then render what
each core and the DMA engines were doing over time::

    result = run_mpi(topo, 2, main, bindings=[0, 4],
                     mode="knem-ioat", obs=ObsConfig(spans=True))
    print(render_timeline(result.obs.spans, ncores=topo.ncores))

Lanes show ``#`` where a CPU copy was in flight, the DMA lane shows
``=`` during device transfers (I/OAT channels and DSA engines alike),
and (for cluster runs) one lane per NIC shows ``~`` while frames are on
the wire — the visual version of the paper's Fig. 2 (asynchronous
transfer with I/OAT copy offload): the core lanes go quiet while the
DMA lane fills.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import BenchmarkError
from repro.obs.spans import Span

__all__ = ["render_timeline", "core_busy_fraction"]


def _lane(span: Span) -> Optional[tuple[str, int]]:
    """The lane a closed span is drawn on: ``("core", n)``, ``("dma",
    0)`` or ``("nic", node)``; ``None`` for spans the timeline skips."""
    if span.end is None:
        return None
    track = span.track
    if span.kind == "copy" and track.startswith("core"):
        return "core", int(track[4:])
    if span.kind == "dma":
        return "dma", 0
    if span.kind == "wire" and track.startswith("nic") and track.endswith(".tx"):
        return "nic", int(track[3:-3])
    return None


def _drawn(spans: Iterable[Span]) -> list[tuple[tuple[str, int], Span]]:
    drawn = [(lane, s) for s in spans if (lane := _lane(s)) is not None]
    if not drawn:
        raise BenchmarkError(
            "no copy/dma/wire spans; run with obs=ObsConfig(spans=True)"
        )
    return drawn


def _bounds(drawn) -> tuple[float, float]:
    return min(s.start for _, s in drawn), max(s.end for _, s in drawn)


def render_timeline(
    spans: Iterable[Span],
    ncores: int,
    width: int = 72,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """ASCII lanes: one per core, one for the DMA engines, and one per
    NIC that put frames on the wire (auto-detected from the spans)."""
    drawn = _drawn(spans)
    lo, hi = _bounds(drawn)
    t0 = lo if t0 is None else t0
    t1 = hi if t1 is None else t1
    window = max(t1 - t0, 1e-12)

    nic_nodes = sorted({n for (what, n), _ in drawn if what == "nic"})
    lanes = {("core", c): [" "] * width for c in range(ncores)}
    lanes[("dma", 0)] = [" "] * width
    lanes.update({("nic", n): [" "] * width for n in nic_nodes})
    glyph = {"core": "#", "dma": "=", "nic": "~"}

    def cols(start: float, end: float) -> range:
        a = int((start - t0) / window * (width - 1))
        b = int((end - t0) / window * (width - 1))
        a = min(max(a, 0), width - 1)
        b = min(max(b, a), width - 1)
        return range(a, b + 1)

    for lane_key, span in drawn:
        lane = lanes.get(lane_key)
        if lane is not None:
            for c in cols(span.start, span.end):
                lane[c] = glyph[lane_key[0]]

    lines = [f"timeline [{t0 * 1e6:.1f}us .. {t1 * 1e6:.1f}us]"]
    for core in range(ncores):
        lines.append(f"core{core:<3d}|" + "".join(lanes[("core", core)]))
    lines.append("dma    |" + "".join(lanes[("dma", 0)]))
    for node in nic_nodes:
        lines.append(f"nic{node:<4d}|" + "".join(lanes[("nic", node)]))
    lines.append("       " + "-" * width)
    legend = "       # cpu copy   = dma transfer"
    if nic_nodes:
        legend += "   ~ nic wire"
    lines.append(legend)
    return "\n".join(lines)


def core_busy_fraction(spans: Iterable[Span], core: int) -> float:
    """Fraction of the drawn window this core spent copying."""
    drawn = _drawn(spans)
    lo, hi = _bounds(drawn)
    busy = sum(s.end - s.start for lane, s in drawn if lane == ("core", core))
    return min(busy / max(hi - lo, 1e-12), 1.0)
