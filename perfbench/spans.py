"""Outside-in span recorder for the benchmark's traced run.

The recorder patches the public entry points of each layer of the
simulator stack (``sim``, ``hw.cache``, ``hw.coherence``, ``hw.dma``,
``kernel``, ``core``, ``mpi``, ``net``, ``campaign``, ``service``) with
thin wrappers that record one span per call: name, start, end and the
span that was open when it began (its parent).  Spans live in compact
per-thread arrays in memory and are written out once, when the run
ends.

Two details make the split honest:

* Engine-driven generators (``cpu_copy``, ``KnemDevice.recv_cmd``,
  ``Communicator`` ops, LMT hooks, the DMA/NIC service loops) do their
  work when the engine *resumes* them, not when they are created, so
  the wrapper hands back a proxy generator that records one span per
  resume.
* Functions imported by name (``cpu_copy`` lives in
  ``repro.kernel.copy`` but is bound into ``kernel.knem``,
  ``kernel.pipes``, ``net.lmt``, ``net.protocol`` and the collectives)
  are patched at every use site, not only where they are defined.

A span's *self time* is its duration minus the time its child spans
cover.  Self times are summed per layer on the thread that drives the
workload; the rest of that thread's wall time is reported as
``other_s``, so the layer self times plus ``other_s`` add up to the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from types import GeneratorType

import numpy as np

LAYERS = (
    "sim", "hw.cache", "hw.coherence", "hw.dma", "kernel",
    "core", "mpi", "net", "campaign", "service",
)


class _ThreadSpans:
    """One thread's spans (parallel arrays) and its open-span stack."""

    __slots__ = ("ident", "name", "parent", "start", "end", "stack",
                 "counts", "stream_local")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Local cache of the coherence stream in progress, so cache
        #: peeks inside it can be classified as local or remote-die.
        self.stream_local = None

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()


class SpanRecorder:
    """In-memory spans and counters, one buffer per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def buf(self) -> _ThreadSpans:
        try:
            return self._local.buf
        except AttributeError:
            b = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._buffers.append(b)
            self._local.buf = b
            return b

    # ------------------------------------------------------------ results
    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for b in list(self._buffers):
            for key, value in list(b.counts.items()):
                total[key] += value
        return total

    def _arrays(self, b: _ThreadSpans):
        n = min(len(b.start), len(b.end), len(b.name), len(b.parent))
        return (
            np.frombuffer(b.name, dtype=np.int32, count=n).copy(),
            np.frombuffer(b.parent, dtype=np.int64, count=n).copy(),
            np.frombuffer(b.start, dtype=np.float64, count=n).copy(),
            np.frombuffer(b.end, dtype=np.float64, count=n).copy(),
        )

    def summary(self, main_ident: int, window=None) -> dict:
        """Self time per layer on the driving thread, plus span counts
        and total durations per span name on every thread.

        Only spans that lie inside ``window`` (a ``perf_counter``
        interval) count, so set-up and tear-down around the timed part
        stay out of the split.
        """
        nnames = len(self.names)
        layer_of = [n.split(":", 1)[0] for n in self.names]
        self_s = {layer: 0.0 for layer in LAYERS}
        durations: dict[str, float] = defaultdict(float)
        span_counts: dict[str, int] = defaultdict(int)
        for b in list(self._buffers):
            name, parent, start, end = self._arrays(b)
            keep = end > 0.0
            if window is not None:
                keep &= (start >= window[0]) & (end <= window[1])
            dur = np.where(keep, end - start, 0.0)
            linked = keep & (parent >= 0)
            child = np.bincount(parent[linked], weights=dur[linked],
                                minlength=len(dur))
            own = np.where(keep, dur - child, 0.0)
            per_name_own = np.bincount(name, weights=own, minlength=nnames)
            per_name_dur = np.bincount(name, weights=dur, minlength=nnames)
            per_name_n = np.bincount(name[keep], minlength=nnames)
            for nid in np.flatnonzero(per_name_n):
                durations[self.names[nid]] += float(per_name_dur[nid])
                span_counts[self.names[nid]] += int(per_name_n[nid])
                if b.ident == main_ident:
                    self_s[layer_of[nid]] += float(per_name_own[nid])
        return {
            "self_s": self_s,
            "durations": dict(durations),
            "span_counts": dict(span_counts),
        }

    def dump(self, path) -> None:
        """Write every span as compact arrays (``.npz``)."""
        out = {"names": np.array(self.names or [""])}
        for i, b in enumerate(list(self._buffers)):
            name, parent, start, end = self._arrays(b)
            out[f"t{i}_name"] = name
            out[f"t{i}_parent"] = parent
            out[f"t{i}_start"] = start
            out[f"t{i}_end"] = end
        np.savez_compressed(path, **out)


# ------------------------------------------------------------------ wrappers
def _proxy(rec: SpanRecorder, nid: int, gen, on_return=None):
    """Forward ``gen`` step by step, one span per resume."""
    send, throw = gen.send, gen.throw
    value = None
    exc = None
    while True:
        b = rec.buf()
        idx = b.begin(nid)
        try:
            item = send(value) if exc is None else throw(exc)
        except StopIteration as stop:
            b.finish(idx)
            if on_return is not None:
                on_return(b, stop.value)
            return stop.value
        except BaseException:
            b.finish(idx)
            raise
        b.finish(idx)
        exc = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # re-thrown into gen on the next resume
            exc, value = e, None


def traced(rec: SpanRecorder, name: str, fn, on_call=None, on_return=None):
    """Wrap ``fn``: a span for the call (unless it is a generator
    function, whose call runs no code) and a per-resume proxy for any
    generator it returns.  ``on_call(buf, args, result)`` records
    counts at the boundary; ``on_return(buf, value)`` sees a returned
    generator's final value."""
    nid = rec.name_id(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if on_call is not None:
                on_call(rec.buf(), args, gen)
            return _proxy(rec, nid, gen, on_return)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        b = rec.buf()
        idx = b.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            b.finish(idx)
        if on_call is not None:
            on_call(b, args, out)
        if type(out) is GeneratorType:
            return _proxy(rec, nid, out, on_return)
        return out

    return wrapper


def _count(key: str):
    def on_call(b, args, out):
        b.counts[key] += 1
    return on_call


class Instrumentation:
    """Installs and removes the layer wrappers; a context manager."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- patching
    def _patch_attr(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        wrapper = traced(self.rec, name, original, **hooks)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module: str, attr: str, name: str, **hooks) -> None:
        """Patch a module-level function where it is defined and at
        every use site that imported it by name."""
        original = getattr(sys.modules[module], attr)
        wrapper = traced(self.rec, name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_methods(self, cls, layer: str, methods, **hooks) -> None:
        for m in methods:
            if m in cls.__dict__:
                self._patch_attr(cls, m, f"{layer}:{cls.__name__}.{m}", **hooks)

    def install(self) -> "Instrumentation":
        import repro.campaign.executor  # noqa: F401  (load every use site)
        import repro.core.lmt
        import repro.mpi.cluster  # noqa: F401
        import repro.mpi.coll.alltoall  # noqa: F401
        import repro.mpi.coll.gather  # noqa: F401
        import repro.mpi.coll.hier  # noqa: F401
        import repro.mpi.coll.reduce  # noqa: F401
        import repro.mpi.coll.vector  # noqa: F401
        import repro.mpi.coll.allgather  # noqa: F401
        import repro.offload.dsa_lmt  # noqa: F401
        from repro.campaign.cache import ResultCache
        from repro.campaign.executor import CampaignRun
        from repro.campaign.queue import LeaseQueue
        from repro.hw.cache import ExtentLRUCache
        from repro.hw.coherence import CoherenceDomain
        from repro.hw.dma import DmaEngine
        from repro.hw.dsa import DsaEngine
        from repro.kernel.knem import KnemDevice
        from repro.kernel.pipes import Pipe
        from repro.mpi.communicator import Communicator
        from repro.mpi.nemesis import Endpoint
        from repro.mpi.world import MpiWorld
        from repro.net.nic import Nic
        from repro.net.switch import Switch
        from repro.service.client import ServiceClient
        from repro.service.coordinator import Coordinator
        from repro.sim.engine import Engine

        def stepped(b, args, out):
            if out:
                b.counts["sim.events"] += 1

        self._patch_attr(Engine, "step", "sim:Engine.step", on_call=stepped)

        # hw.cache: the four public extent-LRU operations.
        def peeked(b, args, out):
            b.counts["hw.cache.calls"] += 1
            local = b.stream_local
            if local is not None and args[0] is not local:
                b.counts["hw.coherence.remote_peeks"] += 1
                if out:
                    b.counts["hw.coherence.remote_peeks_useful"] += 1

        self._patch_attr(ExtentLRUCache, "peek", "hw.cache:peek", on_call=peeked)
        for m in ("access", "invalidate", "downgrade"):
            self._patch_attr(ExtentLRUCache, m, f"hw.cache:{m}",
                             on_call=_count("hw.cache.calls"))

        # hw.coherence: CPU streams (read/write) and DMA snoops.
        rec = self.rec
        for m in ("read", "write"):
            original = CoherenceDomain.__dict__[m]
            nid = rec.name_id(f"hw.coherence:{m}")

            def stream(domain, core, start, end, _fn=original, _nid=nid):
                b = rec.buf()
                b.stream_local = domain.caches[domain.topo.die_of(core)]
                idx = b.begin(_nid)
                try:
                    out = _fn(domain, core, start, end)
                finally:
                    b.finish(idx)
                    b.stream_local = None
                b.counts["hw.coherence.streams"] += 1
                b.counts["hw.coherence.lines"] += out.lines
                return out

            self._undo.append((CoherenceDomain, m, original))
            setattr(CoherenceDomain, m, functools.wraps(original)(stream))
        for m in ("dma_read", "dma_write"):
            self._patch_attr(CoherenceDomain, m, f"hw.coherence:{m}")

        # hw.dma: I/OAT and DSA submissions plus their service loops.
        def submitted(b, args, out):
            b.counts["hw.dma.submits"] += 1
            b.counts["hw.dma.bytes"] += args[1].nbytes

        for cls in (DmaEngine, DsaEngine):
            self._patch_attr(cls, "submit", f"hw.dma:{cls.__name__}.submit",
                             on_call=submitted)
            self._patch_attr(cls, "_run", f"hw.dma:{cls.__name__}.run")

        # kernel: CPU copies and compute scans, KNEM commands, pipes.
        def copied(b, value):
            b.counts["kernel.copy_bytes"] += value

        self._patch_function("repro.kernel.copy", "cpu_copy", "kernel:cpu_copy",
                             on_call=_count("kernel.copies"), on_return=copied)
        self._patch_function("repro.kernel.copy", "stream_access",
                             "kernel:stream_access")
        self._patch_methods(KnemDevice, "kernel", ("send_cmd", "recv_cmd", "pin"))
        self._patch_methods(Pipe, "kernel", ("writev", "vmsplice", "readv", "detach"))

        # core / net: every LMT backend's protocol hooks.
        hooks = ("sender_start", "sender_on_cts", "receiver_prepare",
                 "receiver_transfer")
        backends = [repro.core.lmt.LmtBackend]
        seen = set()
        while backends:
            cls = backends.pop()
            if cls in seen:
                continue
            seen.add(cls)
            backends.extend(cls.__subclasses__())
            layer = "net" if cls.__module__.startswith("repro.net") else "core"
            for m in hooks:
                if m not in cls.__dict__:
                    continue
                on_call = (_count("core.transfers")
                           if layer == "core" and m == "receiver_transfer" else None)
                self._patch_attr(cls, m, f"{layer}:{cls.__name__}.{m}",
                                 on_call=on_call)

        # mpi: the Communicator API, packet dispatch, delivery.
        api = [m for m, v in Communicator.__dict__.items()
               if m[:1].isupper() and not m.startswith("Get_")
               and inspect.isfunction(v)]
        self._patch_methods(Communicator, "mpi", api, on_call=_count("mpi.ops"))
        self._patch_methods(Endpoint, "mpi", ("dispatch",))
        self._patch_methods(MpiWorld, "mpi", ("deliver",))

        # net: NIC submission, registration, receive, service loops.
        def nic_submit(b, args, out):
            b.counts["net.messages"] += 1
            b.counts["net.wire_bytes"] += args[1].nbytes

        self._patch_methods(Nic, "net", ("submit",), on_call=nic_submit)
        self._patch_methods(Nic, "net", ("register", "rx", "_tx_run", "_rx_run"))
        self._patch_methods(Switch, "net", ("ingress",))
        self._patch_function("repro.net.protocol", "send_eager", "net:send_eager")

        # campaign: result-store reads/writes, lease journal, documents.
        def got(b, args, out):
            b.counts["campaign.store_gets"] += 1
            if out is not None:
                b.counts["campaign.store_hits"] += 1

        self._patch_attr(ResultCache, "get", "campaign:store.get", on_call=got)
        self._patch_attr(ResultCache, "put", "campaign:store.put",
                         on_call=_count("campaign.store_puts"))
        self._patch_methods(LeaseQueue, "campaign", (
            "lease", "complete", "complete_external", "fail", "requeue",
            "expire",
        ))
        self._patch_methods(CampaignRun, "campaign", ("document",))

        # service: the client API and the coordinator's request handler.
        self._patch_attr(ServiceClient, "submit", "service:client.submit")
        self._patch_attr(ServiceClient, "status", "service:client.status")
        self._patch_attr(ServiceClient, "fetch", "service:client.fetch")
        self._patch_attr(Coordinator, "_handle", "service:coordinator.handle")

        # Forked children (the served workload's local agents) run
        # untraced: their spans could never reach this process.
        os.register_at_fork(after_in_child=self.uninstall)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
