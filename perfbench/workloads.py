"""The benchmark's three workloads.

Each workload is built once from the seed (:meth:`setup`) and then run
as repeated *passes* (:meth:`run_pass`).  A pass returns its host wall
time, the time its first result landed, and one :class:`Cell` per
simulated output, each carrying an exact fingerprint of that output.

* ``nas-is`` — NAS IS class B, 8 ranks on one ``xeon_e5345``, one timed
  iteration after the init phase, under ``default`` (Nemesis
  double-buffering) and then ``knem-ioat``, noise off.
* ``a2a-offload`` — 8-rank Alltoall at MiB blocks whose payload
  bypasses the CPU caches: IMB Alltoall at 4 MiB blocks with
  ``knem-ioat`` on one node (1 warm-up round), and an internode
  Alltoall at 1 MiB blocks over 8 nodes with 1 rank each.
* ``campaign-served`` — an in-process ``Coordinator`` on a
  ``SqliteStore`` with 2 local agents, driven by one ``ServiceClient``
  in a closed loop: a cold seeded mix, a resubmission overlapping half
  of it, then fetches of every document.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Events of the L2 side of the PAPI counters that enter a fingerprint.
L2_EVENTS = ("L2_HITS", "L2_MISSES", "REMOTE_HITS", "DRAM_LINES", "WRITEBACKS")


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_fingerprint(sim_seconds: list[float], machines, events: int) -> str:
    """SHA-256 of a cell's simulated seconds (bit-exact, as hex
    floats), its per-core PAPI L2 counters and ``events_executed``."""
    counters = [
        [float(m.papi.read(core, e)).hex() for e in L2_EVENTS]
        for m in machines
        for core in range(m.topo.ncores)
    ]
    return sha256_json({
        "sim_seconds": [float(s).hex() for s in sim_seconds],
        "papi_l2": counters,
        "events_executed": int(events),
    })


@dataclass
class Cell:
    """One simulated output of a pass."""

    name: str
    fingerprint: str
    #: Host seconds the cell took.
    host_s: float
    #: Engine events it executed (0 where the engine ran elsewhere).
    events: int = 0
    ok: bool = True
    detail: dict = field(default_factory=dict)


@dataclass
class PassResult:
    wall_s: float
    first_result_s: float
    cells: list[Cell]
    #: Operations attempted / failed inside the pass (cells, trials,
    #: client requests).
    attempted: int
    failed: int
    #: ``perf_counter`` interval of the timed part (the traced run
    #: attributes host time only inside it).
    window: tuple = (0.0, 0.0)
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class _Capture:
    """Keeps the result objects of a public run function.

    The benchmark calls public entry points (``run_nas``,
    ``imb_alltoall``) that return summaries without the engine or the
    machine; wrapping the ``run_mpi`` they call, in the module that
    calls it, keeps the full run result for the fingerprint.
    """

    def __init__(self, module, attr: str = "run_mpi") -> None:
        self.module = module
        self.attr = attr
        self.results: list = []

    def __enter__(self) -> "_Capture":
        original = getattr(self.module, self.attr)
        self._original = original

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        setattr(self.module, self.attr, capture)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.attr, self._original)


# -------------------------------------------------------------------- nas-is
class NasIs:
    name = "nas-is"
    why = ("cache and coherence layers do most of the host work: each "
           "rank streams 40 MiB against a 4 MiB L2 shared by two cores")
    stresses = "hw.coherence, hw.cache, kernel (CPU copies and scans)"
    spares = "net, campaign, service; hw.dma only in the knem-ioat half"
    modes = ("default", "knem-ioat")

    def setup(self, seed: int) -> None:
        from repro.bench.nas import BENCHMARKS
        from repro.bench.tables.table1 import PAPER_TABLE1
        from repro.hw.presets import xeon_e5345

        self.spec = BENCHMARKS["is.B.8"]
        self.topo = xeon_e5345()
        self.paper_speedup = PAPER_TABLE1["is.B.8"][4]

    def _cell(self, mode: str):
        import repro.bench.nas.runner as runner

        gc.collect()  # free the previous cell's engine/process cycles
        c0 = time.perf_counter()
        with _Capture(runner) as cap:
            res = runner.run_nas(self.spec, self.topo, mode=mode, iterations=1)
        host = time.perf_counter() - c0
        run = cap.results[0]
        events = run.world.engine.events_executed
        cell = Cell(
            name=f"is.B.8/{mode}",
            fingerprint=sim_fingerprint(
                [res.seconds, res.l2_misses, run.elapsed], [run.machine], events,
            ),
            host_s=host,
            events=events,
            detail={"sim_seconds": res.seconds, "l2_misses": res.l2_misses},
        )
        return cell, res

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        cells = []
        results = {}
        first = None
        for mode in self.modes:
            cell, results[mode] = self._cell(mode)
            cells.append(cell)
            if first is None:
                first = time.perf_counter() - t0
        speedup = results["knem-ioat"].speedup_vs(results["default"])
        t_end = time.perf_counter()
        return PassResult(
            wall_s=t_end - t0,
            window=(t0, t_end),
            first_result_s=first,
            cells=cells,
            attempted=len(cells),
            failed=0,
            extra={
                "is_speedup_pct": 100.0 * speedup,
                "paper_speedup_pct": 100.0 * self.paper_speedup,
                "paper_err_pp": abs(100.0 * (speedup - self.paper_speedup)),
            },
        )


# ---------------------------------------------------------------- a2a-offload
class A2aOffload:
    name = "a2a-offload"
    why = ("MiB-block alltoall whose payload bypasses the CPU caches: "
           "engine dispatch, kernel, hw.dma, net and mpi carry the host time")
    stresses = "sim, mpi, kernel, hw.dma (intranode), net (internode)"
    spares = "hw.coherence and hw.cache (~16-30% of host time), campaign, service"

    def setup(self, seed: int) -> None:
        from repro.hw.presets import cluster_of, xeon_e5345

        self.topo = xeon_e5345()
        self.cluster = cluster_of(xeon_e5345(), 8)

    @staticmethod
    def _cluster_main(block: int, warmup: int, reps: int, marks: dict):
        def main(ctx):
            comm = ctx.comm
            p = comm.size
            send = ctx.alloc(block * p, name=f"a2a.s{ctx.rank}")
            recv = ctx.alloc(block * p, name=f"a2a.r{ctx.rank}")
            marks.setdefault("elapsed", 0.0)
            for rep in range(warmup + reps):
                yield ctx.touch(send, write=True)
                yield comm.Barrier()
                t0 = ctx.now
                yield comm.Alltoall(send, recv)
                yield comm.Barrier()
                if ctx.rank == 0 and rep >= warmup:
                    marks["elapsed"] += ctx.now - t0

        return main

    def _intranode(self) -> Cell:
        import repro.bench.imb as imb
        from repro.units import MiB

        gc.collect()
        c0 = time.perf_counter()
        with _Capture(imb) as cap:
            res = imb.imb_alltoall(
                self.topo, 4 * MiB, mode="knem-ioat", warmup=1, repetitions=1
            )
        host = time.perf_counter() - c0
        run = cap.results[0]
        events = run.world.engine.events_executed
        return Cell(
            name="imb-alltoall/4MiB/knem-ioat/1node",
            fingerprint=sim_fingerprint(
                [res.seconds_per_op, res.l2_misses, run.elapsed],
                [run.machine], events,
            ),
            host_s=host,
            events=events,
            detail={"sim_seconds_per_op": res.seconds_per_op,
                    "aggregated_mib_s": res.aggregated_mib},
        )

    def _internode(self) -> Cell:
        from repro.mpi.cluster import run_cluster
        from repro.units import MiB

        gc.collect()
        marks: dict = {}
        c0 = time.perf_counter()
        run = run_cluster(
            self.cluster, 8, self._cluster_main(1 * MiB, 1, 1, marks),
            procs_per_node=1,
        )
        host = time.perf_counter() - c0
        events = run.world.engine.events_executed
        return Cell(
            name="alltoall/1MiB/8nodes-x1",
            fingerprint=sim_fingerprint(
                [marks["elapsed"], run.elapsed], run.cluster.machines, events,
            ),
            host_s=host,
            events=events,
            detail={"sim_seconds_per_op": marks["elapsed"],
                    "retransmits": sum(n.retransmits for n in run.fabric.nics)},
        )

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        cells = [self._intranode()]
        first = time.perf_counter() - t0
        cells.append(self._internode())
        t_end = time.perf_counter()
        return PassResult(
            wall_s=t_end - t0,
            window=(t0, t_end),
            first_result_s=first,
            cells=cells,
            attempted=len(cells),
            failed=0,
        )


# ------------------------------------------------------------ campaign-served
def _served_mix(seed: int):
    """The seeded trial mix: cold specs, overlapping resubmission specs.

    The seed draws the noise seeds of the replicates; the axes are
    fixed, so every seed costs about the same.  The resubmission reuses
    two of the cold mix's four noise seeds, so exactly half of its
    trials are already in the store.
    """
    from repro.campaign.spec import CampaignSpec
    from repro.units import KiB, MiB

    sizes = (64 * KiB, 128 * KiB, 256 * KiB, 1 * MiB)
    noise_seeds = random.Random(seed).sample(range(1, 10_000), 6)
    cold_seeds, warm_seeds = tuple(noise_seeds[:4]), tuple(noise_seeds[2:])

    def specs(tag: str, seeds: tuple) -> list:
        return [
            CampaignSpec(
                name=f"served-{tag}-pingpong",
                workload="pingpong",
                backends=("default", "knem", "knem-ioat"),
                sizes=sizes,
                pairs=((0, 1), (0, 4)),
                seeds=seeds,
                reps=2,
            ),
            CampaignSpec(
                name=f"served-{tag}-allreduce",
                workload="allreduce",
                backends=("default", "knem-ioat"),
                sizes=(64 * KiB,),
                nnodes=(2,),
                seeds=seeds,
                reps=2,
            ),
        ]

    return specs("cold", cold_seeds), specs("resubmit", warm_seeds)


class CampaignServed:
    name = "campaign-served"
    why = ("short trials behind leasing, socket JSONL, agent forks and "
           "store writes: the harness, not the simulation, carries the cost")
    stresses = "service (coordinator, client), campaign (sqlite store, lease journal)"
    spares = ("every simulation layer in this process: trials run in the "
              "2 forked agents")
    agents = 2
    #: Client poll intervals: fine until the first result lands (so
    #: first_result_s is resolved to a few ms), coarser afterwards so
    #: polling does not steal the agents' CPU.
    poll_first = 0.002
    poll = 0.01

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        from repro.campaign.spec import trial_hash  # noqa: F401 (warm import)
        from repro.service.coordinator import Coordinator  # noqa: F401

        self.cold, self.resubmit = _served_mix(seed)
        cold_hashes = {t.hash for s in self.cold for t in s.trials()}
        warm_hashes = {t.hash for s in self.resubmit for t in s.trials()}
        self.expected_hits = len(cold_hashes & warm_hashes)
        self.cold_trials = sum(len(s.trials()) for s in self.cold)
        self.reference: Optional[list[str]] = None

    def serial_reference(self) -> list[str]:
        """Hashes of the serialized documents a serial ``run_campaign``
        of the same specs produces, in submission order, over one
        shared cache (the service's byte-identity contract)."""
        from repro.campaign import ResultCache, run_campaign
        from repro.service.stores import MemoryStore

        if self.reference is None:
            cache = ResultCache(MemoryStore())
            self.reference = [
                sha256_json(run_campaign(spec, cache).document())
                for spec in self.cold + self.resubmit
            ]
        return self.reference

    def start(self):
        """A fresh coordinator on an empty sqlite store, agents attached.
        Returns ``(coordinator, client, root)``."""
        from repro.service.client import ServiceClient
        from repro.service.coordinator import Coordinator
        from repro.service.stores import SqliteStore

        root = Path(tempfile.mkdtemp(prefix="served-", dir=self.scratch))
        coordinator = Coordinator(
            SqliteStore(root / "store.sqlite"), root / "state",
            local_workers=self.agents,
        ).start()
        client = ServiceClient(coordinator.endpoint, client="perfbench")
        deadline = time.perf_counter() + 60.0
        while len(client.status()["agents"]) < self.agents:
            if time.perf_counter() > deadline:
                raise RuntimeError("local agents did not attach within 60 s")
            time.sleep(0.002)
        return coordinator, client, root

    @staticmethod
    def stop(coordinator, root: Path) -> None:
        coordinator.stop()
        shutil.rmtree(root, ignore_errors=True)

    def _settle(self, client, subs: list[str], t0: float, counts: dict):
        """Poll until every submission settles; returns the time the
        first result landed (from ``t0``)."""
        first = None
        pending = list(subs)
        while pending:
            for sub in list(pending):
                status = client.status(sub)
                counts["requests"] += 1
                if first is None and status["done"] > 0:
                    first = time.perf_counter() - t0
                if status["settled"]:
                    pending.remove(sub)
                elif status["state"] == "cancelled":
                    raise RuntimeError(f"{sub} was cancelled")
            if pending:
                time.sleep(self.poll if first is not None else self.poll_first)
        return first

    def run_pass(self) -> PassResult:
        from repro.errors import ServiceError

        reference = self.serial_reference()
        coordinator, client, root = self.start()
        counts = {"requests": 0}
        failed = 0
        notes = []
        try:
            t0 = time.perf_counter()
            cold = [client.submit(spec) for spec in self.cold]
            counts["requests"] += len(cold)
            first = self._settle(client, [r["sub"] for r in cold], t0, counts)
            cold_s = time.perf_counter() - t0

            t1 = time.perf_counter()
            warm = [client.submit(spec) for spec in self.resubmit]
            counts["requests"] += len(warm)
            self._settle(client, [r["sub"] for r in warm], t1, counts)
            resubmit_s = time.perf_counter() - t1

            docs = []
            for reply in cold + warm:
                docs.append(client.fetch(reply["sub"]))
                counts["requests"] += 1
            wall = time.perf_counter() - t0

            metrics = coordinator.metrics
            dedup_hits = int(metrics.counter("service.store_hits").value
                             + metrics.counter("service.dedup_completions").value)
            requeues = int(metrics.counter("service.requeues").value)
        except (ServiceError, RuntimeError, OSError) as exc:
            return PassResult(
                wall_s=float("nan"), first_result_s=float("nan"), cells=[],
                attempted=counts["requests"] + 1, failed=1,
                notes=[f"pass failed: {type(exc).__name__}: {exc}"],
            )
        finally:
            self.stop(coordinator, root)

        hits = sum(r["hits"] for r in warm)
        if hits != self.expected_hits:
            failed += 1
            notes.append(f"resubmission store hits {hits} != overlap "
                         f"{self.expected_hits}")
        cells = []
        trials = 0
        for spec, doc, ref in zip(self.cold + self.resubmit, docs, reference):
            trials += len(doc["trials"])
            bad = sum(1 for r in doc["trials"] if r["status"] != "ok")
            fingerprint = sha256_json(doc)
            same = fingerprint == ref
            if not same:
                notes.append(f"{spec.name}: served document != serial run_campaign")
            failed += bad + (0 if same else 1)
            cells.append(Cell(
                name=spec.name,
                fingerprint=fingerprint,
                host_s=0.0,
                ok=same and not bad,
                detail={"trials": len(doc["trials"]), "failed_trials": bad},
            ))
        return PassResult(
            wall_s=wall,
            window=(t0, t0 + wall),
            first_result_s=first,
            cells=cells,
            attempted=counts["requests"] + trials,
            failed=failed,
            notes=notes,
            extra={
                "trials_cold": self.cold_trials,
                "cold_s": cold_s,
                "trials_per_s": self.cold_trials / cold_s,
                "resubmit_s": resubmit_s,
                "store_hits": hits,
                "dedup_hits": dedup_hits,
                "requeues": requeues,
            },
        )


def make(name: str, scratch: Path):
    if name == NasIs.name:
        return NasIs()
    if name == A2aOffload.name:
        return A2aOffload()
    if name == CampaignServed.name:
        return CampaignServed(scratch)
    raise KeyError(name)


WORKLOADS = (NasIs.name, A2aOffload.name, CampaignServed.name)
