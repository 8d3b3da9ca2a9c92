#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nas-is --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): ``nas-is``, ``a2a-offload``,
``campaign-served``.  A run sets up the workload, then repeats passes
for ``--seconds`` seconds and reports medians over passes.  Every
simulated output is checked exactly against the committed fingerprints
in ``perfbench/fingerprints.json``; a mismatch counts as a failed
operation and makes the run exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs
one pass under the span recorder (``perfbench/spans.py``) and prints
the per-layer metrics instead, and checks that the traced pass
produced the same fingerprints as the untraced ones.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Other modes:

``--check-determinism``
    runs the workload twice in child processes, under
    ``PYTHONHASHSEED=0`` and ``1``, each with a traced pass, and
    compares every fingerprint across the two.
``--write-fingerprints``
    records the fingerprints of one pass at the default seed into
    ``perfbench/fingerprints.json`` (after a deliberate change to the
    simulated results).

The program is built from source: ``src/`` of the checkout goes on
``sys.path``; nothing is installed.  Scratch files (the served
workload's sqlite store and lease journals) go to ``.perfbench_tmp/``
and run records, including the traced run's spans, to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: Seed whose campaign-served fingerprints are committed (the
#: simulation workloads do not depend on the seed).
DEFAULT_SEED = 0
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: End-to-end metrics that exist only for some workloads: printed in
#: the report, not in the result line, which carries the metrics
#: ``BENCHMARK.json`` lists (every one of them defined for every
#: workload).
WORKLOAD_ONLY = (
    ("events_per_s", "1/s"),
    ("resubmit_s", "s"),
    ("paper_err_pp", "pp"),
    ("fail_frac", "ratio"),
)


def _declared() -> tuple[list, list]:
    """``(name, unit)`` of the end-to-end and per-layer metrics, in the
    order ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        doc = json.load(f)
    return ([(m["name"], m["unit"]) for m in doc["end_to_end"]],
            [(m["name"], m["unit"]) for m in doc["per_layer"]])


def _median(values):
    values = [v for v in values if v == v]  # drop NaN (failed passes)
    return statistics.median(values) if values else float("nan")


def _load_fingerprints() -> dict:
    with open(FINGERPRINTS) as f:
        return json.load(f)


def _expected(fingerprints: dict, workload: str, seed: int):
    table = fingerprints.get(workload, {})
    return table.get("*", table.get(str(seed)))


def _metadata(seed: int) -> dict:
    import numpy

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


# ------------------------------------------------------------------ set-up
def setup_probe(workload: str, seed: int) -> float:
    """One set-up in this (fresh) process: imports, preset and mix
    construction, and for the served workload the coordinator start
    until both agents attach."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from workloads import CampaignServed, make

    TMP_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP_DIR))
    try:
        wl = make(workload, scratch)
        wl.setup(seed)
        if isinstance(wl, CampaignServed):
            coordinator, _client, root = wl.start()
            elapsed = time.perf_counter() - t0
            wl.stop(coordinator, root)
        else:
            elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return elapsed


def measure_setup(workload: str, seed: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ------------------------------------------------------------------ checks
def check_cells(result, expected, first_pass, label: str, notes: list) -> int:
    """Count fingerprint mismatches against the committed values and
    against the run's first pass."""
    failed = 0
    for i, cell in enumerate(result.cells):
        if expected is not None:
            want = expected.get(cell.name)
            if want != cell.fingerprint:
                failed += 1
                notes.append(f"{label} {cell.name}: fingerprint "
                             f"{cell.fingerprint[:16]} != committed "
                             f"{str(want)[:16]}")
        if first_pass is not None:
            ref = first_pass.cells[i]
            if (ref.name, ref.fingerprint) != (cell.name, cell.fingerprint):
                failed += 1
                notes.append(f"{label} {cell.name}: differs from the first pass")
    return failed


# ------------------------------------------------------------------ metrics
def end_to_end(wl, passes, setup: list[float], peak_rss_mib: float) -> dict:
    ok = [p for p in passes if p.cells]
    values = {
        "wall_s": _median(p.wall_s for p in passes),
        "setup_s": _median(setup),
        "peak_rss_mib": peak_rss_mib,
        "first_result_s": _median(p.first_result_s for p in passes),
    }
    if wl.name == "campaign-served":
        values["trials_per_s"] = _median(p.extra.get("trials_per_s", float("nan"))
                                         for p in passes)
        values["resubmit_s"] = _median(p.extra.get("resubmit_s", float("nan"))
                                       for p in passes)
    else:
        values["trials_per_s"] = _median(len(p.cells) / p.wall_s for p in ok)
        values["events_per_s"] = _median(
            sum(c.events for c in p.cells) / sum(c.host_s for c in p.cells)
            for p in ok
        )
    if wl.name == "nas-is":
        values["paper_err_pp"] = _median(p.extra["paper_err_pp"] for p in ok)
    return values


def per_layer(rec, traced, untraced_wall: float) -> dict:
    summary = rec.summary(threading.get_ident(), traced.window)
    counts = rec.counts()
    self_s = summary["self_s"]
    dur = summary["durations"]
    spans = summary["span_counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    calls = counts.get("hw.cache.calls", 0)
    extra = traced.extra
    return {
        "sim.events": counts.get("sim.events", 0),
        "sim.self_s": self_s["sim"],
        "hw.cache.calls": calls,
        "hw.cache.self_s": self_s["hw.cache"],
        "hw.cache.us_per_call": 1e6 * ratio(self_s["hw.cache"], calls),
        "hw.coherence.streams": counts.get("hw.coherence.streams", 0),
        "hw.coherence.lines": counts.get("hw.coherence.lines", 0),
        "hw.coherence.self_s": self_s["hw.coherence"],
        "hw.coherence.remote_peek_useful_ratio": ratio(
            counts.get("hw.coherence.remote_peeks_useful", 0),
            counts.get("hw.coherence.remote_peeks", 0)),
        "hw.dma.submits": counts.get("hw.dma.submits", 0),
        "hw.dma.bytes": counts.get("hw.dma.bytes", 0),
        "hw.dma.self_s": self_s["hw.dma"],
        "kernel.copies": counts.get("kernel.copies", 0),
        "kernel.copy_bytes": counts.get("kernel.copy_bytes", 0),
        "kernel.self_s": self_s["kernel"],
        "core.transfers": counts.get("core.transfers", 0),
        "core.self_s": self_s["core"],
        "mpi.ops": counts.get("mpi.ops", 0),
        "mpi.self_s": self_s["mpi"],
        "net.messages": counts.get("net.messages", 0),
        "net.wire_bytes": counts.get("net.wire_bytes", 0),
        "net.retransmits": sum(c.detail.get("retransmits", 0)
                               for c in traced.cells),
        "net.self_s": self_s["net"],
        "campaign.store_puts": counts.get("campaign.store_puts", 0),
        "campaign.store_gets": counts.get("campaign.store_gets", 0),
        "campaign.store_hit_ratio": ratio(counts.get("campaign.store_hits", 0),
                                          counts.get("campaign.store_gets", 0)),
        "campaign.put_s": dur.get("campaign:store.put", 0.0),
        "campaign.get_s": dur.get("campaign:store.get", 0.0),
        "campaign.self_s": self_s["campaign"],
        "service.submit_s": dur.get("service:client.submit", 0.0),
        "service.status_polls": spans.get("service:client.status", 0),
        "service.fetch_s": dur.get("service:client.fetch", 0.0),
        "service.dedup_hits": extra.get("dedup_hits", 0),
        "service.requeues": extra.get("requeues", 0),
        "service.self_s": self_s["service"],
        "service.serve_s": dur.get("service:coordinator.handle", 0.0),
        "other_s": traced.wall_s - sum(self_s.values()),
        "trace_overhead": traced.wall_s / untraced_wall,
    }


# ------------------------------------------------------------------ report
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(wl, meta, passes, e2e, layers, notes, attempted, failed,
           declared) -> None:
    end_to_end_units, per_layer_units = declared
    print(f"perfbench  workload={wl.name}  seed={meta['seed']}  "
          f"passes={len(passes)}")
    print("run: " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"why: {wl.why}")
    print(f"stresses: {wl.stresses}")
    print(f"spares: {wl.spares}")
    for i, p in enumerate(passes):
        cells = ", ".join(f"{c.name}={c.fingerprint[:12]}"
                          f"{'' if c.ok else ' (BAD)'}" for c in p.cells)
        print(f"pass {i}: wall {p.wall_s:.4f} s  first {p.first_result_s:.4f} s"
              f"  {cells}")
    print("end-to-end metrics (median over passes; H = host time):")
    e2e = dict(e2e, fail_frac=failed / attempted)
    for name, unit in end_to_end_units + list(WORKLOAD_ONLY):
        if name in e2e:
            print(f"  {name:16s} {_fmt(e2e[name]):>14s} {unit}")
        else:
            print(f"  {name:16s} {'n/a':>14s} {unit}  "
                  f"(not defined for {wl.name})")
    if wl.name == "nas-is":
        extra = passes[0].extra
        print(f"accuracy: simulated IS knem-ioat over default speedup "
              f"{extra['is_speedup_pct']:+.2f}% vs paper Table 1 "
              f"{extra['paper_speedup_pct']:+.1f}% -> paper_err_pp "
              f"{extra['paper_err_pp']:.2f} pp")
    else:
        print(f"accuracy: no reference data in the repository for "
              f"{wl.name}; its simulated numbers are unvalidated "
              f"(only pinned by fingerprints)")
    if layers is not None:
        from spans import LAYERS

        print("per-layer metrics (traced pass):")
        for name, unit in per_layer_units:
            print(f"  {name:40s} {_fmt(layers[name]):>14s} {unit}")
        self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        wall = self_total + layers["other_s"]
        share = (layers["hw.cache.self_s"] + layers["hw.coherence.self_s"]) / wall
        print(f"  traced wall_s {wall:.4f} s = layer self times "
              f"{self_total:.4f} s + other_s {layers['other_s']:.4f} s; "
              f"hw.cache + hw.coherence share {share:.3f}")
    for note in notes:
        print(f"NOTE: {note}")
    print(f"attempted {attempted}  failed {failed}")


# ------------------------------------------------------------------ main
def run(args) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import make

    TMP_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    try:
        return _run(args, make(args.workload, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, wl) -> int:
    declared = _declared()
    meta = _metadata(args.seed)
    setup = measure_setup(args.workload, args.seed)
    wl.setup(args.seed)
    fingerprints = _load_fingerprints()
    expected = None if args.write_fingerprints else _expected(
        fingerprints, args.workload, args.seed)
    notes: list[str] = []
    attempted = failed = 0

    passes = []
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < args.seconds:
        p = wl.run_pass()
        passes.append(p)
        if len(passes) == 1:
            # Peak memory of set-up plus one pass: a fixed amount of
            # work, so the figure does not depend on how many passes a
            # run fits (the allocator's footprint grows with them).
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += p.attempted
        failed += p.failed + check_cells(
            p, expected, passes[0] if len(passes) > 1 else None,
            f"pass {len(passes) - 1}", notes)
        notes.extend(p.notes)

    e2e = end_to_end(wl, passes, setup, peak_rss_mib)
    layers = None
    if args.trace:
        from spans import Instrumentation, SpanRecorder

        rec = SpanRecorder()
        with Instrumentation(rec):
            traced = wl.run_pass()
        attempted += traced.attempted
        failed += traced.failed + check_cells(
            traced, expected, passes[0], "traced pass", notes)
        notes.extend(traced.notes)
        layers = per_layer(rec, traced, e2e["wall_s"])
        rec.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")

    report(wl, meta, passes, e2e, layers, notes, attempted, failed, declared)
    record = {
        "meta": meta,
        "workload": wl.name,
        "end_to_end": e2e,
        "per_layer": layers,
        "fingerprints": {c.name: c.fingerprint for c in passes[0].cells},
        "passes": [{
            "wall_s": p.wall_s,
            "first_result_s": p.first_result_s,
            "extra": p.extra,
            "cells": [{"name": c.name, "host_s": c.host_s, "events": c.events,
                       **c.detail} for c in p.cells],
        } for p in passes],
        "notes": notes,
    }
    suffix = "-trace" if args.trace else ""
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    if args.write_fingerprints:
        if failed:
            print("not writing fingerprints: the run had failures", file=sys.stderr)
            return 1
        key = str(args.seed) if args.workload == "campaign-served" else "*"
        fingerprints[args.workload] = {key: record["fingerprints"]}
        with open(FINGERPRINTS, "w") as f:
            json.dump(fingerprints, f, indent=2, sort_keys=True)
            f.write("\n")

    chosen = declared[1] if args.trace else declared[0]
    source = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in chosen},
    }))
    return 0 if failed == 0 else 1


def check_determinism(args) -> int:
    """Fingerprints under two hash seeds, each with a traced pass."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seen = []
    for hashseed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, env=dict(env, PYTHONHASHSEED=hashseed),
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json") as f:
            prints = json.load(f)["fingerprints"]
        print(f"PYTHONHASHSEED={hashseed}: correct={last['correct']} "
              f"failed={last['failed']} fingerprints={prints}")
        seen.append((last["correct"], prints))
    same = seen[0][1] == seen[1][1] and all(ok for ok, _ in seen)
    print("determinism: " + ("identical" if same else "MISMATCH"))
    return 0 if same else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--write-fingerprints", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    if args.check_determinism:
        return check_determinism(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
