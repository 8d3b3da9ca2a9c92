"""Persist and compare benchmark sweeps (lightweight regression store).

`repro-bench --figure 5 --save results/fig5.json` snapshots a sweep;
`--compare results/fig5.json` re-runs it and reports per-point drift —
enough to catch calibration regressions without a CI service.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.bench.harness import Series, Sweep
from repro.errors import BenchmarkError
from repro.units import fmt_size

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "fsync_dir",
    "save_sweep",
    "load_sweep",
    "compare_sweeps",
    "SweepComparison",
]

_FORMAT_VERSION = 1


def fsync_dir(dirpath: str | Path) -> None:
    """Flush a directory entry to disk (best effort).

    ``os.replace`` makes a rename atomic against concurrent *readers*,
    but the new directory entry itself lives in the page cache until
    the directory is fsync'd — on power loss the file could vanish (or
    worse, point at half-flushed blocks).  Some filesystems refuse
    fsync on directory descriptors; that is a durability limitation,
    not an error, so ``OSError`` is swallowed.
    """
    fd = os.open(dirpath, getattr(os, "O_DIRECTORY", 0) or os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str | Path, payload, indent: Optional[int] = 2) -> None:
    """Write ``payload`` as JSON so readers never see a torn file.

    The document lands in ``path.with_suffix(".tmp")`` first, is
    fsync'd, then renamed over ``path``, then the *directory* is
    fsync'd so the rename survives power loss — an interrupted writer
    leaves at worst a stale ``.tmp`` beside an intact previous
    version.  Used for sweeps, fleet status files and every ``--out``
    document.

    Keys are written sorted, so a document's bytes depend only on its
    content, never on which runner built the dicts (records that
    crossed the coordinator's socket arrive key-sorted; the serial
    runner's keep insertion order).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """:func:`atomic_write_json` for non-JSON payloads (e.g. the fleet's
    Prometheus text-exposition file): tmp + fsync + rename + dir fsync,
    so a scraper never reads a torn exposition."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def save_sweep(sweep: Sweep, path: str | Path) -> None:
    """Write a sweep to JSON (creating parent directories)."""
    payload = {
        "version": _FORMAT_VERSION,
        "title": sweep.title,
        "xlabel": sweep.xlabel,
        "ylabel": sweep.ylabel,
        "series": [
            {"label": s.label, "points": [[int(x), float(y)] for x, y in s.points]}
            for s in sweep.series
        ],
    }
    if sweep.seeds is not None:
        payload["seeds"] = [int(s) for s in sweep.seeds]
    atomic_write_json(path, payload)


def load_sweep(path: str | Path) -> Sweep:
    """Read a sweep previously written by :func:`save_sweep`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchmarkError(f"no saved sweep at {path}") from None
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"corrupt sweep file {path}: {exc}") from None
    if payload.get("version") != _FORMAT_VERSION:
        raise BenchmarkError(
            f"{path}: unsupported sweep format {payload.get('version')!r}"
        )
    sweep = Sweep(
        title=payload["title"],
        xlabel=payload["xlabel"],
        ylabel=payload["ylabel"],
        seeds=payload.get("seeds"),
    )
    for entry in payload["series"]:
        series = sweep.new_series(entry["label"])
        for x, y in entry["points"]:
            series.add(int(x), float(y))
    return sweep


@dataclass
class SweepComparison:
    """Per-point drift between a baseline and a fresh run."""

    title: str
    rows: list[tuple[str, int, float, float, float]] = field(default_factory=list)
    #: Relative drift above which a point counts as a regression.
    tolerance: float = 0.05

    def add(self, label: str, x: int, baseline: float, current: float) -> None:
        drift = (current - baseline) / baseline if baseline else 0.0
        self.rows.append((label, x, baseline, current, drift))

    @property
    def regressions(self) -> list[tuple[str, int, float, float, float]]:
        return [r for r in self.rows if abs(r[4]) > self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [f"comparison: {self.title} (tolerance ±{self.tolerance:.0%})"]
        for label, x, base, cur, drift in self.rows:
            flag = "  " if abs(drift) <= self.tolerance else "!!"
            lines.append(
                f" {flag} {label:40.40s} {fmt_size(x):>8s} "
                f"{base:10.1f} -> {cur:10.1f}  {drift:+7.2%}"
            )
        verdict = "OK" if self.ok else f"{len(self.regressions)} REGRESSIONS"
        lines.append(f"result: {verdict}")
        return "\n".join(lines)


def compare_sweeps(
    baseline: Sweep, current: Sweep, tolerance: float = 0.05
) -> SweepComparison:
    """Compare two sweeps point-by-point (matched by label and x)."""
    comparison = SweepComparison(title=current.title, tolerance=tolerance)
    base_by_label = {s.label: s for s in baseline.series}
    for series in current.series:
        base = base_by_label.get(series.label)
        if base is None:
            raise BenchmarkError(f"baseline lacks series {series.label!r}")
        base_points = dict(base.points)
        for x, y in series.points:
            if x in base_points:
                comparison.add(series.label, x, base_points[x], y)
    if not comparison.rows:
        raise BenchmarkError("no comparable points between the sweeps")
    return comparison
