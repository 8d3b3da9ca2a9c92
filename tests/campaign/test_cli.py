"""End-to-end `repro-bench campaign` runs (in-process)."""

import json

from repro.bench.cli import main

AXES = [
    "--machines", "xeon_e5345",
    "--backends", "default",
    "--sizes", "16K,64K",
    "--seeds", "3",
    "--workers", "0",
]


def _run(tmp_path, action, *extra):
    return main([
        "campaign", action,
        *AXES,
        "--results-dir", str(tmp_path / "results"),
        *extra,
    ])


def test_run_then_resume_hits_cache_fully(tmp_path, capsys):
    out_file = tmp_path / "BENCH_campaign.json"
    assert _run(tmp_path, "run", "--out", str(out_file)) == 0
    out = capsys.readouterr().out
    assert "cache hits: 0/6 (0.0%)" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "campaign"
    assert doc["seeds"] == [0, 1, 2]
    assert doc["summary"] == {
        "trials": 6, "executed": 6, "cache_hits": 0, "failures": 0,
        "quarantined": 0,
    }
    assert all(t["seed"] == t["config"]["seed"] for t in doc["trials"])

    assert _run(tmp_path, "resume", "--out", str(out_file)) == 0
    out2 = capsys.readouterr().out
    assert "cache hits: 6/6 (100.0%)" in out2
    doc2 = json.loads(out_file.read_text())
    assert doc2["summary"]["executed"] == 0
    assert doc2["aggregates"] == doc["aggregates"]


def test_supervised_run_matches_plain_document(tmp_path, capsys):
    plain_out = tmp_path / "plain.json"
    assert _run(tmp_path / "a", "run", "--out", str(plain_out)) == 0
    capsys.readouterr()
    fleet_out = tmp_path / "fleet.json"
    assert _run(
        tmp_path / "b", "run", "--workers", "2",
        "--state-dir", str(tmp_path / "b" / "state"),
        "--backoff-base", "0.01",
        "--out", str(fleet_out),
    ) == 0
    err = capsys.readouterr().err
    assert "campaign.leases = 6" in err
    # The fleet is plumbing: the documents are identical, byte for byte.
    assert fleet_out.read_bytes() == plain_out.read_bytes()


def _lease_events(journal):
    events = [json.loads(line) for line in journal.read_text().splitlines()]
    return sum(1 for e in events if e["ev"] == "lease")


def test_state_dir_holds_one_run(tmp_path, capsys):
    """A second fleet run over the same state dir replays its journal
    (no new lease) and reproduces the document; a new run needs a new
    state dir, where the shared result cache serves every trial."""
    state = tmp_path / "state"
    fleet = ("--workers", "2", "--backoff-base", "0.01")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert _run(
        tmp_path, "run", *fleet, "--state-dir", str(state), "--out", str(first)
    ) == 0
    journal = state / "subs" / "sub1" / "journal.jsonl"
    assert _lease_events(journal) == 6
    capsys.readouterr()

    assert _run(
        tmp_path, "run", *fleet, "--state-dir", str(state), "--out", str(second)
    ) == 0
    assert "executed 6 | cache hits: 0/6" in capsys.readouterr().out
    assert _lease_events(journal) == 6
    assert second.read_bytes() == first.read_bytes()

    assert _run(
        tmp_path, "run", *fleet, "--state-dir", str(tmp_path / "fresh")
    ) == 0
    assert "cache hits: 6/6 (100.0%)" in capsys.readouterr().out


def test_supervise_rejects_no_cache(tmp_path, capsys):
    assert main([
        "campaign", "run", *AXES, "--no-cache",
        "--workers", "2", "--state-dir", str(tmp_path / "state"),
    ]) == 2
    assert "crash-consistency substrate" in capsys.readouterr().err


def test_compare_gate_exits_nonzero_on_drift(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    assert _run(tmp_path, "run", "--out", str(baseline)) == 0
    capsys.readouterr()
    # Identical re-run (all cache hits) passes the gate.
    assert _run(tmp_path, "compare", "--baseline", str(baseline)) == 0
    assert "result: OK" in capsys.readouterr().out
    # Inject 20 % drift into the stored baseline: the gate must fail
    # and name the regressed trial groups.
    doc = json.loads(baseline.read_text())
    for row in doc["aggregates"]:
        row["median"] *= 1.2
    baseline.write_text(json.dumps(doc))
    assert _run(tmp_path, "compare", "--baseline", str(baseline)) == 1
    out = capsys.readouterr().out
    assert "REGRESSIONS" in out
    assert "pingpong/xeon_e5345/default/16KiB/n1" in out


def test_compare_requires_baseline(tmp_path, capsys):
    assert _run(tmp_path, "compare") == 2


def test_report_pretty_prints_saved_document(tmp_path, capsys):
    out_file = tmp_path / "camp.json"
    assert _run(tmp_path, "run", "--out", str(out_file)) == 0
    capsys.readouterr()
    assert main(["campaign", "report", "--campaign", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "trial group" in out
    assert "pingpong/xeon_e5345/default/64KiB/n1" in out
    assert main(["campaign", "report"]) == 2
