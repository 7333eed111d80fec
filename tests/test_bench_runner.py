"""The ``repro bench`` regression plane: run / compare / list.

The acceptance contract (ISSUE/DESIGN §11): ``repro bench run`` writes
a schema-versioned entry with provenance and a per-phase breakdown,
and ``repro bench compare BASE HEAD`` exits nonzero when HEAD carries
an injected slowdown of >= 20% (tolerance 0.15).  The compare gate is
fingerprint-aware — absolute cells/sec only count on the same machine;
across machines only the batch-v2/event speedup ratio is gated — and it
still reads pre-provenance (schema 0) baseline files.
"""

import copy
import json

from repro.cli import main
from repro.obs.prof import bench
from repro.obs.prof.provenance import BENCH_SCHEMA_VERSION


def _entry(fingerprint="machine-aaaa", v2_scale=1.0,
           event_scale=1.0):
    """A synthetic schema-1 bench entry with known throughputs."""
    engines = {"event": [], "batch-v2": []}
    for clients in (100, 500):
        event_cps = 50_000.0 * event_scale
        v2_cps = 400_000.0 * v2_scale
        for engine, cps in (("event", event_cps), ("batch-v2",
                                                   v2_cps)):
            engines[engine].append({
                "clients": clients, "rounds": 25,
                "cells": 2 * clients * 25,
                "events": 25 if engine == "batch-v2"
                else 4 * clients * 25,
                "elapsed_s": 1.0, "cpu_s": 1.0,
                "cells_per_sec": cps, "events_per_sec": cps,
                "observed_cells": 2 * clients * 25,
            })
    return {
        "provenance": {
            "schema": BENCH_SCHEMA_VERSION,
            "commit": "deadbeefcafe",
            "python": "3.11.7",
            "python_implementation": "CPython",
            "platform": "linux",
            "machine_fingerprint": fingerprint,
            "timestamp_utc": "2026-08-08T00:00:00Z",
        },
        "workload": "synthetic",
        "client_counts": [100, 500],
        "rounds": 25,
        "engines": engines,
        "speedup_v2_over_event": {
            "100": 400_000.0 * v2_scale / (50_000.0 * event_scale),
            "500": 400_000.0 * v2_scale / (50_000.0 * event_scale),
        },
    }


def _write(tmp_path, name, entry):
    path = tmp_path / name
    path.write_text(json.dumps(entry, indent=2, sort_keys=True))
    return str(path)


class TestCompareGate:
    def test_identical_entries_pass(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _entry())
        head = _write(tmp_path, "head.json", _entry())
        assert main(["bench", "compare", base, head]) == 0
        out = capsys.readouterr().out
        assert "same machine fingerprint" in out
        assert "no regressions" in out

    def test_injected_20pct_slowdown_exits_nonzero(self, tmp_path,
                                                   capsys):
        # The headline acceptance check: a >= 20% absolute batch-v2
        # slowdown on the same machine trips the 0.15 tolerance.
        base = _write(tmp_path, "base.json", _entry())
        head = _write(tmp_path, "head.json",
                      _entry(v2_scale=0.80))
        assert main(["bench", "compare", base, head]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        # The slowdown also erodes the speedup ratio, so both gates
        # fire: ratio at each count plus batch-v2 absolute at each
        # count.
        assert "batch-v2/event speedup ratio" in err
        assert "batch-v2 engine" in err

    def test_slowdown_within_tolerance_passes(self, tmp_path):
        base = _write(tmp_path, "base.json", _entry())
        head = _write(tmp_path, "head.json",
                      _entry(v2_scale=0.90))
        assert main(["bench", "compare", base, head]) == 0

    def test_cross_machine_gates_ratio_only(self, tmp_path, capsys):
        # Base from another machine: a uniform absolute slowdown
        # (thermal, load, slower CI runner) keeps the ratio intact and
        # must NOT fail...
        base = _write(tmp_path, "base.json",
                      _entry(fingerprint="machine-bbbb"))
        uniform = _entry(v2_scale=0.5, event_scale=0.5)
        head = _write(tmp_path, "head.json", uniform)
        assert main(["bench", "compare", base, head]) == 0
        assert "speedup ratios only" in capsys.readouterr().out
        # ...but a batch-v2-only slowdown shifts the ratio and fails even
        # across machines.
        head_bad = _write(tmp_path, "head_bad.json",
                          _entry(v2_scale=0.75))
        assert main(["bench", "compare", base, head_bad]) == 1

    def test_custom_tolerance(self, tmp_path):
        base = _write(tmp_path, "base.json", _entry())
        head = _write(tmp_path, "head.json",
                      _entry(v2_scale=0.90))
        assert main(["bench", "compare", "--tolerance", "0.05",
                     base, head]) == 1

    def test_schema0_baseline_still_compares(self, tmp_path, capsys):
        # Pre-provenance BENCH files (the old ad-hoc format) carry
        # engines + speedups but no provenance block: compare reads
        # them as schema 0 and falls back to the ratio-only gate.
        old = _entry()
        del old["provenance"]
        base = _write(tmp_path, "old.json", old)
        head = _write(tmp_path, "head.json",
                      _entry(v2_scale=0.70))
        assert main(["bench", "compare", base, head]) == 1
        out = capsys.readouterr().out
        assert "base schema 0" in out
        assert "speedup ratios only" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        head = _write(tmp_path, "head.json", _entry())
        assert main(["bench", "compare",
                     str(tmp_path / "nope.json"), head]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_entries_api_lists_each_regression(self):
        base, head = _entry(), _entry(v2_scale=0.5)
        findings = bench.compare_entries(base, head)
        # 2 ratio findings + 2 batch-v2 absolute findings.
        assert len(findings) == 4
        assert not bench.compare_entries(base, copy.deepcopy(base))


class TestRunAndList:
    def test_run_writes_entry_trajectory_and_flamegraph(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "run", "--clients", "20", "--clients",
                   "40", "--rounds", "3", "--json", "out.json",
                   "--trajectory", "traj.jsonl",
                   "--flamegraph", "flame.txt",
                   "--self-time", "selftime.txt"])
        assert rc == 0
        entry = json.loads((tmp_path / "out.json").read_text())
        prov = entry["provenance"]
        assert prov["schema"] == BENCH_SCHEMA_VERSION
        assert prov["machine_fingerprint"] and prov["timestamp_utc"]
        assert entry["client_counts"] == [20, 40]
        # Phase breakdown from the profiled headline (40-client) runs.
        for engine in ("event", "batch-v2"):
            phases = entry["phases"][engine]["phases"]
            assert phases["deliver"]["cells"] == 2 * 40 * 3
            assert entry["phases"][engine]["rounds_profiled"] == 3
        assert entry["profiler_overhead"]["clients"] == 40
        traj = bench.read_trajectory("traj.jsonl")
        assert len(traj) == 1 and traj[0]["rounds"] == 3
        assert (tmp_path / "flame.txt").read_text().strip()
        assert "function" in (tmp_path / "selftime.txt").read_text()
        out = capsys.readouterr().out
        assert "speedup" in out and "flamegraph" in out

    def test_run_then_compare_self_is_clean(self, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "run", "--clients", "20", "--rounds",
                     "3", "--json", "b.json", "--trajectory", "none",
                     "--no-phases"]) == 0
        assert main(["bench", "compare", "b.json", "b.json"]) == 0

    def test_list_renders_trajectory(self, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        bench.append_trajectory(_entry(), "traj.jsonl")
        assert main(["bench", "list", "--trajectory",
                     "traj.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "deadbeefcafe"[:12] in out
        assert "8.0x @ 500" in out

    def test_list_empty_trajectory(self, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "list", "--trajectory",
                     "missing.jsonl"]) == 0
        assert "no trajectory" in capsys.readouterr().out
