"""herdprof unit tests: the phase profiler's self-time stack, the
deep-profile flamegraph export, and bench provenance.

The PhaseProfiler tests drive the profiler with an injectable fake
clock so every wall-time assertion is exact — no sleeps, no tolerance
bands.  The clock contract (DESIGN.md §11): host time is read only
through ``repro.obs.prof.perfclock``, and the profiler accepts any
zero-argument callable in its place.
"""

import re
import subprocess

from repro.obs.prof import PHASES, PhaseProfiler
from repro.obs.prof import deepprof
from repro.obs.prof.provenance import (
    BENCH_SCHEMA_VERSION,
    git_dirty,
    machine_fingerprint,
    provenance,
)


class FakeClock:
    """A scripted host clock: each read returns the next value."""

    def __init__(self, *times):
        self._times = list(times)

    def __call__(self):
        return self._times.pop(0)


class TestPhaseProfiler:
    def test_flat_phase_accumulates_wall_and_counters(self):
        prof = PhaseProfiler(clock=FakeClock(1.0, 3.5, 10.0, 10.25))
        prof.begin("deliver")
        prof.end(cells=40)
        prof.begin("deliver")
        prof.end(cells=2)
        snap = prof.snapshot()
        assert snap == {"deliver": {"wall_s": 2.75, "calls": 2,
                                    "cells": 42}}

    def test_nested_phase_self_time_subtracts_child(self):
        # deliver opens at t=0, adversary-observe runs t=1..4 inside
        # it, deliver closes at t=6: deliver's self-time is 6-3=3,
        # the child gets its full 3, and the totals sum to the
        # elapsed 6 with no double counting.
        prof = PhaseProfiler(clock=FakeClock(0.0, 1.0, 4.0, 6.0))
        prof.begin("deliver")
        prof.begin("adversary-observe")
        prof.end(cells=8)
        prof.end(cells=8)
        snap = prof.snapshot()
        assert snap["deliver"]["wall_s"] == 3.0
        assert snap["adversary-observe"]["wall_s"] == 3.0
        assert sum(p["wall_s"] for p in snap.values()) == 6.0

    def test_count_bumps_without_timing(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.count("schedule", calls=3)
        prof.count("schedule", calls=1, cells=7)
        snap = prof.snapshot()
        assert snap["schedule"] == {"wall_s": 0.0, "calls": 4,
                                    "cells": 7}

    def test_round_accounting(self):
        prof = PhaseProfiler(clock=FakeClock(10.0, 12.0, 20.0, 23.0))
        prof.round_started(0)
        prof.round_finished(0)
        prof.round_started(1)
        prof.round_finished(1)
        assert prof.rounds_profiled == 2
        assert prof.round_wall_s == 5.0
        report = prof.report()
        assert report["rounds_profiled"] == 2
        assert report["round_wall_s"] == 5.0

    def test_snapshot_orders_taxonomy_first_then_adhoc(self):
        prof = PhaseProfiler(clock=FakeClock())
        for phase in ("zeta", "deliver", "alpha", "schedule", "chaff"):
            prof.count(phase, calls=1)
        assert list(prof.snapshot()) == ["schedule", "chaff",
                                         "deliver", "alpha", "zeta"]
        assert set(PHASES) >= {"schedule", "chaff", "deliver"}

    def test_report_profiled_wall_sums_phases(self):
        prof = PhaseProfiler(clock=FakeClock(0.0, 2.0, 2.0, 5.0))
        prof.begin("chaff")
        prof.end()
        prof.begin("mix-forward")
        prof.end()
        report = prof.report()
        assert report["profiled_wall_s"] == 5.0
        assert report["phases"]["chaff"]["wall_s"] == 2.0
        assert report["phases"]["mix-forward"]["wall_s"] == 3.0

    def test_table_renders_every_phase(self):
        prof = PhaseProfiler(clock=FakeClock(0.0, 1.0))
        prof.begin("deliver")
        prof.end(cells=9)
        text = prof.table()
        assert "deliver" in text and "total" in text

    def test_attach_sets_the_duck_typed_prof_attribute(self):
        class Component:
            prof = None

        prof = PhaseProfiler(clock=FakeClock())
        loop, scheduler, link = Component(), Component(), Component()
        prof.attach_loop(loop)
        prof.attach_scheduler(scheduler)
        prof.attach_link(link)
        assert loop.prof is scheduler.prof is link.prof is prof

    def test_attach_zone_propagates_to_attached_wire(self):
        class Wire:
            def __init__(self):
                self.prof = None

            def set_profiler(self, prof):
                self.prof = prof

        class Zone:
            def __init__(self, wire):
                self.prof = None
                self.wire = wire

        prof = PhaseProfiler(clock=FakeClock())
        zone = Zone(Wire())
        prof.attach_zone(zone)
        assert zone.prof is prof and zone.wire.prof is prof
        bare = Zone(None)
        prof.attach_zone(bare)  # no wire yet: must not raise
        assert bare.prof is prof

    def test_detached_hot_path_is_a_single_attribute_test(self):
        # The protocol contract: instrumented components default prof
        # to None and never import repro.obs — detached runs pay one
        # `is not None` per hook point.
        import ast
        import inspect

        import repro.netsim.link as link_mod
        import repro.simulation.live as live_mod

        for mod in (link_mod, live_mod):
            tree = ast.parse(inspect.getsource(mod))
            imported = {node.names[0].name.split(".")[0]
                        for node in ast.walk(tree)
                        if isinstance(node, ast.Import)}
            imported |= {(node.module or "").split(".")[0]
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)}
            assert "repro" not in imported or all(
                not (node.module or "").startswith("repro.obs")
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom))


def _leaf():
    return sum(range(200))


def _branch_a():
    return _leaf() + _leaf()


def _branch_b():
    return _leaf()


def _root_workload():
    return _branch_a() + _branch_b()


class TestDeepProfile:
    def test_capture_returns_result_and_profile(self):
        result, profile = deepprof.capture(_root_workload)
        assert result == 3 * sum(range(200))
        assert profile.total_time_s() > 0.0

    def test_self_time_table_sorted_and_limited(self):
        _, profile = deepprof.capture(_root_workload)
        rows = profile.self_time_table(limit=5)
        assert 0 < len(rows) <= 5
        selfs = [row["self_s"] for row in rows]
        assert selfs == sorted(selfs, reverse=True)
        assert all(row["cum_s"] >= row["self_s"] - 1e-12
                   for row in rows)

    def test_collapsed_stacks_paths_and_format(self):
        _, profile = deepprof.capture(_root_workload)
        text = profile.collapsed_stacks()
        for line in text.strip().splitlines():
            assert re.fullmatch(r".+ \d+", line), line
            assert int(line.rsplit(" ", 1)[1]) > 0
        # The call graph survives collapsing: the leaf shows up under
        # both branches of the root workload.
        stacks = [line.rsplit(" ", 1)[0]
                  for line in text.strip().splitlines()]
        a_paths = [s for s in stacks
                   if "_branch_a" in s and s.endswith("_leaf")]
        b_paths = [s for s in stacks
                   if "_branch_b" in s and s.endswith("_leaf")]
        assert a_paths and b_paths

    def test_write_flamegraph_and_self_time(self, tmp_path):
        _, profile = deepprof.capture(_root_workload)
        flame = tmp_path / "flame.txt"
        table = tmp_path / "selftime.txt"
        deepprof.write_flamegraph(profile, str(flame),
                                  self_time_path=str(table))
        assert flame.read_text().strip()
        assert "function" in table.read_text()

    def test_recursion_is_cut_not_infinite(self):
        def rec(n):
            return 0 if n == 0 else rec(n - 1) + 1

        _, profile = deepprof.capture(rec, 50)
        text = profile.collapsed_stacks()
        assert all(line.count("rec") <= 1
                   for line in text.splitlines())


class TestProvenance:
    def test_fields_and_schema(self):
        prov = provenance(timestamp_utc="2026-08-08T00:00:00Z")
        assert prov["schema"] == BENCH_SCHEMA_VERSION
        assert prov["timestamp_utc"] == "2026-08-08T00:00:00Z"
        assert re.fullmatch(r"[0-9a-f]{16}",
                            prov["machine_fingerprint"])
        assert prov["python"] and prov["platform"]

    def test_dirty_flag_tracks_the_working_tree(self, tmp_path):
        assert git_dirty(str(tmp_path)) is None  # not a checkout

        def git(*args):
            subprocess.run(["git", "-c", "user.name=t",
                            "-c", "user.email=t@example.invalid",
                            *args], cwd=tmp_path, check=True,
                           capture_output=True)

        git("init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        git("add", "a.txt")
        git("commit", "-q", "-m", "one")
        assert git_dirty(str(tmp_path)) is False
        assert provenance(cwd=str(tmp_path))["dirty"] is False
        (tmp_path / "a.txt").write_text("two\n")
        assert git_dirty(str(tmp_path)) is True
        git("commit", "-q", "-am", "two")
        (tmp_path / "new.txt").write_text("untracked\n")
        assert provenance(cwd=str(tmp_path))["dirty"] is True

    def test_fingerprint_is_stable(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_timestamp_is_callers_responsibility(self):
        # provenance() itself never reads the wall clock — the CLI /
        # harness layer stamps it.  No timestamp in, None out.
        assert provenance()["timestamp_utc"] is None
