"""Engine scaling: the per-cell event oracle vs the batch-v2 run table.

The claim (DESIGN.md §9, §13): Herd's constant-rate data plane makes
the per-cell schedule pure overhead — one Packet, two closures, and
two heap events per cell for a schedule that is a function of the
clock — and a wire image that is fully described by one run table
per round needs no per-cell work at all.
This bench sweeps the client count over the same synthetic
constant-rate workload on every registered engine and records
cells/sec and events/sec into ``BENCH_scaling.json``.

Each engine climbs the ladder to its own cap (event 500, batch-v2 1M
— :data:`repro.obs.prof.bench.ENGINE_CAPS`): the point of the
vectorized plane is precisely that it still moves at the scale where
the per-cell plane stops being measurable.

The workload and the timing loop live in the unified herdprof runner
(:mod:`repro.obs.prof.bench`) — this test, the ``repro bench`` CLI,
and CI perf-smoke/scaling-smoke all execute the same code.  The entry
written here is schema-versioned and provenance-stamped (commit,
python, machine fingerprint, UTC timestamp — stamped here in the
harness layer, never inside seeded code) and carries the per-phase
breakdown of a profiled headline run per engine, so ``repro bench
compare`` can gate any later commit against it.

Acceptance gates: at >= 500 clients batch-v2 moves at least 25x the
cells/sec of the event engine, and the million-client batch-v2 point
is recorded in the published curve.
"""

import json
from pathlib import Path

from repro.obs.prof import bench
from repro.obs.prof.perfclock import utc_timestamp
from repro.obs.prof.provenance import BENCH_SCHEMA_VERSION

CLIENT_COUNTS = (100, 250, 500, 10_000, 100_000, 1_000_000)
ROUNDS = bench.DEFAULT_ROUNDS
RESULT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_scaling.json"


def test_bench_scaling_engines():
    entry = bench.run_scaling_bench(CLIENT_COUNTS, ROUNDS,
                                    timestamp_utc=utc_timestamp())
    results = entry["engines"]

    rows = []
    for engine in bench.DEFAULT_ENGINES:
        for run in results[engine]:
            # Workload integrity at every ladder point: every emitted
            # cell was carried and observed by the aggregate tap.
            assert run["cells"] == run["observed_cells"] == \
                2 * run["clients"] * run["rounds"]
            assert run["rounds"] == bench.rounds_for(run["clients"],
                                                     ROUNDS)
            rows.append((engine, f"{run['clients']:,}", run["rounds"],
                         f"{run['cells']:,}",
                         f"{run['cells_per_sec']:,.0f}",
                         run["events"]))

    from conftest import print_table
    print_table("Engine scaling (constant-rate zone backbone)",
                ("engine", "clients", "rounds", "cells", "cells/s",
                 "events"), rows)

    # Ladder caps: each engine stops where its cost model stops.
    for engine, runs in results.items():
        cap = bench.ENGINE_CAPS[engine]
        assert all(r["clients"] <= cap for r in runs)
    assert results["batch-v2"][-1]["clients"] == 1_000_000

    # Provenance: the entry is comparable across commits and machines.
    prov = entry["provenance"]
    assert prov["schema"] == BENCH_SCHEMA_VERSION
    assert prov["machine_fingerprint"]
    assert prov["python"]
    assert prov["timestamp_utc"]

    # Phase breakdown: the profiled headline run per engine saw real
    # work in the wire phases.
    for engine in bench.DEFAULT_ENGINES:
        headline = results[engine][-1]
        phases = entry["phases"][engine]["phases"]
        assert phases["deliver"]["cells"] == \
            2 * headline["clients"] * headline["rounds"]
        assert phases["adversary-observe"]["calls"] > 0
        assert entry["phases"][engine]["rounds_profiled"] == \
            headline["rounds"]

    RESULT_PATH.write_text(json.dumps(entry, indent=2,
                                      sort_keys=True) + "\n")

    # Event cost O(cells); round engines O(rounds), not O(cells).
    for run in results["event"]:
        assert run["events"] == 2 * run["cells"]
    for run in results["batch-v2"]:
        assert run["events"] == run["rounds"]

    # Acceptance gate: >= 25x batch-v2 over event at >= 500 clients —
    # with the prof hook points compiled into the hot path (detached
    # here for the timed sweep), so detached-hook overhead cannot
    # silently erode the headline speedup.
    v2 = {int(k): v
          for k, v in entry[bench.SPEEDUP_FIELD].items()}
    big = [s for n, s in v2.items() if n >= 500]
    assert big and all(s >= 25.0 for s in big), v2
