"""``repro bench`` — run, compare, and list performance benchmarks.

* ``run``              — execute the engine-scaling workload through
  the unified runner (:mod:`repro.obs.prof.bench`), write a
  schema-versioned, provenance-stamped ``BENCH_scaling.json`` entry,
  append it to the trajectory history, and optionally export a
  flamegraph (collapsed stacks) of the headline run.
* ``compare BASE HEAD`` — the regression gate: nonzero exit when HEAD
  regresses beyond the tolerance band (absolute cells/sec on the same
  machine fingerprint, the batch-v2/event speedup ratio across
  machines).
* ``list``             — one line per trajectory entry.

This is the only layer that stamps wall-clock timestamps (via the
sanctioned :func:`repro.obs.prof.perfclock.utc_timestamp`); nothing a
seeded run imports ever reads host time outside ``perfclock``.
"""

from __future__ import annotations

import argparse
import sys

DEFAULT_JSON = "BENCH_scaling.json"
DEFAULT_TRAJECTORY = "BENCH_trajectory.jsonl"


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="bench_command", required=True)

    p_run = sub.add_parser(
        "run", help="run the scaling bench, write a provenance-"
        "stamped entry")
    p_run.add_argument("--clients", type=int, action="append",
                       default=None,
                       help="client count to sweep (repeatable; "
                       "default: 100 250 500)")
    p_run.add_argument("--rounds", type=int, default=None,
                       help="rounds per run (default: 25; large "
                       "ladder points auto-shorten)")
    p_run.add_argument("--engine", action="append", dest="engine",
                       default=None,
                       help="engine(s) to sweep (repeatable; "
                       "default: event batch-v2).  Each engine "
                       "climbs the client ladder up to its cap.")
    p_run.add_argument("--min-v2-speedup", type=float, default=None,
                       help="gate: nonzero exit unless batch-v2 beats "
                       "event by at least this factor in cells/sec at "
                       "the largest common client count (CI "
                       "scaling-smoke and perf-smoke)")
    p_run.add_argument("--json", default=DEFAULT_JSON,
                       help=f"entry output path (default: "
                       f"{DEFAULT_JSON})")
    p_run.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                       help="JSONL history to append to (default: "
                       f"{DEFAULT_TRAJECTORY}; 'none' disables)")
    p_run.add_argument("--flamegraph", default=None,
                       help="also deep-profile the headline batch-v2 "
                       "run and write collapsed stacks here")
    p_run.add_argument("--self-time", default=None,
                       help="with --flamegraph, also write the top-N "
                       "self-time table here")
    p_run.add_argument("--no-phases", action="store_true",
                       help="skip the profiled phase-breakdown runs")

    p_cmp = sub.add_parser(
        "compare", help="gate HEAD against BASE; nonzero exit on "
        "regression")
    p_cmp.add_argument("base", help="baseline bench entry (JSON)")
    p_cmp.add_argument("head", help="candidate bench entry (JSON)")
    p_cmp.add_argument("--tolerance", type=float, default=None,
                       help="allowed fractional drop (default: 0.15, "
                       "so a >=20%% slowdown fails)")

    p_list = sub.add_parser("list", help="list the bench trajectory")
    p_list.add_argument("--trajectory", default=DEFAULT_TRAJECTORY)


def _cmd_run(args: argparse.Namespace) -> int:
    import json
    from repro.obs.prof import bench
    from repro.obs.prof.perfclock import utc_timestamp

    clients = tuple(args.clients) if args.clients \
        else bench.DEFAULT_CLIENT_COUNTS
    rounds = args.rounds if args.rounds is not None \
        else bench.DEFAULT_ROUNDS

    engines = tuple(args.engine) if args.engine \
        else bench.DEFAULT_ENGINES

    entry = bench.run_scaling_bench(
        clients, rounds, timestamp_utc=utc_timestamp(),
        with_phases=not args.no_phases, engines=engines)

    from pathlib import Path
    Path(args.json).write_text(
        json.dumps(entry, indent=2, sort_keys=True) + "\n")
    if args.trajectory and args.trajectory != "none":
        bench.append_trajectory(entry, args.trajectory)

    prov = entry["provenance"]
    print(f"bench entry (schema {prov['schema']}, commit "
          f"{prov['commit'][:12]}, machine "
          f"{prov['machine_fingerprint']}) -> {args.json}")
    for n_clients, speedup in sorted(
            entry.get(bench.SPEEDUP_FIELD, {}).items(),
            key=lambda kv: int(kv[0])):
        print(f"  {n_clients:>8s} clients: {bench.SPEEDUP_LABEL} "
              f"speedup {speedup:.1f}x")
    for engine, runs in sorted(entry.get("net_engines", {}).items()):
        if runs:
            last = runs[-1]
            print(f"  {engine} loopback UDP: "
                  f"{last['cells_per_sec']:,.0f} cells/sec at "
                  f"{last['clients']} clients (net_engines key; "
                  f"not gated)")
    if "profiler_overhead" in entry:
        oh = entry["profiler_overhead"]
        print(f"  profiler attached overhead at {oh['clients']} "
              f"clients ({oh['engine']}): {oh['overhead_pct']:.1f}%")
    if "phases" in entry:
        for engine in engines:
            phases = entry["phases"].get(engine, {}).get("phases", {})
            hot = max(phases.items(),
                      key=lambda kv: kv[1]["wall_s"])[0] \
                if phases else "n/a"
            print(f"  {engine} hot phase: {hot}")

    if args.flamegraph:
        from repro.obs.prof.deepprof import DeepProfile, \
            write_flamegraph
        flame_engine = "batch-v2" if "batch-v2" in engines \
            else engines[-1]
        cap = bench.ENGINE_CAPS.get(flame_engine)
        eligible = [n for n in clients if cap is None or n <= cap]
        headline = max(eligible) if eligible else min(clients)
        _, profile = DeepProfile.capture(
            bench.run_backbone, flame_engine, headline,
            bench.rounds_for(headline, rounds))
        write_flamegraph(profile, args.flamegraph,
                         self_time_path=args.self_time)
        print(f"  flamegraph (collapsed stacks, {flame_engine} "
              f"engine, {headline} clients) -> {args.flamegraph}")

    if args.min_v2_speedup is not None:
        v2 = entry.get(bench.SPEEDUP_FIELD, {})
        label = bench.SPEEDUP_LABEL
        if not v2:
            print("GATE FAIL: --min-v2-speedup set but no common "
                  f"{label} ladder point was run", file=sys.stderr)
            return 1
        at = max(v2, key=lambda c: int(c))
        if v2[at] < args.min_v2_speedup:
            print(f"GATE FAIL: {label} speedup {v2[at]:.1f}x "
                  f"at {at} clients is below the required "
                  f"{args.min_v2_speedup:.1f}x", file=sys.stderr)
            return 1
        print(f"  gate ok: {label} speedup {v2[at]:.1f}x at "
              f"{at} clients >= {args.min_v2_speedup:.1f}x")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.prof import bench

    try:
        base = bench.load_entry(args.base)
        head = bench.load_entry(args.head)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tolerance = args.tolerance if args.tolerance is not None \
        else bench.DEFAULT_TOLERANCE
    print(bench.describe_comparison(base, head))
    findings = bench.compare_entries(base, head, tolerance)
    if findings:
        for finding in findings:
            print(f"REGRESSION: {finding}", file=sys.stderr)
        print(f"{len(findings)} perf regression(s) beyond "
              f"tolerance {tolerance:.0%}", file=sys.stderr)
        return 1
    print(f"no regressions beyond tolerance {tolerance:.0%}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.obs.prof import bench

    entries = bench.read_trajectory(args.trajectory)
    if not entries:
        print(f"no trajectory at {args.trajectory}")
        return 0
    for entry in entries:
        prov = entry.get("provenance", {})
        speed = entry.get(bench.SPEEDUP_FIELD, {})
        headline = max(speed, key=lambda c: int(c)) if speed else None
        speed_txt = (f"{speed[headline]:.1f}x @ {headline}"
                     if headline else "n/a")
        print(f"{prov.get('timestamp_utc', 'unknown'):22s} "
              f"commit {prov.get('commit', 'unknown')[:12]:12s} "
              f"machine {prov.get('machine_fingerprint', '-'):16s} "
              f"speedup {speed_txt}")
    return 0


def run(args: argparse.Namespace) -> int:
    handler = {"run": _cmd_run, "compare": _cmd_compare,
               "list": _cmd_list}[args.bench_command]
    return handler(args)
