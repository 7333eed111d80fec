"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zone-calls --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` is the timed run: set-up repeated and its median taken,
untimed warm-up, then closed-loop operations for ``--seconds``.  It
prints every end-to-end metric by name and unit, the workload's
correctness checks, provenance, and as its last line one JSON object
with the driver contract's metrics (see ``README.md``).

``--trace 1`` is the traced run: a fixed amount of work (set-up,
warm-up and a fixed op count, so that every count repeats exactly;
``--seconds`` does not apply) untraced, with every ledger entry point
wrapped in spans, and untraced again; it prints the per-layer metrics
and where the unattributed time sits.

Any failed correctness check makes the exit status nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every percentile is reported with at least ten samples beyond it:
#: the timed loop runs past ``--seconds`` until p90 has that many.
MIN_LATENCY_SAMPLES = 100

clock = time.perf_counter


def provenance(seed: int) -> dict:
    """Commit, dirty-tree flag, machine fingerprint, Python version and
    seed.  Outside a git checkout the commit is ``unknown`` and the
    dirty flag ``null``."""
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
                timeout=30).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, check=True,
                timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    uname = platform.uname()
    machine = {"system": uname.system, "release": uname.release,
               "machine": uname.machine, "cpus": os.cpu_count()}
    fingerprint = hashlib.sha256(json.dumps(machine, sort_keys=True)
                                 .encode()).hexdigest()[:16]
    return {"commit": commit, "dirty": dirty,
            "machine": dict(machine, fingerprint=fingerprint),
            "python": platform.python_version(), "seed": seed}


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(cls, seed: int, seconds: float) -> dict:
    from perfbench.probe import SpeedProbe

    # Each set-up is scaled by probes taken right before and after it.
    setups = []
    for _ in range(cls.setup_reps):
        probe = SpeedProbe()
        for _ in range(3):
            probe.sample()
        start = clock()
        session = cls(seed)
        elapsed = clock() - start
        for _ in range(3):
            probe.sample()
        setups.append((elapsed, probe.scale))
    session.warm_up()
    started = clock()
    while clock() - started < seconds or \
            session.samples < MIN_LATENCY_SAMPLES:
        session.op()
    session.finish()
    rss = (peak_rss_mb(), "MiB", None)
    report = {}
    for scaled in (True, False):
        metrics = session.metrics(scaled)
        if cls.setup_reps > 1:
            setup = [elapsed * (scale if scaled else 1.0)
                     for elapsed, scale in setups]
        else:
            setup = session.column("setup_s", scaled)
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
        metrics["peak_rss_mb"] = rss
        report[scaled] = metrics
    contract = session.contract(report[True])
    contract["setup_s"] = report[True]["setup_s"][0]
    contract["peak_rss_mb"] = rss[0]
    return {"session": session, "metrics": report[True],
            "unscaled": report[False], "contract": contract,
            "probes": len(session.probe.samples),
            "attempted": session.attempted, "failed": session.failed,
            "failures": list(session.failures)}


def fixed_run(cls, seed: int, tracer=None):
    """Set-up, warm-up and ``cls.traced_ops`` ops; returns the session.
    With a tracer, each phase is a span of its own, so the ledger's
    unattributed time is split by phase."""
    def phase(name, fn):
        if tracer is None:
            return fn()
        span = tracer.open(name)
        try:
            return fn()
        finally:
            tracer.close(span)

    def ops():
        for _ in range(cls.traced_ops):
            session.op()
        session.finish()

    session = phase("bench.setup", lambda: cls(seed))
    phase("bench.warm_up", session.warm_up)
    phase("bench.ops", ops)
    return session


def _summary(session) -> dict:
    """What the traced run needs from one pass, so the pass's objects
    can be dropped before the next pass runs on the same heap."""
    return {"deterministic": session.deterministic(),
            "failures": list(session.failures),
            "attempted": session.attempted, "failed": session.failed,
            "op_time_s": session.op_time_s(),
            "scale": session.probe.scale}


def traced_run(cls, seed: int) -> dict:
    """The fixed work untraced, traced, and untraced again.  The first
    pass warms the process up; the tracing overhead compares the time
    inside the timed ops of the traced pass with the last pass's, after
    the spans are folded and dropped.  Times are scaled by the speed
    probes each pass takes between its ops (see ``probe.py``); every
    pass must produce the same deterministic outputs."""
    from perfbench import layers
    from perfbench.probe import SpeedProbe
    from perfbench.trace import Tracer

    before = _summary(fixed_run(cls, seed))
    tracer = Tracer()
    layers.install(tracer)
    for method in cls.harness_methods:
        owner = next(c for c in cls.__mro__ if method in c.__dict__)
        tracer.wrap_method(owner, method, layers.HARNESS)
    tracer.wrap_method(SpeedProbe, "sample", layers.HARNESS)
    root = tracer.open(layers.ROOT)
    try:
        traced = _summary(fixed_run(cls, seed, tracer))
    finally:
        tracer.close(root)
        tracer.uninstall()
    scale = traced["scale"]
    per_layer = {name: (value * scale if unit == "s" else value, unit)
                 for name, (value, unit)
                 in layers.layer_metrics(tracer).items()}
    own = tracer.self_time_by_name()
    tracer.spans.clear()
    after = _summary(fixed_run(cls, seed))
    per_layer["bench.trace_overhead_pct"] = (
        (traced["op_time_s"] / after["op_time_s"] - 1.0) * 100.0, "%")
    passes = (before, traced, after)
    failures = [f for p in passes for f in p["failures"]]
    for p in (before, after):
        if p["deterministic"] != traced["deterministic"]:
            failures.append(
                "tracing changed deterministic outputs: "
                f"{p['deterministic']} != {traced['deterministic']}")
    unattributed = sorted((own.get(name, 0.0) * scale, name)
                          for name in layers.UNATTRIBUTED)
    return {"per_layer": per_layer, "failures": failures,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "deterministic": traced["deterministic"],
            "unattributed": unattributed[::-1], "scale": scale}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed run length (timed runs only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"provenance {json.dumps(provenance(args.seed))}")
    print(f"workload {args.workload} engine batch-v2 shards 1 "
          f"mode {'traced' if args.trace else 'timed'}")
    if args.trace:
        result = traced_run(cls, args.seed)
        for name, (value, unit) in sorted(result["per_layer"].items()):
            print(f"  {name:34s} {_fmt(value):>14s} {unit}")
        print("  unattributed self time (s): " + ", ".join(
            f"{name} {t:.4f}" for t, name in result["unattributed"]))
        print(f"  deterministic {json.dumps(result['deterministic'])}")
        print(f"  speed scale {result['scale']:.4f} (self times above "
              "are scaled)")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        result = timed_run(cls, args.seed, args.seconds)
        for name, (value, unit, n) in sorted(result["metrics"].items()):
            count = f"  (n={n})" if n is not None else ""
            print(f"  {name:22s} {_fmt(value):>14s} {unit}{count}")
        print(f"  deterministic "
              f"{json.dumps(result['session'].deterministic())}")
        print(f"  times above are scaled to the reference host by "
              f"{result['probes']} speed probes; as measured: "
              + ", ".join(f"{name} {_fmt(value)}" for name, (value, _, _)
                          in sorted(result["unscaled"].items())))
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["contract"].items()}
    failures = result["failures"]
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  correctness: {'ok' if not failures else 'FAILED'}")
    print(json.dumps({"correct": not failures,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
