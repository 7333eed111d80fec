"""Run every workload over several seeds and table the results.

    python3 perfbench/reproduce.py                 # all workloads, seeds 1-5
    python3 perfbench/reproduce.py --seeds 1 2 3 --workloads backbone
    python3 perfbench/reproduce.py --trace         # per-layer ledger

Each run is a separate ``run.py`` process, one after another (never
two at once), so every workload owns its process as the benchmark
requires.  For each metric the table gives the median over seeds, the
quartiles, and the spread: the distance between the quartiles as a
share of the median, the figure the end-to-end bounds in
``BENCHMARK.json`` are set against.  Exits nonzero when any run fails
its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in args.seeds]
        ok = ok and all(r["correct"] for r in runs)
        print(f"{workload}: {sum(r['correct'] for r in runs)}/"
              f"{len(runs)} runs correct")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if not values:
                continue
            med, q1, q3, share = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            limit = f"  bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:34s} {med:>14.6g} {unit:9s} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {share:.3f}{limit}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
