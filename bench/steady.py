#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one process per run,
and print every end-to-end metric's median, quartiles and spread.

    python3 bench/steady.py --runs 10                # every workload, seeds 1..10
    python3 bench/steady.py --workloads large-m --runs 5 --first-seed 101

Spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is compared against the
metric's bound in BENCHMARK.json (setup_s is reported but has no spread
limit). Each run is ``bench/run.py`` with BENCHMARK.json's ``run_seconds``,
the run length the bounds are defined for; run.py fixes the BLAS thread
count, so every run here uses the same setting. Raw result lines go to
.bench_out/steady-<workload>-from<first seed>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    steady = True
    for workload in args.workloads.split(","):
        results = []
        log = ROOT / ".bench_out" / f"steady-{workload}-from{args.first_seed}.jsonl"
        with open(log, "w") as out:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
                       str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                elapsed = time.perf_counter() - start
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
                line = proc.stdout.strip().splitlines()[-1]
                # run.py's stderr summary: raw wall and CPU time, kernel time
                print(f"  seed {seed} ({elapsed:.0f} s): {proc.stderr.strip().splitlines()[-1]}")
                out.write(line + "\n")
                out.flush()
                results.append(json.loads(line))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct {correct}, failed share "
              f"{sorted(shares)}, attempted {[r['attempted'] for r in results]}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok and correct and len(shares) == 1
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{bound:>6} {'' if ok else '<- spread above a third of the bound'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
