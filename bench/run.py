#!/usr/bin/env python3
"""Benchmark for drcw: one workload per run, every output checked.

    python3 bench/run.py --workload paper-table --seed 1 --seconds 26 --trace 0

Run from the repository root. The run imports drcw from ./src and sets up
the workload SETUP_REPEATS times: each time, an import of drcw timed in a
fresh interpreter, then input generation and one warm-up operation. It then
runs whole rounds of operations until
``--seconds`` have passed, checks every output against computations made
apart from drcw (checks.py) and prints one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics.

Timing metrics are in reference seconds: each wall time is scaled by the
machine's speed at that moment, read off a fixed kernel timed just before
and just after it (speed.py). The raw wall and CPU time per operation go to
stderr.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds until ``--seconds`` have passed and each kind
has timed at least MIN_TRACED_OPS operations, reports the per-layer metrics
from the traced ones plus the tracing overhead, checks that traced rounds
wrote the same bytes as untraced ones, and writes the spans to
.bench_out/trace-<workload>-s<seed>.json.

BLAS runs on BLAS_THREADS threads; the variables are set here, before
numpy loads, so every commit compared runs with the same setting.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 3
MIN_TRACED_OPS = 3  # a traced run times at least this many operations each way
WORKLOAD_NAMES = ("paper-table", "large-m", "export-verify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_drcw() -> None:
    """Import drcw from ./src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "drcw" / "cli.py").is_file():
        raise SystemExit(f"error: no drcw sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import drcw.cli  # noqa: F401

    if Path(sys.modules["drcw"].__file__).resolve().parent != (src / "drcw").resolve():
        raise SystemExit("error: drcw was imported from outside ./src")


def time_fresh_import() -> float:
    """Seconds a fresh interpreter takes to import drcw.cli from ./src, as
    that interpreter measures it; the process is waited for."""
    code = ("import sys, time; sys.path.insert(0, 'src'); start = time.perf_counter(); "
            "import drcw.cli; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def main(argv=None) -> int:
    args = parse_args(argv)
    import_drcw()
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    import checks
    import workloads
    from spans import Tracer
    from speed import REFERENCE_S, REFERENCE_SHARE, reference_s

    # every wall time is divided by the mean of the reference kernel times
    # taken just before and just after it (speed.py)
    refs = [reference_s(0.1)]
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed = time_fresh_import()
        start = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        if wl.warmup() != 0:
            raise SystemExit("error: the warm-up operation failed")
        elapsed += time.perf_counter() - start
        refs.append(reference_s(REFERENCE_SHARE * elapsed))
        setups.append(elapsed * REFERENCE_S / ((refs[-2] + refs[-1]) / 2))

    tracer = Tracer() if args.trace else None
    keys = wl.keys()
    wall = {False: [], True: []}  # wall seconds per successful operation
    norm = {False: [], True: []}  # the same in reference seconds
    cpu = []
    digests = {key: [] for key in keys}
    attempted = failed = rounds = 0
    begin = time.perf_counter()
    while True:
        traced = bool(tracer) and rounds % 2 == 1
        if traced:
            tracer.install()
        for key in keys:
            if tracer:
                tracer.op = attempted
            attempted += 1
            start, start_cpu = time.perf_counter(), time.process_time()
            rc = wl.op(key)
            elapsed, elapsed_cpu = time.perf_counter() - start, time.process_time() - start_cpu
            refs.append(reference_s(REFERENCE_SHARE * elapsed))
            if rc != 0:
                failed += 1
                continue
            wall[traced].append(elapsed)
            norm[traced].append(elapsed * REFERENCE_S / ((refs[-2] + refs[-1]) / 2))
            cpu.append(elapsed_cpu)
            digests[key].append(workloads.digest(wl.outputs(key)))
        if traced:
            tracer.uninstall()
        rounds += 1
        enough = (min(len(wall[False]), len(wall[True])) >= MIN_TRACED_OPS
                  if tracer else rounds >= 1)
        if time.perf_counter() - begin >= args.seconds and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        from drcw.sequences import generate_golay_pair

        pair = generate_golay_pair(workloads.N_PAIR)
        checks.check_complementary(pair.x1.tolist(), pair.x2.tolist())
        for key in keys:
            # every repeat of an operation, traced or not, wrote the same bytes
            checks.check_same_bytes(key, digests[key])
        sims = wl.check()
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, sims = False, [0.0]

    if tracer:
        values = tracer.layer_metrics()
        values["trace.op_s"] = statistics.median(wall[True])
        values["trace.overhead_ratio"] = statistics.median(norm[True]) / statistics.median(norm[False])
        values["trace.call_cost_ratio"] = (values["trace.calls_per_op"] * tracer.call_cost()
                                           / statistics.median(wall[False]))
        (ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
            "span_fields": ["name", "start", "end", "parent", "op", "counts"],
            "spans": tracer.dump(), "metrics": values,
        }))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(norm[False]),
            # drcw's throughput: the benchmark's digests and kernel runs excluded
            "ops_per_s": len(norm[False]) / math.fsum(norm[False]),
            "peak_rss_mb": peak_rss_mb,
            "window_similarity": statistics.fmean(sims),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if tracer else "end_to_end"]}
    print(f"{args.workload}: {rounds} rounds, {attempted} operations, blas threads "
          f"{BLAS_THREADS}; per operation: wall {statistics.median(wall[False]):.4g} s, "
          f"cpu {statistics.median(cpu):.4g} s; reference kernel {statistics.median(refs):.4g} s "
          f"(nominal {REFERENCE_S} s)", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
