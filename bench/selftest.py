#!/usr/bin/env python3
"""Self-test of checks.py: every check passes on a real drcw output and
fails on the same output with one value corrupted.

    python3 bench/selftest.py

Run from the repository root. The outputs come from the drcw command
line (a small M=50 design exported on a 512-point grid, and the paper
table at seed 24), so the test takes a few seconds. Exit code 1 if any
check accepts a corrupted output or rejects a real one.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

GRID = 512


def main() -> int:
    run.import_drcw()
    import checks
    from workloads import call

    from drcw.sequences import generate_golay_pair

    work = run.ROOT / ".bench_out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        doc_path = work / "d.json"
        for argv in (
            ["design", "nm", "--m", "50", "--k0", "20", "--null", "0.8pi:4", "--window",
             "hamming", "--trials", "200", "--seed", "5", "--grid", str(GRID), "-o", str(doc_path)],
            ["analyze", str(doc_path), "--out-dir", str(work)],
            ["table", "--k0", "10,20,30", "--seed", "24", "--trials", "10000", "--format", "json",
             "-o", str(work / "t.json")],
        ):
            if call(argv) != 0:
                raise SystemExit(f"drcw {argv[0]} failed")
        doc = json.loads(doc_path.read_text())
        rows = json.loads((work / "t.json").read_text())
        bad_doc = dict(doc, w=list(doc["w"]))
        bad_doc["w"][7] *= 1.001
        (work / "bad.json").write_text(json.dumps(bad_doc))
        verify_rc = call(["verify", str(work / "bad.json")])
        return exercise(checks, doc, rows, work, verify_rc, generate_golay_pair(64))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def exercise(checks, doc, rows, work, verify_rc, pair) -> int:
    s, w = doc["s"], doc["w"]
    y = [a * b for a, b in zip(s, w)]
    x1, x2 = checks.golay_pair(64)
    k0, nulls = doc["null_spec"]["k0"], doc["null_spec"]["nulls"]
    curve = doc["metrics"]["prsl_curve"]
    idx = [0, GRID // 2, 100, 300]
    live = next(i for i in idx if curve[i] > -200)
    with open(work / "caf.csv") as f:
        lines = f.read().splitlines()[1:]
    picks = [0, 63 * GRID + GRID // 2, 40 * GRID + 77]
    caf_rows = [(r, int(a), float(b), float(c), float(d), float(e))
                for r in picks for a, b, c, d, e in [lines[r].split(",")]]

    def bumped(seq, i, delta):
        out = list(seq)
        out[i] += delta
        return out

    def shifted_row(rows_, field, delta):
        r = list(rows_[1])
        r[field] += delta
        return [rows_[0], tuple(r)] + rows_[2:]

    bad_row = dict(rows[0], pdsl_db=rows[0]["pdsl_db"] + 5.0)
    cases = {
        "complementarity": (checks.check_complementary,
                            (pair.x1.tolist(), pair.x2.tolist()),
                            (pair.x1.tolist(), bumped(pair.x2.tolist(), 3, -2 * pair.x2[3]))),
        "energy": (checks.check_energy, (y,), ([v * 1.001 for v in y],)),
        "null moments": (lambda v: checks.check_nulls(v, k0, nulls), (y,), (bumped(y, 10, 1e-5),)),
        "objective <= bound": (checks.check_bound, (doc["objective"], doc["sdp_bound"]),
                               (doc["sdp_bound"] * 1.01, doc["sdp_bound"])),
        "NAG closed form": (checks.check_nag, (w, doc["metrics"]["nag"]),
                            (w, doc["metrics"]["nag"] + 1e-6)),
        "PRSL direct sum": (lambda c: checks.check_prsl(s, w, x1, x2, GRID, idx, [c[i] for i in idx]),
                            (curve,), (bumped(curve, live, 0.01),)),
        "caf.csv value": (lambda r: checks.check_caf_rows(s, w, x1, x2, GRID, r),
                          (caf_rows,), (shifted_row(caf_rows, 3, 1e-3),)),
        "caf.csv position": (lambda r: checks.check_caf_rows(s, w, x1, x2, GRID, r),
                             (caf_rows,), (shifted_row(caf_rows, 1, 1),)),
        "paper table": (lambda rs: [checks.check_paper_row(r) for r in rs],
                        (rows,), ([bad_row] + rows[1:],)),
        "verify rejects perturbed weight": (checks.check_verify_rejects, (verify_rc,), (0,)),
        "byte-identical repeats": (checks.check_same_bytes, ("k", ["a", "a"]), ("k", ["a", "b"])),
        "whole document": (lambda d: checks.check_document(d, idx), (doc,),
                           (dict(doc, objective=doc["sdp_bound"] + 1.0),)),
    }
    bad = 0
    for name, (check, real, corrupted) in cases.items():
        try:
            check(*real)
            passes_real = True
        except checks.CheckFailure as exc:
            passes_real, why = False, exc
        try:
            check(*corrupted)
            rejects = False
        except checks.CheckFailure:
            rejects = True
        ok = passes_real and rejects
        bad += not ok
        detail = "" if passes_real else f" (rejected the real output: {why})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: real output "
              f"{'passes' if passes_real else 'fails'}, corrupted output "
              f"{'fails' if rejects else 'passes'}{detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
