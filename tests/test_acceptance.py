"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All tolerances are fixed here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from drcw import (
    DopplerGrid,
    NullSpec,
    composite_ambiguity,
    compute_metrics,
    design_bd,
    design_nm_drcw,
    design_ptm,
    design_uniform,
    generate_golay_pair,
    prsl_curve,
    round_solution,
    solve_partition_sdp,
    verify_complementary,
    window_template,
)
from drcw.analysis import DB_FLOOR
from drcw.document import build_document, dumps_document
from drcw.nullspec import constraint_basis, quadratic_form
from oracles import (
    acf_direct,
    brute_force_partition_max,
    caf_triple_loop,
    division_remainder,
    doppler_factors_direct,
)

M_PULSES = 50
N_PAIR = 64
GRID_POINTS = 8192
SEED = 24
TRIALS = 10000

# published metric targets per (window, zero-null order):
# (rsba half-width / pi, dmbr %, pdsl dB, nag dB)
TABLE_TARGETS = {
    ("hamming", 10): (0.08, 45.0, -32.6, -1.50),
    ("hamming", 20): (0.20, 45.0, -27.1, -1.56),
    ("hamming", 30): (0.35, 55.0, -24.2, -1.91),
    ("rectangular", 10): (0.07, 1.0, -13.8, -0.05),
    ("rectangular", 20): (0.19, 5.0, -14.3, -0.29),
    ("rectangular", 30): (0.32, 20.0, -14.3, -1.00),
}
TOL_RSBA = 0.03
TOL_DMBR = 10.0
TOL_PDSL = 3.0
TOL_NAG = 0.5


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)


def _random_configs(count: int = 50):
    """Fixed-seed stream of valid null specifications and windows."""
    rng = np.random.default_rng(42)
    for _ in range(count):
        m = int(rng.integers(8, M_PULSES + 1))
        budget = m - 1
        k0 = int(rng.integers(0, budget + 1))
        rest = (budget - k0) // 2
        nulls = []
        while rest > 0 and len(nulls) < 2 and rng.random() < 0.7:
            ki = int(rng.integers(1, min(8, rest) + 1))
            theta = float(rng.uniform(0.1 * math.pi, 0.9 * math.pi))
            nulls.append((theta, ki))
            rest -= ki
        if k0 == 0 and not nulls:
            k0 = 1
        kind = ("rectangular", "hamming", "hanning", "blackman")[int(rng.integers(0, 4))]
        seed = int(rng.integers(0, 2**31))
        yield m, NullSpec(k0=k0, nulls=tuple(nulls)), kind, seed


def _random_partition_instance(rng):
    m = int(rng.integers(4, 13))
    budget = m - 1
    k0 = int(rng.integers(1, budget + 1))
    nulls = ()
    if budget - k0 >= 2 and rng.random() < 0.4:
        nulls = ((float(rng.uniform(0.2 * math.pi, 0.8 * math.pi)), 1),)
    spec = NullSpec(k0=k0, nulls=nulls)
    kind = ("rectangular", "hamming", "hanning", "blackman")[int(rng.integers(0, 4))]
    return constraint_basis(spec, m), window_template(kind, m)


def _scenario_document(kind: str, k0: int, nulls=()):
    spec = NullSpec(k0=k0, nulls=nulls)
    window = window_template(kind, M_PULSES)
    design = design_nm_drcw(M_PULSES, spec, window, trials=TRIALS, seed=SEED)
    pair = generate_golay_pair(N_PAIR)
    grid = DopplerGrid(GRID_POINTS)
    metrics = compute_metrics(design, pair, grid)
    doc = build_document(design, n=N_PAIR, grid_points=GRID_POINTS, metrics=metrics)
    return dumps_document(doc).encode("utf-8"), metrics, grid


def test_criterion_1_golay_complementarity():
    start = time.monotonic()
    failures = []
    for p in range(11):  # N = 1, 2, ..., 1024
        n = 2**p
        pair = generate_golay_pair(n)
        report = verify_complementary(pair.x1, pair.x2)
        if not report.ok:
            failures.append((n, report.max_violation))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _report(1, "golay complementarity N=1..1024", ok, f"{elapsed:.2f}s, violations {failures}")
    assert not failures
    assert elapsed < 5.0


def test_criterion_2_null_order_property():
    start = time.monotonic()
    pair = generate_golay_pair(N_PAIR)
    worst_rem = 0.0
    center_failures = []
    for m, spec, kind, seed in _random_configs(50):
        design = design_nm_drcw(m, spec, window_template(kind, m), trials=300, seed=seed)
        rem = float(np.max(np.abs(division_remainder(design.y, spec.k0, spec.nulls))))
        worst_rem = max(worst_rem, rem / (1e-8 * m))
        assert rem <= 1e-8 * m, f"remainder {rem:.3e} for m={m} spec={spec}"
        centers = ([0.0] if spec.k0 >= 1 else []) + [t for t, _ in spec.nulls]
        f = doppler_factors_direct(design.y, design.weights, centers)[0]
        levels = prsl_curve(design, pair, f)
        if not np.all(levels == DB_FLOOR):
            center_failures.append((m, spec, levels))
    elapsed = time.monotonic() - start
    ok = not center_failures and elapsed < 600.0
    _report(
        2,
        "null-order divisibility + floored PRSL at centers (50 configs)",
        ok,
        f"worst remainder {worst_rem:.2e} of tolerance, {elapsed:.1f}s",
    )
    assert not center_failures
    assert elapsed < 600.0


def test_criterion_3_sdp_rounding_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    matches = 0
    total = 20
    for _ in range(total):
        p, window = _random_partition_instance(rng)
        form = quadratic_form(p, window)
        solution = solve_partition_sdp(form)
        assert solution.converged
        best, _ = brute_force_partition_max(form)
        scale = max(1.0, abs(best))
        assert solution.objective >= best - 1e-6 * scale
        seed = int(rng.integers(0, 2**31))
        rounded = round_solution(solution.s_matrix, p, window, trials=1000, seed=seed)
        assert rounded.objective >= 0.9 * best - 1e-12
        if rounded.objective >= best - 1e-9 * scale:
            matches += 1
    elapsed = time.monotonic() - start
    ok = matches >= int(0.8 * total) and elapsed < 120.0
    _report(
        3,
        "relaxation dominates exhaustive optimum; rounding quality",
        ok,
        f"exact matches {matches}/{total}, {elapsed:.1f}s",
    )
    assert matches >= int(0.8 * total)
    assert elapsed < 120.0


def test_criterion_4_table_reproduction():
    start = time.monotonic()
    rows = []
    all_ok = True
    for (kind, k0), (t_rsba, t_dmbr, t_pdsl, t_nag) in TABLE_TARGETS.items():
        _, metrics, _ = _scenario_document(kind, k0)
        rsba_pi = metrics.rsba[0].half_width / math.pi
        cell_ok = (
            abs(rsba_pi - t_rsba) <= TOL_RSBA
            and abs(metrics.dmbr - t_dmbr) <= TOL_DMBR
            and abs(metrics.pdsl - t_pdsl) <= TOL_PDSL
            and abs(metrics.nag - t_nag) <= TOL_NAG
        )
        all_ok &= cell_ok
        rows.append(
            f"{kind}/k0={k0}: rsba {rsba_pi:.3f}pi dmbr {metrics.dmbr:.1f}% "
            f"pdsl {metrics.pdsl:.1f}dB nag {metrics.nag:.2f}dB "
            f"{'ok' if cell_ok else 'OUT OF TOLERANCE'}"
        )
        assert abs(rsba_pi - t_rsba) <= TOL_RSBA, rows[-1]
        assert abs(metrics.dmbr - t_dmbr) <= TOL_DMBR, rows[-1]
        assert abs(metrics.pdsl - t_pdsl) <= TOL_PDSL, rows[-1]
        assert abs(metrics.nag - t_nag) <= TOL_NAG, rows[-1]
    elapsed = time.monotonic() - start
    _report(4, "metric table reproduction (6 cells)", all_ok, f"{elapsed:.1f}s")
    for row in rows:
        print("   " + row)
    assert elapsed < 600.0


def test_criterion_5_two_null_scenario(tmp_path):
    start = time.monotonic()
    theta1 = 0.8 * math.pi
    doc_bytes, metrics, grid = _scenario_document("hamming", 20, nulls=((theta1, 4),))
    (tmp_path / "two_null.json").write_bytes(doc_bytes)
    curve = metrics.prsl_curve
    theta = grid.points
    main_zone = curve[np.abs(theta) <= 0.17 * math.pi]
    strips = curve[np.abs(np.abs(theta) - theta1) <= 0.015 * math.pi]
    elapsed = time.monotonic() - start
    ok = main_zone.max() < -60.0 and strips.max() < -60.0 and elapsed < 60.0
    _report(
        5,
        "two-null scenario blanking",
        ok,
        f"main zone max {main_zone.max():.1f} dB, strips max {strips.max():.1f} dB, {elapsed:.1f}s",
    )
    assert main_zone.max() < -60.0
    assert strips.max() < -60.0
    assert elapsed < 60.0


def test_criterion_6_baseline_closed_forms():
    bd = design_bd(M_PULSES)
    rescaled = bd.y / bd.y[0]
    expected = np.array(
        [(-1) ** j * math.comb(M_PULSES - 1, j) for j in range(M_PULSES)], dtype=float
    )
    bd_ok = np.array_equal(np.round(rescaled), expected) and (
        np.max(np.abs(rescaled - expected)) <= 1e-9 * np.max(expected)
    )

    ptm_ok = True
    for k in (2, 3, 4, 5, 6):
        s = design_ptm(2**k).y
        for p in range(k):
            ptm_ok &= float(np.sum(np.arange(2.0**k) ** p * s)) == 0.0

    uniform = design_uniform(M_PULSES)
    w = uniform.weights
    nag_val = 10 * math.log10(np.sum(w) ** 2 / (M_PULSES * np.sum(w * w)))
    uniform_ok = nag_val == 0.0

    ok = bd_ok and ptm_ok and uniform_ok
    _report(
        6,
        "baseline closed forms",
        ok,
        f"binomial {bd_ok}, moment conditions {ptm_ok}, unit gain {uniform_ok}",
    )
    assert bd_ok and ptm_ok and uniform_ok


def test_criterion_7_caf_oracle():
    from drcw.design import DesignResult

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        n = 2 ** int(rng.integers(0, 4))  # N <= 8
        m = int(rng.integers(1, 9))
        pair = generate_golay_pair(n)
        s = np.where(rng.standard_normal(m) >= 0, 1, -1).astype(np.int64)
        w = np.abs(rng.standard_normal(m)) + 0.1
        design = DesignResult(y=s * w, method="uniform", null_spec=NullSpec(k0=0))
        grid = DopplerGrid(33)
        caf = composite_ambiguity(design, pair, grid)
        direct = caf_triple_loop(s, w, pair.x1.tolist(), pair.x2.tolist(), grid.points)
        scale = float(np.max(np.abs(direct)))
        worst = max(worst, float(np.max(np.abs(caf.values - direct))) / scale)
        # decomposition identity with ACFs and factors from direct sums
        r1 = acf_direct(pair.x1.tolist()).astype(float)
        r2 = acf_direct(pair.x2.tolist()).astype(float)
        f, g, _ = doppler_factors_direct(design.y, design.weights, grid.points)
        recomposed = 0.5 * np.outer(r1 + r2, g) + 0.5 * np.outer(r1 - r2, f)
        worst = max(worst, float(np.max(np.abs(caf.values - recomposed))) / scale)
    ok = worst <= 1e-10
    _report(7, "composite ambiguity matches direct expansion", ok, f"worst rel err {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_8_determinism():
    start = time.monotonic()
    mismatches = []
    for kind, k0 in TABLE_TARGETS:
        first, _, _ = _scenario_document(kind, k0)
        second, _, _ = _scenario_document(kind, k0)
        if first != second:
            mismatches.append((kind, k0))
    theta1 = 0.8 * math.pi
    a, _, _ = _scenario_document("hamming", 20, nulls=((theta1, 4),))
    b, _, _ = _scenario_document("hamming", 20, nulls=((theta1, 4),))
    if a != b:
        mismatches.append(("two-null", 20))
    elapsed = time.monotonic() - start
    ok = not mismatches
    _report(
        8,
        "byte-identical documents under repeated runs",
        ok,
        f"mismatches {mismatches}, {elapsed:.1f}s",
    )
    assert not mismatches
