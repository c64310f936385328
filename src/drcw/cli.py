"""Command-line front end: design, analyze, table, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error, 3 solver failure. All outputs (JSON documents, CSV, SVG) are
deterministic functions of the command line and the BLAS thread count,
so repeated runs are byte-identical.

Angles on the command line carry an explicit unit: multiples of pi as
``0.8pi``, raw radians as ``0.8rad``. Null points are ``ANGLE:ORDER``,
e.g. ``--null 0.8pi:4``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import document as doc_io
from .analysis import DopplerGrid, composite_ambiguity, compute_metrics
from .analysis import magnitude_db, nag, prsl_curve
from .design import (
    DesignFailure,
    DesignResult,
    design_bd,
    design_nm_drcw,
    design_ptm,
    design_uniform,
)
from .nullspec import NullSpec, max_null_violation
from .sdp import SolverFailure
from .sequences import WINDOW_KINDS, generate_golay_pair, window_template

_BASELINES = {"bd": design_bd, "ptm": design_ptm, "uniform": design_uniform}


def parse_angle(text: str) -> float:
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            return float(t[:-2]) * math.pi
        if t.endswith("rad"):
            return float(t[:-3])
    except ValueError:
        pass
    raise ValueError(f"angle {text!r} must be '<x>pi' or '<x>rad', e.g. 0.8pi")


def parse_null(text: str) -> tuple[float, int]:
    theta_s, sep, k_s = text.partition(":")
    if not sep:
        raise ValueError(f"null point {text!r} must be ANGLE:ORDER, e.g. 0.8pi:4")
    theta = parse_angle(theta_s)
    try:
        k = int(k_s)
    except ValueError:
        raise ValueError(f"null order in {text!r} must be an integer") from None
    return theta, k


def _add_design_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=8192, help="Doppler grid points (default 8192)")
    p.add_argument("--seed", type=int, default=0, help="randomization seed (default 0)")
    p.add_argument("--trials", type=int, default=1000, help="rounding trials (default 1000)")
    p.add_argument("--max-iter", type=int, default=5000, help="solver iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcw",
        description="Design and analyze Doppler-resilient complementary waveforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design a pulse train and receive weights")
    p_design.add_argument("method", choices=sorted(["nm", *_BASELINES]), help="design method")
    p_design.add_argument("--m", type=int, required=True, help="number of pulses")
    p_design.add_argument("--n", type=int, default=64, help="pair length (default 64)")
    p_design.add_argument("--k0", type=int, default=0, help="null order at zero Doppler")
    p_design.add_argument(
        "--null",
        action="append",
        default=[],
        metavar="ANGLE:ORDER",
        help="extra null point, repeatable (e.g. 0.8pi:4)",
    )
    p_design.add_argument("--window", choices=WINDOW_KINDS, default="rectangular")
    p_design.add_argument("-o", "--out", default="design.json", help="output document path")
    p_design.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="dump per-iteration solver objective and certified gap as CSV",
    )
    _add_design_options(p_design)
    p_design.set_defaults(run=cmd_design)

    p_an = sub.add_parser("analyze", help="export CSV (and optional SVG) views of a design")
    p_an.add_argument("document", help="design document (JSON)")
    p_an.add_argument("--out-dir", default=".", help="directory for exported files")
    p_an.add_argument("--svg", action="store_true", help="also render SVG plots")
    p_an.add_argument(
        "--grid", type=int, default=None, help="Doppler grid points (default: the document's grid)"
    )
    p_an.set_defaults(run=cmd_analyze)

    p_tab = sub.add_parser("table", help="metric table over null orders and windows")
    p_tab.add_argument("--k0", required=True, help="comma-separated null orders, e.g. 10,15,20")
    p_tab.add_argument(
        "--windows", default="hamming,rectangular", help="comma-separated window kinds"
    )
    p_tab.add_argument("--m", type=int, default=50)
    p_tab.add_argument("--n", type=int, default=64)
    p_tab.add_argument("--format", choices=("csv", "md", "json"), default="md")
    p_tab.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    _add_design_options(p_tab)
    p_tab.set_defaults(run=cmd_table)

    p_ver = sub.add_parser("verify", help="check invariants of a pair length or document")
    p_ver.add_argument("document", nargs="?", help="design document to verify")
    p_ver.add_argument("--golay", type=int, default=None, metavar="N", help="verify a generated pair")
    p_ver.set_defaults(run=cmd_verify)
    return parser


# ---------------------------------------------------------------------------


def _check_pulse_count(m: int) -> None:
    """The designs' pulse-count check, made before the window is built:
    the window's own check would name its length, not the pulse count."""
    if m < 2:
        raise ValueError(f"pulse count must be >= 2, got {m}")


def _design_from_args(args, grid: DopplerGrid) -> DesignResult:
    _check_pulse_count(args.m)
    nulls = tuple(parse_null(t) for t in args.null)
    spec = NullSpec(k0=args.k0, nulls=nulls)
    if args.method != "nm":
        if args.k0 or nulls or args.trace:
            raise ValueError(
                f"--k0/--null/--trace only apply to the nm method, not {args.method!r}"
            )
        return _BASELINES[args.method](args.m)
    # even grids end at pi - 2pi/G: a null centre past that is refused before the design
    for theta, _ in nulls:
        grid.index_of(theta)
    return design_nm_drcw(
        args.m,
        spec,
        window_template(args.window, args.m),
        trials=args.trials,
        seed=args.seed,
        max_iter=args.max_iter,
        collect_solver_trace=bool(args.trace),
    )


def _interval_str(iv) -> str:
    if iv.empty:
        return "empty"
    return f"[0, {iv.half_width / math.pi:.2f}pi]" if iv.center == 0.0 else (
        f"[{iv.lo / math.pi:.3f}pi, {iv.hi / math.pi:.3f}pi]"
    )


def _refuse_missing_dirs(*paths) -> None:
    """The writer's error for an output path whose directory does not
    exist, raised before any work is spent on what it would hold."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
            raise doc_io.write_error(path, OSError(code, os.strerror(code)))


def cmd_design(args) -> int:
    _refuse_missing_dirs(args.out, args.trace)
    pair = generate_golay_pair(args.n)
    grid = DopplerGrid(args.grid)
    design = _design_from_args(args, grid)
    if args.trace:
        rows = design.solver_trace
        text = "iteration,objective,certified_gap,diag_deviation\n" + "".join(
            f"{it},{obj:.12g},{gap:.12g},{dev:.12g}\n" for it, obj, gap, dev in rows
        )
        doc_io.save_text(args.trace, text)
    metrics = compute_metrics(design, pair, grid)
    doc = doc_io.build_document(design, n=args.n, grid_points=args.grid, metrics=metrics)
    doc_io.save_document(doc, args.out)
    print(f"method {design.method}  m={design.m} n={args.n} window={design.window_kind}")
    if design.rounded_objective is not None:
        print(f"objective {design.rounded_objective:.6f}  sdp bound {design.sdp_bound:.6f}")
    print(
        f"NAG {metrics.nag:.2f} dB  DMBR {metrics.dmbr:.1f}%  PDSL {metrics.pdsl:.2f} dB"
    )
    for iv in metrics.rsba:
        print(f"RSBA around {iv.center / math.pi:.2f}pi: {_interval_str(iv)}")
    print(f"wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    design, doc = doc_io.load_document(args.document)
    # all-zero weights, which verify fails, would export floor-level files
    nag(design.weights)
    grid = DopplerGrid(doc["grid"] if args.grid is None else args.grid)
    pair = generate_golay_pair(doc["n"])
    caf = composite_ambiguity(design, pair, grid)
    g, f = caf.basis
    curve = prsl_curve(design, pair, f)
    g_db = magnitude_db(g)
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise doc_io.write_error(out, exc) from exc

    def save(name, text):
        doc_io.save_text(out / name, text)

    save("prsl.csv", doc_io.curve_csv(grid, curve, "prsl_db"))
    save("doppler.csv", doc_io.curve_csv(grid, g_db, "g_db"))
    with doc_io.open_output(out / "caf.csv") as fh:
        doc_io.caf_csv(caf, fh)
    written = ["prsl.csv", "doppler.csv", "caf.csv"]
    if args.svg:
        plot, x = doc_io.svg_line_plot, "Doppler shift (rad/pulse)"
        save("prsl.svg", plot(grid.points, curve, "Peak range sidelobe level", x, "PRSL (dB)"))
        save("doppler.svg", plot(grid.points, g_db, "Doppler profile", x, "|G| (dB)"))
        save("caf.svg", doc_io.svg_heatmap(caf, "Composite ambiguity (dB)"))
        written += ["prsl.svg", "doppler.svg", "caf.svg"]
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def _table_rows(args) -> list[dict]:
    _check_pulse_count(args.m)
    k0_list = [s.strip() for s in args.k0.split(",") if s.strip()]
    if not k0_list:
        raise ValueError("--k0 list must not be empty")
    k0_values = []
    for s in k0_list:
        try:
            k0_values.append(int(s))
        except ValueError:
            raise ValueError(f"--k0 entries must be integers, got {s!r}") from None
    windows = [w.strip() for w in args.windows.split(",") if w.strip()]
    if not windows:
        raise ValueError("--windows list must not be empty")
    for option, entries in (("--k0", k0_values), ("--windows", windows)):
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise ValueError(f"{option} entry {entry!r} is repeated")
    for k0 in k0_values:
        if k0 > args.m - 1:
            raise ValueError(f"k0={k0} violates k0 <= m-1 for m={args.m}")
    pair = generate_golay_pair(args.n)
    grid = DopplerGrid(args.grid)
    templates = [(kind, window_template(kind, args.m)) for kind in windows]
    rows = []
    for kind, window in templates:
        for k0 in k0_values:
            design = design_nm_drcw(
                args.m,
                NullSpec(k0=k0),
                window,
                trials=args.trials,
                seed=args.seed,
                max_iter=args.max_iter,
            )
            metrics = compute_metrics(design, pair, grid)
            rows.append(
                {
                    "window": kind,
                    "k0": k0,
                    "rsba_halfwidth_over_pi": metrics.rsba[0].half_width / math.pi,
                    "dmbr_percent": metrics.dmbr,
                    "pdsl_db": metrics.pdsl,
                    "nag_db": metrics.nag,
                }
            )
    return rows


def _format_table(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        lines = ["window,k0,rsba_halfwidth_over_pi,dmbr_percent,pdsl_db,nag_db"]
        for r in rows:
            lines.append(
                f"{r['window']},{r['k0']},{r['rsba_halfwidth_over_pi']:.12g},"
                f"{r['dmbr_percent']:.12g},{r['pdsl_db']:.12g},{r['nag_db']:.12g}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    lines = [
        "| window | k0 | RSBA | DMBR | PDSL | NAG |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['window']} | {r['k0']} | [0, {r['rsba_halfwidth_over_pi']:.2f}pi] "
            f"| {r['dmbr_percent']:.0f}% | {r['pdsl_db']:.1f} dB | {r['nag_db']:.2f} dB |"
        )
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    _refuse_missing_dirs(args.out)
    rows = _table_rows(args)
    text = _format_table(rows, args.format)
    if args.out:
        doc_io.save_text(args.out, text)
        # stderr, so that -o /dev/stdout gives the table alone
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _metric_numbers(metrics: dict) -> np.ndarray:
    """Every number of a document's metrics record, in one fixed order."""
    rsba = [v for iv in metrics["rsba"] for v in (iv["center"], iv["lo"], iv["hi"])]
    scalars = [metrics["dmbr"], metrics["pdsl"], metrics["nag"]]
    return np.array(rsba + scalars + list(metrics["prsl_curve"]), dtype=float)


def _report(failures: list, name: str, ok: bool, detail: str = "") -> None:
    """Print one check's ok/FAIL line; a failed check joins ``failures``."""
    suffix = f" ({detail})" if detail else ""
    print(f"{'ok' if ok else 'FAIL'}: {name}{suffix}")
    if not ok:
        failures.append(name)


def _verify_document(path: str, check) -> None:
    """Run every check of a design document through ``check``."""
    design, doc = doc_io.load_document(path)
    m, n = design.m, doc["n"]
    # GolayPair raises ValueError (exit 2) unless the pair is complementary
    pair = generate_golay_pair(n)
    check(f"complementary pair n={n}", True)

    energy = float(np.sum(design.y * design.y))
    check("energy |y|^2 = m", abs(energy - m) <= 1e-8 * m, f"|y|^2 = {energy:.12g}")

    spec = design.null_spec
    violation = max_null_violation(design.y, spec)
    check(
        f"null orders (k0={spec.k0}, {len(spec.nulls)} extra)",
        violation <= 1e-8 * m,
        f"worst residual {violation:.3e}",
    )

    obj, bound = design.rounded_objective, design.sdp_bound
    if obj is not None and bound is not None:
        check(
            "rounded objective within relaxation bound",
            obj <= bound + 1e-6 * max(1.0, abs(bound)),
            f"{obj:.6f} <= {bound:.6f}",
        )

    name = "re-analysis reproduces embedded metrics"
    try:
        fresh = doc_io.metrics_to_dict(compute_metrics(design, pair, DopplerGrid(doc["grid"])))
    except ValueError as exc:
        # a design whose metrics cannot be computed fails verification
        check(name, False, str(exc))
    else:
        dev = float(np.max(np.abs(_metric_numbers(fresh) - _metric_numbers(doc["metrics"]))))
        check(name, dev <= 1e-9, f"max dev {dev:.3e}")


def cmd_verify(args) -> int:
    if args.golay is None and args.document is None:
        raise ValueError("verify needs a design document or --golay N")
    failures: list[str] = []
    check = functools.partial(_report, failures)
    if args.golay is not None:
        generate_golay_pair(args.golay)  # complementary, or ValueError (exit 2)
        check(f"complementary pair n={args.golay}", True)
    if args.document is not None:
        _verify_document(args.document, check)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, DesignFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
