"""Design documents and flat-file exports.

A design document is a versioned JSON record of everything needed to
reproduce and re-verify a design: method, sizes, null specification,
window, seed, the s/w arrays, the certified relaxation bound, and the computed
metrics. Serialization is deterministic (sorted keys, repr floats) so
identical runs produce byte-identical files.

CSV exports use a header row, UTF-8, '.' decimal separator, and 12
significant digits. Each export is formatted from one %-template, and a
grid's theta column is formatted once for all of them. ``caf_csv`` and
``svg_heatmap`` evaluate the CAF from its rank-2 factors one distinct row
at a time and never build the dense lag x Doppler array; ``caf_csv``
writes to an open text stream lag by lag, so its memory follows the
distinct CAF rows rather than the size of the file. SVG rendering is
presentation sugar derived from the same numbers; nothing reads it back.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .analysis import CafGrid, DopplerGrid, MetricsReport, magnitude_db
from .design import DesignResult
from .nullspec import NullSpec

SCHEMA_VERSION = 3


def metrics_to_dict(report: MetricsReport) -> dict:
    return {
        "rsba": [
            {"center": float(iv.center), "lo": float(iv.lo), "hi": float(iv.hi)}
            for iv in report.rsba
        ],
        "dmbr": float(report.dmbr),
        "pdsl": float(report.pdsl),
        "nag": float(report.nag),
        "prsl_curve": np.asarray(report.prsl_curve, dtype=float).tolist(),
    }


def build_document(
    design: DesignResult,
    n: int,
    grid_points: int,
    metrics: MetricsReport,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": design.method,
        "m": int(design.m),
        "n": int(n),
        "null_spec": {
            "k0": int(design.null_spec.k0),
            "nulls": [[float(t), int(k)] for t, k in design.null_spec.nulls],
        },
        "window": design.window_kind,
        "seed": design.seed,
        "trials": design.trials,
        "grid": int(grid_points),
        "s": design.transmit_order.tolist(),
        "w": design.weights.astype(float).tolist(),
        "objective": None if design.rounded_objective is None else float(design.rounded_objective),
        "sdp_bound": None if design.sdp_bound is None else float(design.sdp_bound),
        "warnings": list(design.warnings),
        "metrics": metrics_to_dict(metrics),
    }


def _number_list(values: list, pad: str) -> str:
    """The indent=2 JSON text of a flat list of numbers whose key sits at
    indent ``pad``, from json's C encoder (which only runs without
    ``indent``): the item separator carries the newline and the indent."""
    if not values:
        return "[]"
    inner = pad + "  "
    body = json.dumps(values, separators=(",\n" + inner, ": "))[1:-1]
    return f"[\n{inner}{body}\n{pad}]"


def dumps_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, byte for byte. The long number lists s, w and
    metrics.prsl_curve are encoded apart and spliced in where the rest's
    text holds them empty; a raw newline followed by a key's indent can
    only start that key, since JSON strings escape their newlines."""
    metrics = doc["metrics"]
    rest = dict(doc, s=[], w=[], metrics=dict(metrics, prsl_curve=[]))
    text = json.dumps(rest, indent=2, sort_keys=True, ensure_ascii=False)
    for key in ("s", "w"):
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": {_number_list(doc[key], "  ")}', 1)
    head, tail = text.split('\n  "metrics": ', 1)
    curve = _number_list(metrics["prsl_curve"], "    ")
    tail = tail.replace('\n    "prsl_curve": []', f'\n    "prsl_curve": {curve}', 1)
    return f'{head}\n  "metrics": {tail}\n'


def save_document(doc: dict, path) -> None:
    Path(path).write_text(dumps_document(doc), encoding="utf-8")


def load_document(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read design document {path}: {exc}") from exc
    validate_document(doc)
    return doc


def validate_document(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ValueError("design document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {doc.get('schema_version')!r}; expected {SCHEMA_VERSION}"
        )
    for key in ("method", "m", "n", "null_spec", "s", "w", "grid", "metrics"):
        if key not in doc:
            raise ValueError(f"design document is missing field {key!r}")
    nested = {
        "null_spec": ("k0", "nulls"),
        "metrics": ("rsba", "dmbr", "pdsl", "nag", "prsl_curve"),
    }
    for record, keys in nested.items():
        if not isinstance(doc[record], dict):
            raise ValueError(f"design document field {record!r} must be an object")
        for key in keys:
            if key not in doc[record]:
                raise ValueError(f"design document is missing field '{record}.{key}'")
    ns, metrics = doc["null_spec"], doc["metrics"]
    number, integer = "a number", "an integer"
    numbers, optional = "a list of numbers", "a number or null"
    typed = [
        ("m", _is_int(doc["m"]), integer),
        ("n", _is_int(doc["n"]), integer),
        ("grid", _is_int(doc["grid"]), integer),
        ("null_spec.k0", _is_int(ns["k0"]) and ns["k0"] >= 0, "an integer >= 0"),
        ("null_spec.nulls", _is_list(ns["nulls"], _is_null_pair), "[number, integer] pairs"),
        ("s", _is_list(doc["s"], _is_number), numbers),
        ("w", _is_list(doc["w"], _is_number), numbers),
        ("objective", doc.get("objective") is None or _is_number(doc["objective"]), optional),
        ("sdp_bound", doc.get("sdp_bound") is None or _is_number(doc["sdp_bound"]), optional),
        ("warnings", _is_list(doc.get("warnings", []), _is_str), "a list of strings"),
        ("metrics.rsba", _is_list(metrics["rsba"], _is_interval), "a list of {center, lo, hi}"),
        ("metrics.dmbr", _is_number(metrics["dmbr"]), number),
        ("metrics.pdsl", _is_number(metrics["pdsl"]), number),
        ("metrics.nag", _is_number(metrics["nag"]), number),
        ("metrics.prsl_curve", _is_list(metrics["prsl_curve"], _is_number), numbers),
    ]
    for field, ok, what in typed:
        if not ok:
            raise ValueError(f"design document field {field!r} must be {what}")
    m = doc["m"]
    if len(doc["s"]) != m or len(doc["w"]) != m:
        raise ValueError("s and w arrays must have length m")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_list(value, item_ok) -> bool:
    return isinstance(value, list) and all(item_ok(v) for v in value)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_null_pair(value) -> bool:
    # [theta, order]
    return (
        isinstance(value, list) and len(value) == 2 and _is_number(value[0]) and _is_int(value[1])
    )


def _is_interval(value) -> bool:
    # an RSBA entry; a missing bound reads as None
    return isinstance(value, dict) and all(_is_number(value.get(k)) for k in ("center", "lo", "hi"))


def document_to_design(doc: dict) -> DesignResult:
    """Rebuild an in-memory design from a document (y = s o w)."""
    s = np.array(doc["s"], dtype=float)
    w = np.array(doc["w"], dtype=float)
    if not np.all(np.abs(s) == 1):
        raise ValueError("document transmit order must contain only +1/-1")
    if np.any(w < 0):
        raise ValueError("document weights must be nonnegative")
    ns = doc["null_spec"]
    spec = NullSpec(k0=int(ns["k0"]), nulls=tuple((float(t), int(k)) for t, k in ns["nulls"]))
    return DesignResult(
        y=s * w,
        method=doc["method"],
        null_spec=spec,
        window_kind=doc.get("window"),
        seed=doc.get("seed"),
        trials=doc.get("trials"),
        rounded_objective=doc.get("objective"),
        sdp_bound=doc.get("sdp_bound"),
        warnings=tuple(doc.get("warnings", ())),
    )


# ---------------------------------------------------------------------------
# CSV exports


@functools.lru_cache(maxsize=1)
def _theta_text(grid: DopplerGrid) -> tuple[str, ...]:
    """The theta column of every CSV export of ``grid``, formatted once for
    all of them."""
    return tuple(f"{t:.12g}" for t in grid.points.tolist())


def _distinct_rows(caf: CafGrid, make):
    """(lag, make(row)) for each lag in order, with ``make`` called once per
    distinct CAF row: rows whose coefficient bytes are equal are bitwise
    equal, so their results are shared."""
    made = {}
    for i, lag in enumerate(caf.lags.tolist()):
        key = caf.coefficients[i].tobytes()
        if key not in made:
            made[key] = make(caf.row(i))
        yield lag, made[key]


def curve_csv(grid: DopplerGrid, values, column: str) -> str:
    """Two-column export of a curve over the Doppler grid, e.g. ``column``
    "prsl_db" for the PRSL curve or "g_db" for the Doppler profile."""
    template = "".join(f"{t},%.12g\n" for t in _theta_text(grid))
    return f"theta_rad,{column}\n" + template % tuple(np.asarray(values, dtype=float).tolist())


def caf_csv(caf: CafGrid, out) -> None:
    """Write the long-form CAF export to the text stream ``out``: one row
    per (lag, theta) with the complex value and its magnitude in dB
    relative to the global peak.

    The file is written lag by lag from the CAF's rank-2 factors; the dense
    lag x Doppler array is never built. Each distinct CAF row is evaluated
    and formatted once, with its dB levels (a function of the row, as the
    reference is fixed at the global peak), from one template whose theta
    column is formatted once per grid. Its text is kept as one string
    without the lag prefix, which is added as each lag is written. Rows
    repeat because the pair is complementary: at k != 0 the row is
    (R1-R2)[k]/2 * F, and the integer (R1-R2)[k]/2 takes few values (13
    distinct rows of 127 at N=64). So memory follows the distinct rows, not
    the size of the file: a whole ``drcw analyze`` at N=64 on 8192 points
    peaks at about 9 MB of Python allocations, against 16.6 MB for the
    dense array alone.
    """
    template = "\n".join(f"{t},%.12g,%.12g,%.12g" for t in _theta_text(caf.doppler))
    peak = caf.peak

    def text(row):
        cells = np.stack([row.real, row.imag, magnitude_db(row, ref=peak)], axis=1)
        return template % tuple(cells.ravel().tolist())

    out.write("lag,theta_rad,re,im,mag_db\n")
    for lag, body in _distinct_rows(caf, text):
        out.write(f"{lag}," + body.replace("\n", f"\n{lag},") + "\n")


# ---------------------------------------------------------------------------
# SVG rendering (derived presentation; no numeric authority)

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]


def svg_line_plot(xs, ys, title: str, xlabel: str, ylabel: str, y_floor: float | None = None) -> str:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if y_floor is not None:
        ys = np.maximum(ys, y_floor)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    parts = _svg_header(title)
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    # px and py on whole arrays do the scalar operations in the same order,
    # so every coordinate rounds as it would point by point
    coords = np.stack([px(xs), py(ys)], axis=1).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(coords)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{px(xv):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(yv):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_heatmap(caf: CafGrid, title: str, db_min: float = -100.0, max_cols: int = 200) -> str:
    """Grayscale range-Doppler map of the CAF magnitude in dB.

    Doppler columns are max-pooled down to at most ``max_cols`` cells so the
    file stays manageable; the pooling preserves sidelobe peaks. Each
    distinct CAF row is evaluated and pooled once, so only the pooled
    (2N-1) x ``max_cols`` magnitudes are held.
    """
    n_cols = caf.doppler.size
    stride = max(1, int(math.ceil(n_cols / max_cols)))
    starts = np.arange(0, n_cols, stride)
    pooled = _distinct_rows(caf, lambda row: np.maximum.reduceat(np.abs(row), starts))
    mags = np.stack([row for _, row in pooled])
    db = np.clip(magnitude_db(mags, ref=caf.peak), db_min, 0.0)
    # 0 dB -> black, db_min -> white; np.rint rounds half to even, as round does
    levels = np.rint(255 * db / db_min).astype(int)
    rows, cols = db.shape
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    cw, ch = pw / cols, ph / rows
    parts = _svg_header(title)
    # one template per row of cells; "{y}" is swapped for each row's y
    template = "\n".join(
        f'<rect x="{_ML + j * cw:.2f}" y="{{y}}" width="{cw + 0.05:.2f}" '
        f'height="{ch + 0.05:.2f}" fill="rgb(%d,%d,%d)"/>'
        for j in range(cols)
    )
    for i, row in enumerate(np.repeat(levels, 3, axis=1).tolist()):
        parts.append(template.replace("{y}", f"{_MT + i * ch:.2f}") % tuple(row))
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">Doppler shift (rad/pulse)</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">lag</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
