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
from .sequences import WINDOW_KINDS

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


def load_document(path) -> tuple[DesignResult, dict]:
    """The design a document file holds, with the parsed document, every
    field of which ``document_to_design`` has checked."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read design document {path}: {exc}") from exc
    return document_to_design(doc), doc


def _field(record: dict, name: str, what: str, ok):
    """The value of the field ``name`` (dotted from the document's root) in
    ``record``, its innermost object; ValueError naming the field if it is
    missing or its value fails ``ok``."""
    key = name.rpartition(".")[2]
    if key not in record:
        raise ValueError(f"design document is missing field {name!r}")
    if not ok(record[key]):
        raise ValueError(f"design document field {name!r} must be {what}")
    return record[key]


# JSON loads a number as int or float, true and false as bool, which is neither
def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_optional(ok):
    return lambda value: value is None or ok(value)


def _list_of(ok):
    return lambda value: type(value) is list and all(ok(v) for v in value)


def _sized(ok, size: int):
    return lambda value: ok(value) and len(value) == size


def _is_object(value) -> bool:
    return type(value) is dict


def _is_null_pair(value) -> bool:
    # [theta, order]
    return type(value) is list and len(value) == 2 and _is_number(value[0]) and _is_int(value[1])


def _is_interval(value) -> bool:
    # an RSBA entry; a missing bound reads as None
    return _is_object(value) and all(_is_number(value.get(k)) for k in ("center", "lo", "hi"))


def document_to_design(doc) -> DesignResult:
    """Read a design document and rebuild its design (y = s o w).

    This is what makes a document valid. Every field that
    ``build_document`` writes is read and checked for type and value, the
    metrics too, and the first field that is missing or wrong raises
    ValueError naming it. ``window``, ``seed``, ``trials``, ``objective``
    and ``sdp_bound`` are null for designs that have none.
    """
    if not _is_object(doc):
        raise ValueError("design document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {doc.get('schema_version')!r}; expected {SCHEMA_VERSION}"
        )
    method = _field(doc, "method", "a string", lambda v: type(v) is str)
    m = _field(doc, "m", "an integer >= 2", lambda v: _is_int(v) and v >= 2)
    _field(doc, "n", "an integer", _is_int)
    grid = _field(doc, "grid", "an integer >= 2", lambda v: _is_int(v) and v >= 2)
    ns = _field(doc, "null_spec", "an object", _is_object)
    k0 = _field(ns, "null_spec.k0", "an integer >= 0", lambda v: _is_int(v) and v >= 0)
    nulls = _field(ns, "null_spec.nulls", "[number, integer] pairs", _list_of(_is_null_pair))
    window = _field(doc, "window", "a window kind or null", _is_optional(WINDOW_KINDS.__contains__))
    seed = _field(doc, "seed", "an integer or null", _is_optional(_is_int))
    positive = _is_optional(lambda v: _is_int(v) and v >= 1)
    trials = _field(doc, "trials", "an integer >= 1 or null", positive)
    s = _field(doc, "s", "a list of +1/-1", _list_of(lambda v: _is_number(v) and abs(v) == 1))
    w = _field(doc, "w", "a list of numbers >= 0", _list_of(lambda v: _is_number(v) and v >= 0))
    if len(s) != m or len(w) != m:
        raise ValueError(f"design document fields 's' and 'w' must each have m = {m} entries")
    optional = "a number or null"
    objective = _field(doc, "objective", optional, _is_optional(_is_number))
    bound = _field(doc, "sdp_bound", optional, _is_optional(_is_number))
    warnings = _field(doc, "warnings", "a list of strings", _list_of(lambda v: type(v) is str))
    metrics = _field(doc, "metrics", "an object", _is_object)
    per_centre = f"a list of {1 + len(nulls)} {{center, lo, hi}}, one per null centre"
    _field(metrics, "metrics.rsba", per_centre, _sized(_list_of(_is_interval), 1 + len(nulls)))
    for key in ("dmbr", "pdsl", "nag"):
        _field(metrics, f"metrics.{key}", "a number", _is_number)
    per_point = f"a list of {grid} numbers, one per grid point"
    _field(metrics, "metrics.prsl_curve", per_point, _sized(_list_of(_is_number), grid))
    return DesignResult(
        y=np.array(s, dtype=float) * np.array(w, dtype=float),
        method=method,
        null_spec=NullSpec(k0=k0, nulls=nulls),
        window_kind=window,
        seed=seed,
        trials=trials,
        rounded_objective=objective,
        sdp_bound=bound,
        warnings=tuple(warnings),
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
    the size of the file.
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
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB
# line plots clip their curve below this level; heatmaps shade from 0 dB
# (black) to _DB_MIN (white) in at most _MAX_COLS Doppler columns
_Y_FLOOR = -120.0
_DB_MIN, _MAX_COLS = -100.0, 200
_BORDER = f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" fill="none" stroke="black"/>'


def _svg(title: str, body: list[str], xlabel: str, ylabel: str) -> str:
    """The SVG document: the title, ``body`` (which draws the plot border
    ``_BORDER`` where it belongs in its stacking order) and the axis
    labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        *body,
        f'<text x="{_ML + _PW / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="16" y="{_MT + _PH / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MT + _PH / 2:.1f})">{ylabel}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def svg_line_plot(xs, ys, title: str, xlabel: str, ylabel: str) -> str:
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), _Y_FLOOR)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * _PW

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * _PH

    # px and py on whole arrays do the scalar operations in the same order,
    # so every coordinate rounds as it would point by point
    coords = np.stack([px(xs), py(ys)], axis=1).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(coords)
    body = [_BORDER, f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        body.append(
            f'<text x="{px(xv):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>'
        )
        body.append(
            f'<text x="{_ML - 8}" y="{py(yv):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    return _svg(title, body, xlabel, ylabel)


def svg_heatmap(caf: CafGrid, title: str) -> str:
    """Grayscale range-Doppler map of the CAF magnitude in dB.

    Doppler columns are max-pooled down to at most ``_MAX_COLS`` cells so
    the file stays manageable; the pooling preserves sidelobe peaks. Each
    distinct CAF row is evaluated and pooled once, so only the pooled
    (2N-1) x ``_MAX_COLS`` magnitudes are held.
    """
    n_cols = caf.doppler.size
    stride = max(1, int(math.ceil(n_cols / _MAX_COLS)))
    starts = np.arange(0, n_cols, stride)
    pooled = _distinct_rows(caf, lambda row: np.maximum.reduceat(np.abs(row), starts))
    mags = np.stack([row for _, row in pooled])
    db = np.clip(magnitude_db(mags, ref=caf.peak), _DB_MIN, 0.0)
    # np.rint rounds half to even, as round does
    levels = np.rint(255 * db / _DB_MIN).astype(int)
    rows, cols = db.shape
    cw, ch = _PW / cols, _PH / rows
    # one template per row of cells; "{y}" is swapped for each row's y
    template = "\n".join(
        f'<rect x="{_ML + j * cw:.2f}" y="{{y}}" width="{cw + 0.05:.2f}" '
        f'height="{ch + 0.05:.2f}" fill="rgb(%d,%d,%d)"/>'
        for j in range(cols)
    )
    body = [
        template.replace("{y}", f"{_MT + i * ch:.2f}") % tuple(row)
        for i, row in enumerate(np.repeat(levels, 3, axis=1).tolist())
    ]
    return _svg(title, [*body, _BORDER], "Doppler shift (rad/pulse)", "lag")
