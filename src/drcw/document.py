"""Design documents and flat-file exports.

A design document is a versioned JSON record of everything needed to
reproduce and re-verify a design: method, sizes, null specification,
window, seed, the s/w arrays, the certified relaxation bound, and the computed
metrics. Serialization is deterministic (sorted keys, repr floats) so
identical runs produce byte-identical files.

CSV exports use a header row, UTF-8, '.' decimal separator, and 12
significant digits, from %-templates whose theta column is formatted once
per grid. A number on the Doppler grid (in caf.csv, prsl.csv, doppler.csv
or the prsl_curve) is formatted once per mirror pair theta, -theta whose
numbers are bitwise equal, as ``analysis.factors`` makes them.
``caf_csv`` and ``svg_heatmap`` evaluate the CAF from its rank-2 factors
one distinct row at a time, never the dense lag x Doppler array, and
format each sign class (the rows equal up to sign) once. ``caf_csv``
writes to an open binary stream lag by lag, so its memory follows the
distinct CAF rows rather than the size of the file. SVG rendering is
presentation sugar derived from the same numbers; nothing reads it back.
It too formats only distinct numbers: a line plot's x pixels once per x
array, its y pixels once per mirror pair, and a heatmap's cells once per
sign class, split at the y slots that each lag joins its y into.

Every file drcw writes goes through ``open_output``. It writes the path
from its start without truncating it first, so a rewrite reuses the old
file's blocks instead of freeing and allocating them again, and then cuts
a regular file (never a device such as /dev/null) to the bytes written,
however the writing ends. An ``OSError`` becomes a ``ValueError`` naming
the path.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .analysis import CafGrid, DopplerGrid, MetricsReport, magnitude_db
from .design import DesignResult
from .nullspec import NullSpec
from .sequences import WINDOW_KINDS

SCHEMA_VERSION = 4


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


def _mirrored(numbers: np.ndarray, encode) -> list:
    """``encode(numbers)``, the texts of the rows of ``numbers``, one row per
    Doppler grid point. If every row z + j (z = len // 2) is bitwise equal
    to its mirror row z - j, only the theta <= 0 half is encoded, and each
    text is repeated at its mirror point."""
    z = len(numbers) // 2
    last = 2 * z + 1 - len(numbers)  # the last point's mirror: 1 on even grids, 0 on odd
    if not np.array_equal(numbers[z + 1:].view(np.int64), numbers[last:z][::-1].view(np.int64)):
        return encode(numbers)
    texts = encode(numbers[: z + 1])
    return texts + texts[last:z][::-1]


def _json_texts(values: list) -> list[str]:
    """The JSON text of each entry of a flat list of numbers, from one call
    of json's C encoder (which only runs without ``indent``)."""
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n") if values else []


def _number_list(texts: list[str], pad: str) -> str:
    """The indent=2 JSON text of a flat list of numbers, given as its
    entries' ``texts``, whose key sits at indent ``pad``."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}]"


def dumps_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, byte for byte. The long number lists s, w and
    metrics.prsl_curve are encoded apart and spliced in where the rest's
    text holds them empty; a raw newline followed by a key's indent can
    only start that key, since JSON strings escape their newlines. A curve
    of floats is encoded once per mirror pair of Doppler grid points."""
    metrics = doc["metrics"]
    rest = dict(doc, s=[], w=[], metrics=dict(metrics, prsl_curve=[]))
    text = json.dumps(rest, indent=2, sort_keys=True, ensure_ascii=False)
    for key in ("s", "w"):
        array = _number_list(_json_texts(doc[key]), "  ")
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": {array}', 1)
    head, tail = text.split('\n  "metrics": ', 1)
    curve = metrics["prsl_curve"]
    # an int or a bool prints unlike the float of its value
    if type(curve) is list and set(map(type, curve)) == {float}:
        texts = _mirrored(np.array(curve), lambda half: _json_texts(half.tolist()))
    else:
        texts = _json_texts(curve)
    curve = _number_list(texts, "    ")
    tail = tail.replace('\n    "prsl_curve": []', f'\n    "prsl_curve": {curve}', 1)
    return f'{head}\n  "metrics": {tail}\n'


def write_error(path, exc: OSError) -> ValueError:
    """The error an output path that cannot be written raises."""
    return ValueError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def open_output(path):
    """A binary stream that writes ``path`` from its start, created if
    missing, and on exit, clean or not, a regular file cut to the bytes
    written (see the module docstring)."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as out:
            try:
                yield out
            finally:
                try:
                    out.flush()
                finally:
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise write_error(path, exc) from exc


def save_text(path, text: str) -> None:
    with open_output(path) as out:
        out.write(text.encode())


def save_document(doc: dict, path) -> None:
    save_text(path, dumps_document(doc))


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
    # an int beyond the float range has no float to compute with
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_optional(ok):
    return lambda value: value is None or ok(value)


def _list_of(ok):
    return lambda value: type(value) is list and all(ok(v) for v in value)


def _numbers(ok=lambda values: True):
    # the entry types in one C-level pass, the range of each int if there is
    # one, then ``ok`` on the whole list
    def check(value) -> bool:
        types = set(map(type, value)) if type(value) is list else {None}
        in_range = int not in types or all(map(_is_number, value))
        return types <= {int, float} and in_range and ok(value)

    return check


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
    try:
        spec = NullSpec(k0=k0, nulls=nulls)
    except ValueError as exc:
        raise ValueError(f"design document field 'null_spec.nulls' is invalid: {exc}") from None
    if spec.total_order >= m:  # the rule of constraint_basis: K <= M-1
        raise ValueError(
            f"design document field 'null_spec' must ask for a null order "
            f"K = k0 + 2 sum(k_i) <= m - 1 = {m - 1}"
        )
    window = _field(doc, "window", "a window kind or null", _is_optional(WINDOW_KINDS.__contains__))
    seed = _field(doc, "seed", "an integer or null", _is_optional(_is_int))
    positive = _is_optional(lambda v: _is_int(v) and v >= 1)
    trials = _field(doc, "trials", "an integer >= 1 or null", positive)
    s = _field(doc, "s", "a list of +1/-1", _numbers(lambda v: set(map(abs, v)) <= {1}))
    # 0.0 <= v fails for NaN, as v >= 0 does
    w = _field(doc, "w", "a list of numbers >= 0", _numbers(lambda v: all(map(0.0.__le__, v))))
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
    _field(metrics, "metrics.prsl_curve", per_point, _sized(_numbers(), grid))
    return DesignResult(
        y=np.array(s, dtype=float) * np.array(w, dtype=float),
        method=method,
        null_spec=spec,
        window_kind=window,
        seed=seed,
        trials=trials,
        rounded_objective=objective,
        sdp_bound=bound,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# CSV exports

# lines per %-pass and prefixing in caf.csv: whole-row passes fragment the heap on big grids
_BLOCK = 4096
_SIGNS = np.array([b"", b"-"], dtype=object)


@functools.lru_cache(maxsize=1)
def _theta_text(grid: DopplerGrid, block: int) -> tuple[str, tuple[bytes, ...]]:
    """``grid``'s theta column in every CSV export: ``curve_csv``'s template
    and ``caf_csv``'s line templates, ``block`` lines each. A point's ``%s``
    takes its text; a CAF line's ``%%s`` becomes the slot of re's sign."""
    theta = [f"{t:.12g}" for t in grid.points.tolist()]
    lines = [f"\n{t},%%s%s".encode() for t in theta]
    blocks = tuple(b"".join(lines[a:a + block]) for a in range(0, len(lines), block))
    return "".join(f"{t},%s\n" for t in theta), blocks


def _percent_texts(template, rows: np.ndarray) -> list:
    """The text of each of ``rows``, formatted by ``template`` (which ends in
    its one newline) in one %-pass."""
    return (template * len(rows) % tuple(rows.ravel().tolist())).split(template[-1:])[:-1]


def _sign_classes(caf: CafGrid, unsigned, make, fill=lambda text, row: text):
    """(lag, text) for each lag in order. A lag's sign class is its
    coefficient row, negated if its first nonzero entry is negative, + 0.0;
    as negation is exact, a class's CAF rows are equal up to sign. ``make``
    formats a class's sign-free ``unsigned(row)`` once, ``fill`` adds each
    distinct row's signs, and a row whose numbers differ bitwise gets its own."""
    c = caf.coefficients
    lead = np.where(c[:, 0] != 0, c[:, 0], c[:, 1])
    classes = [k.tobytes() for k in np.where(lead[:, None] < 0, -c, c) + 0.0]
    rows, filled = [k.tobytes() for k in c], {}
    for lag, cls, key in zip(caf.lags.tolist(), classes, rows):
        if key not in filled:
            made = None
            for member, i in {k: i for i, k in enumerate(rows) if classes[i] == cls}.items():
                numbers = unsigned(row := caf.row(i))
                made = made or (numbers, make(numbers))
                same = np.array_equal(numbers.view(np.int64), made[0].view(np.int64))
                filled[member] = fill(made[1] if same else make(numbers), row)
        yield lag, filled[key]


def curve_csv(grid: DopplerGrid, values, column: str) -> str:
    """Two-column export of a curve over the Doppler grid, e.g. ``column``
    "prsl_db" for the PRSL curve or "g_db" for the Doppler profile, with
    each mirror pair's value formatted once."""
    texts = _mirrored(np.asarray(values, dtype=float), functools.partial(_percent_texts, "%.12g\n"))
    return f"theta_rad,{column}\n" + _theta_text(grid, _BLOCK)[0] % tuple(texts)


def caf_csv(caf: CafGrid, out) -> None:
    """Write the long-form CAF export to the binary stream ``out``: one
    ASCII line per (lag, theta) with the complex value and its magnitude in
    dB relative to the global peak.

    It is written lag by lag from the CAF's rank-2 factors. At k != 0 the
    row is (R1-R2)[k]/2 * F, and that integer takes few values: 13 distinct
    rows in 8 sign classes of 127 at N=64. Each class's |re|, |im| and dB
    are formatted once per mirror pair of Doppler points with open sign
    slots, each distinct row fills in its signs, and each lag adds its
    prefix as it is written. So memory follows the distinct rows, not the
    size of the file.
    """
    templates, peak = _theta_text(caf.doppler, _BLOCK)[1], caf.peak
    blocks = range(0, caf.doppler.size, _BLOCK)
    point = functools.partial(_percent_texts, b"%.12g,%%s%.12g,%.12g\n")

    # as floats, a complex row interleaves re and im, as a line does
    def unsigned(row):
        parts = np.abs(row.view(float)).reshape(-1, 2)
        return np.column_stack([parts, magnitude_db(row, ref=peak)])

    def make(cells):
        texts = _mirrored(cells, point)
        return [t % tuple(texts[a:a + _BLOCK]) for a, t in zip(blocks, templates)]

    def fill(texts, row):
        parts = row.view(float)
        signs = _SIGNS[(np.signbit(parts) & ~np.isnan(parts)).view(np.int8)]
        return [t % tuple(signs[2 * a:2 * a + 2 * _BLOCK].tolist()) for a, t in zip(blocks, texts)]

    out.write(b"lag,theta_rad,re,im,mag_db")
    for lag, body in _sign_classes(caf, unsigned, make, fill):
        prefix = b"\n%d," % lag
        out.writelines(text.replace(b"\n", prefix) for text in body)
    out.write(b"\n")


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
        "",
    ]
    return "\n".join(parts)


def _x_pixel(x, x0: float, x1: float):
    return _ML + (x - x0) / (x1 - x0) * _PW


@functools.lru_cache(maxsize=1)
def _x_text(xs: bytes) -> str:
    """The polyline points over ``xs``, the bytes of a float64 array, with
    each x pixel formatted and each y left as a ``%s`` slot."""
    x = np.frombuffer(xs)
    pixels = _x_pixel(x, float(x.min()), float(x.max())).tolist()
    return " ".join(["%.2f,%%s"] * len(pixels)) % tuple(pixels)


def svg_line_plot(xs, ys, title: str, xlabel: str, ylabel: str) -> str:
    """A curve over ``xs``, clipped below at ``_Y_FLOOR``. The x pixels are
    formatted once per distinct ``xs`` (so the plots of one grid share
    them), and the y pixels once per mirror pair of bitwise equal values."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), _Y_FLOOR)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * _PH

    # the pixel formulas on whole arrays do the scalar operations in the
    # same order, so every coordinate rounds as it would point by point
    y_texts = _mirrored(py(ys), functools.partial(_percent_texts, "%.2f\n"))
    pts = _x_text(xs.tobytes()) % tuple(y_texts)
    body = [_BORDER, f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        body.append(
            f'<text x="{_x_pixel(xv, x0, x1):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
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
    sign class's cells are pooled and formatted once, as the map depends
    only on |row|, and split at its y slots; each lag joins its y into the
    pieces.
    """
    starts = np.arange(0, caf.doppler.size, math.ceil(caf.doppler.size / _MAX_COLS))
    cw, ch, peak = _PW / starts.size, _PH / caf.lags.size, caf.peak
    # one template per row of cells; "{y}" marks each slot of the lag's y
    template = "\n".join(
        f'<rect x="{_ML + j * cw:.2f}" y="{{y}}" width="{cw + 0.05:.2f}" '
        f'height="{ch + 0.05:.2f}" fill="rgb(%d,%d,%d)"/>'
        for j in range(starts.size)
    )

    def levels(row):  # np.rint rounds half to even, as round does
        db = magnitude_db(np.maximum.reduceat(np.abs(row), starts), ref=peak)
        return np.rint(255 * np.clip(db, _DB_MIN, 0.0) / _DB_MIN).astype(int)

    def make(v):
        return (template % tuple(np.repeat(v, 3).tolist())).split("{y}")

    rows = _sign_classes(caf, levels, make)
    body = [f"{_MT + i * ch:.2f}".join(pieces) for i, (_, pieces) in enumerate(rows)]
    return _svg(title, [*body, _BORDER], "Doppler shift (rad/pulse)", "lag")
