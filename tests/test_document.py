import io
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drcw import cli
from drcw import document
from drcw.analysis import (
    CafGrid, DopplerGrid, composite_ambiguity, compute_metrics, magnitude_db, prsl_curve,
)
from drcw.design import design_bd, design_nm_drcw, design_ptm, design_uniform
from drcw.document import (
    _H, _MB, _ML, _MR, _MT, _W, _sign_classes, build_document, caf_csv, curve_csv,
    document_to_design, dumps_document, open_output, save_document, svg_heatmap, svg_line_plot,
)
from drcw.nullspec import NullSpec
from drcw.sequences import generate_golay_pair, window_template


def caf_csv_reference(caf):
    """caf.csv formatted cell by cell, one f-string per row."""
    values = caf.values
    db = magnitude_db(values, ref=caf.peak)
    rows = ["lag,theta_rad,re,im,mag_db"]
    for i, lag in enumerate(caf.lags.tolist()):
        for j, theta in enumerate(caf.doppler.points):
            v = complex(values[i, j])
            rows.append(f"{lag},{theta:.12g},{v.real:.12g},{v.imag:.12g},{db[i, j]:.12g}")
    return "\n".join(rows) + "\n"


def caf_csv_text(caf) -> str:
    out = io.BytesIO()
    caf_csv(caf, out)
    return out.getvalue().decode("utf-8")


def caf_table(rows, cells) -> CafGrid:
    """A CafGrid with the given (2N-1) coefficient rows and 2 x G complex
    basis, ``cells`` holding its real and imaginary parts interleaved."""
    n = (len(rows) + 1) // 2
    basis = np.array(cells[0::2]) + 1j * np.array(cells[1::2])
    points = len(basis) // 2
    return CafGrid(
        lags=np.arange(-(n - 1), n), doppler=DopplerGrid(points),
        coefficients=np.array(rows), basis=basis.reshape(2, points),
    )


@st.composite
def caf_tables(draw) -> CafGrid:
    """Random coefficient tables built from negated pairs, signed zeros,
    all-zero rows and one-ulp neighbours, with magnitudes that cross
    %.12g's switches to exponent form at 1e-4 and 1e12, on even and odd
    grids."""
    magnitude = st.builds(
        lambda m, negative: -m if negative else m,
        st.floats(min_value=1e-9, max_value=1e9) | st.just(0.0), st.booleans(),
    )
    points = draw(st.integers(min_value=2, max_value=24), label="points")
    n = draw(st.integers(min_value=1, max_value=5), label="n")
    pool = draw(st.lists(st.tuples(magnitude, magnitude), min_size=1, max_size=3))
    variants = {
        "same": lambda a, b: (a, b),
        "negated": lambda a, b: (-a, -b),
        "zero": lambda a, b: (0.0, 0.0),
        "negative zero": lambda a, b: (-0.0, -0.0),
        "ulp": lambda a, b: (a, float(np.nextafter(b, np.inf))),
        "f only": lambda a, b: (0.0, b),
    }
    rows = [
        variants[draw(st.sampled_from(sorted(variants)))](*draw(st.sampled_from(pool)))
        for _ in range(2 * n - 1)
    ]
    return caf_table(rows, draw(st.lists(magnitude, min_size=4 * points, max_size=4 * points)))


def curve_csv_reference(grid, values, column):
    """curve.csv formatted point by point, one f-string per row."""
    rows = zip(grid.points.tolist(), np.asarray(values, dtype=float).tolist())
    return f"theta_rad,{column}\n" + "".join(f"{t:.12g},{v:.12g}\n" for t, v in rows)


def svg_header_reference(title):
    """The opening tag, white background and title of every plot."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]


def svg_line_plot_reference(xs, ys, title, xlabel, ylabel, y_floor=None):
    """The line plot with its pixel coordinates computed and formatted point
    by point."""
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

    parts = svg_header_reference(title)
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
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


def svg_heatmap_reference(caf, title, db_min=-100.0, max_cols=200):
    """The heatmap formatted cell by cell."""
    mags = np.abs(caf.values)
    n_cols = mags.shape[1]
    stride = max(1, int(math.ceil(n_cols / max_cols)))
    pooled = np.maximum.reduceat(mags, np.arange(0, n_cols, stride), axis=1)
    db = np.clip(magnitude_db(pooled, ref=caf.peak), db_min, 0.0)
    levels = np.rint(255 * db / db_min).astype(int).tolist()
    rows, cols = db.shape
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    cw, ch = pw / cols, ph / rows
    parts = svg_header_reference(title)
    for i in range(rows):
        for j, level in enumerate(levels[i]):
            parts.append(
                f'<rect x="{_ML + j * cw:.2f}" y="{_MT + i * ch:.2f}" '
                f'width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}" '
                f'fill="rgb({level},{level},{level})"/>'
            )
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


MAKE_DESIGN = pytest.mark.parametrize(
    "make",
    [
        lambda: design_nm_drcw(
            16, NullSpec(k0=3, nulls=((0.7 * math.pi, 1),)), window_template("hamming", 16),
            trials=50, seed=2,
        ),
        lambda: design_bd(12),
        lambda: design_ptm(16),
        lambda: design_uniform(11),
    ],
    ids=["nm", "bd", "ptm", "uniform"],
)


def document_of(design) -> dict:
    metrics = compute_metrics(design, generate_golay_pair(8), DopplerGrid(256))
    return build_document(design, n=8, grid_points=256, metrics=metrics)


class TestDocumentRoundTrip:
    @MAKE_DESIGN
    def test_design_survives_the_document(self, make):
        d = make()
        back = document_to_design(document_of(d))
        for name in ("y", "transmit_order", "weights"):
            got, want = getattr(back, name), getattr(d, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert back.null_spec == d.null_spec
        assert (back.method, back.seed, back.trials) == (d.method, d.seed, d.trials)


class TestDocumentEncoding:
    """dumps_document splices its long number lists in from json's C
    encoder; the text must be json's own indent=2 encoding of the whole."""

    @staticmethod
    def reference(doc: dict) -> str:
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    @MAKE_DESIGN
    def test_designs(self, make):
        doc = document_of(make())
        assert dumps_document(doc) == self.reference(doc)

    def test_empty_nulls(self):
        doc = document_of(design_nm_drcw(12, NullSpec(k0=2), window_template("hamming", 12), trials=20))
        assert doc["null_spec"]["nulls"] == []
        assert dumps_document(doc) == self.reference(doc)

    @pytest.mark.parametrize("length", [0, 1])
    def test_short_lists(self, length):
        doc = document_of(design_uniform(11))
        doc["s"], doc["w"] = doc["s"][:length], doc["w"][:length]
        doc["metrics"]["prsl_curve"] = doc["metrics"]["prsl_curve"][:length]
        assert dumps_document(doc) == self.reference(doc)

    def test_non_finite_curve(self):
        doc = document_of(design_bd(12))
        doc["metrics"]["prsl_curve"][:3] = [math.inf, -math.inf, math.nan]
        text = dumps_document(doc)
        assert "Infinity,\n      -Infinity,\n      NaN," in text
        assert text == self.reference(doc)


class TestCsvFormat:
    def test_caf_csv_rows(self):
        pair = generate_golay_pair(8)
        grid = DopplerGrid(17)
        caf = composite_ambiguity(design_bd(5), pair, grid)
        assert caf_csv_text(caf) == caf_csv_reference(caf)

    def test_caf_csv_rows_that_nearly_repeat(self):
        # a +0.0 and -0.0 pair and a negated pair (same magnitudes and dB)
        # share a class's text up to sign; coefficients one ulp apart do not
        grid = DopplerGrid(9)
        rng = np.random.default_rng(3)
        basis = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
        basis[0, grid.zero_index] = 1.0
        basis[1, 2] = 1.0
        # the double nearest 1.000000000005 lies just above that .12g
        # rounding midpoint and the one below it just under, so the rows
        # they scale print differently
        hi = 1.000000000005
        lo = np.nextafter(hi, -np.inf)
        assert f"{lo:.12g}" != f"{hi:.12g}"
        coefficients = np.array([
            [0.0, 3.0], [0.0, 0.0], [-0.0, -0.0], [0.0, -3.0], [10.0, 0.0],
            [0.0, 3.0], [0.0, lo], [0.0, hi], [-0.0, -0.0],
        ])
        caf = CafGrid(lags=np.arange(-4, 5), doppler=grid, coefficients=coefficients, basis=basis)
        assert caf.peak == 10.0
        text = caf_csv_text(caf)
        assert text == caf_csv_reference(caf)
        rows = text.splitlines()[1:]
        assert f"2,{grid.points[2]:.12g},{lo:.12g}," in rows[2 + 6 * 9]
        assert f"3,{grid.points[2]:.12g},{hi:.12g}," in rows[2 + 7 * 9]

    def test_exports_never_build_the_dense_caf(self, monkeypatch):
        pair = generate_golay_pair(16)
        d = design_nm_drcw(16, NullSpec(k0=3), window_template("hamming", 16), trials=50, seed=2)
        caf = composite_ambiguity(d, pair, DopplerGrid(1001))
        csv, svg = caf_csv_reference(caf), svg_heatmap_reference(caf, "CAF")

        def refuse(self):
            raise AssertionError("the dense CAF was built")

        monkeypatch.setattr(CafGrid, "values", property(refuse))
        assert caf_csv_text(caf) == csv
        assert svg_heatmap(caf, "CAF") == svg

    def test_caf_csv_nm_design_odd_grid(self):
        pair = generate_golay_pair(16)
        grid = DopplerGrid(257)
        d = design_nm_drcw(16, NullSpec(k0=3), window_template("hamming", 16), trials=50, seed=2)
        caf = composite_ambiguity(d, pair, grid)
        assert len({row.tobytes() for row in caf.values}) < len(caf.lags)
        assert caf_csv_text(caf) == caf_csv_reference(caf)

    @settings(max_examples=60, deadline=None)
    @given(caf=caf_tables(), block=st.sampled_from([1, 2, 5, 4096]))
    # a table on which the dense product and the rows once differed by an
    # ulp at the peak cell, so caf.csv printed 0 dB where the cell-by-cell
    # reference printed -1.93e-15
    @example(
        caf=caf_table(
            [(0.0, 242158512.93568188), (-473669370.0, -242158512.93568188),
             (0.0, 242158512.93568188)],
            [0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 3.0, 0.0],
        ),
        block=1,
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_caf_csv_matches_the_cell_by_cell_reference(self, caf, block):
        with mock.patch.object(document, "_BLOCK", block):
            assert caf_csv_text(caf) == caf_csv_reference(caf)
        assert svg_heatmap(caf, "CAF") == svg_heatmap_reference(caf, "CAF")

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 9.9999999999995e11,
         -9.9999999999995e11, math.inf, -math.inf, math.nan, -math.nan],
    )
    def test_sign_split(self, value):
        # caf_csv prints a value as its sign, present when signbit is set and
        # the value is not NaN, followed by its magnitude's text
        sign = b"-" if np.signbit(value) and not math.isnan(value) else b""
        assert b"%.12g" % value == sign + b"%.12g" % abs(value)
        assert (b"%.12g" % value).decode() == f"{value:.12g}"

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_caf_csv_signs_of_extreme_values(self):
        # subnormals, the values either side of 1e12 that %.12g prints as
        # +-1e+12, and NaN, which an infinite basis entry turns into through
        # inf * 0 in the complex product, in rows negated within their class
        grid = DopplerGrid(8)
        f = [5e-324, -2.5e-310 + 1e-5j, 9.9999999999995e11 - 9.9999999999995e11j,
             -1e12 + 0.5j, 0.0, math.inf, -math.inf + 1j, complex(math.nan, -3.0)]
        basis = np.array([np.ones(8), f])
        coefficients = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [0.0, -1.0], [-0.0, 1.0]])
        caf = CafGrid(lags=np.arange(-2, 3), doppler=grid, coefficients=coefficients, basis=basis)
        assert caf.peak == 1.0
        db = [magnitude_db(caf.row(i), ref=caf.peak) for i in range(5)]
        expected = ["lag,theta_rad,re,im,mag_db"] + [
            f"{lag},{t:.12g},{v.real:.12g},{v.imag:.12g},{db[i][j]:.12g}"
            for i, lag in enumerate(range(-2, 3))
            for j, (t, v) in enumerate(zip(grid.points, caf.row(i).tolist()))
        ]
        text = caf_csv_text(caf)
        assert text == "\n".join(expected) + "\n"
        assert "-1,-0.785398163397,1e+12,-0.5," in text

    def test_a_row_that_differs_from_its_class_is_made_on_its_own(self):
        # signed numbers differ within a class, so every distinct row is
        # made apart; with sign-free numbers, once per class
        pair = generate_golay_pair(64)
        caf = composite_ambiguity(design_bd(50), pair, DopplerGrid(64))
        for unsigned, makes in ((lambda row: row.real.copy(), 13), (lambda row: np.abs(row), 8)):
            made = []

            def make(numbers):
                made.append(numbers)
                return numbers.tobytes()

            texts = dict(_sign_classes(caf, unsigned, make))
            assert len(made) == makes
            for i, lag in enumerate(caf.lags.tolist()):
                assert texts[lag] == unsigned(caf.row(i)).tobytes()

    def test_curve_csv_rows(self):
        for points in (17, 256):
            grid = DopplerGrid(points)
            values = np.linspace(-300.0, 0.0, points)
            values[1:] += np.random.default_rng(points).standard_normal(points - 1) * 1e-3
            values[1] = -0.0
            assert curve_csv(grid, values, "g_db") == curve_csv_reference(grid, values, "g_db")

    def test_caf_csv_memory_follows_distinct_rows(self, tmp_path):
        # the 127 x 2048 CAF has 13 distinct rows; the file is written lag by
        # lag, so the text of the whole file is never held at once
        pair = generate_golay_pair(64)
        caf = composite_ambiguity(design_bd(50), pair, DopplerGrid(2048))
        path = tmp_path / "caf.csv"
        tracemalloc.start()
        try:
            with open_output(path) as fh:
                caf_csv(caf, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert path.read_text(encoding="utf-8") == caf_csv_reference(caf)
        assert peak < size / 2

    def test_analyze_holds_less_than_the_dense_caf(self, tmp_path):
        # N=64 on 8192 points: the dense 127 x 8192 complex array alone is
        # 16.6 MB, and a whole analyze --svg stays below it
        n, points = 64, 8192
        design = design_bd(50)
        metrics = compute_metrics(design, generate_golay_pair(n), DopplerGrid(points))
        path = tmp_path / "design.json"
        save_document(build_document(design, n=n, grid_points=points, metrics=metrics), path)
        argv = ["analyze", str(path), "--out-dir", str(tmp_path / "out"), "--svg"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 * n - 1) * points * 16


@pytest.fixture(scope="module", params=["nm51", "bd", "ptm"])
def mirror_design(request):
    return {
        "nm51": lambda: design_nm_drcw(
            51, NullSpec(k0=9, nulls=((0.3 * math.pi, 2),)), window_template("hamming", 51),
            trials=50, seed=1,
        ),
        "bd": lambda: design_bd(12),
        "ptm": lambda: design_ptm(16),
    }[request.param]()


# the double nearest 1.000000000005 lies just above that .12g rounding
# midpoint and the one below it just under, so they print differently
ABOVE_MIDPOINT = 1.000000000005
BELOW_MIDPOINT = float(np.nextafter(ABOVE_MIDPOINT, -np.inf))


def text_step(text, lo: float, hi: float) -> tuple[float, float]:
    """Two adjacent doubles in [lo, hi] whose ``text`` differs, found by
    bisection from ``text(lo) != text(hi)``."""
    assert text(lo) != text(hi)
    while np.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if text(mid) == text(lo) else (lo, mid)
    return lo, hi


class TestMirrorFormatting:
    """caf.csv, prsl.csv, doppler.csv and the document's prsl_curve format
    each mirror pair of Doppler points once, when the pair's numbers are
    bitwise equal; the text must be what formatting every point gives."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        """(points, rows encoded) for each mirror-formatted list."""
        calls, mirrored = [], document._mirrored

        def spy(numbers, encode):
            def recorded(rows):
                calls.append((len(numbers), len(rows)))
                return encode(rows)

            return mirrored(numbers, recorded)

        monkeypatch.setattr(document, "_mirrored", spy)
        return calls

    @pytest.mark.parametrize("points", [2, 3, 257, 1025, 8192])
    def test_real_designs_match_the_references(self, mirror_design, points, encoded):
        pair, grid = generate_golay_pair(8), DopplerGrid(points)
        caf = composite_ambiguity(mirror_design, pair, grid)
        g, f = caf.basis
        curve, g_db = prsl_curve(mirror_design, pair, f), magnitude_db(g)
        assert caf_csv_text(caf) == caf_csv_reference(caf)
        assert curve_csv(grid, curve, "prsl_db") == curve_csv_reference(grid, curve, "prsl_db")
        assert curve_csv(grid, g_db, "g_db") == curve_csv_reference(grid, g_db, "g_db")
        doc = dict(document_of(mirror_design), grid=points)
        doc["metrics"]["prsl_curve"] = curve.tolist()
        assert dumps_document(doc) == TestDocumentEncoding.reference(doc)
        # the theta <= 0 half was formatted alone, for each CAF sign class,
        # the two curves and the document's curve
        assert len(encoded) >= 4 and set(encoded) == {(points, points // 2 + 1)}

    @pytest.mark.parametrize("points", [8, 9])
    def test_curve_one_bit_off_its_mirror(self, points, encoded):
        grid = DopplerGrid(points)
        z = grid.zero_index
        values = np.random.default_rng(points).uniform(-80.0, 0.0, points)
        values[z + 1:] = values[2 * z + 1 - points: z][::-1]
        values[z - 2], values[z + 2] = BELOW_MIDPOINT, ABOVE_MIDPOINT
        assert curve_csv(grid, values, "prsl_db") == curve_csv_reference(grid, values, "prsl_db")
        doc = dict(document_of(design_bd(12)), grid=points)
        doc["metrics"]["prsl_curve"] = values.tolist()
        assert dumps_document(doc) == TestDocumentEncoding.reference(doc)
        assert encoded == [(points, points)] * 2

    @pytest.mark.parametrize("points", [8, 9])
    def test_caf_grid_one_bit_off_its_mirror(self, points, encoded):
        # rows F, G, F over a conjugate-symmetric F whose re at one point is
        # one ulp off its mirror's
        grid = DopplerGrid(points)
        z = grid.zero_index
        rng = np.random.default_rng(points)
        f = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        f[z] = f[z].real
        f[z + 1:] = f[2 * z + 1 - points: z][::-1].conj()
        f[z - 2], f[z + 2] = complex(BELOW_MIDPOINT, 0.5), complex(ABOVE_MIDPOINT, -0.5)
        coefficients = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        caf = CafGrid(
            lags=np.arange(-1, 2), doppler=grid, coefficients=coefficients,
            basis=np.array([np.ones(points), f]),
        )
        assert caf_csv_text(caf) == caf_csv_reference(caf)
        # the class of the F rows whole, that of the G row by halves
        assert encoded == [(points, points), (points, points // 2 + 1)]

    @pytest.mark.parametrize("points", [2, 3, 257, 1025, 8192])
    def test_real_designs_plot_as_the_references(self, mirror_design, points, encoded):
        pair, grid = generate_golay_pair(8), DopplerGrid(points)
        caf = composite_ambiguity(mirror_design, pair, grid)
        g, f = caf.basis
        for ys in (prsl_curve(mirror_design, pair, f), magnitude_db(g)):
            args = (grid.points, ys, "curve", "Doppler shift (rad/pulse)", "dB")
            assert svg_line_plot(*args) == svg_line_plot_reference(*args, y_floor=-120.0)
        assert svg_heatmap(caf, "CAF") == svg_heatmap_reference(caf, "CAF")
        # each plot's y pixels were formatted from the theta <= 0 half
        assert encoded == [(points, points // 2 + 1)] * 2

    @pytest.mark.parametrize("points", [8, 9])
    def test_plot_one_ulp_off_its_mirror(self, points, encoded):
        # the curve spans -100..0 dB; one value and its mirror are adjacent
        # doubles whose y pixels print differently at %.2f
        grid = DopplerGrid(points)
        z = grid.zero_index
        ys = np.random.default_rng(points).uniform(-80.0, -10.0, points)
        ys[z + 1:] = ys[2 * z + 1 - points: z][::-1]
        ys[z - 1:z + 2] = -100.0, 0.0, -100.0
        ph = _H - _MT - _MB
        ys[z - 2], ys[z + 2] = text_step(lambda y: f"{_MT - y / 100.0 * ph:.2f}", -60.0, -50.0)
        args = (grid.points, ys, "curve", "x", "dB")
        assert svg_line_plot(*args) == svg_line_plot_reference(*args, y_floor=-120.0)
        assert encoded == [(points, points)]

    @pytest.mark.parametrize("points", [8, 9, 513])
    def test_flat_and_clipped_plots(self, points, encoded):
        # two flat curves (y1 == y0, one of them all below the floor) and a
        # mirrored curve clipped at the floor, where a pair that differs
        # below it is equal once clipped
        grid = DopplerGrid(points)
        z = grid.zero_index
        clipped = np.random.default_rng(points).uniform(-140.0, 0.0, points)
        clipped[z + 1:] = clipped[2 * z + 1 - points: z][::-1]
        clipped[z - 1], clipped[z + 1] = -300.0, -300.0
        clipped[z - 2], clipped[z + 2] = -200.0, -250.0
        for ys in (np.full(points, -300.0), np.full(points, -12.5), clipped):
            args = (grid.points, ys, "curve", "x", "dB")
            assert svg_line_plot(*args) == svg_line_plot_reference(*args, y_floor=-120.0)
        assert encoded == [(points, points // 2 + 1)] * 3


class TestOpenOutput:
    @pytest.mark.parametrize("size", [3, 100_000], ids=["buffered", "past-the-buffer"])
    def test_file_ends_where_an_exception_stopped_the_writing(self, tmp_path, size):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 300_000)
        with pytest.raises(RuntimeError, match="stop"):
            with open_output(path) as out:
                out.write(b"a" * size)
                raise RuntimeError("stop")
        assert path.read_bytes() == b"a" * size

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_the_path(self):
        # /dev/full refuses every write with ENOSPC, and is not cut
        with pytest.raises(ValueError, match="cannot write /dev/full: No space left"):
            with open_output("/dev/full") as out:
                out.write(b"abc")


class TestSvgFormat:
    def test_line_plot(self):
        # the curve is clipped at -120 dB, below which 13 points lie
        grid = DopplerGrid(513)
        rng = np.random.default_rng(4)
        ys = np.concatenate([np.full(13, -300.0), rng.uniform(-140.0, 0.0, 500)])
        args = (grid.points, ys, "Doppler profile", "Doppler shift (rad/pulse)", "|G| (dB)")
        assert svg_line_plot(*args) == svg_line_plot_reference(*args, y_floor=-120.0)

    def test_flat_line_plot(self):
        # y1 == y0: the plot spans one dB above the flat level
        grid = DopplerGrid(64)
        args = (grid.points, np.full(64, -300.0), "flat", "x", "y")
        assert svg_line_plot(*args) == svg_line_plot_reference(*args, y_floor=-120.0)

    def test_line_plots_over_alternating_xs(self):
        # two x arrays of one length, one uniform and one not, and a third of
        # another length, alternated: an x text kept from an earlier plot
        # would misplace the points
        rng = np.random.default_rng(6)
        xs = {"a": DopplerGrid(64).points, "b": np.geomspace(1.0, 5.0, 64), "c": DopplerGrid(65).points}
        for key in "abacab":
            ys = rng.uniform(-90.0, 0.0, len(xs[key]))
            args = (xs[key], ys, key, "x", "y")
            assert svg_line_plot(*args) == svg_line_plot_reference(*args, y_floor=-120.0)

    def test_heatmap_rows_one_bit_apart(self):
        # lags -2 and 2 scale F by adjacent doubles that put one cell on
        # either side of a grey-level step, so their rows must be drawn
        # apart; lags -1 and 1 negate them and share their texts
        grid = DopplerGrid(8)
        basis = np.array([np.zeros(8), np.linspace(0.125, 1.0, 8)]) + 0j
        basis[0, grid.zero_index] = 1.0

        def level(c):
            db = magnitude_db(np.array([c]), ref=10.0)
            return int(np.rint(255 * np.clip(db, -100.0, 0.0) / -100.0)[0])

        lo, hi = text_step(level, 0.5, 5.0)
        coefficients = np.array([[0.0, lo], [0.0, -lo], [10.0, 0.0], [0.0, -hi], [0.0, hi]])
        caf = CafGrid(lags=np.arange(-2, 3), doppler=grid, coefficients=coefficients, basis=basis)
        assert caf.peak == 10.0
        svg = svg_heatmap(caf, "CAF")
        assert svg == svg_heatmap_reference(caf, "CAF")
        # the last column, where F = 1, of lags -2, -1, 1 and 2
        fills = [line.split("fill=")[1] for line in svg.splitlines() if "rgb(" in line][7::8]
        assert fills[0] == fills[1] != fills[3] == fills[4]

    def test_heatmap_with_a_partial_last_column(self):
        # 1001 Doppler points pool by a stride of 6 into 167 columns, the
        # last of them five points wide
        pair = generate_golay_pair(16)
        d = design_nm_drcw(16, NullSpec(k0=3), window_template("hamming", 16), trials=50, seed=2)
        caf = composite_ambiguity(d, pair, DopplerGrid(1001))
        assert svg_heatmap(caf, "CAF") == svg_heatmap_reference(caf, "CAF")
