import numpy as np

from drcw.analysis import CafGrid, DopplerGrid, composite_ambiguity, magnitude_db
from drcw.design import design_bd, design_nm_drcw
from drcw.document import caf_csv, curve_csv
from drcw.nullspec import NullSpec
from drcw.sequences import generate_golay_pair, window_template


def caf_csv_reference(caf):
    """caf.csv formatted cell by cell, one f-string per row."""
    db = magnitude_db(caf.values, ref=caf.peak)
    rows = ["lag,theta_rad,re,im,mag_db"]
    for i, lag in enumerate(caf.lags.tolist()):
        for j, theta in enumerate(caf.doppler.points):
            v = complex(caf.values[i, j])
            rows.append(f"{lag},{theta:.12g},{v.real:.12g},{v.imag:.12g},{db[i, j]:.12g}")
    return "\n".join(rows) + "\n"


class TestCsvFormat:
    def test_caf_csv_rows(self):
        pair = generate_golay_pair(8)
        grid = DopplerGrid.uniform(17)
        caf = composite_ambiguity(design_bd(5), pair, grid)
        assert caf_csv(caf) == caf_csv_reference(caf)

    def test_caf_csv_rows_that_nearly_repeat(self):
        # a row is reused only when its bytes repeat: +0.0 and -0.0 rows, a
        # negated row (same magnitudes and dB) and rows one ulp apart differ
        grid = DopplerGrid.uniform(9)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        # the double nearest 1.000000000005 lies just above that .12g
        # rounding midpoint and the one below it just under, so they print
        # differently
        hi = 1.000000000005
        lo = np.nextafter(hi, -np.inf)
        assert f"{lo:.12g}" != f"{hi:.12g}"
        ulp_lo, ulp_hi = a.copy(), a.copy()
        ulp_lo[2], ulp_hi[2] = lo, hi
        peak = np.full(9, 10.0 + 0j)
        plus_zero = np.zeros(9, dtype=complex)
        minus_zero = np.full(9, complex(-0.0, -0.0))
        values = np.stack([a, plus_zero, minus_zero, -a, peak, a, ulp_lo, ulp_hi, minus_zero])
        caf = CafGrid(lags=np.arange(-4, 5), doppler=grid, values=values)
        assert caf_csv(caf) == caf_csv_reference(caf)

    def test_caf_csv_nm_design_odd_grid(self):
        pair = generate_golay_pair(16)
        grid = DopplerGrid.uniform(257)
        d = design_nm_drcw(16, NullSpec(k0=3), window_template("hamming", 16), trials=50, seed=2)
        caf = composite_ambiguity(d, pair, grid)
        assert len({row.tobytes() for row in caf.values}) < len(caf.lags)
        assert caf_csv(caf) == caf_csv_reference(caf)

    def test_curve_csv_rows(self):
        grid = DopplerGrid.uniform(17)
        values = np.linspace(-300.0, 0.0, 17)
        rows = ["theta_rad,prsl_db"] + [f"{t:.12g},{v:.12g}" for t, v in zip(grid.points, values)]
        assert curve_csv(grid, values, "prsl_db") == "\n".join(rows) + "\n"
