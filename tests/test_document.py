import numpy as np

from drcw.analysis import DopplerGrid, composite_ambiguity, magnitude_db
from drcw.design import design_bd
from drcw.document import caf_csv, curve_csv
from drcw.sequences import generate_golay_pair


class TestCsvFormat:
    def test_caf_csv_rows(self):
        pair = generate_golay_pair(8)
        grid = DopplerGrid.uniform(17)
        caf = composite_ambiguity(design_bd(5), pair, grid)
        db = magnitude_db(caf.values, ref=caf.peak)
        rows = ["lag,theta_rad,re,im,mag_db"]
        for i, lag in enumerate(range(-7, 8)):
            for j, theta in enumerate(grid.points):
                v = complex(caf.values[i, j])
                rows.append(f"{lag},{theta:.12g},{v.real:.12g},{v.imag:.12g},{db[i, j]:.12g}")
        assert caf_csv(caf) == "\n".join(rows) + "\n"

    def test_curve_csv_rows(self):
        grid = DopplerGrid.uniform(17)
        values = np.linspace(-300.0, 0.0, 17)
        rows = ["theta_rad,prsl_db"] + [f"{t:.12g},{v:.12g}" for t, v in zip(grid.points, values)]
        assert curve_csv(grid, values, "prsl_db") == "\n".join(rows) + "\n"
