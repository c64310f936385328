import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drcw.analysis import (
    DB_FLOOR,
    CafGrid,
    DopplerGrid,
    _run,
    composite_ambiguity,
    compute_metrics,
    dmbr,
    factors,
    magnitude_db,
    nag,
    pdsl,
    prsl_curve,
    rsba,
)
from drcw.design import DesignResult, design_bd, design_nm_drcw, design_uniform
from drcw.nullspec import NullSpec
from drcw.sequences import generate_golay_pair, window_template
from oracles import acf_direct, caf_triple_loop, doppler_factors_direct, run_walk


def random_design(rng, m):
    """Arbitrary (not null-constrained) sign/weight combination."""
    s = np.where(rng.standard_normal(m) >= 0, 1, -1).astype(np.int64)
    w = np.abs(rng.standard_normal(m)) + 0.1
    return DesignResult(y=s * w, method="uniform", null_spec=NullSpec(k0=0))


class TestDopplerGrid:
    @pytest.mark.parametrize("n", [2, 3, 64, 511, 8192])
    def test_contains_zero_and_uniform(self, n):
        grid = DopplerGrid(n)
        assert grid.size == n
        assert grid.zero_index == n // 2
        assert grid.points[grid.zero_index] == 0.0
        steps = np.diff(grid.points)
        assert np.max(np.abs(steps - steps[0])) <= 1e-12

    def test_index_of_snaps_to_nearest(self):
        grid = DopplerGrid(8)
        idx = grid.index_of(0.3)
        assert abs(grid.points[idx] - 0.3) <= grid.resolution / 2 + 1e-12

    @pytest.mark.parametrize("n", [1, 0])
    def test_rejects_fewer_than_two_points(self, n):
        with pytest.raises(ValueError, match="at least 2 points"):
            DopplerGrid(n)


class TestCompositeAmbiguity:
    def test_single_pulse_is_the_acf(self):
        from drcw.sequences import acf

        pair = generate_golay_pair(4)
        d = DesignResult(y=np.array([1.0]), method="uniform", null_spec=NullSpec(k0=0))
        grid = DopplerGrid(16)
        caf = composite_ambiguity(d, pair, grid)
        expected = acf(pair.x1).astype(float)
        for t in range(grid.size):
            assert np.allclose(caf.values[:, t], expected, atol=1e-12)

    def test_alternating_uniform_is_impulse_at_zero_doppler(self):
        pair = generate_golay_pair(8)
        d = design_uniform(6)
        grid = DopplerGrid(32)
        caf = composite_ambiguity(d, pair, grid)
        col = caf.values[:, grid.zero_index]
        assert col[caf.zero_lag_index] == pytest.approx(8 * 6)
        off = np.delete(col, caf.zero_lag_index)
        assert np.max(np.abs(off)) == 0.0  # exact integer cancellation

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2),  # pair length n = 2^p, up to 8
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_triple_loop_oracle(self, p, m, seed):
        pair = generate_golay_pair(2**p)
        rng = np.random.default_rng(seed)
        d = random_design(rng, m)
        grid = DopplerGrid(17)
        caf = composite_ambiguity(d, pair, grid)
        direct = caf_triple_loop(
            d.transmit_order, d.weights, pair.x1.tolist(), pair.x2.tolist(), grid.points
        )
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(caf.values - direct)) <= 1e-10 * scale
        # closed-form PRSL against the direct sum's peak nonzero-lag level
        # (a length-1 pair has no nonzero lag, hence no sidelobes)
        side = np.delete(np.abs(direct), pair.n - 1, axis=0).max(axis=0, initial=0.0)
        expected = side / (pair.n * np.sum(d.weights))
        curve = prsl_curve(d, pair, factors(d, grid)[0])
        got = np.where(curve > DB_FLOOR, 10.0 ** (curve / 20.0), 0.0)
        assert np.max(np.abs(got - expected)) <= 2e-10

    def test_decomposition_identity(self):
        # R(k,theta) = (R1+R2)/2 G + (R1-R2)/2 F, with the ACFs and the
        # factors taken from direct sums rather than the FFT path
        pair = generate_golay_pair(8)
        rng = np.random.default_rng(5)
        d = random_design(rng, 7)
        grid = DopplerGrid(64)
        caf = composite_ambiguity(d, pair, grid)
        r1 = acf_direct(pair.x1.tolist()).astype(float)
        r2 = acf_direct(pair.x2.tolist()).astype(float)
        f, g, _ = doppler_factors_direct(d.y, d.weights, grid.points)
        recomposed = 0.5 * np.outer(r1 + r2, g) + 0.5 * np.outer(r1 - r2, f)
        scale = np.max(np.abs(recomposed))
        assert np.max(np.abs(caf.values - recomposed)) <= 1e-10 * scale

    @pytest.mark.parametrize("points", [2, 3, 8192])
    def test_peak_is_the_zero_lag_zero_doppler_cell_evaluated_once(self, points):
        d = design_nm_drcw(16, NullSpec(k0=3), window_template("hamming", 16), trials=50, seed=2)
        caf = composite_ambiguity(d, generate_golay_pair(8), DopplerGrid(points))
        cell = abs(caf.row(caf.zero_lag_index)[caf.doppler.zero_index])
        # composite_ambiguity's own check has evaluated it; reading it again
        # evaluates no row
        with mock.patch.object(CafGrid, "row", side_effect=AssertionError("row evaluated")):
            peak = caf.peak
        assert np.float64(peak).tobytes() == np.float64(cell).tobytes()


class TestFactors:
    def test_zero_null_forces_f_zero(self):
        d = design_nm_drcw(16, NullSpec(k0=2), window_template("hamming", 16), trials=50, seed=1)
        grid = DopplerGrid(64)
        f = factors(d, grid)[0]
        assert abs(f[grid.zero_index]) <= 1e-10 * 16

    def test_uniform_doppler_factor_is_dirichlet(self):
        m = 9
        d = design_uniform(m)
        grid = DopplerGrid(128)
        g = np.abs(factors(d, grid)[1])
        theta = grid.points
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.abs(np.sin(m * theta / 2) / np.sin(theta / 2))
        expected[grid.zero_index] = m
        assert np.allclose(g, expected, atol=1e-9)

    def test_g_at_zero_is_weight_sum(self):
        rng = np.random.default_rng(2)
        d = random_design(rng, 11)
        grid = DopplerGrid(32)
        g = factors(d, grid)[1]
        assert g[grid.zero_index].real == pytest.approx(float(np.sum(d.weights)), rel=1e-12)
        assert g[grid.zero_index].imag == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 50, 512])
    @pytest.mark.parametrize("size", [2, 3, 16, 17, 8192, 8193, 65536])
    def test_fft_matches_direct_sum(self, size, m):
        # sizes below m exercise the folding of pulses modulo the FFT length
        d = random_design(np.random.default_rng(size + m), m)
        grid = DopplerGrid(size)
        got = factors(d, grid)
        want = doppler_factors_direct(d.y, d.weights, grid.points)
        assert got.shape == (3, size)
        scale = float(np.sum(d.weights))
        assert np.max(np.abs(got[:2] - want[:2])) <= 1e-12 * scale
        assert np.max(np.abs(got[2] - want[2])) <= 1e-12 * m

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=70) | st.sampled_from([256, 257, 8192, 8193]),
        m=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(size=2, m=5, seed=0)
    @example(size=3, m=4, seed=1)
    @example(size=16, m=50, seed=2)  # M > grid: pulses folded
    @example(size=17, m=50, seed=3)
    def test_conjugate_symmetric_bit_for_bit(self, size, m, seed):
        # y and w are real, so F(-theta) = conj F(theta), G likewise; the
        # grid point zero_index + j sits at -theta of zero_index - j
        grid = DopplerGrid(size)
        got = factors(random_design(np.random.default_rng(seed), m), grid)
        z = grid.zero_index
        mirror = 2 * z - np.arange(z + 1, size)
        assert got[:, z + 1:].tobytes() == got[:, mirror].conj().tobytes()
        # theta = 0, and -pi on even grids (+pi is not on them), are their
        # own mirrors modulo 2 pi: the values there are real
        assert np.all(got[:, z].imag == 0.0)
        if size % 2 == 0:
            assert np.all(got[:, 0].imag == 0.0)


class TestPrsl:
    def test_single_pulse_pair_level(self):
        # one pulse of the length-2 pair: ACF [1,2,1] -> sidelobe ratio 1/2
        pair = generate_golay_pair(2)
        d = DesignResult(y=np.array([1.0]), method="uniform", null_spec=NullSpec(k0=0))
        grid = DopplerGrid(16)
        curve = prsl_curve(d, pair, factors(d, grid)[0])
        assert np.allclose(curve, 20 * math.log10(0.5), atol=1e-9)

    def test_uniform_alternating_floors_at_zero_doppler(self):
        pair = generate_golay_pair(8)
        d = design_uniform(6)
        grid = DopplerGrid(64)
        curve = prsl_curve(d, pair, factors(d, grid)[0])
        assert curve[grid.zero_index] == DB_FLOOR

    def test_bd_curve_shape(self):
        pair = generate_golay_pair(64)
        d = design_bd(50)
        grid = DopplerGrid(2048)
        curve = prsl_curve(d, pair, factors(d, grid)[0])
        z = grid.zero_index
        assert curve[z] == DB_FLOOR
        # blanked zone around zero, rising toward the band edges
        assert np.all(curve[np.abs(grid.points) <= 0.05 * math.pi] < -60)
        edge = curve[np.abs(grid.points) >= 0.9 * math.pi]
        assert edge.min() > -40

    def test_prsl_at_exact_null_centers_floors(self):
        pair = generate_golay_pair(64)
        theta1 = 0.8 * math.pi
        d = design_nm_drcw(
            50, NullSpec(k0=4, nulls=((theta1, 2),)), window_template("hamming", 50),
            trials=200, seed=3,
        )
        f = doppler_factors_direct(d.y, d.weights, [0.0, theta1, -theta1])[0]
        assert np.all(prsl_curve(d, pair, f) == DB_FLOOR)

    def test_prsl_at_matches_grid_curve(self):
        pair = generate_golay_pair(16)
        d = design_bd(12)
        grid = DopplerGrid(128)
        caf = composite_ambiguity(d, pair, grid)
        side = np.delete(np.abs(caf.values), caf.zero_lag_index, axis=0).max(axis=0)
        curve = magnitude_db(side, ref=caf.peak)
        vals = prsl_curve(d, pair, factors(d, grid)[0])
        live = curve > DB_FLOOR
        assert np.array_equal(vals > DB_FLOOR, live)
        assert np.allclose(vals[live], curve[live], atol=1e-9)


class TestRun:
    """_run against the walk one entry at a time."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_random_masks(self, values):
        mask = np.array(values)
        for i in range(len(mask)):
            assert _run(mask, i) == run_walk(mask, i), (mask, i)

    @pytest.mark.parametrize("size", [1, 2, 3, 8192])
    @pytest.mark.parametrize("fill", [True, False])
    def test_uniform_masks(self, size, fill):
        mask = np.full(size, fill)
        for i in {0, size // 2, size - 1}:
            assert _run(mask, i) == run_walk(mask, i)
        assert _run(mask, 0) == ((0, size - 1) if fill else (0, 0))


class TestRsba:
    def _grid_curve(self, width_pi):
        grid = DopplerGrid(512)
        curve = np.full(grid.size, -20.0)
        curve[np.abs(grid.points) <= width_pi * math.pi] = -80.0
        return grid, curve

    def test_detects_symmetric_interval(self):
        grid, curve = self._grid_curve(0.25)
        iv = rsba(curve, grid)
        assert iv.half_width / math.pi == pytest.approx(0.25, abs=0.01)
        assert not iv.empty

    def test_empty_when_center_not_blanked(self):
        grid = DopplerGrid(128)
        iv = rsba(np.full(grid.size, -30.0), grid)
        assert iv.empty
        assert iv.half_width == 0.0

    def test_off_center_interval(self):
        grid = DopplerGrid(512)
        curve = np.full(grid.size, -20.0)
        strip = np.abs(grid.points - 0.5 * math.pi) <= 0.05 * math.pi
        curve[strip] = -90.0
        iv = rsba(curve, grid, center=0.5 * math.pi)
        assert iv.lo == pytest.approx(0.45 * math.pi, abs=0.02)
        assert iv.hi == pytest.approx(0.55 * math.pi, abs=0.02)

    def test_rejects_center_off_grid(self):
        grid = DopplerGrid(64)
        with pytest.raises(ValueError, match="outside the grid"):
            rsba(np.zeros(64), grid, center=7.0)

    @pytest.mark.parametrize("size", [64, 65])
    def test_run_reaching_both_grid_ends(self, size):
        grid = DopplerGrid(size)
        iv = rsba(np.full(grid.size, -80.0), grid)
        assert (iv.lo, iv.hi) == (grid.points[0], grid.points[-1])


class TestDopplerMetrics:
    def test_dmbr_identical_profiles(self):
        grid = DopplerGrid(1024)
        d = design_uniform(20)
        g = np.abs(factors(d, grid)[1])
        assert dmbr(g, g, grid) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_reference_width(self):
        # -3 dB width of the length-m uniform profile is about 0.886 * 2pi/m
        m = 50
        grid = DopplerGrid(8192)
        g = np.abs(factors(design_uniform(m), grid)[1])
        level = g[grid.zero_index] * 10 ** (-3 / 20)
        above = np.where(g >= level)[0]
        width = grid.points[above.max()] - grid.points[above.min()]
        assert width == pytest.approx(0.886 * 2 * math.pi / m, rel=0.02)

    def test_dmbr_unresolvable_on_tiny_grid(self):
        grid = DopplerGrid(4)
        g = np.ones(4)
        with pytest.raises(ValueError, match="not resolvable"):
            dmbr(g, g, grid)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_dmbr_unresolvable_on_one_side_only(self, side):
        # the other side crosses -3 dB between the centre and its neighbour
        grid = DopplerGrid(17)
        ref = np.exp(-np.abs(grid.points))
        g = ref.copy()
        outer = slice(0, grid.zero_index) if side == "left" else slice(grid.zero_index + 1, None)
        g[outer] = 1.0
        with pytest.raises(ValueError, match="not resolvable"):
            dmbr(g, ref, grid)
        # the same profile falling below the level at the edge sample resolves
        g[0 if side == "left" else -1] = 0.5
        assert math.isfinite(dmbr(g, ref, grid))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pdsl_monotone_on_one_side_reports_the_other(self, side):
        # falling all the way to the left edge, with a sidelobe of 0.3 right
        # of the first minimum; the monotone side's samples stay near the
        # peak, so reading it as a sidelobe region would report about 0.9
        g = np.array([0.9 + 0.01 * i for i in range(8)]
                     + [1.0, 0.5, 0.1, 0.3, 0.2, 0.15, 0.1, 0.05, 0.01])
        if side == "right":
            g = g[::-1]
        assert pdsl(g, DopplerGrid(17)) == pytest.approx(20 * math.log10(0.3), abs=1e-12)

    def test_pdsl_uniform_matches_dirichlet_sidelobe(self):
        grid = DopplerGrid(8192)
        g = np.abs(factors(design_uniform(50), grid)[1])
        assert pdsl(g, grid) == pytest.approx(-13.26, abs=0.1)

    def test_pdsl_monotone_profile_fails(self):
        grid = DopplerGrid(64)
        g = np.exp(-np.abs(grid.points))
        with pytest.raises(ValueError, match="monotone"):
            pdsl(g, grid)


class TestNag:
    def test_uniform_is_zero(self):
        assert nag(np.ones(10)) == 0.0

    def test_single_active_weight(self):
        w = np.zeros(8)
        w[0] = 1.0
        assert nag(w) == pytest.approx(-10 * math.log10(8), abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariant(self, weights, c):
        w = np.array(weights)
        assert nag(c * w) == pytest.approx(nag(w), abs=1e-9)

    def test_never_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = np.abs(rng.standard_normal(12))
            assert nag(w) <= 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            nag(np.zeros(4))
        with pytest.raises(ValueError):
            nag(np.array([1.0, -0.5]))


class TestMagnitudeDb:
    def test_relative_to_peak_with_floor(self):
        vals = np.array([1.0, 0.1, 0.0])
        db = magnitude_db(vals)
        assert db[0] == 0.0
        assert db[1] == pytest.approx(-20.0)
        assert db[2] == DB_FLOOR
        db = magnitude_db(np.array([0.5, 0.05, 1e-11]), ref=0.5)
        assert db[0] == 0.0
        assert db[1] == pytest.approx(-20.0)
        assert db[2] == DB_FLOOR
        assert np.all(magnitude_db(np.zeros(3)) == DB_FLOOR)


class TestComputeMetrics:
    def test_report_structure(self):
        pair = generate_golay_pair(16)
        d = design_nm_drcw(
            16, NullSpec(k0=3, nulls=((0.7 * math.pi, 1),)),
            window_template("hamming", 16), trials=50, seed=4,
        )
        grid = DopplerGrid(1024)
        report = compute_metrics(d, pair, grid)
        assert len(report.rsba) == 2  # zero center plus one requested null
        assert report.rsba[0].center == 0.0
        assert report.nag <= 0.0
        assert len(report.prsl_curve) == grid.size
        inside = report.rsba[0]
        if not inside.empty:
            sel = (grid.points >= inside.lo) & (grid.points <= inside.hi)
            assert np.all(report.prsl_curve[sel] < -60.0)

    def test_binomial_profile_has_no_doppler_sidelobe(self):
        # |G| = sum(w) |cos(theta/2)|^(M-1) is monotone on each side of zero;
        # the float dust of its sum near +/-pi must not count as a sidelobe
        report = compute_metrics(design_bd(50), generate_golay_pair(64), DopplerGrid(8192))
        assert report.pdsl == DB_FLOOR
