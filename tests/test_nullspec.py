import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcw.nullspec import (
    NullSpec,
    constraint_basis,
    max_null_violation,
    null_residuals,
    quadratic_form,
)
from drcw.sequences import window_template
from oracles import (
    annihilator,
    convolution_matrix,
    convolve_direct,
    division_remainder,
    gram_schmidt_columns,
)


class TestNullSpec:
    def test_total_order(self):
        spec = NullSpec(k0=20, nulls=((0.8 * math.pi, 4),))
        assert spec.total_order == 28

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError, match="inside"):
            NullSpec(k0=0, nulls=((0.0, 1),))
        with pytest.raises(ValueError, match="inside"):
            NullSpec(k0=0, nulls=((math.pi, 1),))
        with pytest.raises(ValueError, match="distinct"):
            NullSpec(k0=0, nulls=((0.5, 1), (0.5, 2)))

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            NullSpec(k0=-1)
        with pytest.raises(ValueError):
            NullSpec(k0=0, nulls=((0.5, 0),))


class TestAnnihilatorCoeffs:
    """The oracle annihilator that the divisibility checks divide by."""

    def test_first_order_zero_null(self):
        assert [float(c) for c in annihilator(1)] == [1.0, -1.0]

    def test_second_order_zero_null(self):
        assert [float(c) for c in annihilator(2)] == [1.0, -2.0, 1.0]

    def test_quarter_turn_null(self):
        a = [float(c) for c in annihilator(0, ((math.pi / 2, 1),))]
        assert np.allclose(a, [1.0, 0.0, 1.0], atol=1e-15)

    def test_third_turn_null(self):
        a = [float(c) for c in annihilator(0, ((2 * math.pi / 3, 1),))]
        assert np.allclose(a, [1.0, 1.0, 1.0], atol=1e-15)

    def test_roots_land_on_requested_angles(self):
        theta = 0.37 * math.pi
        a = np.array([float(c) for c in annihilator(1, ((theta, 2),))])
        roots = np.roots(a[::-1])
        angles = sorted(abs(np.angle(r)) for r in roots)
        assert angles[0] == pytest.approx(0.0, abs=1e-7)
        for got in angles[1:]:
            assert got == pytest.approx(theta, abs=1e-7)


def _projector(q):
    return q @ q.T


class TestConstraintBasis:
    def test_first_difference_matrix(self):
        A = convolution_matrix(1, (), 3)
        assert np.array_equal(A, [[1, 0], [-1, 1], [0, -1]])
        p = constraint_basis(NullSpec(k0=1), 3)
        assert p.shape == (3, 1)  # K = 1 moment condition: sum y = 0
        complement = np.eye(3) - _projector(gram_schmidt_columns(A))
        assert np.allclose(_projector(p), complement, atol=1e-15)

    def test_identity_case(self):
        p = constraint_basis(NullSpec(k0=0), 4)
        assert p.shape == (4, 0)  # no conditions: every y is admissible

    def test_matrix_performs_convolution(self):
        A = convolution_matrix(2, (), 5)
        b = np.array([1.0, 1.0, 1.0])
        expected = convolve_direct([1.0, -2.0, 1.0], b)
        assert np.allclose(A @ b, expected, atol=1e-15)
        assert expected.tolist() == [1.0, -1.0, 0.0, -1.0, 1.0]
        p = constraint_basis(NullSpec(k0=2), 5)
        assert np.max(np.abs(p.T @ expected)) <= 1e-14

    def test_rejects_order_overflow(self):
        with pytest.raises(ValueError, match="K <= M-1"):
            constraint_basis(NullSpec(k0=5), 5)

    @pytest.mark.parametrize(
        "spec,m",
        [
            (NullSpec(k0=3), 10),
            (NullSpec(k0=20), 50),
            (NullSpec(k0=40), 50),
            (NullSpec(k0=20, nulls=((0.8 * math.pi, 4),)), 50),
            (NullSpec(k0=29, nulls=((1.246, 4),)), 38),
            (NullSpec(k0=30), 100),
        ],
    )
    def test_orthonormal_and_same_span(self, spec, m):
        p = constraint_basis(spec, m)
        assert p.shape == (m, spec.total_order)
        gram = p.T @ p
        assert np.max(np.abs(gram - np.eye(p.shape[1]))) <= 1e-10
        # every multiple of the annihilator is orthogonal to span(P); with K
        # columns, span(P) is the whole orthogonal complement of span(A)
        A = convolution_matrix(spec.k0, spec.nulls, m)
        resid = np.linalg.norm(p.T @ A, axis=0) / np.linalg.norm(A, axis=0)
        assert float(resid.max()) <= 1e-10


class TestQuadraticForm:
    def test_rectangular_gives_projector(self):
        p = constraint_basis(NullSpec(k0=4), 12)
        at = quadratic_form(p, window_template("rectangular", 12))
        assert np.array_equal(at, at.T)
        assert np.allclose(at, np.eye(12) - p @ p.T, atol=1e-15)
        assert np.max(np.abs(at @ at - at)) <= 1e-10
        assert np.trace(at) == pytest.approx(12 - 4, abs=1e-9)

    def test_hamming_composition_matches_oracle(self):
        # compose Diag(w) Q Q^T Diag(w) from an independent orthonormalization
        # of the annihilator's multiples, the complement of span(P)
        p = constraint_basis(NullSpec(k0=1), 3)
        window = window_template("hamming", 3)
        form = quadratic_form(p, window)
        q = gram_schmidt_columns(np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))
        d = np.diag(window.values)
        expected = d @ q @ q.T @ d
        assert np.allclose(form, expected, atol=1e-12)

    def test_psd_and_rank(self):
        p = constraint_basis(NullSpec(k0=10), 30)
        form = quadratic_form(p, window_template("hamming", 30))
        eig = np.linalg.eigvalsh(form)
        assert eig[0] >= -1e-10 * abs(eig[-1])
        nonzero = np.sum(eig > 1e-10 * eig[-1])
        assert nonzero == 30 - 10

    def test_dimension_mismatch(self):
        p = constraint_basis(NullSpec(k0=1), 3)
        with pytest.raises(ValueError, match="does not match"):
            quadratic_form(p, window_template("hamming", 4))


class TestNullResiduals:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=12, max_value=24),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_convolution_images_have_the_nulls(self, k0, n_extra, m, seed):
        rng = np.random.default_rng(seed)
        nulls = tuple(
            (float(t), int(rng.integers(1, 3)))
            for t in rng.uniform(0.15 * math.pi, 0.85 * math.pi, size=n_extra)
        )
        thetas = [t for t, _ in nulls]
        if len(set(thetas)) != len(thetas):
            nulls = nulls[:1]
        spec = NullSpec(k0=k0, nulls=nulls)
        if spec.total_order > m - 1 or spec.total_order == 0:
            return
        A = convolution_matrix(spec.k0, spec.nulls, m)
        y = A @ rng.standard_normal(m - spec.total_order)
        assert max_null_violation(y, spec) <= 1e-8 * m

    def test_residual_count(self):
        spec = NullSpec(k0=3, nulls=((0.4 * math.pi, 2),))
        res = null_residuals(np.zeros(20), spec)
        assert len(res) == 3 + 2

    def test_detects_violation(self):
        spec = NullSpec(k0=2)
        y = np.ones(10)
        assert max_null_violation(y, spec) > 1.0


class TestDivisionRemainder:
    """The oracle remainder that the divisibility checks compare against."""

    def test_exact_multiple_has_tiny_remainder(self):
        rng = np.random.default_rng(5)
        y = convolution_matrix(20, (), 50) @ rng.standard_normal(30)
        y *= math.sqrt(50) / np.linalg.norm(y)
        rem = division_remainder(y, 20)
        assert np.max(np.abs(rem)) <= 1e-8 * 50

    def test_non_multiple_has_large_remainder(self):
        rem = division_remainder(np.ones(10), 2)
        assert np.max(np.abs(rem)) > 0.1

    def test_zero_order_spec(self):
        rem = division_remainder(np.ones(6), 0)
        assert np.array_equal(rem, np.zeros(6))
