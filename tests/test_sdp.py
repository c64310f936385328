import dataclasses
import hashlib
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drcw import sdp
from drcw.nullspec import NullSpec, constraint_basis, quadratic_form
from drcw.sdp import (
    _inverse_from_cholesky,
    _join,
    _reversal_blocks,
    solve_partition_sdp,
)
from drcw.sequences import window_template
from oracles import (
    brute_force_partition_max,
    central_point,
    diagonal_certificate,
    inverses_per_block,
)


def random_instance(rng, m):
    """Random null-constrained quadratic form of size m."""
    k0 = int(rng.integers(1, m - 1))
    spec = NullSpec(k0=k0)
    kind = ("rectangular", "hamming", "hanning", "blackman")[int(rng.integers(0, 4))]
    basis = constraint_basis(spec, m)
    return quadratic_form(basis, window_template(kind, m))


def reversal_basis(m):
    """The orthonormal Q whose columns are (e_i + e_{m-1-i})/sqrt(2), the
    centre e_c for odd m, then (e_i - e_{m-1-i})/sqrt(2), for i < m // 2."""
    h = m // 2
    eye = np.eye(m)
    plus = [(eye[i] + eye[m - 1 - i]) / np.sqrt(2.0) for i in range(h)]
    if m % 2:
        plus.append(eye[h])
    minus = [(eye[i] - eye[m - 1 - i]) / np.sqrt(2.0) for i in range(h)]
    return np.array(plus + minus).T


def random_reversal_symmetric(rng, m):
    r = rng.standard_normal((m, m))
    r = r + r.T
    return r + r[::-1, ::-1]


class TestTrivialInstances:
    def test_all_ones_rank_one(self):
        sol = solve_partition_sdp(np.ones((2, 2)))
        assert sol.converged
        assert sol.objective == pytest.approx(4.0, abs=1e-5)
        assert np.allclose(sol.s_matrix, np.ones((2, 2)), atol=1e-4)

    def test_diagonal_attains_trace(self):
        at = np.diag([3.0, 1.0, 2.0])
        sol = solve_partition_sdp(at)
        assert sol.converged
        # unit diagonal is exact after the final rescale, so tr(A S) == tr(A)
        assert sol.objective == pytest.approx(6.0, abs=1e-9)

    def test_size_one(self):
        sol = solve_partition_sdp(np.array([[2.5]]))
        assert sol.converged
        assert sol.objective == pytest.approx(2.5, abs=1e-8)
        assert sol.s_matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        sol = solve_partition_sdp(np.zeros((4, 4)))
        assert sol.converged
        assert sol.objective == 0.0
        assert np.array_equal(sol.s_matrix, np.eye(4))


class TestSolutionInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasibility_residuals(self, seed):
        rng = np.random.default_rng(seed)
        form = random_instance(rng, 12)
        sol = solve_partition_sdp(form)
        assert sol.converged
        assert np.max(np.abs(np.diag(sol.s_matrix) - 1.0)) <= 1e-6
        norm = np.linalg.norm(form)
        assert np.linalg.eigvalsh(sol.s_matrix)[0] >= -1e-6 * (1 + norm)
        assert sol.residuals.duality_gap >= -1e-12
        assert sol.dual_bound >= sol.objective - 1e-12

    def test_production_size(self):
        # the M=512 large-m design: the blocked inverse recurses three levels
        m = 512
        spec = NullSpec(k0=4, nulls=((0.5 * np.pi, 1), (0.8 * np.pi, 1)))
        form = quadratic_form(constraint_basis(spec, m), window_template("hamming", m))
        tol = 1e-6
        sol = solve_partition_sdp(form)
        assert sol.converged
        scale = m * float(np.max(np.abs(np.linalg.eigvalsh(form))))
        assert sol.residuals.duality_gap <= tol * scale
        assert np.max(np.abs(np.diag(sol.s_matrix) - 1.0)) <= 1e-6
        assert np.linalg.eigvalsh(sol.s_matrix)[0] > 0

    def test_psd_objective_at_least_trace(self):
        rng = np.random.default_rng(3)
        form = random_instance(rng, 10)
        sol = solve_partition_sdp(form)
        tr = float(np.trace(form))
        assert sol.objective >= tr - 1e-6 * max(1.0, tr)

    def test_dominates_exhaustive_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(4, 13))
            form = random_instance(rng, m)
            sol = solve_partition_sdp(form)
            best, _ = brute_force_partition_max(form)
            scale = max(1.0, abs(best))
            assert sol.objective >= best - 1e-6 * scale
            # a feasible dual point is a certified upper bound
            assert sol.dual_bound >= best - 1e-9 * scale

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        form = random_instance(rng, 9)
        base = solve_partition_sdp(form)
        for c in (1e-3, 7.0, 1e4):
            scaled = solve_partition_sdp(c * form)
            assert scaled.objective == pytest.approx(c * base.objective, rel=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        form = random_instance(rng, 11)
        a = solve_partition_sdp(form)
        b = solve_partition_sdp(form)
        assert np.array_equal(a.s_matrix, b.s_matrix)
        assert a.objective == b.objective
        assert a.iterations == b.iterations


class TestReversalBlocks:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 50, 51])
    def test_split_matches_explicit_basis(self, m):
        rng = np.random.default_rng(m)
        a = random_reversal_symmetric(rng, m)
        q = reversal_basis(m)
        assert np.allclose(q.T @ q, np.eye(m), atol=1e-15)
        expected = q.T @ a @ q
        blocks = _reversal_blocks(a)
        p = (m + 1) // 2
        assert [b.shape for b in blocks] == [(p, p), (m - p, m - p)]
        assert np.allclose(blocks[0], expected[:p, :p], rtol=0, atol=1e-13)
        assert np.allclose(blocks[1], expected[p:, p:], rtol=0, atol=1e-13)
        # and nothing couples the blocks
        assert np.allclose(expected[:p, p:], 0.0, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 50, 51])
    def test_join_matches_explicit_basis(self, m):
        rng = np.random.default_rng(100 + m)
        p = (m + 1) // 2
        plus = rng.standard_normal((p, p))
        minus = rng.standard_normal((m - p, m - p))
        plus, minus = plus + plus.T, minus + minus.T
        q = reversal_basis(m)
        blockdiag = np.zeros((m, m))
        blockdiag[:p, :p] = plus
        blockdiag[p:, p:] = minus
        s = _join([plus, minus], m)
        assert np.allclose(s, q @ blockdiag @ q.T, rtol=0, atol=1e-13)
        assert np.array_equal(s, s[::-1, ::-1])
        assert np.array_equal(s, s.T)

    def test_asymmetric_form_takes_one_block(self, monkeypatch):
        # a reversal-asymmetric perturbation far above the split tolerance
        rng = np.random.default_rng(21)
        m = 11
        form = random_instance(rng, m)
        e = rng.standard_normal((m, m))
        form = form + 1e-6 * np.linalg.norm(form) * (e + e.T)
        assert np.linalg.norm(form - form[::-1, ::-1]) > 1e-8 * np.linalg.norm(form)
        shapes = []
        cholesky = np.linalg.cholesky

        def spy(a):
            shapes.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        sol = solve_partition_sdp(form)
        monkeypatch.undo()
        # a stack of one block, the whole form
        assert set(shapes) == {(1, m, m)}
        assert sol.converged
        assert np.array_equal(np.diag(sol.s_matrix), np.ones(m))
        assert np.linalg.eigvalsh(sol.s_matrix)[0] > 0
        best, _ = brute_force_partition_max(form)
        assert sol.dual_bound >= best
        assert sol.objective >= best - 1e-6 * abs(best)


class TestReversalCertificate:
    """The bound, and S, of a solve in the two reversal blocks."""

    CASES = [(m, 0.0) for m in range(2, 13)] + [(11, 1e-12), (12, 1e-12)]

    @pytest.mark.parametrize("m,perturbation", CASES)
    def test_bound_and_matrix(self, m, perturbation):
        rng = np.random.default_rng(1000 + m)
        form = random_reversal_symmetric(rng, m)
        if perturbation:
            e = rng.standard_normal((m, m))
            form = form + perturbation * np.linalg.norm(form) * (e + e.T)
            assert not np.array_equal(form, form[::-1, ::-1])
        sol = solve_partition_sdp(form)
        assert sol.converged
        best, _ = brute_force_partition_max(form)
        assert sol.dual_bound >= best
        s = sol.s_matrix
        assert np.array_equal(s, s[::-1, ::-1])
        assert np.array_equal(np.diag(s), np.ones(m))
        assert np.linalg.eigvalsh(s)[0] > 0


class TestCholeskyInverse:
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 127, 513])
    @pytest.mark.parametrize("cond", [1e2, 1e8, 1e12])
    def test_residual_within_lapack_inverse(self, m, cond):
        # one residual of a 2 x 2 matrix is a single roundoff draw, and
        # np.linalg.inv's own varies 15x between such matrices; so compare
        # the worst residual over a few matrices of each size and condition
        rng = np.random.default_rng(m)
        eye = np.eye(m)
        blocked = lapack = 0.0
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            z = (q * np.geomspace(1.0, 1.0 / cond, m)) @ q.T
            z = (z + z.T) / 2
            z_inv = _inverse_from_cholesky(np.linalg.cholesky(z))
            blocked = max(blocked, float(np.max(np.abs(z @ z_inv - eye))))
            lapack = max(lapack, float(np.max(np.abs(z @ np.linalg.inv(z) - eye))))
        assert blocked <= 10 * lapack


class LinalgCalls:
    """Counts the calls of ``np.linalg.<name>`` for each name while active,
    with the calling thread's name and the argument's shape."""

    def __init__(self, *names):
        self.calls = {name: [] for name in names}

    def __enter__(self):
        self.saved = {name: getattr(np.linalg, name) for name in self.calls}
        for name, fn in self.saved.items():
            setattr(np.linalg, name, self.wrap(fn, self.calls[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(np.linalg, name, fn)

    @staticmethod
    def wrap(fn, log):
        def call(a, *args, **kwargs):
            log.append((threading.current_thread().name, a.shape))
            return fn(a, *args, **kwargs)

        return call


class TestStackedStep:
    """Each stage of a step runs once per stack of equal-size blocks, and
    gives bit for bit what one block at a time gives."""

    LAYOUTS = {"even": lambda k: [k, k], "odd": lambda k: [k + 1, k], "single": lambda k: [k]}

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=130),
        st.sampled_from(sorted(LAYOUTS)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([None, 0, 1]),
    )
    @example(64, "even", 0, None)  # the largest LAPACK base block
    @example(65, "even", 1, None)  # the smallest recursive one
    @example(64, "odd", 2, None)  # a stack of 65 and a stack of 64
    @example(65, "single", 3, 0)
    @example(128, "even", 4, 1)  # two blocks of _PAIRED_MIN rows, one not PD
    @example(130, "odd", 5, None)
    def test_matches_one_block_at_a_time(self, k, layout, seed, failing):
        rng = np.random.default_rng(seed)
        sizes = self.LAYOUTS[layout](k)
        blocks = []
        for n in sizes:
            g = rng.standard_normal((n, n))
            blocks.append((g + g.T) / np.sqrt(n))
        top = max(float(np.linalg.eigvalsh(b)[-1]) for b in blocks)
        u = top + rng.uniform(0.01, 1.0, sizes[0])
        if failing is not None and failing < len(blocks):
            # a rank-one bump that leaves one eigenvalue of Z_b negative
            v = rng.standard_normal(sizes[failing])
            blocks[failing] += (float(np.max(u)) + 1.0) * np.outer(v, v) / (v @ v)
        stacks = [np.stack(blocks)] if layout == "even" else [b[np.newaxis] for b in blocks]
        expected = inverses_per_block(blocks, u)
        with ThreadPoolExecutor(1) as pool, LinalgCalls("inv") as counted:
            got = sdp._inverses(pool, stacks, u)
        if expected is None:
            assert got is None
            assert counted.calls["inv"] == []
        else:
            assert [w.shape for w in got] == [s.shape for s in stacks]
            assert [w.tobytes() for s in got for w in s] == [w.tobytes() for w in expected]

    @pytest.mark.parametrize("m,stacks", [(50, 1), (51, 2)])
    def test_one_call_per_stack_and_stage(self, monkeypatch, m, stacks):
        # per call of the step's factor-then-invert: whether it returned the
        # inverses, and the cholesky and inv calls it made
        steps = []
        inverses = sdp._inverses

        def counted_inverses(*args):
            before = {name: len(log) for name, log in counted.calls.items()}
            out = inverses(*args)
            made = [len(counted.calls[name]) - before[name] for name in ("cholesky", "inv")]
            steps.append((out is not None, *made))
            return out

        monkeypatch.setattr(sdp, "_inverses", counted_inverses)
        with LinalgCalls("cholesky", "inv", "eigvalsh") as counted:
            sol = solve_partition_sdp(hamming_form(m, NullSpec(k0=20)))
        assert sol.converged
        accepted = [made for ok, *made in steps if ok]
        rejected = [made for ok, *made in steps if not ok]
        # the start, then one per accepted step
        assert len(accepted) == sol.iterations + 1
        assert accepted == [[stacks, stacks]] * len(accepted)
        # a rejected trial factors no more than every stack and inverts nothing
        assert all(1 <= chol <= stacks and inv == 0 for chol, inv in rejected)
        # and nothing else factors or inverts; the start values take one
        # eigvalsh call per stack
        assert len(counted.calls["cholesky"]) == sum(chol for _, chol, _ in steps)
        assert len(counted.calls["inv"]) == stacks * len(accepted)
        assert len(counted.calls["eigvalsh"]) == stacks


class TestStepCertificates:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rejected_steps_do_not_factor(self, m, log_cond, log_t, seed):
        # a random positive definite Z, a barrier parameter t on the scale
        # of diag(Z^{-1}), and dy from the Newton equation at (Z, t)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        z = (q * np.geomspace(1.0, 10.0**-log_cond, m)) @ q.T
        z = (z + z.T) / 2
        z_inv = np.linalg.inv(z)
        t = 10.0**log_t * float(np.mean(np.diag(z_inv)))
        dy = -np.linalg.solve(z_inv * z_inv, t - np.diag(z_inv))
        zinv_min = float(np.min(np.diag(z_inv)))
        for k in range(11):
            step = 0.5**k
            if not (1.0 + step) * zinv_min > step * t:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(z + step * np.diag(dy))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=130),
        st.sampled_from(sorted(TestStackedStep.LAYOUTS)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @example(1, "single", 0, 0.0)
    @example(64, "even", 1, 0.0)
    @example(65, "odd", 2, 1e-12)
    @example(130, "odd", 3, 0.0)
    def test_non_positive_diagonal_does_not_factor(self, k, layout, seed, deficit):
        # blocks with Diag(u) - b positive definite but for one diagonal
        # entry, lowered to ``deficit`` below zero: the factor refuses every
        # stack that holds a non-positive diagonal entry, so a pre-check of
        # the diagonal could never reject a step the factor accepts
        rng = np.random.default_rng(seed)
        sizes = TestStackedStep.LAYOUTS[layout](k)
        blocks = [rng.standard_normal((n, n)) for n in sizes]
        blocks = [(g + g.T) / np.sqrt(len(g)) for g in blocks]
        top = max(float(np.linalg.eigvalsh(b)[-1]) for b in blocks)
        u = top + rng.uniform(0.01, 1.0, sizes[0])
        which = int(rng.integers(len(blocks)))
        j = int(rng.integers(sizes[which]))
        u[j] = blocks[which][j, j] - deficit
        stacks = [np.stack(blocks)] if layout == "even" else [b[np.newaxis] for b in blocks]
        assert not diagonal_certificate(stacks, u)
        refused = 0
        for stack in stacks:
            if (u[: stack.shape[-1]] - np.diagonal(stack, axis1=-2, axis2=-1)).min() <= 0:
                assert sdp._block_factor(stack, u) is None
                refused += 1
        assert refused >= 1

    @pytest.mark.parametrize(
        "m,window,spec,max_iter",
        [
            (50, "hamming", NullSpec(k0=20), 5000),
            (51, "hamming", NullSpec(k0=9, nulls=((0.3 * np.pi, 2),)), 5000),
            # a large-K/M form, budget-limited below the 174 iterations it needs
            (128, "rectangular", NullSpec(k0=24), 150),
        ],
    )
    def test_diagonal_pre_check_changes_no_iterate(self, monkeypatch, m, window, spec, max_iter):
        form = quadratic_form(constraint_basis(spec, m), window_template(window, m))
        plain = solve_partition_sdp(form, max_iter=max_iter)
        inverses = sdp._inverses

        def pre_checked(pool, stacks, u):
            return inverses(pool, stacks, u) if diagonal_certificate(stacks, u) else None

        monkeypatch.setattr(sdp, "_inverses", pre_checked)
        assert_same_solution(solve_partition_sdp(form, max_iter=max_iter), plain)

    def test_the_step_search_has_no_cap(self, monkeypatch):
        # the trials that follow the start's factorization are refused 75
        # times: the search halves on, and its 76th trial is accepted
        inverses = sdp._inverses
        calls = []

        def refusing(pool, stacks, u):
            out = None if 1 <= len(calls) <= 75 else inverses(pool, stacks, u)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(sdp, "_inverses", refusing)
        sol = solve_partition_sdp(hamming_form(50, NullSpec(k0=20)), max_iter=1)
        assert calls == [True] + [False] * 75 + [True]
        assert sol.iterations == 1

    def test_no_failed_factorization_at_m256(self, monkeypatch):
        # no Newton trial fails to factor; only a stage-start guess may, and
        # there is at most one guess per stage
        form = quadratic_form(
            constraint_basis(NullSpec(k0=8), 256), window_template("hamming", 256)
        )
        calls, raised, guesses = [], [], []
        guessing = [False]
        cholesky = np.linalg.cholesky
        guess = sdp._extrapolated_start

        def spy(a):
            calls.append(a.shape)
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                raised.append(guessing[0])
                raise

        def spy_guess(pool, stacks, u, centre, mu):
            guessing[0] = True
            try:
                out = guess(pool, stacks, u, centre, mu)
            finally:
                guessing[0] = False
            guesses.append((u, centre, out is not None))
            return out

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        monkeypatch.setattr(sdp, "_extrapolated_start", spy_guess)
        sol = solve_partition_sdp(form)
        assert sol.converged
        assert all(raised)
        refused = sum(not ok for *_, ok in guesses)
        assert len(raised) <= 2 * refused
        # the centre each guess extrapolates from is the u of the guess
        # before it: one guess per stage
        assert all(
            prev_u is centre for (prev_u, *_), (_, centre, _) in zip(guesses, guesses[1:])
        )
        # the initial factors, one per iteration (accepted guesses included)
        # and one per refused guess, each time one per reversal block
        assert calls == [(128, 128)] * (2 * (sol.iterations + 1 + refused))


def hamming_form(m, spec):
    return quadratic_form(constraint_basis(spec, m), window_template("hamming", m))


def one_block_form(m=256, k0=8):
    """An M-pulse hamming form whose reversal asymmetry is far above the
    split tolerance, so it is solved as one block."""
    form = hamming_form(m, NullSpec(k0=k0))
    e = np.random.default_rng(5).standard_normal(form.shape)
    return form + 1e-6 * np.linalg.norm(form) * (e + e.T)


def assert_same_solution(a, b):
    assert a.s_matrix.tobytes() == b.s_matrix.tobytes()
    assert (a.objective, a.dual_bound, a.residuals) == (b.objective, b.dual_bound, b.residuals)
    assert (a.iterations, a.converged, a.trace) == (b.iterations, b.converged, b.trace)


def sdp_threads():
    return [t for t in threading.enumerate() if t.name.startswith("drcw-sdp")]


class TestPairedBlocks:
    """From _PAIRED_MIN rows per block, the worker of the solve's own pool
    factors and inverts the A- block while the calling thread does A+."""

    @staticmethod
    def solve(monkeypatch, form, paired_min, **kwargs):
        """The solve with the pairing threshold ``paired_min``, and the
        (work, block shape) of each call made on another thread."""
        on_helper = []

        def spy(name):
            work = getattr(sdp, name)

            def call(*args):
                if threading.current_thread() is not threading.main_thread():
                    on_helper.append((name, args[0].shape))
                return work(*args)

            return call

        with monkeypatch.context() as mp:
            mp.setattr(sdp, "_PAIRED_MIN", paired_min)
            for name in ("_block_factor", "_inverse_from_cholesky"):
                mp.setattr(sdp, name, spy(name))
            return solve_partition_sdp(form, **kwargs), on_helper

    CASES = {
        "m256": (lambda: hamming_form(256, NullSpec(k0=8)), {}),
        "m256-trace": (lambda: hamming_form(256, NullSpec(k0=8)), {"collect_trace": True}),
        "m257-odd": (lambda: hamming_form(257, NullSpec(k0=8)), {}),
        "m51-odd-mixed": (lambda: hamming_form(51, NullSpec(k0=9, nulls=((0.3 * np.pi, 2),))), {}),
        "one-block": (one_block_form, {"collect_trace": True}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_threaded_solve_is_bit_identical(self, monkeypatch, case):
        make, kwargs = self.CASES[case]
        form = make()
        serial, serial_helper = self.solve(monkeypatch, form, sys.maxsize, **kwargs)
        paired, paired_helper = self.solve(monkeypatch, form, 1, **kwargs)
        assert_same_solution(paired, serial)
        assert serial.converged
        assert serial_helper == []
        if case == "one-block":
            assert paired_helper == []
        else:
            # the A- block's factor and inverse, for the start and each step
            half = (form.shape[0] // 2,) * 2
            assert set(paired_helper) == {("_block_factor", half), ("_inverse_from_cholesky", half)}
            assert paired_helper.count(("_inverse_from_cholesky", half)) == serial.iterations + 1

    @pytest.mark.parametrize("paired_min", [sys.maxsize, 1])
    def test_a_trial_that_does_not_factor_costs_no_inverse(self, monkeypatch, paired_min):
        # a budget-limited solve of a large-K/M form, whose step test meets
        # Z(alpha) that pass the column certificate and still do not factor
        form = quadratic_form(
            constraint_basis(NullSpec(k0=24), 128), window_template("rectangular", 128)
        )
        trials, inverted = [], []
        inverses, inverse = sdp._inverses, sdp._inverse_from_cholesky

        def counted_inverses(*args):
            out = inverses(*args)
            trials.append(out is not None)
            return out

        def counted_inverse(L, *out):
            inverted.append(L.size // L.shape[-1] ** 2)  # blocks in L
            return inverse(L, *out)

        monkeypatch.setattr(sdp, "_PAIRED_MIN", paired_min)
        monkeypatch.setattr(sdp, "_inverses", counted_inverses)
        monkeypatch.setattr(sdp, "_inverse_from_cholesky", counted_inverse)
        solve_partition_sdp(form, max_iter=150)
        assert trials.count(False) > 0
        # two block inverses for each trial whose blocks all factored, none else
        assert sum(inverted) == 2 * trials.count(True)

    @pytest.mark.parametrize(
        "m,spec,paired",
        [
            (50, NullSpec(k0=20), False),
            (51, NullSpec(k0=9, nulls=((0.3 * np.pi, 2),)), False),
            (255, NullSpec(k0=8), False),
            (256, NullSpec(k0=8), True),
        ],
    )
    def test_small_blocks_stay_on_the_calling_thread(self, monkeypatch, m, spec, paired):
        # paper-size forms (M=50, blocks of 25) never reach the helper;
        # M=255 has an A- block of 127 rows, one short of _PAIRED_MIN
        _, on_helper = self.solve(monkeypatch, hamming_form(m, spec), sdp._PAIRED_MIN)
        assert bool(on_helper) == paired

    @pytest.mark.parametrize(
        "m,shapes", [(50, [(2, 25, 25)]), (255, [(1, 128, 128), (1, 127, 127)])]
    )
    def test_start_values_take_one_call_per_stack(self, m, shapes):
        with LinalgCalls("eigvalsh") as counted:
            solve_partition_sdp(hamming_form(m, NullSpec(k0=8)), max_iter=1)
        main = threading.main_thread().name
        assert counted.calls["eigvalsh"] == [(main, shape) for shape in shapes]

    @pytest.mark.parametrize("name", ["_block_factor", "_inverse_from_cholesky"])
    @pytest.mark.parametrize("failing_on_helper", [True, False])
    def test_failing_call_raises_on_the_calling_thread(self, monkeypatch, name, failing_on_helper):
        blocks, _ = sdp._blocks(hamming_form(256, NullSpec(k0=8)) / 256.0)
        u = np.full(128, 10.0)  # far above the blocks' spectra
        work = getattr(sdp, name)
        finished = []

        def failing(*args):
            on_helper = threading.current_thread() is not threading.main_thread()
            try:
                if on_helper == failing_on_helper:
                    raise ZeroDivisionError(f"{name} on helper={on_helper}")
                return work(*args)
            finally:
                finished.append(on_helper)

        # a pool of this test's own, so a broken one cannot stall the rest
        with ThreadPoolExecutor(1) as pool:
            expected = [w.tobytes() for w in sdp._inverses(pool, blocks, u)]
            with monkeypatch.context() as mp:
                mp.setattr(sdp, name, failing)
                with pytest.raises(ZeroDivisionError, match=f"helper={failing_on_helper}"):
                    sdp._inverses(pool, blocks, u)
            # both calls had ended when it raised, and the pool runs the next one
            assert sorted(finished) == [False, True]
            assert [w.tobytes() for w in sdp._inverses(pool, blocks, u)] == expected

    def test_concurrent_solves_share_the_helper(self):
        # more calling threads than cores, switching often: every solve must
        # get its own A- work back from the worker of its own pool
        form = hamming_form(256, NullSpec(k0=8))
        reference = solve_partition_sdp(form)
        results, errors = [], []

        def caller():
            try:
                for _ in range(2):
                    results.append(solve_partition_sdp(form))
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        assert len(results) == 6
        for sol in results:
            assert_same_solution(sol, reference)
        assert sdp_threads() == []

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_thread_outlives_the_solve(self, monkeypatch, fails):
        names = []
        work = sdp._block_factor

        def spy(*args):
            if threading.current_thread() is not threading.main_thread():
                names.append(threading.current_thread().name)
                if fails and len(names) == 5:
                    raise ZeroDivisionError("factor failed")
            return work(*args)

        monkeypatch.setattr(sdp, "_block_factor", spy)
        form = hamming_form(256, NullSpec(k0=8))
        if fails:
            with pytest.raises(ZeroDivisionError):
                solve_partition_sdp(form)
        else:
            assert solve_partition_sdp(form).converged
        assert set(names) == {"drcw-sdp_0"}
        assert sdp_threads() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_after_a_solve_solves_bit_identically(self):
        def digest(sol):
            record = (sol.objective, sol.dual_bound, sol.residuals, sol.iterations,
                      sol.converged, sol.trace)
            return hashlib.sha256(sol.s_matrix.tobytes() + repr(record).encode()).hexdigest()

        form = hamming_form(256, NullSpec(k0=8))
        expected = digest(solve_partition_sdp(form, collect_trace=True))
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: a thread it did not inherit must not stall it
            code = 1
            try:
                os.close(read_end)
                signal.alarm(120)
                os.write(write_end, digest(solve_partition_sdp(form, collect_trace=True)).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as child_out:
            got = child_out.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == expected


def no_guess(pool, stacks, u, centre, mu):
    return None


def record_calls(monkeypatch, *names):
    """(name, returned something) for each call of the named sdp helpers in
    the next solves, in call order."""
    calls = []

    def spy(name):
        work = getattr(sdp, name)

        def call(*args):
            out = work(*args)
            calls.append((name, out is not None))
            return out

        return call

    for name in names:
        monkeypatch.setattr(sdp, name, spy(name))
    return calls


def unguessed(monkeypatch, form, **kwargs):
    with monkeypatch.context() as mp:
        mp.setattr(sdp, "_extrapolated_start", no_guess)
        return solve_partition_sdp(form, **kwargs)


class TestStageStartGuess:
    """From the third barrier stage on, the solve tries the extrapolated
    centre u + (u - centre)/mu as the stage's start."""

    REFUSED = [
        *((50, w, NullSpec(k0=k0)) for w in ("hamming", "rectangular") for k0 in range(10, 45, 5)),
        (50, "hamming", NullSpec(k0=20, nulls=((0.8 * np.pi, 4),))),
        (51, "hamming", NullSpec(k0=9, nulls=((0.3 * np.pi, 2),))),
        (96, "rectangular", NullSpec(k0=28)),  # k0/M = 0.3 at M=96
    ]

    @pytest.mark.parametrize(
        "m,window,spec",
        REFUSED,
        ids=[f"{m}-{w}-k0={spec.k0}-nulls={len(spec.nulls)}" for m, w, spec in REFUSED],
    )
    def test_refused_where_k_over_m_is_large(self, monkeypatch, m, window, spec):
        # the paper's 14 forms, the other export-verify form, an odd M and
        # a large-K/M form at M=96: every guess leaves the cone, and the
        # solve is bit for bit the unguessed one
        form = quadratic_form(constraint_basis(spec, m), window_template(window, m))
        plain = unguessed(monkeypatch, form)
        guesses = record_calls(monkeypatch, "_extrapolated_start")
        sol = solve_partition_sdp(form)
        assert guesses and not any(ok for _, ok in guesses)
        assert_same_solution(sol, plain)
        assert sol.converged

    @pytest.mark.parametrize("m,k0", [(256, 8), (64, 3)])
    def test_accepted_where_k_is_small(self, monkeypatch, m, k0):
        form = hamming_form(m, NullSpec(k0=k0))
        plain = unguessed(monkeypatch, form)
        guesses = record_calls(monkeypatch, "_extrapolated_start")
        sol = solve_partition_sdp(form)
        assert any(ok for _, ok in guesses)
        assert sol.converged and plain.converged
        assert sol.dual_bound == pytest.approx(plain.dual_bound, rel=1e-12, abs=0)

    def test_an_accepted_guess_is_an_iteration(self, monkeypatch):
        # accepted _inverses calls: the start, then one per iteration, the
        # accepted guesses among them; each iteration has one trace row
        form = hamming_form(64, NullSpec(k0=3))
        untraced = solve_partition_sdp(form)
        calls = record_calls(monkeypatch, "_inverses", "_extrapolated_start")
        traced = solve_partition_sdp(form, collect_trace=True)
        assert ("_extrapolated_start", True) in calls
        assert calls.count(("_inverses", True)) == traced.iterations + 1
        assert [row[0] for row in traced.trace] == list(range(1, traced.iterations + 1))
        assert_same_solution(untraced, dataclasses.replace(traced, trace=()))

    def test_an_accepted_guess_uses_up_the_budget(self, monkeypatch):
        # a budget that ends on the first accepted guess stops the solve
        # there, with the guess's row last in the trace
        form = hamming_form(64, NullSpec(k0=3))
        full = solve_partition_sdp(form, collect_trace=True)
        with monkeypatch.context() as mp:
            calls = record_calls(mp, "_inverses", "_extrapolated_start")
            solve_partition_sdp(form)
        # the start's inverses, then one per iteration up to the guess's own
        budget = calls[: calls.index(("_extrapolated_start", True))].count(("_inverses", True)) - 1
        short = solve_partition_sdp(form, max_iter=budget, collect_trace=True)
        assert 1 < budget < full.iterations
        assert not short.converged
        assert short.iterations == budget
        assert short.trace == full.trace[:budget]


class TestCentralPoint:
    """A converged solve stops at t* = 20^5/rho, and its S is the
    unit-diagonal rescaling of the central point there, as the dense barrier
    of tests/oracles.py computes it without reversal blocks or threads."""

    FORMS = [
        *((50, w, NullSpec(k0=k0)) for w in ("hamming", "rectangular") for k0 in range(10, 45, 5)),
        (51, "hamming", NullSpec(k0=9, nulls=((0.3 * np.pi, 2),))),
        (128, "one-block", NullSpec(k0=12)),
        (256, "hamming", NullSpec(k0=8)),
        (96, "rectangular", NullSpec(k0=28)),
    ]

    @pytest.mark.parametrize(
        "m,window,spec",
        FORMS,
        ids=[f"{m}-{w}-k0={spec.k0}-nulls={len(spec.nulls)}" for m, w, spec in FORMS],
    )
    def test_s_is_the_central_point_at_t_star(self, m, window, spec):
        if window == "one-block":
            form = one_block_form(m, spec.k0)
        else:
            form = quadratic_form(constraint_basis(spec, m), window_template(window, m))
        sol = solve_partition_sdp(form, collect_trace=True)
        assert sol.converged
        assert np.max(np.abs(sol.s_matrix - central_point(form))) <= 1e-7
        # at a centred point the normalized gap is M/t
        norm = np.linalg.norm(form)
        t = m * norm / sol.trace[-1][2]
        rho = float(np.max(np.abs(np.linalg.eigvalsh(form / norm))))
        assert abs(t * rho / 20.0**5 - 1.0) <= 1e-2


class TestErrorHandling:
    def test_rejects_nonsymmetric(self):
        at = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solve_partition_sdp(at)

    def test_budget_exhaustion_is_flagged(self):
        rng = np.random.default_rng(17)
        form = random_instance(rng, 12)
        sol = solve_partition_sdp(form, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        # the best iterate is still returned with its residual record
        assert sol.s_matrix.shape == (12, 12)

    def test_trace_collection(self):
        sol = solve_partition_sdp(np.ones((3, 3)), collect_trace=True)
        assert len(sol.trace) == sol.iterations
        assert sol.trace[-1][0] == sol.iterations

    def test_trace_only_observes(self):
        # a solve whose centering loop runs out of steps before the gap
        # closes; fresh gaps taken for the trace must not reach the
        # stopping test
        form = quadratic_form(
            constraint_basis(NullSpec(k0=34), 128), window_template("hamming", 128)
        )
        plain = solve_partition_sdp(form)
        traced = solve_partition_sdp(form, collect_trace=True)
        assert traced.iterations == plain.iterations
        assert traced.s_matrix.tobytes() == plain.s_matrix.tobytes()
        assert traced.converged == plain.converged
        assert len(traced.trace) == traced.iterations


    def test_trace_only_observes_odd_mixed_spec(self, monkeypatch):
        # odd M: the centre pulse sits in the larger block. The trace's
        # diagonal column must be that of the assembled M x M iterate
        m = 51
        spec = NullSpec(k0=9, nulls=((0.3 * np.pi, 2),))
        form = quadratic_form(constraint_basis(spec, m), window_template("hamming", m))
        plain = solve_partition_sdp(form)
        inverses = []
        inverse = sdp._inverse_from_cholesky

        def spy(L):
            out = inverse(L)
            inverses.append(out)
            return out

        monkeypatch.setattr(sdp, "_inverse_from_cholesky", spy)
        traced = solve_partition_sdp(form, collect_trace=True)
        monkeypatch.undo()
        assert traced.iterations == plain.iterations
        assert traced.s_matrix.tobytes() == plain.s_matrix.tobytes()
        assert traced.converged == plain.converged
        assert len(traced.trace) == traced.iterations
        # the initial pair of block inverses, then one pair per iterate, each
        # a stack of one
        assert [w.shape for w in inverses] == [(1, 26, 26), (1, 25, 25)] * (traced.iterations + 1)
        q = reversal_basis(m)
        for (it, pobj, _gap, diag_res), plus, minus in zip(
            traced.trace, inverses[2::2], inverses[3::2]
        ):
            blockdiag = np.zeros((m, m))
            blockdiag[:26, :26] = plus
            blockdiag[26:, 26:] = minus
            zinv = q @ blockdiag @ q.T
            # X_i = Z^{-1}/t, whose objective is the trace's own
            t = float(np.sum(form * zinv)) / pobj
            expected = float(np.max(np.abs(np.diag(zinv) / t - 1.0)))
            assert diag_res == pytest.approx(expected, rel=1e-9, abs=1e-12), it

class TestEigendecompositionBackend:
    """The PSD machinery leans on the symmetric eigensolver; cross-check it."""

    def _char_poly_roots(self, a):
        # characteristic polynomial coefficients by exact expansion (m <= 3),
        # roots from the companion matrix; no symmetric eigensolver involved
        m = a.shape[0]
        if m == 2:
            coeffs = [1.0, -(a[0, 0] + a[1, 1]), a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]]
        elif m == 3:
            tr = np.trace(a)
            minors = (
                a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
                + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
                + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            )
            det = float(np.linalg.det(a))
            coeffs = [1.0, -tr, minors, -det]
        else:
            raise NotImplementedError
        return np.sort(np.roots(coeffs).real)

    @pytest.mark.parametrize("m", [2, 3])
    def test_small_matrices_match_characteristic_roots(self, m):
        rng = np.random.default_rng(m)
        for _ in range(10):
            a = rng.standard_normal((m, m))
            a = (a + a.T) / 2
            lam = np.linalg.eigvalsh(a)
            expected = self._char_poly_roots(a)
            assert np.allclose(np.sort(lam), expected, atol=1e-10)

    def test_residual_accuracy_at_production_size(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((50, 50))
        a = (a + a.T) / 2
        lam, v = np.linalg.eigh(a)
        resid = np.linalg.norm(a @ v - v * lam, axis=0)
        assert float(resid.max()) <= 1e-10 * np.linalg.norm(a)
        assert np.max(np.abs(v.T @ v - np.eye(50))) <= 1e-12
