import hashlib
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcw import sdp
from drcw.nullspec import NullSpec, constraint_basis, quadratic_form
from drcw.sdp import (
    _certificates_pass,
    _inverse_from_cholesky,
    _join,
    _reversal_blocks,
    solve_partition_sdp,
)
from drcw.sequences import window_template
from oracles import brute_force_partition_max


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
        sol = solve_partition_sdp(form, tol=1e-6)
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
        sol = solve_partition_sdp(form, tol=tol)
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
        assert set(shapes) == {(m, m)}
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
            if not _certificates_pass(np.diag(z) + step * dy, zinv_min, step, t):
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(z + step * np.diag(dy))

    def test_no_failed_factorization_at_m256(self, monkeypatch):
        form = quadratic_form(
            constraint_basis(NullSpec(k0=8), 256), window_template("hamming", 256)
        )
        calls, raised = [], []
        cholesky = np.linalg.cholesky

        def spy(a):
            calls.append(a.shape)
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                raised.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        sol = solve_partition_sdp(form)
        assert sol.converged
        assert raised == []
        # the initial factors plus one per accepted step, each time one per
        # reversal block
        assert calls == [(128, 128)] * (2 * (sol.iterations + 1))


def hamming_form(m, spec):
    return quadratic_form(constraint_basis(spec, m), window_template("hamming", m))


def one_block_form():
    """An M=256 form whose reversal asymmetry is far above the split
    tolerance, so it is solved as one block."""
    form = hamming_form(256, NullSpec(k0=8))
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
        # a D2 stall form (ROADMAP) whose step test meets Z(alpha) that
        # pass both certificates and still do not factor
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
            inverted.append(L.shape)
            return inverse(L, *out)

        monkeypatch.setattr(sdp, "_PAIRED_MIN", paired_min)
        monkeypatch.setattr(sdp, "_inverses", counted_inverses)
        monkeypatch.setattr(sdp, "_inverse_from_cholesky", counted_inverse)
        solve_partition_sdp(form, max_iter=150)
        assert trials.count(False) > 0
        # two inverses for each trial whose blocks all factored, none else
        assert len(inverted) == 2 * trials.count(True)

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


class TestErrorHandling:
    def test_rejects_nonsymmetric(self):
        at = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solve_partition_sdp(at)

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1e-3, 0.5):
            with pytest.raises(ValueError, match="tol"):
                solve_partition_sdp(np.eye(3), tol=tol)

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
        # the initial pair of block inverses, then one pair per iterate
        assert [w.shape for w in inverses] == [(26, 26), (25, 25)] * (traced.iterations + 1)
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
