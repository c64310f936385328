import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import drcw
from drcw import design, sdp
from drcw.design import (
    _BLOCK_BYTES,
    _LOOKAHEAD_BYTES,
    _MIN_BLOCK_ROWS,
    _PAIRED_LOOKAHEAD_BYTES,
    DesignFailure,
    design_bd,
    design_nm_drcw,
    design_ptm,
    design_uniform,
    recover_amplitudes,
    round_solution,
)
from drcw.nullspec import (
    NullSpec,
    constraint_basis,
    max_null_violation,
    quadratic_form,
)
from drcw.sdp import SolverFailure, solve_partition_sdp
from drcw.sequences import window_template
from oracles import (
    brute_force_partition_max,
    convolution_matrix,
    division_remainder,
    null_moments,
    rounding_factor,
)


def make_form(m, k0, kind="hamming"):
    p = constraint_basis(NullSpec(k0=k0), m)
    return p, quadratic_form(p, window_template(kind, m))


def make_case(m, spec, kind):
    """(p, window, form, S) of a converged relaxation."""
    p = constraint_basis(spec, m)
    window = window_template(kind, m)
    form = quadratic_form(p, window)
    solution = solve_partition_sdp(form)
    assert solution.converged
    return p, window, form, solution.s_matrix


def direct_sum_draws(s_matrix, form, trials, seed):
    """Candidates from one (trials, M) draw and their scores s^T A s, each
    summed over i and j in one einsum."""
    lam, vecs = np.linalg.eigh(s_matrix)
    factor = vecs[:, ::-1] * np.sqrt(np.maximum(lam[::-1], 0.0))
    r = np.random.default_rng(seed).standard_normal((trials, len(form)))
    cands = np.where(r @ factor.T >= 0, 1, -1)
    return cands, np.einsum("bi,ij,bj->b", cands, form, cands)


def block_rows(m):
    """Candidates per rounding block at M = m."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * m))


def mirrors(s):
    """s with its reversals Js and -Js: for a persymmetric form (J A J = A)
    all three score the same in exact arithmetic."""
    return (s, s[::-1], -s[::-1])


# P = [1, -1]^T / sqrt(2) with a rectangular 2-pulse window: A = 1 1^T / 2,
# so aligned signs score 2 and opposite signs 0
ALIGN_P = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
ALIGN_WINDOW = window_template("rectangular", 2)


class TestRoundSolution:
    def test_rank_one_shortcut(self):
        # P = 1/2 (one zero-Doppler moment): A = I - 1 1^T / 4 scores
        # s_true as 4 - (1 + 1 + 1 - 1)^2 / 4 = 3
        s_true = np.array([1.0, -1.0, 1.0, 1.0])
        p = constraint_basis(NullSpec(k0=1), 4)
        rounded = round_solution(
            np.outer(s_true, s_true), p, window_template("rectangular", 4), trials=10, seed=0
        )
        assert np.array_equal(rounded.s, s_true) or np.array_equal(rounded.s, -s_true)
        assert rounded.objective == pytest.approx(3.0, abs=1e-12)

    def test_identity_relaxation_finds_aligned_signs(self):
        rounded = round_solution(np.eye(2), ALIGN_P, ALIGN_WINDOW, trials=64, seed=1)
        assert not rounded.used_rank1_shortcut
        assert abs(rounded.s[0]) == 1 and rounded.s[0] == rounded.s[1]
        assert rounded.objective == pytest.approx(2.0)

    def test_matches_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(23)
        hits = 0
        total = 20
        for _ in range(total):
            m = int(rng.integers(4, 13))
            p, form = make_form(m, int(rng.integers(1, m - 1)))
            sol = solve_partition_sdp(form)
            seed = int(rng.integers(0, 2**31))
            rounded = round_solution(
                sol.s_matrix, p, window_template("hamming", m), trials=1000, seed=seed
            )
            best, _ = brute_force_partition_max(form)
            scale = max(1.0, abs(best))
            # bound sandwich: exhaustive and rounded both sit under the bound
            assert best <= sol.objective + 1e-6 * scale
            assert rounded.objective <= sol.objective + 1e-6 * scale
            assert rounded.objective >= 0.9 * best - 1e-12
            if rounded.objective >= best - 1e-9 * scale:
                hits += 1
        assert hits >= int(0.8 * total)

    def test_deterministic_given_seed(self):
        p, form = make_form(10, 3)
        sol = solve_partition_sdp(form)
        window = window_template("hamming", 10)
        a = round_solution(sol.s_matrix, p, window, trials=200, seed=42)
        b = round_solution(sol.s_matrix, p, window, trials=200, seed=42)
        assert np.array_equal(a.s, b.s)
        assert a.objective == b.objective

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            round_solution(np.eye(2), ALIGN_P, ALIGN_WINDOW, trials=0, seed=0)

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            round_solution(np.eye(2), ALIGN_P, ALIGN_WINDOW, trials=10, seed=-1)
        assert draw_threads() == []

    def test_indefinite_s_rounds_through_the_clamped_factor(self):
        shat = np.array([[1.0, 1.001], [1.001, 1.0]])  # slightly indefinite
        rounded = round_solution(shat, ALIGN_P, ALIGN_WINDOW, trials=16, seed=0)
        # the negative eigenvalue is clamped to zero, so every candidate is
        # +/- the sign pattern of the leading eigenvector (1, 1)
        assert rounded.s[0] == rounded.s[1]
        proj = (ALIGN_WINDOW.values[:, None] * ALIGN_P).T @ rounded.s
        expected = float(ALIGN_WINDOW.values @ ALIGN_WINDOW.values) - float(proj @ proj)
        assert rounded.objective == expected == 2.0

    @pytest.mark.parametrize("k0", [10, 25])
    def test_pick_matches_direct_sum_up_to_mirror(self, k0):
        # A rectangular window with a zero-Doppler null alone gives a
        # persymmetric form (J A J = A), so s, its reversal Js and -Js score
        # the same; the rank-K score may break such exact ties differently
        # from the three-operand direct sum, but must otherwise pick the same
        # s. Rectangular k0=25 at seeds 12 and 14 were such ties in one run.
        m, trials = 50, 10000
        p, window, form, s_matrix = make_case(m, NullSpec(k0=k0), "rectangular")
        assert np.allclose(form, form[::-1, ::-1], atol=1e-12)
        for seed in range(10, 16):
            cands, scores = direct_sum_draws(s_matrix, form, trials, seed)
            direct = cands[int(np.argmax(scores))]
            picked = round_solution(s_matrix, p, window, trials=trials, seed=seed).s
            assert any(np.array_equal(picked, c) for c in mirrors(direct)), seed

    @pytest.mark.parametrize(
        "m,spec,kind",
        [
            (50, NullSpec(k0=20), "hamming"),
            (50, NullSpec(k0=30), "rectangular"),
            (128, NullSpec(k0=40, nulls=((0.8 * math.pi, 10),)), "hamming"),
        ],
    )
    def test_blockwise_pick_matches_one_shot_argmax(self, m, spec, kind):
        # trials span several blocks and end inside a partial one; the
        # direct-sum argmax of one (trials, M) draw must be the pick, up to
        # the mirror ties Js and -Js, wherever in the draw it sits
        p, window, form, s_matrix = make_case(m, spec, kind)
        rows = block_rows(m)
        trials = 3 * rows + rows // 3
        outside_first_block = 0
        for seed in range(6):
            cands, scores = direct_sum_draws(s_matrix, form, trials, seed)
            best = int(np.argmax(scores))
            outside_first_block += best >= rows
            rounded = round_solution(s_matrix, p, window, trials=trials, seed=seed)
            assert any(np.array_equal(rounded.s, c) for c in mirrors(cands[best])), seed
            s = rounded.s.astype(float)
            assert abs(rounded.objective - float(s @ form @ s)) <= 1e-12 * m
        assert outside_first_block >= 1

    def test_exact_ties_keep_the_first_maximum(self):
        # s and -s score exactly the same, and aligned pairs of both signs
        # turn up in every block: the pick is the first one of the draw
        rows = block_rows(2)
        trials = 3 * rows + 5
        for seed in range(4):
            r = np.random.default_rng(seed).standard_normal((trials, 2))
            first = r[int(np.argmax(np.sign(r[:, 0]) == np.sign(r[:, 1]))), 0]
            rounded = round_solution(np.eye(2), ALIGN_P, ALIGN_WINDOW, trials=trials, seed=seed)
            assert rounded.s.tolist() == [int(np.sign(first))] * 2, seed

    def test_zero_direction_signs_plus_one(self):
        # S has no weight on pulse 2, so every candidate has 0 there
        p = constraint_basis(NullSpec(k0=1), 3)
        window = window_template("rectangular", 3)
        for seed in range(4):
            rounded = round_solution(np.diag([1.0, 1.0, 0.0]), p, window, trials=50, seed=seed)
            assert rounded.s[2] == 1

    def test_memory_does_not_grow_with_trials(self):
        # the draws live one block at a time: 100000 trials at M=128 would
        # take 100 MB as one array, but must peak within twice 5000 trials
        m = 128
        p = constraint_basis(NullSpec(k0=8), m)
        window = window_template("hamming", m)
        g = np.random.default_rng(0).standard_normal((m, m // 2))
        s_matrix = g @ g.T
        s_matrix /= np.sqrt(np.outer(np.diag(s_matrix), np.diag(s_matrix)))

        def peak(trials):
            tracemalloc.start()
            try:
                round_solution(s_matrix, p, window, trials=trials, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(5000), peak(100000)
        assert large <= 2 * small, (small, large)


def random_relaxation(m, seed=0):
    """A unit-diagonal S of rank M/2."""
    g = np.random.default_rng(seed).standard_normal((m, m // 2))
    s_matrix = g @ g.T
    return s_matrix / np.sqrt(np.outer(np.diag(s_matrix), np.diag(s_matrix)))


def gram_relaxation(m, columns, reversal_symmetric, seed=0):
    """A unit-diagonal S from G G^T for a random M x ``columns`` G, exactly
    reversal-symmetric or not: positive definite for columns >= M, of rank
    at most 2 * columns otherwise."""
    g = np.random.default_rng(seed).standard_normal((m, columns))
    s_matrix = g @ g.T
    if reversal_symmetric:
        s_matrix = (s_matrix + s_matrix[::-1, ::-1]) / 2
    return s_matrix / np.sqrt(np.outer(np.diag(s_matrix), np.diag(s_matrix)))


def one_shot_round(s_matrix, p, window, trials, seed):
    """(pick, score) of rounding on this thread alone: the blocks of
    candidates that round_solution signs and scores, cut from one
    (trials, M) draw, with the first maximum kept. The candidates are
    r V^T for V from eigh below M = 256 and r F^T for the dense Cholesky
    factor ``rounding_factor`` from there on."""
    m = len(s_matrix)
    if m >= design._CHOLESKY_MIN_M:
        factor_t = rounding_factor(s_matrix).T
    else:
        lam, vecs = np.linalg.eigh(s_matrix)
        factor_t = (vecs[:, ::-1] * np.sqrt(np.maximum(lam[::-1], 0.0))).T
    r = np.random.default_rng(seed).standard_normal((trials, m))
    b = window.values[:, None] * p
    norm_w = float(window.values @ window.values)
    best, best_score = None, -math.inf
    rows = block_rows(m)
    for start in range(0, trials, rows):
        cands = np.where(r[start : start + rows] @ factor_t >= 0, 1.0, -1.0)
        proj = cands @ b
        scores = norm_w - np.einsum("bk,bk->b", proj, proj)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best, best_score = cands[i], float(scores[i])
    return best, best_score


def draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith("drcw-draws")]


def lead_blocks(m):
    """Blocks the draw thread may hold at M = m."""
    lead_bytes = _LOOKAHEAD_BYTES if m < 2 * sdp._PAIRED_MIN else _PAIRED_LOOKAHEAD_BYTES
    return max(1, lead_bytes // (8 * block_rows(m) * m))


# the real one, for the tests that patch numpy's
DEFAULT_RNG = np.random.default_rng


class RecordedDraws:
    """A generator that draws like default_rng(seed), records the thread of
    each call and raises on its ``fail_at``-th call (never at 0)."""

    def __init__(self, seed, fail_at, threads):
        self.rng, self.fail_at, self.threads = DEFAULT_RNG(seed), fail_at, threads

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.current_thread().name)
        if len(self.threads) == self.fail_at:
            raise ZeroDivisionError("draw failed")
        return self.rng.standard_normal(*args, **kwargs)


# the design every exit-path test repeats afterwards: 8000 trials at M=50
# run past the draw thread's lead of 12 blocks and end in a partial block
NEXT_DESIGN = (50, NullSpec(k0=20), "hamming", 8000, 5)


def next_design():
    m, spec, kind, trials, seed = NEXT_DESIGN
    return design_nm_drcw(m, spec, window_template(kind, m), trials=trials, seed=seed)


@pytest.fixture(scope="module")
def fresh_process_design():
    """NEXT_DESIGN's y and objective as bytes from a fresh interpreter."""
    m, spec, kind, trials, seed = NEXT_DESIGN
    script = (
        "import numpy as np\n"
        "from drcw import NullSpec, design_nm_drcw\n"
        "from drcw.sequences import window_template\n"
        f"r = design_nm_drcw({m}, NullSpec(k0={spec.k0}), window_template({kind!r}, {m}), "
        f"trials={trials}, seed={seed})\n"
        "print(r.y.tobytes().hex(), np.float64(r.rounded_objective).tobytes().hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(drcw.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.split()


def design_bytes(result):
    return [result.y.tobytes().hex(), np.float64(result.rounded_objective).tobytes().hex()]


class TestDrawThread:
    """The rounding normals are drawn on a thread of their own, from the
    design's validated inputs on, at most lead_blocks(M) blocks ahead."""

    @pytest.mark.parametrize("m", [50, 51, 256, 257, 512])
    @pytest.mark.parametrize("case", ["one", "rows-1", "rows", "rows+1", "past-the-lead"])
    def test_pick_equals_the_one_shot_draw(self, m, case):
        # from M = 256 rounding takes a Cholesky factor, so S is positive
        # definite there, one reversal-symmetric and one not
        rows = block_rows(m)
        trials = {
            "one": 1,
            "rows-1": rows - 1,
            "rows": rows,
            "rows+1": rows + 1,
            "past-the-lead": (lead_blocks(m) + 1) * rows + rows // 3,
        }[case]
        p = constraint_basis(NullSpec(k0=8), m)
        window = window_template("hamming", m)
        if m < design._CHOLESKY_MIN_M:
            relaxations = [random_relaxation(m)]
        else:
            relaxations = [gram_relaxation(m, 2 * m, symmetric) for symmetric in (True, False)]
            assert [np.array_equal(s, s[::-1, ::-1]) for s in relaxations] == [True, False]
        for s_matrix in relaxations:
            for seed in (0, 1):
                rounded = round_solution(s_matrix, p, window, trials=trials, seed=seed)
                best, best_score = one_shot_round(s_matrix, p, window, trials, seed)
                assert not rounded.used_rank1_shortcut
                assert np.array_equal(rounded.s, best), seed
                assert rounded.objective == best_score, seed
        assert draw_threads() == []

    @pytest.mark.parametrize("m", [50, 255, 256, 512])
    def test_lead_is_capped_in_whole_blocks(self, m):
        # 3 MiB below M=256, where the solve runs on one thread, and 1 MiB
        # from there on, however many trials
        assert lead_blocks(m) == {50: 12, 255: 12, 256: 4, 512: 2}[m]
        with design._Draws(0, 100 * block_rows(m), m) as draws:

            def drawn():
                return sum(f.done() for f in draws._drawn)

            deadline = time.monotonic() + 30
            while drawn() < lead_blocks(m) and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)  # time enough for a block more, were one queued
            assert drawn() == lead_blocks(m)
            assert len(draws._drawn) == lead_blocks(m)
        assert draw_threads() == []

    def test_next_design_runs_past_the_lead_into_a_partial_block(self):
        m, trials = NEXT_DESIGN[0], NEXT_DESIGN[3]
        assert trials > lead_blocks(m) * block_rows(m)
        assert trials % block_rows(m)

    def test_design_equals_rounding_with_the_plain_seed(self):
        m, spec, kind, trials, seed = NEXT_DESIGN
        window = window_template(kind, m)
        p = constraint_basis(spec, m)
        solution = solve_partition_sdp(quadratic_form(p, window))
        rounded = round_solution(solution.s_matrix, p, window, trials=trials, seed=seed)
        result = next_design()
        assert np.array_equal(result.y, recover_amplitudes(rounded.s, p, window))
        assert result.rounded_objective == rounded.objective
        assert result.sdp_bound == solution.dual_bound

    def test_draws_start_before_the_basis_on_their_own_thread(self, monkeypatch):
        threads, alive = [], []
        basis = design.constraint_basis

        def spy_basis(*args):
            alive.append(len(draw_threads()))
            return basis(*args)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordedDraws(seed, 0, threads))
        monkeypatch.setattr(design, "constraint_basis", spy_basis)
        result = next_design()
        monkeypatch.undo()
        assert alive == [1]
        assert set(threads) == {"drcw-draws_0"}
        assert len(threads) == -(-NEXT_DESIGN[3] // block_rows(NEXT_DESIGN[0]))
        assert design_bytes(result) == design_bytes(next_design())

    @pytest.mark.parametrize(
        "args",
        [
            (10, NullSpec(k0=2), window_template("hamming", 10), 0),
            (1, NullSpec(k0=0), window_template("rectangular", 1), 10),
            (10, NullSpec(k0=2), window_template("hamming", 9), 10),
        ],
        ids=["trials=0", "m=1", "window-mismatch"],
    )
    def test_no_draw_before_validation(self, monkeypatch, args):
        def never(*args):
            raise AssertionError("a draw started before the inputs were validated")

        monkeypatch.setattr(design, "_Draws", never)
        with pytest.raises(ValueError):
            design_nm_drcw(*args[:3], trials=args[3])

    def stall(self):
        # a large-K/M form with a budget far below the 161 iterations it needs
        design_nm_drcw(96, NullSpec(k0=28), window_template("rectangular", 96), trials=200,
                       max_iter=30)

    def raising(self, monkeypatch, name, exc):
        def fail(*args, **kwargs):
            raise exc

        with monkeypatch.context() as mp:
            mp.setattr(design, name, fail)
            next_design()

    def draw_fails(self, monkeypatch, fail_at):
        threads = []
        with monkeypatch.context() as mp:
            mp.setattr(np.random, "default_rng", lambda seed: RecordedDraws(seed, fail_at, threads))
            next_design()

    EXITS = {
        "solver-failure": (SolverFailure, lambda self, mp: self.stall()),
        "budget-value-error": (ValueError, lambda self, mp: design_nm_drcw(
            10, NullSpec(k0=10), window_template("rectangular", 10))),
        "keyboard-interrupt": (KeyboardInterrupt, lambda self, mp: self.raising(
            mp, "solve_partition_sdp", KeyboardInterrupt())),
        "design-failure": (DesignFailure, lambda self, mp: self.raising(
            mp, "recover_amplitudes", DesignFailure("degenerate"))),
        "draw-fails-first": (ZeroDivisionError, lambda self, mp: self.draw_fails(mp, 1)),
        "draw-fails-past-the-lead": (ZeroDivisionError, lambda self, mp: self.draw_fails(
            mp, lead_blocks(50) + 1)),
    }

    @pytest.mark.parametrize("path", sorted(EXITS))
    def test_every_exit_ends_the_draw(self, monkeypatch, fresh_process_design, path):
        expected, run = self.EXITS[path]
        with pytest.raises(expected):
            run(self, monkeypatch)
        assert draw_threads() == []
        assert design_bytes(next_design()) == fresh_process_design
        assert draw_threads() == []

    def test_concurrent_designs(self):
        # more calling threads than cores, switching often: each design has
        # its own draw thread, and each solve its own A- block thread
        args = (256, NullSpec(k0=8), window_template("hamming", 256))
        reference = design_bytes(design_nm_drcw(*args, trials=1000, seed=3))
        results, errors = [], []

        def caller():
            try:
                for _ in range(2):
                    results.append(design_bytes(design_nm_drcw(*args, trials=1000, seed=3)))
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
        assert results == [reference] * 6
        assert draw_threads() == []


class TestCholeskyRounding:
    """From M = 256 rounding draws its candidates from the Cholesky factors
    of S's reversal blocks; below, from eigh."""

    @pytest.mark.parametrize("m", [255, 256])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "reversal-symmetric"])
    def test_rank_deficient_relaxation_is_refused_from_256(self, m, symmetric):
        s_matrix = gram_relaxation(m, m // 4, symmetric)
        assert np.array_equal(s_matrix, s_matrix[::-1, ::-1]) == symmetric
        p = constraint_basis(NullSpec(k0=8), m)
        window = window_template("hamming", m)
        if m < design._CHOLESKY_MIN_M:
            rounded = round_solution(s_matrix, p, window, trials=200, seed=0)
            assert rounded.s.shape == (m,)
        else:
            with pytest.raises(ValueError, match="S must be positive definite"):
                round_solution(s_matrix, p, window, trials=200, seed=0)
        assert draw_threads() == []

    def test_pick_does_not_move_with_roundoff_in_s(self):
        # ROADMAP D6: the S of large-m's M=256 rectangular design has
        # clusters of near-equal eigenvalues, inside which eigh's basis is
        # arbitrary, and there perturbations like these moved the pick in
        # 10 of 10 draws; the Cholesky factor is a continuous function of S
        m = 256
        spec = NullSpec(k0=4, nulls=((0.8 * np.pi, 2),))
        p, window, _, s_matrix = make_case(m, spec, "rectangular")
        rounded = round_solution(s_matrix, p, window, trials=1000, seed=1)
        assert not rounded.used_rank1_shortcut
        for draw in range(10):
            e = np.random.default_rng(draw).standard_normal((m, m))
            e = e + e.T
            e = 1e-14 * (e + e[::-1, ::-1]) / 2
            moved = round_solution(s_matrix + e, p, window, trials=1000, seed=1)
            assert np.array_equal(moved.s, rounded.s), draw


class TestRecoverAmplitudes:
    def test_identity_basis_reproduces_signs(self):
        # no conditions: P has no columns and the projection is the identity
        p = constraint_basis(NullSpec(k0=0), 5)
        window = window_template("rectangular", 5)
        s = np.array([1, -1, 1, 1, -1])
        y = recover_amplitudes(s, p, window)
        assert np.allclose(y, s, atol=1e-12)

    def test_energy_is_always_m(self):
        rng = np.random.default_rng(3)
        for m, k0 in ((6, 2), (20, 7), (50, 20)):
            p = constraint_basis(NullSpec(k0=k0), m)
            window = window_template("hamming", m)
            s = np.where(rng.standard_normal(m) >= 0, 1, -1)
            y = recover_amplitudes(s, p, window)
            assert float(np.sum(y * y)) == pytest.approx(m, abs=1e-8 * m)

    def test_matches_least_squares_oracle(self):
        # project Diag(w) s onto span(A), renormalize: same y up to sign
        p = constraint_basis(NullSpec(k0=1), 3)
        window = window_template("rectangular", 3)
        s = np.array([1, -1, 1])
        y = recover_amplitudes(s, p, window)
        A = convolution_matrix(1, (), 3)
        coeffs, *_ = np.linalg.lstsq(A, window.values * s, rcond=None)
        y_ls = A @ coeffs
        y_ls *= math.sqrt(3) / np.linalg.norm(y_ls)
        assert np.allclose(y, y_ls, atol=1e-10)

    def test_degenerate_window_fails(self):
        # span(A) for (1-z) over m=2 is the difference direction; a constant
        # sign vector under a rectangular window is orthogonal to it
        p = constraint_basis(NullSpec(k0=1), 2)
        window = window_template("rectangular", 2)
        with pytest.raises(DesignFailure, match="orthogonal"):
            recover_amplitudes(np.array([1, 1]), p, window)

    @pytest.mark.parametrize("leak", (1e-6, 1e-8, 1e-10))
    def test_cancellation_keeps_the_nulls(self, leak):
        # w o s almost inside span(P): ||y|| / ||w o s|| is about leak, so a
        # single projection would leave rounding noise along P of relative
        # size 1e-16 / leak in y
        m, spec = 64, NullSpec(k0=20, nulls=((0.8 * math.pi, 4),))
        p = constraint_basis(spec, m)
        rng = np.random.default_rng(0)
        inside = p @ rng.standard_normal(p.shape[1])
        outside = rng.standard_normal(m)
        outside -= p @ (p.T @ outside)
        s = inside / np.linalg.norm(inside) + leak * outside / np.linalg.norm(outside)
        y = recover_amplitudes(s, p, window_template("rectangular", m))
        assert float(np.sum(y * y)) == pytest.approx(m, abs=1e-8 * m)
        assert float(null_moments(y, spec.k0, spec.nulls).max()) <= 1e-8 * m

    def test_large_m_null_moments_by_mpmath(self):
        m, spec = 512, NullSpec(k0=4, nulls=((0.5 * math.pi, 1), (0.8 * math.pi, 1)))
        p = constraint_basis(spec, m)
        s = np.where(np.random.default_rng(11).standard_normal(m) >= 0, 1, -1)
        y = recover_amplitudes(s, p, window_template("hamming", m))
        assert float(np.sum(y * y)) == pytest.approx(m, abs=1e-8 * m)
        assert float(null_moments(y, spec.k0, spec.nulls).max()) <= 1e-8 * m


class TestDesignNmDrcw:
    def test_result_invariants(self):
        spec = NullSpec(k0=6, nulls=((0.6 * math.pi, 2),))
        window = window_template("hamming", 24)
        result = design_nm_drcw(24, spec, window, trials=300, seed=9)
        y = result.y
        assert float(np.sum(y * y)) == pytest.approx(24, abs=1e-8 * 24)
        assert np.array_equal(result.transmit_order * result.weights, y)
        assert np.all(np.abs(result.transmit_order) == 1)
        assert np.all(result.weights >= 0)
        scale = max(1.0, abs(result.sdp_bound))
        assert result.rounded_objective <= result.sdp_bound + 1e-6 * scale
        assert max_null_violation(y, spec) <= 1e-8 * 24

    def test_sdp_bound_is_certified_dual_bound(self):
        m, spec, window = 20, NullSpec(k0=5), window_template("hamming", 20)
        result = design_nm_drcw(m, spec, window, trials=100, seed=0)
        solution = solve_partition_sdp(quadratic_form(constraint_basis(spec, m), window))
        assert result.sdp_bound == solution.dual_bound

    def test_rect_nag_near_zero_at_k0_10(self):
        # with a rectangular template and a mild null the weights stay
        # nearly uniform, so the accumulation loss is a few hundredths of a dB
        result = design_nm_drcw(
            50, NullSpec(k0=10), window_template("rectangular", 50), trials=1000, seed=2020
        )
        w = result.weights
        gain = 10 * math.log10(np.sum(w) ** 2 / (50 * np.sum(w * w)))
        assert gain == pytest.approx(-0.05, abs=0.5)

    def test_full_order_collapses_to_binomial_shape(self):
        # K = m-1 leaves one basis column: |y| must follow binomial weights
        m = 12
        result = design_nm_drcw(
            m, NullSpec(k0=m - 1), window_template("rectangular", m), trials=50, seed=0
        )
        bd = design_bd(m)
        assert np.allclose(result.weights, bd.weights, atol=1e-9)
        signs = result.transmit_order * result.transmit_order[0]
        assert np.array_equal(signs, bd.transmit_order)

    def test_seed_determinism(self):
        spec = NullSpec(k0=4)
        window = window_template("hanning", 16)
        a = design_nm_drcw(16, spec, window, trials=100, seed=77)
        b = design_nm_drcw(16, spec, window, trials=100, seed=77)
        assert np.array_equal(a.y, b.y)
        fields = ("method", "null_spec", "window_kind", "seed", "trials", "rounded_objective",
                  "sdp_bound", "warnings", "solver_trace")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]

    def test_rejects_budget_violation(self):
        with pytest.raises(ValueError, match="K <= M-1"):
            design_nm_drcw(10, NullSpec(k0=10), window_template("rectangular", 10))

    def test_rejects_window_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            design_nm_drcw(10, NullSpec(k0=2), window_template("hamming", 9))


class TestStageStartGuess:
    """Designs whose relaxation accepts the solver's stage-start guess (few
    nulls, K about M/20) keep the design invariants, and so do the large-K/M
    forms, where the guess is refused and stages take the most steps."""

    @pytest.mark.parametrize("kind", ["hamming", "rectangular"])
    @pytest.mark.parametrize("m,k0", [(64, 3), (128, 6), (192, 10)])
    def test_design_invariants(self, monkeypatch, m, k0, kind):
        accepted = []
        guess = sdp._extrapolated_start

        def spy(*args):
            out = guess(*args)
            accepted.append(out is not None)
            return out

        monkeypatch.setattr(sdp, "_extrapolated_start", spy)
        spec, window = NullSpec(k0=k0), window_template(kind, m)
        # design_nm_drcw raises SolverFailure unless the relaxation converged
        result = design_nm_drcw(m, spec, window, trials=200, seed=5)
        assert any(accepted)
        assert result.rounded_objective <= result.sdp_bound
        assert max_null_violation(result.y, spec) <= 1e-8 * m
        again = design_nm_drcw(m, spec, window, trials=200, seed=5)
        assert design_bytes(again) == design_bytes(result)
        assert again.sdp_bound == result.sdp_bound

    @pytest.mark.parametrize(
        "m,k0,kind",
        [
            *((m, round(f * m), w) for m in (96, 128, 192) for f in (0.1, 0.2, 0.3)
              for w in ("hamming", "rectangular")),
            (96, 28, "rectangular"),
            (128, 24, "rectangular"),
            (128, 54, "rectangular"),
            (256, 26, "rectangular"),
        ],
    )
    def test_large_k_over_m_converges(self, m, k0, kind):
        # k0/M from 0.1 to 0.42 at M >= 96: a stage there can need hundreds of
        # Newton steps, and each is centred to completion before t grows
        spec = NullSpec(k0=k0)
        # design_nm_drcw raises SolverFailure unless the relaxation converged
        result = design_nm_drcw(m, spec, window_template(kind, m), trials=200)
        assert result.rounded_objective <= result.sdp_bound
        assert max_null_violation(result.y, spec) <= 1e-8 * m


class TestBaselines:
    def test_bd_is_binomial_expansion(self):
        result = design_bd(4)
        ratios = result.y / result.y[0]
        assert np.allclose(ratios, [1.0, -3.0, 3.0, -1.0], rtol=1e-13)

    @pytest.mark.parametrize("m", [4, 8, 16, 50])
    def test_bd_integer_coefficients_after_rescale(self, m):
        result = design_bd(m)
        rescaled = result.y / result.y[0]
        expected = np.array([(-1) ** j * math.comb(m - 1, j) for j in range(m)], dtype=float)
        assert np.array_equal(np.round(rescaled), expected)
        assert np.max(np.abs(rescaled - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_ptm_moment_conditions(self):
        result = design_ptm(4)
        s = result.y
        assert np.sum(s) == 0
        assert np.sum(np.arange(4) * s) == 0
        # order 8: moments up to p=2 vanish
        s8 = design_ptm(8).y
        for p in range(3):
            assert np.sum(np.arange(8.0) ** p * s8) == 0

    def test_ptm_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            design_ptm(48)

    def test_uniform_gain_is_exactly_zero(self):
        result = design_uniform(17)
        w = result.weights
        assert 10 * math.log10(np.sum(w) ** 2 / (17 * np.sum(w * w))) == 0.0

    def test_alternating_standard_order(self):
        assert design_uniform(4).transmit_order.tolist() == [1, -1, 1, -1]
        assert design_bd(5).transmit_order.tolist() == [1, -1, 1, -1, 1]


class TestLargeNullOrders:
    """Null orders at sizes where an ill-conditioned basis loses the nulls."""

    @pytest.mark.parametrize(
        "m,spec",
        [
            (38, NullSpec(k0=29, nulls=((1.246, 4),))),
            (80, NullSpec(k0=20)),
            (80, NullSpec(k0=30)),
            (100, NullSpec(k0=30)),
            (128, NullSpec(k0=40)),
            (128, NullSpec(k0=60)),
            (192, NullSpec(k0=12)),
            (256, NullSpec(k0=12)),
            (512, NullSpec(k0=10)),
            # a high-order null at zero beside a theta null
            (96, NullSpec(k0=30, nulls=((0.8 * math.pi, 4),))),
            (128, NullSpec(k0=40, nulls=((0.8 * math.pi, 10),))),
            # K = M-1 with roots close together, where the moment vectors
            # x^p, x^p cos(theta m), x^p sin(theta m) are nearly dependent
            (50, NullSpec(k0=45, nulls=((0.1 * math.pi, 2),))),
            (64, NullSpec(k0=1, nulls=((0.5 * math.pi, 31),))),
            (64, NullSpec(k0=41, nulls=((0.3 * math.pi, 5), (0.7 * math.pi, 6)))),
            (21, NullSpec(k0=0, nulls=((1.475, 7), (1.573, 3)))),
        ],
    )
    def test_design_is_divisible(self, m, spec):
        result = design_nm_drcw(m, spec, window_template("hamming", m), trials=200, seed=0)
        rem = division_remainder(result.y, spec.k0, spec.nulls)
        assert float(np.max(np.abs(rem))) <= 1e-8 * m

    @pytest.mark.parametrize("kind", ["rectangular", "hamming"])
    @pytest.mark.parametrize("m", [12, 20, 50])
    def test_null_order_m_minus_1_rounds_its_rank_one_form(self, m, kind):
        # K = M-1 leaves one admissible direction q, so A_tilde = (w o q)(w o q)^T
        # has rank one and a rank-one S attains the relaxation's optimum;
        # rounding takes the same factor path as at any other K
        spec = NullSpec(k0=m - 1)
        result = design_nm_drcw(m, spec, window_template(kind, m), trials=1000, seed=0)
        assert result.rounded_objective <= result.sdp_bound
        assert max_null_violation(result.y, spec) <= 1e-8 * m
        assert [t.name for t in threading.enumerate() if t.name.startswith("drcw-")] == []

    @pytest.mark.parametrize(
        "m,spec",
        [
            (256, NullSpec(k0=60, nulls=((0.8 * math.pi, 10),))),
            (512, NullSpec(k0=100, nulls=((0.8 * math.pi, 10),))),
        ],
    )
    def test_recovered_amplitudes_are_divisible(self, m, spec):
        # sizes where the relaxation itself does not converge yet, so the
        # basis and the recovery are checked on fixed random signs. y is
        # divisible by the annihilator iff its null moments vanish; those
        # take under a second in mpmath here, the remainder of the division
        # half a minute at M=512
        s = np.where(np.random.default_rng(11).standard_normal(m) >= 0, 1, -1)
        y = recover_amplitudes(s, constraint_basis(spec, m), window_template("hamming", m))
        assert float(null_moments(y, spec.k0, spec.nulls).max()) <= 1e-8 * m
