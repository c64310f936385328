"""Waveform design: randomized rounding, amplitude recovery, and the full
transmit-order / receive-weight pipelines.

The designed object is a length-M vector y whose polynomial carries the
requested Doppler nulls, split as transmit order s = sign(y) and receive
weights w = abs(y). The pipeline is

    nulls -> orthonormal basis P of the moment conditions -> quadratic form
          -> SDP relaxation -> randomized rounding -> amplitude recovery,

where rounding extracts a sign vector from the relaxation by Gaussian
hyperplane sampling and amplitude recovery projects the windowed sign
vector onto the null-constrained subspace, the orthogonal complement of P.

The rounding normals depend only on (seed, trials, M), so from the moment
a design's inputs are validated the one worker of the design's own
executor (thread drcw-draws_0) draws them, one block per job, in order from
one default_rng(seed) stream: the draw overlaps the basis, the form and the
relaxation, runs ahead of the rounding's products by at most 3 MiB of
whole blocks (1 MiB from M = 256, where the relaxation's own solve runs
on two threads), and gives bit-for-bit the result of one serial draw. The
executor, shared with no other design or solve, is shut down on every exit.

Baselines: alternating order with binomial weights (order M-1 null at zero
Doppler), the Prouhet-Thue-Morse order with unit weights (order log2(M)
null), and the unweighted alternating train.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .nullspec import NullSpec, constraint_basis, max_null_violation, quadratic_form
from .sdp import _PAIRED_MIN, SolverFailure, _reversal_blocks, solve_partition_sdp
from .sequences import WindowTemplate, binomial_weights, ptm_order


# S is treated as rank one when its top eigenvalue is this many times the rest
RANK1_RATIO = 1e8
# rounding draws, signs and scores its candidates in blocks of this many
# bytes, but of no fewer rows, so large M still gets efficient products
_BLOCK_BYTES = 1 << 18
_MIN_BLOCK_ROWS = 128
# the draw holds at most this many bytes of blocks ahead, and at least
# one block: 12 blocks at M=50. An M=50 design with 10000 trials rounds
# 16 blocks. A lead of 4 (1 MiB) was drawn well before the relaxation was
# solved, and the other 12 blocks after it, 0.6-1.4 ms each on 2 vCPUs
# with one BLAS thread, while the rounding waited; a lead of 8 (2 MiB)
# left the M=50 paper table as slow as 4 did
_LOOKAHEAD_BYTES = 3 << 20
# from M = 2 * _PAIRED_MIN the solve itself runs on both cores, and the
# lead stays at 1 MiB (2 blocks at M=512): 3 MiB made M=256 and M=512
# designs 1.8 % slower on 2 vCPUs and raised their peak memory by 2 MB
_PAIRED_LOOKAHEAD_BYTES = 1 << 20


class DesignFailure(RuntimeError):
    """Degenerate configuration: no usable design exists for these inputs."""


def _sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with the convention sign(0) = +1, as +/-1 int64."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int64)


class _Draws:
    """The rounding normals of (seed, trials, M), the rows of one
    (trials, M) draw from default_rng(seed), drawn in blocks of ``rows``
    rows by the worker of a one-thread executor of their own. At most
    _LOOKAHEAD_BYTES of blocks (_PAIRED_LOOKAHEAD_BYTES from M = 256; at
    least one block) are drawn or queued ahead of ``take``; ``give_back``
    queues the next block into a returned one. Use the object as a context
    manager: its exit cancels the queued blocks and waits for the one being
    drawn, on every exit path."""

    def __init__(self, seed: int, trials: int, m: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * m))
        lead_bytes = _LOOKAHEAD_BYTES if m < 2 * _PAIRED_MIN else _PAIRED_LOOKAHEAD_BYTES
        lead = max(1, lead_bytes // (8 * self.rows * m))
        self._rng = np.random.default_rng(seed)
        self._sizes = (min(self.rows, trials - s) for s in range(0, trials, self.rows))
        self._drawn = deque()
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="drcw-draws")
        # allocated here: blocks allocated on the draw thread, in its own
        # malloc arena, raised the peak memory of M=512 designs further
        for _ in range(min(lead, -(-trials // self.rows))):
            self.give_back(np.empty((min(self.rows, trials), m)))

    def take(self) -> np.ndarray:
        """The next block of normals, in the order of the draw."""
        return self._drawn.popleft().result()

    def give_back(self, block: np.ndarray) -> None:
        """Draw the next block, if any is left, into a taken block."""
        size = next(self._sizes, 0)
        if size:
            self._drawn.append(self._pool.submit(self._rng.standard_normal, out=block[:size]))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class RoundedSolution:
    s: np.ndarray
    objective: float
    used_rank1_shortcut: bool


def round_solution(
    s_matrix: np.ndarray,
    p: np.ndarray,
    window: WindowTemplate,
    trials: int,
    seed: int,
    draws: _Draws | None = None,
) -> RoundedSolution:
    """Extract a sign vector from the relaxation matrix S (M x M) for the
    objective s^T A_tilde s of the basis P (M x K) and window w.

    A_tilde = Diag(w^2) - B B^T with B = Diag(w) P, so every sign vector is
    scored in rank K as ||w||^2 - ||B^T s||^2; the reported objective is
    this score. ``trials`` Gaussian vectors r give the candidates sign(F r),
    sign(0) = +1, for a factor F F^T = S. Below M = 256, F is V from
    ``eigh`` with negative eigenvalues clamped to zero, and if the top
    eigenvalue of S dominates the rest by the factor ``RANK1_RATIO`` the
    leading eigenvector's sign pattern is returned directly. From M = 256
    (2 * sdp._PAIRED_MIN), F comes from the Cholesky factors of S's reversal
    blocks (``_reversal_product``): a fraction of eigh's cost, and continuous
    in S, where eigh's basis inside a cluster of near-equal eigenvalues is
    arbitrary. S must be positive definite there. eigh stays below M = 256
    because the paper's seed-24 table pins the M = 50 picks it gives. The r
    come from one generator seeded by ``seed`` in consecutive blocks of
    256 KB (at least 128 candidates), the same numbers as one (trials, M)
    draw; each block is signed and scored by one (block x M)(M x K) product
    on this thread.

    The blocks are drawn by the worker of a one-thread executor, which
    starts before the factor and stays ahead of the products by at most
    3 MiB of whole blocks, 1 MiB from M = 256. ``draws`` holds that
    executor when the caller has already started the draw for (seed,
    trials, M), as ``design_nm_drcw`` does; the executor is shut down on
    return or raise either way.

    The pick is the first maximum of the computed score, lowest trial index
    first. s and -s, and for persymmetric forms the reversals Js and -Js,
    tie in exact arithmetic, so roundoff in the score settles which of them
    wins. Deterministic given (seed, trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    S = np.asarray(s_matrix, dtype=float)
    M = S.shape[0]
    if draws is None:
        draws = _Draws(seed, trials, M)
    with draws:
        w = window.values
        b = w[:, None] * p
        norm_w = float(w @ w)
        if M >= 2 * _PAIRED_MIN:
            product = _reversal_product(S)
        else:
            lam, vecs = np.linalg.eigh(S)
            lam = lam[::-1]
            vecs = vecs[:, ::-1]

            tail = float(np.sum(lam[1:]))
            if M == 1 or tail <= 0.0 or float(lam[0]) / tail >= RANK1_RATIO:
                s = _sign_pm1(vecs[:, 0])
                proj = b.T @ s
                obj = norm_w - float(proj @ proj)
                return RoundedSolution(s, obj, used_rank1_shortcut=True)

            factor_t = (vecs * np.sqrt(np.maximum(lam, 0.0))).T

            def product(r, c):
                np.matmul(r, factor_t, out=c)

        candidates = np.empty((min(draws.rows, trials), M))
        best, best_score = None, -math.inf
        for _ in range(0, trials, draws.rows):
            r = draws.take()
            c = candidates[: len(r)]
            product(r, c)
            draws.give_back(r)
            c += 0.0  # -0.0 becomes +0.0, so copysign gives sign(0) = +1
            np.copysign(1.0, c, out=c)
            proj = c @ b
            scores = norm_w - np.einsum("bk,bk->b", proj, proj)
            i = int(np.argmax(scores))  # argmax takes the first maximum in the block
            if scores[i] > best_score:  # strict, so an equal later block keeps the pick
                best, best_score = c[i].astype(np.int64), float(scores[i])
    return RoundedSolution(s=best, objective=best_score, used_rank1_shortcut=False)


def _reversal_product(S: np.ndarray):
    """``product(r, c)``, which writes into c candidates with the signs of
    r F^T for a block r of normals and the factor F = Q blockdiag(F+, F-)
    of S = F F^T: Q is the reversal basis of the ``sdp`` module docstring
    and F+, F- are the lower Cholesky factors of S's reversal blocks. With a = r+ F+^T and b = r- F-^T for the first
    ceil(M/2) columns r+ of r and the rest r-, r F^T is (a + b)/sqrt(2) at
    pulse i < floor(M/2), (a - b)/sqrt(2) at pulse M-1-i, and a at the
    centre of an odd M; the 1/sqrt(2) is left out, as it changes no sign.
    An S that is not exactly reversal-symmetric is factored as one block,
    and an S that is not positive definite raises ValueError."""
    blocks = _reversal_blocks(S) if np.array_equal(S, S[::-1, ::-1]) else [S]
    try:
        factors_t = [np.linalg.cholesky(block).T for block in blocks]
    except np.linalg.LinAlgError:
        raise ValueError("relaxation matrix S must be positive definite") from None
    if len(factors_t) == 1:
        return lambda r, c: np.matmul(r, factors_t[0], out=c)
    plus_t, minus_t = factors_t
    k, h = len(plus_t), len(minus_t)

    def product(r, c):
        a = r[:, :k] @ plus_t
        b = r[:, k:] @ minus_t
        np.add(a[:, :h], b, out=c[:, :h])
        np.subtract(a[:, :h], b, out=c[:, k:][:, ::-1])
        c[:, h:k] = a[:, h:]  # the centre pulse of an odd M

    return product


def recover_amplitudes(s_hat, p: np.ndarray, window: WindowTemplate) -> np.ndarray:
    """Optimal admissible amplitudes y = (I - P P^T) Diag(w) s for a fixed
    sign pattern, rescaled to ||y||^2 = M, given the orthonormal basis P
    (m x K) of the moment conditions. The projection is applied twice, so
    cancellation when ||y|| << ||Diag(w) s|| leaves no component along P.
    """
    m = len(p)
    if window.m != m:
        raise ValueError(f"window length {window.m} does not match pulse count {m}")
    s = np.asarray(s_hat, dtype=float)
    if s.shape != (m,):
        raise ValueError(f"sign vector must have shape ({m},)")
    y = window.values * s
    y -= p @ (p.T @ y)
    if np.linalg.norm(y) < 1e-12 * math.sqrt(m):
        raise DesignFailure(
            "window is numerically orthogonal to the signed constraint "
            "subspace; no amplitudes can be recovered"
        )
    y -= p @ (p.T @ y)
    y *= math.sqrt(m) / np.linalg.norm(y)
    return y


@dataclass(frozen=True)
class DesignResult:
    """The designed vector y and how it was made. Transmit order s = sign(y)
    and receive weights w = abs(y) are read off y, so y = s o w."""

    y: np.ndarray
    method: str
    null_spec: NullSpec
    window_kind: str | None = None
    seed: int | None = None
    trials: int | None = None
    rounded_objective: float | None = None
    sdp_bound: float | None = None
    warnings: tuple[str, ...] = ()
    solver_trace: tuple[tuple[int, float, float, float], ...] = field(default=(), repr=False)

    @property
    def m(self) -> int:
        return len(self.y)

    @property
    def transmit_order(self) -> np.ndarray:
        return _sign_pm1(self.y)

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.y)


def design_nm_drcw(
    m: int,
    spec: NullSpec,
    window: WindowTemplate,
    trials: int = 1000,
    seed: int = 0,
    max_iter: int = 5000,
    collect_solver_trace: bool = False,
) -> DesignResult:
    """Null-constrained transmit/receive design via relaxation and rounding.

    Chains constraint basis -> quadratic form -> SDP ->
    rounding -> amplitude recovery; y carries its own sign and magnitude.
    The rounding normals are drawn on a second thread from here on, while
    this thread builds and solves the relaxation (see ``round_solution``);
    that thread's executor is shut down when this returns or raises.
    Raises SolverFailure when the relaxation does not converge and
    DesignFailure on degenerate amplitude recovery.
    """
    if m < 2:
        raise ValueError(f"pulse count must be >= 2, got {m}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if window.m != m:
        raise ValueError(f"window length {window.m} does not match pulse count {m}")

    with _Draws(seed, trials, m) as draws:
        p = constraint_basis(spec, m)
        # rounding scores from P, so nothing holds A_tilde past the solve
        solution = solve_partition_sdp(
            quadratic_form(p, window), max_iter=max_iter, collect_trace=collect_solver_trace
        )
        if not solution.converged:
            raise SolverFailure(
                "relaxation did not converge: gap "
                f"{solution.residuals.duality_gap:.3e} after {solution.iterations} iterations"
            )
        rounded = round_solution(
            solution.s_matrix, p, window, trials=trials, seed=seed, draws=draws
        )
    y = recover_amplitudes(rounded.s, p, window)

    result = DesignResult(
        y=y,
        method="nm_drcw",
        null_spec=spec,
        window_kind=window.kind,
        seed=seed,
        trials=trials,
        rounded_objective=rounded.objective,
        sdp_bound=solution.dual_bound,
        solver_trace=solution.trace,
    )
    violation = max_null_violation(y, spec)
    if violation > 1e-8 * m:
        raise DesignFailure(
            f"designed weights violate the null constraints: residual {violation:.3e}"
        )
    return result


def _alternating(m: int) -> np.ndarray:
    s = np.ones(m, dtype=np.int64)
    s[1::2] = -1
    return s


def _baseline(method: str, m: int, order, weights, k0: int) -> DesignResult:
    """A fixed design y = order(m) o weights(m), nulled to order k0 at 0."""
    if m < 2:
        raise ValueError(f"pulse count must be >= 2, got {m}")
    return DesignResult(y=order(m) * weights(m), method=method, null_spec=NullSpec(k0=k0))


def design_bd(m: int) -> DesignResult:
    """Alternating order with binomial weights: y proportional to the
    coefficients of (1-z)^(M-1), an order-(M-1) null at zero Doppler."""
    return _baseline("bd", m, _alternating, binomial_weights, m - 1)


def design_ptm(m: int) -> DesignResult:
    """Prouhet-Thue-Morse order with unit weights: order log2(M) null."""
    return _baseline("ptm", m, ptm_order, np.ones, m.bit_length() - 1)


def design_uniform(m: int) -> DesignResult:
    """Unweighted alternating train; the accumulation-gain reference."""
    return _baseline("uniform", m, _alternating, np.ones, 1 if m % 2 == 0 else 0)
