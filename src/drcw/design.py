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
relaxation, runs ahead of the rounding's products by at most 1 MiB of
whole blocks, and gives bit-for-bit the result of one serial draw. The
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
from .sdp import SolverFailure, solve_partition_sdp
from .sequences import WindowTemplate, binomial_weights, ptm_order


# S is treated as rank one when its top eigenvalue is this many times the rest
RANK1_RATIO = 1e8
# rounding draws, signs and scores its candidates in blocks of this many
# bytes, but of no fewer rows, so large M still gets efficient products
_BLOCK_BYTES = 1 << 18
_MIN_BLOCK_ROWS = 128
# the draw holds at most this many bytes of blocks ahead, and at least
# one block: 4 blocks at M=50, 2 at M=512. A longer lead overlaps little
# more of an M=50 design and costs peak memory
_LOOKAHEAD_BYTES = 1 << 20


class DesignFailure(RuntimeError):
    """Degenerate configuration: no usable design exists for these inputs."""


def _sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with the convention sign(0) = +1, as +/-1 int64."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int64)


class _Draws:
    """The rounding normals of (seed, trials, M), the rows of one
    (trials, M) draw from default_rng(seed), drawn in blocks of ``rows``
    rows by the worker of a one-thread executor of their own. At most
    _LOOKAHEAD_BYTES of blocks (at least one) are drawn or queued ahead of
    ``take``; ``give_back`` queues the next block into a returned one. Use
    the object as a context manager: its exit cancels the queued blocks and
    waits for the one being drawn, on every exit path."""

    def __init__(self, seed: int, trials: int, m: int):
        self.rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * m))
        lead = max(1, _LOOKAHEAD_BYTES // (8 * self.rows * m))
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
    clamped_eigenvalues: bool


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
    this score. If the top eigenvalue of S dominates the rest by the factor
    ``RANK1_RATIO`` the solution is treated as rank one and the leading
    eigenvector's sign pattern is returned directly. Otherwise S is factored
    as V V^T from ``eigh`` and ``trials`` Gaussian vectors r give the
    candidates sign(V r), sign(0) = +1. The r come from one generator seeded
    by ``seed`` in consecutive blocks of 256 KB (at least 128 candidates),
    the same numbers as one (trials, M) draw; each block is signed and
    scored by one (block x M)(M x K) product on this thread.

    The blocks are drawn by the worker of a one-thread executor, which
    starts before ``eigh`` and stays ahead of the products by at most 1 MiB
    of whole blocks. ``draws`` holds that executor when the caller has
    already started the draw for (seed, trials, M), as ``design_nm_drcw``
    does; the executor is shut down on return or raise either way.

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
        lam, vecs = np.linalg.eigh(S)
        lam = lam[::-1]
        vecs = vecs[:, ::-1]

        clamped = bool(lam[-1] < -1e-8 * max(1.0, float(lam[0])))
        tail = float(np.sum(lam[1:]))
        if M == 1 or tail <= 0.0 or float(lam[0]) / tail >= RANK1_RATIO:
            s = _sign_pm1(vecs[:, 0])
            proj = b.T @ s
            obj = norm_w - float(proj @ proj)
            return RoundedSolution(s, obj, used_rank1_shortcut=True, clamped_eigenvalues=clamped)

        factor_t = (vecs * np.sqrt(np.maximum(lam, 0.0))).T
        candidates = np.empty((min(draws.rows, trials), M))
        best, best_score = None, -math.inf
        for _ in range(0, trials, draws.rows):
            r = draws.take()
            c = candidates[: len(r)]
            np.matmul(r, factor_t, out=c)
            draws.give_back(r)
            c += 0.0  # -0.0 becomes +0.0, so copysign gives sign(0) = +1
            np.copysign(1.0, c, out=c)
            proj = c @ b
            scores = norm_w - np.einsum("bk,bk->b", proj, proj)
            i = int(np.argmax(scores))  # argmax takes the first maximum in the block
            if scores[i] > best_score:  # strict, so an equal later block keeps the pick
                best, best_score = c[i].astype(np.int64), float(scores[i])
    return RoundedSolution(
        s=best,
        objective=best_score,
        used_rank1_shortcut=False,
        clamped_eigenvalues=clamped,
    )


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

    warnings = []
    if rounded.clamped_eigenvalues:
        warnings.append("relaxation matrix had eigenvalues clamped to zero for rounding")

    result = DesignResult(
        y=y,
        method="nm_drcw",
        null_spec=spec,
        window_kind=window.kind,
        seed=seed,
        trials=trials,
        rounded_objective=rounded.objective,
        sdp_bound=solution.dual_bound,
        warnings=tuple(warnings),
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
