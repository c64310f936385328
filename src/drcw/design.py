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

Baselines: alternating order with binomial weights (order M-1 null at zero
Doppler), the Prouhet-Thue-Morse order with unit weights (order log2(M)
null), and the unweighted alternating train.
"""

from __future__ import annotations

import math
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


class DesignFailure(RuntimeError):
    """Degenerate configuration: no usable design exists for these inputs."""


def _sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with the convention sign(0) = +1, as +/-1 int64."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int64)


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
    scored by one (block x M)(M x K) product before the next is drawn.

    The pick is the first maximum of the computed score, lowest trial index
    first. s and -s, and for persymmetric forms the reversals Js and -Js,
    tie in exact arithmetic, so roundoff in the score settles which of them
    wins. Deterministic given (seed, trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    S = np.asarray(s_matrix, dtype=float)
    M = S.shape[0]
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
    rng = np.random.default_rng(seed)
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * M))
    draws = np.empty((min(rows, trials), M))
    candidates = np.empty_like(draws)
    best, best_score = None, -math.inf
    for start in range(0, trials, rows):
        r, c = draws[: trials - start], candidates[: trials - start]
        rng.standard_normal(out=r)
        np.matmul(r, factor_t, out=c)
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
    Raises SolverFailure when the relaxation does not converge and
    DesignFailure on degenerate amplitude recovery.
    """
    if m < 2:
        raise ValueError(f"pulse count must be >= 2, got {m}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if window.m != m:
        raise ValueError(f"window length {window.m} does not match pulse count {m}")

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
    rounded = round_solution(solution.s_matrix, p, window, trials=trials, seed=seed)
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
