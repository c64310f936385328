"""Solver for the unit-diagonal semidefinite relaxation

    maximize    tr(A_tilde S)
    subject to  diag(S) = 1,  S >= 0 (PSD).

This is the relaxation of two-way partitioning: the binary problem
max s^T A_tilde s over s in {-1,+1}^M replaces s s^T with a PSD matrix of
unit diagonal, so the relaxed optimum upper-bounds every sign vector.

The implementation is a barrier interior-point method on the dual

    minimize    sum(y)
    subject to  Diag(y) - A_tilde >= 0,

whose Newton machinery is tiny for this constraint structure: with
Z = Diag(y) - A_tilde, the barrier gradient is t*1 - diag(Z^{-1}) and the
Hessian is the elementwise square Z^{-1} o Z^{-1}. Each centering step costs
one Cholesky factor L of Z, shared by the step-length test (which halves
the trial step alpha until Z(alpha) = Diag(y + alpha dy) - A_tilde factors)
and by Z^{-1} = L^{-T} L^{-1}, which is formed from L with matrix products;
plus one M x M solve for the Newton direction. Two O(M) certificates rule
out a trial step before it is factored, since each shows Z(alpha)
indefinite: a non-positive diagonal entry of Z(alpha), which bounds every
Cholesky pivot, and a non-positive v^T Z(alpha) v for a column v = Z^{-1} e_i
of the current inverse, which the Newton equation gives for every i at
once as (1 + alpha) Z^{-1}_ii - alpha t. Only the factorization accepts a
step. The primal iterate X = Z^{-1}/t, from the same inverse, is positive
definite by construction, and any dual-feasible y certifies the upper bound
sum(y) >= optimum, so the reported duality gap is certified rather than
heuristic. Problems are normalized by the Frobenius norm of A_tilde
internally, making the solve exactly scale equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverFailure(RuntimeError):
    """Solver could not reach the requested tolerance within its budget."""


@dataclass(frozen=True)
class SdpResiduals:
    diag_deviation: float
    min_eigenvalue: float
    duality_gap: float


@dataclass(frozen=True)
class SdpSolution:
    """Relaxation solution S with certified optimality information.

    ``objective`` is tr(A_tilde S) for the (feasible) primal matrix S;
    ``dual_bound`` is the certified upper bound sum(y) from the dual
    feasible point, so dual_bound - objective bounds the suboptimality.
    """

    s_matrix: np.ndarray
    objective: float
    dual_bound: float
    residuals: SdpResiduals
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float, float, float], ...] = ()


_BASE_BLOCK = 64  # LAPACK inverts blocks up to this size; 32 measured the same


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L by recursive 2 x 2 blocks:
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} (B A^{-1}), C^{-1}]],
    so all but the base blocks' work is matrix products."""
    m = L.shape[0]
    if m <= _BASE_BLOCK:
        return np.linalg.inv(L)
    h = m // 2
    a_inv = _lower_inverse(L[:h, :h])
    c_inv = _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -c_inv @ (L[h:, :h] @ a_inv)
    return out


def _inverse_from_cholesky(L: np.ndarray) -> np.ndarray:
    """Z^{-1} = L^{-T} L^{-1} for the Cholesky factor L of a positive
    definite Z = L L^T."""
    l_inv = _lower_inverse(L)
    return l_inv.T @ l_inv


def _certificates_pass(z_diag: np.ndarray, zinv_min: float, step: float, t: float) -> bool:
    """False if a certificate of the module docstring shows the trial
    Z(step) indefinite: ``z_diag`` is its diagonal, ``zinv_min`` is
    min_i Z^{-1}_ii at the current Z, and ``t`` is the barrier parameter of
    the Newton equation that gave the step direction."""
    return bool(np.min(z_diag) > 0 and (1.0 + step) * zinv_min > step * t)


def solve_partition_sdp(
    a_tilde,
    tol: float = 1e-6,
    max_iter: int = 5000,
    collect_trace: bool = False,
) -> SdpSolution:
    """Solve max tr(A_tilde S) s.t. diag(S) = 1, S PSD.

    Parameters
    ----------
    a_tilde : (M, M) array
        Symmetric objective matrix. Symmetry deviation beyond
        1e-8 * ||A_tilde|| is rejected.
    tol : float
        Relative optimality tolerance in (0, 1e-2]. The certified duality
        gap at return is at most tol times the problem scale.
    max_iter : int
        Budget of Newton steps. On exhaustion the best iterate is returned
        with ``converged`` False.

    The returned matrix has exactly unit diagonal (rescaled at the end) and
    is positive definite up to roundoff. Deterministic: identical inputs
    produce identical outputs.

    Each Newton step costs one M x M solve and one Cholesky factor of
    Z = Diag(y) - A_tilde at the accepted step, from which Z^{-1} is
    formed. A trial step is factored only if neither O(M) certificate
    (Z's diagonal there, and Z's quadratic form there along each column of
    the current Z^{-1}) shows it indefinite; the factorization alone
    accepts a step.
    """
    A = np.asarray(a_tilde, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"a_tilde must be square, got shape {A.shape}")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    M = A.shape[0]
    norm = float(np.linalg.norm(A))
    if norm > 0 and float(np.max(np.abs(A - A.T))) > 1e-8 * norm:
        raise ValueError("a_tilde is not symmetric")
    A = (A + A.T) / 2.0

    if norm == 0.0:
        s = np.eye(M)
        res = SdpResiduals(diag_deviation=0.0, min_eigenvalue=1.0, duality_gap=0.0)
        return SdpSolution(s, 0.0, 0.0, res, iterations=0, converged=True)

    # normalized problem: exact scale equivariance of the whole solve
    An = A / norm
    diag_an = np.diag(An)
    lam = np.linalg.eigvalsh(An)
    spectral = float(max(abs(lam[0]), abs(lam[-1])))
    scale = spectral * M  # problem-size proxy, invariant under rescaling
    ones = np.ones(M)

    y = (float(lam[-1]) + 1.0) * ones
    t = 1.0 / spectral
    mu = 20.0
    iterations = 0
    trace_rows: list[tuple[int, float, float, float]] = []
    X = np.eye(M)
    gap = np.inf
    pobj = 0.0
    dobj = float(np.sum(y))

    exhausted = False
    L = np.linalg.cholesky(np.diag(y) - An)
    Zinv = _inverse_from_cholesky(L)
    for _stage in range(120):
        # Newton centering at the current t
        for _ in range(80):
            zinv_diag = np.diag(Zinv)
            g = t * ones - zinv_diag
            H = Zinv * Zinv
            try:
                dy = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                dy = -np.linalg.solve(H + 1e-14 * np.eye(M), g)
            decrement2 = float(-g @ dy)
            zinv_min = float(np.min(zinv_diag))
            step = 1.0
            for _bt in range(70):
                y_trial = y + step * dy
                if _certificates_pass(y_trial - diag_an, zinv_min, step, t):
                    try:
                        L = np.linalg.cholesky(np.diag(y_trial) - An)
                        break
                    except np.linalg.LinAlgError:
                        pass
                step *= 0.5
            else:
                # L is still the factor of the unchanged Z
                step = 0.0
            y = y + step * dy
            iterations += 1
            # one inverse per iterate, from the factor the step test accepted:
            # the primal X_i = Z^{-1}/t below and the next Newton step both
            # use it
            Zinv = _inverse_from_cholesky(L)
            done = decrement2 < 1e-9 or iterations >= max_iter
            if collect_trace or done:
                # the trace only observes: its values reach the iterate state
                # (and so the stopping test) only where an untraced solve
                # would compute them too
                X_i = Zinv / t
                pobj_i = float(np.sum(An * X_i))
                dobj_i = float(np.sum(y))
                if collect_trace:
                    diag_res = float(np.max(np.abs(np.diag(X_i) - 1.0)))
                    trace_rows.append((iterations, pobj_i * norm, (dobj_i - pobj_i) * norm, diag_res))
            if done:
                X, pobj, dobj, gap = X_i, pobj_i, dobj_i, dobj_i - pobj_i
                break
        if gap <= 0.5 * tol * max(scale, abs(pobj)):
            break
        if iterations >= max_iter:
            exhausted = True
            break
        t *= mu

    # exact unit diagonal; a congruence with a positive diagonal matrix
    # preserves positive definiteness
    d = np.diag(X).copy()
    if np.min(d) > 0:
        dm = 1.0 / np.sqrt(d)
        X = X * np.outer(dm, dm)
        np.fill_diagonal(X, 1.0)
        pobj = float(np.sum(An * X))
        gap = dobj - pobj

    objective = pobj * norm
    dual_bound = dobj * norm
    diag_dev = float(np.max(np.abs(np.diag(X) - 1.0)))
    min_eig = float(np.linalg.eigvalsh(X)[0])
    converged = (not exhausted) and gap <= tol * max(scale, abs(pobj))
    res = SdpResiduals(
        diag_deviation=diag_dev,
        min_eigenvalue=min_eig,
        duality_gap=gap * norm,
    )
    return SdpSolution(
        s_matrix=X,
        objective=objective,
        dual_bound=dual_bound,
        residuals=res,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace_rows),
    )
