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
Hessian is the elementwise square Z^{-1} o Z^{-1}.

Each barrier stage multiplies t by mu = 20 and is centred to completion,
to a Newton decrement^2 below 1e-9, by full Newton steps, each halved only
until every block of Z factors; the stages go on until the certified gap
passes the stopping test. max_iter is the solve's only limit.

To first order the central path is y(t) = y* + d/t, so the last two
centres u_prev and u predict the next as u + (u - u_prev)/mu, the
trajectory extrapolation of Fiacco & McCormick's SUMT (1968). From the
third stage on that guess is factored once: if every block of its Z is
positive definite, the stage starts there, and the guess counts as one
iteration (of max_iter, and a row of the trace); otherwise the stage starts
from the last centre. The guess is only as good as the first-order model.
It is refused where the path bends between stages, which the forms measured
show once the null order K is more than about a tenth of M, every form of
the paper's M = 50 table included; such a solve is bit for bit what it
would be without the guess.

The forms the package builds commute with the reversal J (m -> M-1-m), and
the barrier path of such a form has a reversal-symmetric y, so the solve
runs in blocks. In the orthonormal basis (e_i + e_{M-1-i})/sqrt(2),
(e_i - e_{M-1-i})/sqrt(2), with the centre e_c of an odd M joining the first
kind, A_tilde is blockdiag(A+, A-) of sizes ceil(M/2) and floor(M/2). With
u the first ceil(M/2) entries of y, Z is blockdiag(Diag(u) - A+,
Diag(u[:floor(M/2)]) - A-): -log det Z is the sum over the blocks,
sum(y) = c^T u with c = (2, ..., 2[, 1]), the gradient is t*c minus the
blocks' diag(Z_b^{-1}) and the Hessian is the sum of the blocks'
Z_b^{-1} o Z_b^{-1}, each zero-padded to the size of u. The iterates are
those of the M x M solve at about a quarter of its flops. A form that is
not reversal-symmetric is the one-block case of the same loop, with c = 1.
A form within 1e-8 of reversal symmetry (relative Frobenius norm) is
solved in its reversal average, and M ||(A_tilde - J A_tilde J)/2||_F is
added to the bound: ||S||_F <= tr(S) = M for every feasible S, so the
bound stays certified for A_tilde as passed.

Each centering step costs one Cholesky factor L per block, shared by the
step-length test (which halves the trial step alpha until every block of
Z(alpha) factors) and by Z_b^{-1} = L^{-T} L^{-1}, which is formed from L
with matrix products once every block has factored; plus one ceil(M/2)
solve for the Newton direction. The blocks are held as stacks of equal-size
blocks (one stack of two at even M, a stack of one each at odd M or for a
one-block form), and each stage is one numpy call per stack, which LAPACK
and BLAS run block by block, bit-for-bit as a call on the block alone. When
both blocks have at least _PAIRED_MIN = 128 rows (M >= 256), the one worker
of the solve's own ThreadPoolExecutor (thread drcw-sdp_0) factors
Z_-(alpha) and forms Z_-^{-1} while the calling thread does the same for
Z_+(alpha). Below that size the hand-over costs more than the overlap
saves: all the work stays on the calling thread, and the executor, which
starts its worker on its first job, starts none. No helper is shared
between solves, and the executor is shut down on every exit of its solve.
A block's work is the same operations in the same order on either thread,
and the blocks share nothing they write, so the solve's results are
bit-for-bit those of a one-thread solve.
One O(M) certificate rules out a trial step before it is factored: a
non-positive v^T Z(alpha) v for a column v = Z^{-1} e_i of the current
M x M inverse, which the Newton equation gives for every i at once as
(1 + alpha) Z^{-1}_ii - alpha t, where Z^{-1}_ii is the blocks' diagonal
sum over c. Only the factorization accepts a step; it refuses a
non-positive diagonal entry too, as pivot j is z_jj less a sum of squares.
The primal iterate X = Z^{-1}/t, from the same inverses, is positive
definite by construction, and any dual-feasible y certifies the upper
bound sum(y) >= optimum, so the reported duality gap is certified rather
than heuristic. S is X rescaled to unit diagonal, unconditionally: Z^{-1}
of a Cholesky-accepted Z has a positive diagonal. Problems are normalized
by the Frobenius norm of A_tilde internally, making the solve exactly
scale equivariant.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class SolverFailure(RuntimeError):
    """Solver could not reach the requested tolerance within its budget."""


@dataclass(frozen=True)
class SdpResiduals:
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
_SYMMETRY_TOL = 1e-8  # relative Frobenius deviation taken for roundoff
_TOL = 1e-6  # relative optimality tolerance of the certified duality gap
# blocks of at least this many rows are factored and inverted two at a time:
# on 2 cores with BLAS on one thread, two such blocks took 0.71x the
# one-thread time at 128 rows, 0.90x at 112 and 1.26x at 96, where the
# hand-over costs more than the overlap saves
_PAIRED_MIN = 128


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L, or of each of a stack, by recursive 2 x 2 blocks:
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} (B A^{-1}), C^{-1}]],
    so all but the base blocks' work is matrix products."""
    m = L.shape[-1]
    if m <= _BASE_BLOCK:
        return np.linalg.inv(L)
    h = m // 2
    a_inv = _lower_inverse(L[..., :h, :h])
    c_inv = _lower_inverse(L[..., h:, h:])
    out = np.zeros_like(L)
    out[..., :h, :h] = a_inv
    out[..., h:, h:] = c_inv
    out[..., h:, :h] = -c_inv @ (L[..., h:, :h] @ a_inv)
    return out


def _inverse_from_cholesky(L: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Z^{-1} = L^{-T} L^{-1} for the Cholesky factor L (or each of a stack)
    of a positive definite Z = L L^T, written into ``out`` if given."""
    l_inv = _lower_inverse(L)
    return np.matmul(l_inv.swapaxes(-1, -2), l_inv, out=out)


def _reversal_blocks(a: np.ndarray) -> list[np.ndarray]:
    """The blocks [A+, A-] of the reversal-symmetric ``a`` in the basis of
    the module docstring, by slicing; A- is empty, and left out, at M = 1."""
    m = a.shape[0]
    h = m // 2
    p = m - h
    direct = a[:h, :h]
    cross = a[:h, p:][:, ::-1]  # cross[i, j] = a[i, M-1-j]
    plus = np.empty((p, p))
    plus[:h, :h] = direct + cross
    if p > h:
        centre = np.sqrt(2.0) * a[:h, h]
        plus[:h, h] = plus[h, :h] = centre
        plus[h, h] = a[h, h]
    return [plus, direct - cross] if h else [plus]


def _join(blocks: list[np.ndarray], m: int) -> np.ndarray:
    """The M x M matrix with the given blocks in the basis of the module
    docstring, by slicing: the inverse of ``_reversal_blocks``. A single
    block is the matrix itself."""
    if len(blocks) == 1:
        return blocks[0]
    plus, minus = blocks
    h = m // 2
    p = m - h
    direct = (plus[:h, :h] + minus) / 2.0
    cross = (plus[:h, :h] - minus) / 2.0
    s = np.empty((m, m))
    s[:h, :h] = direct
    s[p:, p:] = direct[::-1, ::-1]
    s[:h, p:] = cross[:, ::-1]
    s[p:, :h] = cross[::-1, :]
    if p > h:
        centre = plus[:h, h] / np.sqrt(2.0)
        s[:h, h] = s[h, :h] = centre
        s[p:, h] = s[h, p:] = centre[::-1]
        s[h, h] = plus[h, h]
    return s


def _blocks(an: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The blocks the solve runs in, largest first, in stacks of equal-size
    blocks, and the widening of the normalized bound that makes it certified
    for ``an``: the reversal blocks of the reversal average if ``an`` is
    reversal-symmetric to _SYMMETRY_TOL, else ``an`` alone."""
    flipped = an[::-1, ::-1]
    drift = float(np.linalg.norm(an - flipped))
    if drift > _SYMMETRY_TOL:
        return [an[np.newaxis]], 0.0
    blocks = _reversal_blocks((an + flipped) / 2.0)
    odd = blocks[0].shape != blocks[-1].shape
    stacks = [b[np.newaxis] for b in blocks] if odd else [np.stack(blocks)]
    return stacks, an.shape[0] * drift / 2.0


def _padded_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Sum of the arrays, each added into the leading corner of the first
    (which it overwrites)."""
    total = parts[0]
    for part in parts[1:]:
        total[tuple(slice(k) for k in part.shape)] += part
    return total


def _diagonal(stacks: list[np.ndarray]) -> np.ndarray:
    """The diagonals of the stacks' blocks summed, zero-padded: c_i times
    the i-th diagonal entry of the M x M matrix they make up."""
    return _padded_sum([w.diagonal(0, -2, -1).sum(0) for w in stacks])


def _inner(stacks: list[np.ndarray], others: list[np.ndarray]) -> float:
    """tr(A B) from the stacks of blocks of A and B, one block at a time."""
    return sum(float(np.vdot(a, b)) for sa, sb in zip(stacks, others) for a, b in zip(sa, sb))


def _block_factor(b: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor of Z_b = Diag(u) - b for the block, or each block
    of the stack, b, or None if one Z_b is not positive definite."""
    k = b.shape[-1]
    z = -b
    z.reshape(-1, k * k)[:, :: k + 1] += u[:k]
    try:
        return np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        return None


def _on_two_threads(pool, fn, here: tuple, there: tuple) -> list:
    """[fn(*here), fn(*there)], the second call on ``pool``'s thread while
    this thread makes the first."""
    future = pool.submit(fn, *there)
    try:
        first = fn(*here)
    finally:
        # the pool's call ends before this returns or raises
        second = future.result()
    return [first, second]


def _inverses(pool, stacks: list[np.ndarray], u: np.ndarray) -> list[np.ndarray] | None:
    """The stacks of blocks of Z^{-1} for Z = Diag(u) - A_tilde, or None if
    a block of Z is not positive definite. Every block is factored before
    any is inverted, so a trial step that fails costs no inverse. Two blocks
    of at least _PAIRED_MIN rows are factored, then inverted, on this thread
    and the thread of the one-worker ``pool``; otherwise the stacks are, one
    call each, in order on this thread, and the first that fails ends it."""
    blocks = [b for s in stacks for b in s]
    if len(blocks) < 2 or blocks[1].shape[0] < _PAIRED_MIN:
        factors = []
        for s in stacks:
            factors.append(_block_factor(s, u))
            if factors[-1] is None:
                return None
        return [_inverse_from_cholesky(L) for L in factors]
    factors = _on_two_threads(pool, _block_factor, (blocks[0], u), (blocks[1], u))
    if any(L is None for L in factors):
        return None
    # the inverses outlive the step, so this thread allocates them: what the
    # pool's thread allocates is freed within the step, so its heap stays small
    out = [np.empty_like(s) for s in stacks]
    here, there = [w for s in out for w in s]
    _on_two_threads(pool, _inverse_from_cholesky, (factors[0], here), (factors[1], there))
    return out


def _extrapolated_start(
    pool, stacks: list[np.ndarray], u: np.ndarray, centre: np.ndarray, mu: float
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """The next stage's centre as the central path predicts it from the last
    two, u + (u - centre) / mu, with its inverses, or None if a block of Z
    is not positive definite there."""
    guess = u + (u - centre) / mu
    inverses = _inverses(pool, stacks, guess)
    return None if inverses is None else (guess, inverses)


def solve_partition_sdp(a_tilde, max_iter: int = 5000, collect_trace: bool = False) -> SdpSolution:
    """Solve max tr(A_tilde S) s.t. diag(S) = 1, S PSD.

    Parameters
    ----------
    a_tilde : (M, M) array
        Symmetric objective matrix. Symmetry deviation beyond
        1e-8 * ||A_tilde|| is rejected.
    max_iter : int
        The solve's only budget, of iterations: Newton steps, and the
        stage-start guesses of the module docstring that are accepted.
        Every stage is centred to decrement^2 < 1e-9 however many steps
        that takes, and stages go on until the gap test passes, unless the
        budget ends first. On exhaustion the last iterate is returned with
        ``converged`` False; otherwise the certified duality gap is at most
        _TOL = 1e-6 times the problem scale.

    The returned matrix has exactly unit diagonal (always rescaled at the
    end) and is positive definite up to roundoff. A converged solve stops at
    t* = 20^5/rho, rho the spectral radius of An = A_tilde/||A_tilde||_F,
    and its S is within 1e-7 entrywise of the unit-diagonal rescaling of
    Z(y*)^{-1}, y* the minimizer of t* sum(y) - log det(Diag(y) - An).
    Identical inputs give identical outputs under the same BLAS thread
    count; across counts the bits can differ, as README measures from
    M = 192 up.

    Each Newton step costs one ceil(M/2) solve (M for a form that is not
    reversal-symmetric) and one Cholesky factor per stack of blocks of
    Z = Diag(y) - A_tilde at the accepted step, from which Z^{-1} is formed,
    on two threads from M = 256 (module docstring). The step is halved
    until the factorization accepts it, which it does: H is positive
    definite once every block has factored, so the direction is finite; the
    column certificate holds as the step goes to 0; and a step too small to
    move u tries the current Z, which has factored. From the third barrier
    stage on, one more factorization tries the extrapolated centre as the
    stage's start; where K/M is large it is refused, and the stage starts
    from the last centre as it would without it.
    """
    A = np.asarray(a_tilde, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"a_tilde must be square, got shape {A.shape}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    M = A.shape[0]
    norm = float(np.linalg.norm(A))
    if norm > 0 and float(np.max(np.abs(A - A.T))) > _SYMMETRY_TOL * norm:
        raise ValueError("a_tilde is not symmetric")

    if norm == 0.0:
        return SdpSolution(np.eye(M), 0.0, 0.0, SdpResiduals(0.0), iterations=0, converged=True)

    # normalized problem: exact scale equivariance of the whole solve
    stacks, shift = _blocks((A + A.T) / (2.0 * norm))
    # c_i: the entries of y that u_i stands for
    c = _padded_sum([np.full(s.shape[-1], float(len(s))) for s in stacks])
    lam = [np.linalg.eigvalsh(s) for s in stacks]
    lam_min = min(float(np.min(v[:, 0])) for v in lam)
    lam_max = max(float(np.max(v[:, -1])) for v in lam)
    spectral = max(abs(lam_min), abs(lam_max))
    scale = spectral * M  # problem-size proxy, invariant under rescaling

    u = (lam_max + 1.0) * np.ones(len(c))
    t = 1.0 / spectral
    mu = 20.0
    iterations = 0
    trace_rows: list[tuple[int, float, float, float]] = []
    centre = start = None
    with ThreadPoolExecutor(1, thread_name_prefix="drcw-sdp") as pool:
        inverses = _inverses(pool, stacks, u)
        zinv_diag = _diagonal(inverses)
        while True:
            # Newton centering at the current t, to completion
            while True:
                if start is not None:
                    # the accepted stage-start guess is this stage's first
                    # iterate; no Newton decrement has been taken there
                    u, inverses = start
                    start = None
                    decrement2 = np.inf
                else:
                    g = t * c - zinv_diag
                    # positive definite by the Schur product theorem; the blocks'
                    # squares added as slabs: a sum over the stack's first axis
                    # took 1.8x as long at 256 rows per block
                    H = _padded_sum([sq for w in inverses for sq in w * w])
                    du = -np.linalg.solve(H, g)
                    decrement2 = float(-g @ du)
                    zinv_min = float((zinv_diag / c).min())
                    step = 1.0
                    while True:
                        # the column certificate of the module docstring
                        if (1.0 + step) * zinv_min > step * t:
                            trial = _inverses(pool, stacks, u + step * du)
                            if trial is not None:
                                inverses = trial
                                break
                        step *= 0.5
                    u = u + step * du
                iterations += 1
                # the inverses of the step the factorization accepted, which
                # the stage's end values and the next Newton step use
                zinv_diag = _diagonal(inverses)
                if collect_trace:
                    # the trace only observes: none of its values reaches the iterate
                    p = _inner(stacks, inverses) / t
                    diag_res = float(np.max(np.abs(zinv_diag / (c * t) - 1.0)))
                    trace_rows.append((iterations, p * norm, (float(c @ u) - p) * norm, diag_res))
                if decrement2 < 1e-9 or iterations >= max_iter:
                    break
            pobj = _inner(stacks, inverses) / t
            dobj = float(c @ u)
            # each stage takes at least one iteration, so the budget bounds this loop
            converged = dobj - pobj <= 0.5 * _TOL * max(scale, abs(pobj))
            if converged or iterations >= max_iter:
                break
            t *= mu
            # from the third stage on, try the central path's extrapolation
            if centre is not None:
                start = _extrapolated_start(pool, stacks, u, centre, mu)
            centre = u

    X = [w / t for w in inverses]
    # exact unit diagonal; a congruence with a positive diagonal matrix
    # preserves positive definiteness, and a reversal-symmetric one acts on
    # each block by its leading corner
    d = _diagonal(X) / c
    dm = 1.0 / np.sqrt(d)
    X = [x * np.outer(dm[: x.shape[-1]], dm[: x.shape[-1]]) for x in X]
    pobj = _inner(stacks, X)
    dobj += shift
    gap = dobj - pobj

    S = _join([x for stack in X for x in stack], M)
    np.fill_diagonal(S, 1.0)
    converged = converged and gap <= _TOL * max(scale, abs(pobj))
    return SdpSolution(
        s_matrix=S,
        objective=pobj * norm,
        dual_bound=dobj * norm,
        residuals=SdpResiduals(duality_gap=gap * norm),
        iterations=iterations,
        converged=converged,
        trace=tuple(trace_rows),
    )
