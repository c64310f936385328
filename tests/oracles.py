"""Independent brute-force oracles used across the test suite.

Everything here is written the slow, obvious way on purpose: plain Python
loops and exhaustive enumeration, sharing no code path with the package.
The null-order oracles work in mpmath at a precision set from the problem
size, so float64 conditioning never enters them.
"""

import itertools
import math

import mpmath
import numpy as np


def acf_direct(seq):
    """Shift-multiply-sum autocorrelation, lags -(n-1)..(n-1)."""
    n = len(seq)
    out = []
    for k in range(-(n - 1), n):
        total = 0
        for i in range(n):
            j = i + k
            if 0 <= j < n:
                total += seq[i] * seq[j]
        out.append(total)
    return np.array(out)


def convolve_direct(a, b):
    """Schoolbook linear convolution."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return np.array(out)


def all_sign_vectors(m):
    """Every vector in {-1, +1}^m as a (2^m, m) array."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


def brute_force_partition_max(at):
    """Exhaustive maximum of s^T At s over sign vectors; (value, argmax)."""
    best_val = -math.inf
    best_s = None
    for s in all_sign_vectors(at.shape[0]):
        val = float(s @ at @ s)
        if val > best_val:
            best_val = val
            best_s = s
    return best_val, best_s


def caf_triple_loop(s, w, x1, x2, thetas):
    """Direct evaluation of the composite ambiguity: for each pulse m the
    transmitted sequence is x1 if s_m = +1 else x2, each pulse's
    autocorrelation is weighted by w_m and phase-ramped by e^{j theta m}."""
    n = len(x1)
    m_count = len(s)
    lags = range(-(n - 1), n)
    out = np.zeros((2 * n - 1, len(thetas)), dtype=complex)
    acfs = {1: acf_direct(x1), -1: acf_direct(x2)}
    for ti, theta in enumerate(thetas):
        for li, k in enumerate(lags):
            total = 0.0 + 0.0j
            for m in range(m_count):
                r = acfs[int(s[m])][li]
                total += w[m] * r * complex(math.cos(theta * m), math.sin(theta * m))
            out[li, ti] = total
    return out


def doppler_factors_direct(y, w, thetas):
    """F, G and G_ref = sum_m {y_m, w_m, 1} e^{j theta m} at arbitrary
    Doppler shifts, accumulated one pulse at a time; the rows of a
    (3, len(thetas)) array."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros((3, thetas.size), dtype=complex)
    for m, (ym, wm) in enumerate(zip(y, w)):
        carrier = np.exp(1j * thetas * m)
        out[0] += ym * carrier
        out[1] += wm * carrier
        out[2] += carrier
    return out


def gram_schmidt_columns(a):
    """Classic Gram-Schmidt orthonormalization of the columns of a."""
    a = np.array(a, dtype=float)
    cols = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for q in cols:
            v -= (q @ v) * q
        v /= np.linalg.norm(v)
        cols.append(v)
    return np.column_stack(cols)


def _mp_convolve(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _digits(k0, nulls, m):
    """Working precision for size-m problems of null order K. The Gram
    matrix of the convolution matrix has condition number up to about
    4^K m^(2K); this covers that with 30 digits to spare."""
    order = k0 + 2 * sum(k for _, k in nulls)
    return 30 + int(order * (2 * math.log10(max(m, 2)) + 1))


def annihilator(k0, nulls=()):
    """Ascending mpmath coefficients of (1 - z)^k0 prod (1 - 2 z cos t + z^2)^k,
    at the current mpmath precision."""
    a = [mpmath.mpf(1)]
    for _ in range(k0):
        a = _mp_convolve(a, [1, -1])
    for theta, k in nulls:
        c = mpmath.cos(mpmath.mpf(float(theta)))
        for _ in range(k):
            a = _mp_convolve(a, [1, -2 * c, 1])
    return a


def convolution_matrix(k0, nulls, m):
    """The m x (m-K) float64 matrix A with A b = annihilator (x) b."""
    with mpmath.workdps(_digits(k0, nulls, m)):
        a = [float(c) for c in annihilator(k0, nulls)]
    K = len(a) - 1
    A = np.zeros((m, m - K))
    for j in range(m - K):
        A[j : j + K + 1, j] = a
    return A


def division_remainder(y, k0, nulls=()):
    """Minimum-norm remainder of y modulo the annihilator: y minus its
    orthogonal projection onto {annihilator (x) b}, as float64.

    Solves the banded normal equations (A^T A) x = A^T y by a banded
    Cholesky factorization in mpmath and returns y - A x. Naive long
    division would be meaningless: dividing by a polynomial with
    high-multiplicity unit-circle roots amplifies any rounding in y by the
    inverse filter's growth.
    """
    m = len(y)
    with mpmath.workdps(_digits(k0, nulls, m)):
        a = annihilator(k0, nulls)
        K = len(a) - 1
        if K > m - 1:
            raise ValueError("null order exceeds sequence length budget")
        if K == 0:
            return np.zeros(m)
        y = [mpmath.mpf(float(v)) for v in y]
        n = m - K
        # A^T A is banded Toeplitz: entry (i, j) is r[|i - j|], zero beyond K
        r = [sum(a[l] * a[l + d] for l in range(K + 1 - d)) for d in range(K + 1)]
        rhs = [sum(a[l] * y[j + l] for l in range(K + 1)) for j in range(n)]
        # lower Cholesky factor, L[i][d] = L(i, i - d) for d <= K; the inner
        # sums are mpmath.fdot, which skips the temporaries of sum(a * b)
        L = [[mpmath.mpf(0)] * (K + 1) for _ in range(n)]
        for i in range(n):
            for d in range(min(i, K), 0, -1):
                j = i - d
                t = min(j, K - d)
                acc = r[d] - mpmath.fdot(L[i][d + 1 : d + 1 + t], L[j][1 : t + 1])
                L[i][d] = acc / L[j][0]
            row = L[i][1 : min(i, K) + 1]
            L[i][0] = mpmath.sqrt(r[0] - mpmath.fdot(row, row))
        z = [mpmath.mpf(0)] * n
        for i in range(n):
            acc = rhs[i] - mpmath.fdot((L[i][d], z[i - d]) for d in range(1, min(i, K) + 1))
            z[i] = acc / L[i][0]
        x = [mpmath.mpf(0)] * n
        for i in range(n - 1, -1, -1):
            terms = ((L[i + d][d], x[i + d]) for d in range(1, min(n - 1 - i, K) + 1))
            x[i] = (z[i] - mpmath.fdot(terms)) / L[i][0]
        ax = _mp_convolve(a, x)
        return np.array([float(yi - axi) for yi, axi in zip(y, ax)])


def null_moments(y, k0, nulls=()):
    """Scaled null moments |sum_n (n/m)^p y_n e^{j theta n}| in mpmath: order
    p < k0 at theta = 0 and p < k at each (theta, k)."""
    m = len(y)
    with mpmath.workdps(50):
        y = [mpmath.mpf(float(v)) for v in y]
        scaled = [mpmath.mpf(n) / m for n in range(m)]
        out = []
        for theta, k in [(0.0, k0)] + list(nulls):
            carrier = [mpmath.expj(mpmath.mpf(float(theta)) * n) for n in range(m)]
            for p in range(k):
                total = mpmath.fsum(s**p * yn * c for s, yn, c in zip(scaled, y, carrier))
                out.append(float(abs(total)))
        return np.array(out)


def run_walk(ok, i):
    """Ends (lo, hi) of the run of True entries of ``ok`` grown outward from
    index i, one entry at a time; ok[i] itself is not read."""
    lo = hi = i
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    while hi + 1 < len(ok) and ok[hi + 1]:
        hi += 1
    return lo, hi


def inverses_per_block(blocks, u, base_block=64):
    """Z_b^{-1} for each Z_b = Diag(u[:k]) - b, one block at a time: every
    block's Cholesky factor L first, then each L^{-1} by recursive 2 x 2
    blocks down to LAPACK inverses of at most ``base_block`` rows, then
    L^{-T} L^{-1}. None, with nothing inverted, if a Z_b is not positive
    definite. The same operations as the solver's step, called once per
    block, so the solver's results must equal these bit for bit."""
    factors = []
    for b in blocks:
        k = b.shape[0]
        z = -b
        z.flat[:: k + 1] += u[:k]
        try:
            factors.append(np.linalg.cholesky(z))
        except np.linalg.LinAlgError:
            return None

    def lower_inverse(L):
        m = L.shape[0]
        if m <= base_block:
            return np.linalg.inv(L)
        h = m // 2
        a_inv = lower_inverse(L[:h, :h])
        c_inv = lower_inverse(L[h:, h:])
        out = np.zeros_like(L)
        out[:h, :h] = a_inv
        out[h:, h:] = c_inv
        out[h:, :h] = -c_inv @ (L[h:, :h] @ a_inv)
        return out

    inverses = []
    for L in factors:
        l_inv = lower_inverse(L)
        inverses.append(l_inv.T @ l_inv)
    return inverses


def diagonal_certificate(stacks, u):
    """False if a block of Z = Diag(u) - A_b, over the stacks of blocks A_b,
    has a diagonal entry that is not positive, read one entry at a time.
    The solver leaves this test of a trial step to the Cholesky factor,
    whose pivot j is z_jj less a sum of squares."""
    for stack in stacks:
        for b in stack:
            for j in range(b.shape[0]):
                if not u[j] - b[j, j] > 0:
                    return False
    return True


def reversal_basis(m):
    """The orthogonal M x M matrix Q whose columns are the reversal basis,
    written entry by entry: column i < floor(M/2) is (e_i + e_{M-1-i})/sqrt(2),
    the centre e_c of an odd M comes next, then column ceil(M/2) + i is
    (e_i - e_{M-1-i})/sqrt(2)."""
    h = m // 2
    k = m - h
    q = np.zeros((m, m))
    for i in range(h):
        q[i, i] = q[m - 1 - i, i] = 1.0 / math.sqrt(2.0)
        q[i, k + i] = 1.0 / math.sqrt(2.0)
        q[m - 1 - i, k + i] = -1.0 / math.sqrt(2.0)
    if k > h:
        q[h, h] = 1.0
    return q


def rounding_factor(s_matrix):
    """F with F F^T = S, built densely: Q blockdiag(F+, F-) for the
    reversal basis Q and the lower Cholesky factors F+, F- of the diagonal
    blocks of Q^T S Q, if S is exactly reversal-symmetric; else the lower
    Cholesky factor of S."""
    m = len(s_matrix)
    if not np.array_equal(s_matrix, s_matrix[::-1, ::-1]):
        return np.linalg.cholesky(s_matrix)
    q = reversal_basis(m)
    k = m - m // 2
    rotated = q.T @ s_matrix @ q
    factor = np.zeros((m, m))
    factor[:k, :k] = np.linalg.cholesky(rotated[:k, :k])
    factor[k:, k:] = np.linalg.cholesky(rotated[k:, k:])
    return q @ factor


def central_point(a_tilde):
    """The unit-diagonal rescaling of the central point Z(y*)^{-1}/t* of the
    relaxation max tr(A_tilde S), diag(S) = 1, S PSD, by a dense M x M
    barrier: with An = A_tilde/||A_tilde||_F and rho its spectral radius,
    y* minimizes t* sum(y) - log det(Diag(y) - An) at t* = 20^5/rho.
    Stages multiply t by 10 from 1/rho, capped at t*; each is centred by
    damped Newton steps, 1/(1 + lambda) while lambda^2 > 1/4 and halved until
    Z factors, to lambda^2 < 1e-6. The last stage goes on to lambda^2 <
    1e-16, or until a step no longer lowers lambda^2: float64's floor, up
    to 6e-14 on the forms of tests/test_sdp.py."""
    an = np.asarray(a_tilde, dtype=float) / np.linalg.norm(a_tilde)
    m = an.shape[0]
    rho = float(np.max(np.abs(np.linalg.eigvalsh(an))))
    t_star = 20.0**5 / rho
    y = np.full(m, rho + 1.0)
    t = 1.0 / rho
    while True:
        t = min(t, t_star)
        tol = 1e-16 if t == t_star else 1e-6
        floor = math.inf
        for _ in range(500):
            z_inv = np.linalg.inv(np.diag(y) - an)
            grad = t - np.diag(z_inv)
            dy = -np.linalg.solve(z_inv * z_inv, grad)
            lam2 = float(-grad @ dy)
            if lam2 < tol or lam2 >= floor:
                break
            if t == t_star and lam2 < 1e-6:
                floor = lam2
            step = 1.0 / (1.0 + math.sqrt(lam2)) if lam2 > 0.25 else 1.0
            while True:
                try:
                    np.linalg.cholesky(np.diag(y + step * dy) - an)
                    break
                except np.linalg.LinAlgError:
                    step /= 2.0
            y = y + step * dy
        else:
            raise AssertionError(f"the oracle's stage at t={t} did not centre")
        if t == t_star:
            d = 1.0 / np.sqrt(np.diag(z_inv))
            return z_inv * np.outer(d, d)
        t *= 10.0
