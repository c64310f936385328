"""Doppler null specifications as moment conditions, and their quadratic form.

A null specification asks the range-sidelobe factor F(theta) = sum y_m e^{j theta m}
to vanish to prescribed orders at theta = 0 and at mirror pairs +/-theta_i:
sum_m m^p z^m y_m = 0 for p below the order at each root z = e^{j theta} of
the annihilator (1 - z)^k0 prod_i (1 - 2 z cos(theta_i) + z^2)^k_i. For real
y these are K = k0 + 2 sum(k_i) real conditions; their span has the
orthonormal basis P (M x K), the admissible y are those with P^T y = 0, and
the optimizer consumes the form Diag(w) (I - P P^T) Diag(w).

P comes from an Arnoldi chain in the manner of "Vandermonde with Arnoldi"
(Brubeck, Nakatsukasa & Trefethen, SIAM Review 63(2), 2021): no power m^p
is formed, and the step from one root to the next never divides by their
difference, so close roots (a small theta beside a high-order null at zero,
or two close thetas), whose vectors m^p z^m are nearly dependent, cost no
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import WindowTemplate


@dataclass(frozen=True)
class NullSpec:
    """Requested Doppler nulls: order k0 at zero plus (theta_i, k_i) pairs.

    theta values must lie strictly inside (0, pi); the mirror null at
    -theta_i is implied because the weights are real.
    """

    k0: int
    nulls: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        if self.k0 < 0 or self.k0 != int(self.k0):
            raise ValueError(f"k0 must be a nonnegative integer, got {self.k0}")
        norm = []
        for theta, k in self.nulls:
            theta = float(theta)
            if not 0.0 < theta < math.pi:
                raise ValueError(f"null angle must lie strictly inside (0, pi), got {theta}")
            if k < 1 or k != int(k):
                raise ValueError(f"null order must be a positive integer, got {k}")
            norm.append((theta, int(k)))
        thetas = [t for t, _ in norm]
        if len(set(thetas)) != len(thetas):
            raise ValueError("null angles must be pairwise distinct")
        object.__setattr__(self, "nulls", tuple(norm))

    @property
    def total_order(self) -> int:
        """K = k0 + 2 sum(k_i); each theta null binds a mirror pair."""
        return self.k0 + 2 * sum(k for _, k in self.nulls)


def constraint_basis(spec: NullSpec, m: int) -> np.ndarray:
    """Orthonormal basis P (m x K) of the moment conditions of ``spec``, K
    its total null order: y carries the requested nulls iff P^T y = 0.

    The complex chain visits the roots z in the order 1 (k0 times), then
    e^{+j theta_i} and e^{-j theta_i} (k_i times each) per null. It starts
    from z^m; each step runs the last column q through u_{n+1} = z u_n + q_n
    (u_0 = 0) at the next root, orthogonalizes u twice against the chain and
    normalizes it. P is the leading K left singular vectors of [Re Q, Im Q].

    Raises when K > m-1, which would leave no admissible y.
    """
    K = spec.total_order
    if K >= m:
        raise ValueError(
            f"null order K={K} with m={m} pulses violates K <= M-1; "
            "reduce the requested null orders"
        )
    if K == 0:
        return np.zeros((m, 0))
    angles = [0.0] * spec.k0
    for theta, k in spec.nulls:
        angles += [theta] * k + [-theta] * k
    n = np.arange(m)
    q = np.empty((m, K), dtype=complex)
    for j, angle in enumerate(angles):
        u = np.exp(1j * angle * n)  # z^m
        if j > 0:
            # the recurrence in closed form, times the unit z: z^m sum_{i<m} z^-i q_i
            u[1:] *= np.cumsum(u.conj() * q[:, j - 1])[:-1]
            u[0] = 0.0
        for _ in range(2):
            u -= q[:, :j] @ (q[:, :j].conj().T @ u)
        q[:, j] = u / np.linalg.norm(u)
    return np.linalg.svd(np.hstack([q.real, q.imag]), full_matrices=False)[0][:, :K]


def quadratic_form(p: np.ndarray, window: WindowTemplate) -> np.ndarray:
    """Symmetric PSD matrix A_tilde = Diag(w) (I - P P^T) Diag(w) (m x m) of
    the two-way partitioning objective, for the basis P of the conditions."""
    if window.m != len(p):
        raise ValueError(f"window length {window.m} does not match pulse count {len(p)}")
    w = window.values
    wp = w[:, None] * p
    at = np.diag(w * w) - wp @ wp.T
    return (at + at.T) / 2.0


def null_residuals(y, spec: NullSpec) -> np.ndarray:
    """Scaled moment residuals of y against the requested nulls.

    For order p at theta the residual is |sum_m (m/M)^p y_m e^{j theta m}|;
    every entry is zero iff the polynomial y(z) carries the requested nulls.
    The 1/M power scaling keeps all residuals on the common tolerance
    1e-8 * M regardless of p.
    """
    y = np.asarray(y, dtype=float)
    m = len(y)
    mm = np.arange(m, dtype=float) / m
    out = []
    for p in range(spec.k0):
        out.append(abs(float(np.sum(mm**p * y))))
    for theta, k in spec.nulls:
        carrier = np.exp(1j * theta * np.arange(m))
        for p in range(k):
            out.append(abs(complex(np.sum(mm**p * y * carrier))))
    return np.array(out)


def max_null_violation(y, spec: NullSpec) -> float:
    """Worst scaled moment residual; compare against 1e-8 * len(y)."""
    res = null_residuals(y, spec)
    return float(res.max()) if res.size else 0.0
