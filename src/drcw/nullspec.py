"""Doppler null specifications and the induced convolution-subspace algebra.

A null specification asks the range-sidelobe factor F(theta) = sum y_m e^{j theta m}
to vanish to prescribed orders at theta = 0 and at mirror pairs +/-theta_i.
Equivalently, the polynomial y(z) must be divisible by the annihilator

    a(z) = (1 - z)^k0 * prod_i (1 - 2 z cos(theta_i) + z^2)^k_i,

so y = a (x) b for some free coefficient vector b. An orthonormal basis
A_bar of that subspace and the weighted quadratic form
Diag(w) A_bar A_bar^T Diag(w) are what the waveform optimizer consumes.

The full convolution matrix is very ill conditioned at high null orders
(kappa ~ 1e10 at m = 50), so A_bar is never taken from it. It is built in
float64 one factor of a(z) at a time: each (1 - z) or quadratic factor is
convolved into the current orthonormal basis, which is then
re-orthonormalized by QR.
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

    def validate_for(self, m: int) -> None:
        if self.total_order > m - 1:
            raise ValueError(
                f"total null order K={self.total_order} must satisfy K <= M-1 "
                f"for M={m} pulses"
            )


def _factors(spec: NullSpec):
    """The annihilator's factors in application order: (1 - z) k0 times,
    then (1 - 2 z cos(theta_i) + z^2) k_i times per null in spec order."""
    for _ in range(spec.k0):
        yield (1.0, -1.0)
    for theta, k in spec.nulls:
        for _ in range(k):
            yield (1.0, -2.0 * math.cos(theta), 1.0)


def constraint_basis(spec: NullSpec, m: int) -> np.ndarray:
    """Orthonormal basis A_bar (m x (m-K)) of {a (x) b : b in R^(m-K)} for
    the annihilator a of ``spec``, with K its total null order, built one
    factor at a time from the identity on R^(m-K).

    Raises when K > m-1, which would leave no free coefficients.
    """
    K = spec.total_order
    if K >= m:
        raise ValueError(
            f"null order K={K} with m={m} pulses violates K <= M-1; "
            "reduce the requested null orders"
        )
    q = np.eye(m - K)
    for factor in _factors(spec):
        rows = q.shape[0]
        conv = np.zeros((rows + len(factor) - 1, q.shape[1]))
        for i, c in enumerate(factor):
            conv[i : i + rows] += c * q
        q, _ = np.linalg.qr(conv)
    return q


def quadratic_form(a_bar: np.ndarray, window: WindowTemplate) -> np.ndarray:
    """Symmetric PSD matrix A_tilde = Diag(w) A_bar A_bar^T Diag(w) (m x m)
    of the two-way partitioning objective."""
    if window.m != len(a_bar):
        raise ValueError(f"window length {window.m} does not match pulse count {len(a_bar)}")
    w = window.values
    at = (w[:, None] * a_bar) @ (a_bar.T * w[None, :])
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
