"""Golay complementary pairs, transmit orders, and receive-weight templates.

All sequence arithmetic that feeds correctness checks (autocorrelations,
complementarity) is done in exact int64; windows and baseline weights are
float64 normalized so the sum of squared values equals the length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WINDOW_KINDS = ("rectangular", "hamming", "hanning", "blackman")


def _as_pm1(seq, name: str = "sequence") -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr) or not np.all(np.abs(out) == 1):
        raise ValueError(f"{name} entries must be exactly +1 or -1")
    return out


def acf(seq) -> np.ndarray:
    """Exact int64 aperiodic autocorrelation of a +/-1 sequence at lags
    -(n-1)..(n-1): out[k + n - 1] = sum_i seq[i] * seq[i + k], out-of-range
    terms zero.
    """
    x = _as_pm1(seq)
    return np.correlate(x, x, mode="full")


@dataclass(frozen=True)
class ComplementarityReport:
    ok: bool
    max_violation: int
    worst_lag: int

    def __bool__(self) -> bool:
        return self.ok


def verify_complementary(x1, x2) -> ComplementarityReport:
    """Check R_x1[k] + R_x2[k] == 2N at k=0 and 0 elsewhere, exactly.

    Integer arithmetic throughout; there is no tolerance.
    """
    a = _as_pm1(x1, "x1")
    b = _as_pm1(x2, "x2")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    total = acf(a) + acf(b)
    target = np.zeros(2 * n - 1, dtype=np.int64)
    target[n - 1] = 2 * n
    dev = np.abs(total - target)
    worst = int(np.argmax(dev))
    return ComplementarityReport(
        ok=bool(np.all(dev == 0)),
        max_violation=int(dev[worst]),
        worst_lag=worst - (n - 1),
    )


@dataclass(frozen=True)
class GolayPair:
    """Two length-n +/-1 sequences whose autocorrelations sum to 2n at lag 0
    and cancel exactly at every other lag. Complementarity is enforced at
    construction."""

    x1: np.ndarray
    x2: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x1)

    def __post_init__(self):
        object.__setattr__(self, "x1", _as_pm1(self.x1, "x1"))
        object.__setattr__(self, "x2", _as_pm1(self.x2, "x2"))
        report = verify_complementary(self.x1, self.x2)
        if not report.ok:
            raise ValueError(
                f"not a complementary pair: violation {report.max_violation} "
                f"at lag {report.worst_lag}"
            )


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def generate_golay_pair(n: int) -> GolayPair:
    """Deterministic complementary pair of power-of-two length.

    Starts from ([1], [1]) and doubles via (a, b) -> (a||b, a||-b), where
    || is concatenation. Covers every n = 2^p, p >= 0.
    """
    if not _is_power_of_two(n):
        raise ValueError(f"pair length must be a power of two, got {n}")
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    while len(a) < n:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(x1=a, x2=b)


def ptm_order(m: int) -> np.ndarray:
    """Prouhet-Thue-Morse +/-1 transmit order: s_j = (-1)^(ones in binary j)."""
    if not _is_power_of_two(m):
        raise ValueError(f"PTM order length must be a power of two, got {m}")
    j = np.arange(m)
    parity = np.array([bin(v).count("1") & 1 for v in j], dtype=np.int64)
    return np.where(parity == 0, 1, -1).astype(np.int64)


def binomial_weights(m: int) -> np.ndarray:
    """Binomial receive weights w_j proportional to C(m-1, j).

    Scaled so sum of squares equals m, matching the energy convention used
    by the designed waveforms.
    """
    if m < 1:
        raise ValueError(f"weight count must be >= 1, got {m}")
    row = np.array([math.comb(m - 1, j) for j in range(m)], dtype=float)
    return row * math.sqrt(m / float(np.sum(row * row)))


@dataclass(frozen=True)
class WindowTemplate:
    """Nonnegative window samples with sum of squares equal to the length."""

    kind: str
    values: np.ndarray

    @property
    def m(self) -> int:
        return len(self.values)

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if np.any(v < 0):
            raise ValueError("window values must be nonnegative")
        if abs(float(np.sum(v * v)) - len(v)) > 1e-10 * len(v):
            raise ValueError("window values must satisfy sum(v^2) == m")
        object.__setattr__(self, "values", v)


def window_template(kind: str, m: int) -> WindowTemplate:
    """Symmetric cosine-sum window of length m, rescaled to sum(v^2) == m.

    Cosine arguments use denominator m-1 (symmetric sampling), so the
    non-rectangular kinds need m >= 2.
    """
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")
    if m < 1:
        raise ValueError(f"window length must be >= 1, got {m}")
    if kind == "rectangular":
        return WindowTemplate(kind=kind, values=np.ones(m))
    if m < 2:
        raise ValueError(f"{kind} window needs m >= 2, got {m}")
    j = np.arange(m, dtype=float)
    phase = 2.0 * np.pi * j / (m - 1)
    if kind == "hamming":
        v = 0.54 - 0.46 * np.cos(phase)
    elif kind == "hanning":
        v = 0.5 - 0.5 * np.cos(phase)
    else:  # blackman
        v = 0.42 - 0.5 * np.cos(phase) + 0.08 * np.cos(2.0 * phase)
    v = np.maximum(v, 0.0)
    energy = float(np.sum(v * v))
    if energy == 0.0:
        # hanning/blackman endpoints vanish, so m=2 leaves nothing to scale
        raise ValueError(f"{kind} window of length {m} is identically zero")
    v *= math.sqrt(m / energy)
    return WindowTemplate(kind=kind, values=v)
