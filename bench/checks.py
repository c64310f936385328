"""Output checks computed apart from drcw.

Nothing here imports drcw. Every quantity is recomputed from its
definition: null moments in mpmath, the composite ambiguity as a direct
sum over pulses of shift-multiply-sum autocorrelations, NAG from its
closed form, and complementarity in Python integers. Each check raises
CheckFailure with a message naming what disagreed; selftest.py feeds each
one a corrupted output and expects that failure.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Published metric table (Table I of the paper) for the cells it prints:
# (window, k0) -> (RSBA half-width / pi, DMBR %, PDSL dB, NAG dB).
PAPER_CELLS = {
    ("hamming", 10): (0.08, 45.0, -32.6, -1.50),
    ("hamming", 20): (0.20, 45.0, -27.1, -1.56),
    ("hamming", 30): (0.35, 55.0, -24.2, -1.91),
    ("rectangular", 10): (0.07, 1.0, -13.8, -0.05),
    ("rectangular", 20): (0.19, 5.0, -14.3, -0.29),
    ("rectangular", 30): (0.32, 20.0, -14.3, -1.00),
}
# The paper's design differs from this one in its rounding draws, so a
# cell can only be held to the table's shape, not its printed digits. These
# are the repository's acceptance tolerances for the same cells.
PAPER_TOL = (0.03, 10.0, 3.0, 0.5)

DB_FLOOR = -300.0
ZERO_LEVEL = 1e-10


class CheckFailure(AssertionError):
    """An output disagrees with its independent recomputation."""


def _fail(msg: str) -> None:
    raise CheckFailure(msg)


def golay_pair(n: int) -> tuple[list[int], list[int]]:
    """Complementary pair by the doubling (a, b) -> (a|b, a|-b)."""
    a, b = [1], [1]
    while len(a) < n:
        a, b = a + b, a + [-v for v in b]
    return a, b


def acf_direct(x) -> list[int]:
    """Integer aperiodic autocorrelation at lags -(n-1)..(n-1)."""
    n = len(x)
    return [
        sum(int(x[i]) * int(x[i + k]) for i in range(max(0, -k), min(n, n - k)))
        for k in range(-(n - 1), n)
    ]


def check_complementary(x1, x2) -> None:
    """R1[k] + R2[k] == 2n at k = 0 and 0 elsewhere, exactly."""
    n = len(x1)
    if len(x2) != n:
        _fail(f"pair lengths differ: {n} vs {len(x2)}")
    total = [p + q for p, q in zip(acf_direct(x1), acf_direct(x2))]
    for k, v in zip(range(-(n - 1), n), total):
        if v != (2 * n if k == 0 else 0):
            _fail(f"pair not complementary at lag {k}: R1+R2 = {v}")


def check_energy(y) -> None:
    m = len(y)
    energy = math.fsum(float(v) * float(v) for v in y)
    if abs(energy - m) > 1e-8 * m:
        _fail(f"|y|^2 = {energy!r}, expected {m}")


def null_moments(y, k0: int, nulls) -> list[float]:
    """|sum_m (m/M)^p y_m e^{j theta m}| for every requested (theta, p), in
    50-digit arithmetic: p < k0 at theta = 0, p < k_i at each theta_i."""
    m = len(y)
    with mpmath.workdps(50):
        ys = [mpmath.mpf(float(v)) for v in y]
        xs = [mpmath.mpf(i) / m for i in range(m)]
        out = []
        for theta, order in [(0.0, k0)] + [(float(t), int(k)) for t, k in nulls]:
            if order == 0:
                continue
            th = mpmath.mpf(theta)
            terms = [ys[i] * mpmath.expj(th * i) for i in range(m)]
            for _ in range(order):
                out.append(float(abs(mpmath.fsum(terms))))
                terms = [t * x for t, x in zip(terms, xs)]
        return out


def check_nulls(y, k0: int, nulls) -> None:
    m = len(y)
    worst = max(null_moments(y, k0, nulls), default=0.0)
    if worst > 1e-8 * m:
        _fail(f"null moment {worst:.3e} exceeds 1e-8*M = {1e-8 * m:.1e}")


def check_bound(objective: float, bound: float) -> None:
    if not objective <= bound + 1e-6 * max(1.0, abs(bound)):
        _fail(f"rounded objective {objective!r} exceeds stored bound {bound!r}")


def nag_closed_form(w) -> float:
    w = [float(v) for v in w]
    s1 = math.fsum(w)
    s2 = math.fsum(v * v for v in w)
    return 10.0 * math.log10(s1 * s1 / (len(w) * s2))


def check_nag(w, stored: float) -> None:
    ref = nag_closed_form(w)
    if abs(ref - stored) > 1e-9:
        _fail(f"stored NAG {stored!r} dB, closed form {ref!r} dB")


def caf_direct(s, w, x1, x2, lags, thetas) -> np.ndarray:
    """R(k, theta) = sum_m w_m R_{x(m)}[k] e^{j theta m}, one entry at a
    time, with x(m) = x1 if s_m = +1 else x2."""
    n = len(x1)
    r = {1: acf_direct(x1), -1: acf_direct(x2)}
    ph = np.arange(len(s))
    out = np.zeros((len(lags), len(thetas)), dtype=complex)
    for i, k in enumerate(lags):
        col = np.array([r[int(sm)][k + n - 1] for sm in s], dtype=float) * np.asarray(w)
        for j, theta in enumerate(thetas):
            out[i, j] = np.sum(col * np.exp(1j * theta * ph))
    return out


def _level(db: float) -> float:
    """Stored dB level back to a linear ratio; the floor means zero."""
    return 0.0 if db <= DB_FLOOR else 10.0 ** (db / 20.0)


def _same_level(direct: float, stored_db: float) -> bool:
    stored = _level(stored_db)
    if stored == 0.0:
        return direct <= ZERO_LEVEL * (1.0 + 1e-6)
    return abs(direct - stored) <= 1e-12 + 1e-9 * stored


def grid_points(size: int) -> np.ndarray:
    """The uniform Doppler grid drcw documents use, rebuilt from its
    definition: [-pi, pi) for even sizes, closed for odd, 0 exact."""
    if size % 2 == 0:
        pts = -math.pi + 2.0 * math.pi * np.arange(size) / size
    else:
        pts = np.linspace(-math.pi, math.pi, size)
    pts[size // 2] = 0.0
    return pts


def check_prsl(s, w, x1, x2, grid_size: int, indices, stored_db) -> None:
    """Stored PRSL (global normalization) at grid indices against the
    direct sum: max over nonzero lags of |R(k, theta)| / (N sum w)."""
    n = len(x1)
    thetas = grid_points(grid_size)[list(indices)]
    lags = [k for k in range(-(n - 1), n) if k != 0]
    side = np.abs(caf_direct(s, w, x1, x2, lags, thetas)).max(axis=0)
    peak = n * math.fsum(float(v) for v in w)
    for idx, direct, db in zip(indices, side / peak, stored_db):
        if not _same_level(float(direct), float(db)):
            _fail(f"PRSL at grid index {idx}: stored {db!r} dB, direct {direct!r}")


def check_caf_rows(s, w, x1, x2, grid_size: int, rows) -> None:
    """Parsed caf.csv rows (row index, lag, theta, re, im, mag_db) against
    the direct sum. Row r of the body is lag index r // G, grid index r % G."""
    n = len(x1)
    pts = grid_points(grid_size)
    peak = n * math.fsum(float(v) for v in w)
    for r, lag, theta, re, im, db in rows:
        li, gi = divmod(r, grid_size)
        if lag != li - (n - 1) or abs(theta - pts[gi]) > 1e-11:
            _fail(f"caf.csv row {r} has (lag, theta) = ({lag}, {theta}), expected "
                  f"({li - (n - 1)}, {pts[gi]})")
        ref = complex(caf_direct(s, w, x1, x2, [lag], [pts[gi]])[0, 0])
        if abs(complex(re, im) - ref) > 1e-10 * peak:
            _fail(f"caf.csv row {r}: {re!r}{im:+}j, direct {ref!r}")
        if not _same_level(abs(ref) / peak, db):
            _fail(f"caf.csv row {r}: magnitude {db!r} dB, direct {abs(ref) / peak!r}")


def check_paper_row(row: dict) -> None:
    """One `drcw table` row against the published cell, if there is one."""
    key = (row["window"], int(row["k0"]))
    if key not in PAPER_CELLS:
        return
    got = (row["rsba_halfwidth_over_pi"], row["dmbr_percent"], row["pdsl_db"], row["nag_db"])
    for name, g, want, tol in zip(("RSBA", "DMBR", "PDSL", "NAG"), got, PAPER_CELLS[key], PAPER_TOL):
        if abs(g - want) > tol:
            _fail(f"{key}: {name} {g:.4g} vs published {want} (tolerance {tol})")


def check_verify_rejects(rc: int) -> None:
    """`drcw verify` on a document with one weight perturbed must exit 1."""
    if rc != 1:
        _fail(f"drcw verify exited {rc} on a document with a perturbed weight")


def check_same_bytes(key, digests) -> None:
    """Every repeat of one operation wrote byte-identical outputs."""
    if len(set(digests)) > 1:
        _fail(f"{key}: outputs differ between repeats ({len(set(digests))} variants)")


def window_values(kind: str, m: int) -> np.ndarray:
    """Window template by its defining formula (symmetric, denominator
    M-1); scale does not matter to the cosine similarity."""
    if kind == "rectangular":
        return np.ones(m)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * math.pi * np.arange(m) / (m - 1))
    raise ValueError(f"no reference formula for window {kind!r}")


def window_similarity(w, kind: str) -> float:
    """<|y|, window> / (|y| |window|); |y| is the weight vector w."""
    ref = window_values(kind, len(w))
    w = np.asarray(w, dtype=float)
    return float(w @ ref / (np.linalg.norm(w) * np.linalg.norm(ref)))


def check_document(doc: dict, prsl_indices) -> float:
    """Every check a design document supports; returns its window
    similarity. ``prsl_indices`` are the grid indices re-derived directly."""
    s = [int(v) for v in doc["s"]]
    w = [float(v) for v in doc["w"]]
    y = [si * wi for si, wi in zip(s, w)]
    ns = doc["null_spec"]
    check_energy(y)
    check_nulls(y, int(ns["k0"]), ns["nulls"])
    check_bound(doc["objective"], doc["sdp_bound"])
    check_nag(w, doc["metrics"]["nag"])
    x1, x2 = golay_pair(int(doc["n"]))
    stored = [doc["metrics"]["prsl_curve"][i] for i in prsl_indices]
    check_prsl(s, w, x1, x2, int(doc["grid"]), prsl_indices, stored)
    return window_similarity(w, doc["window"])
