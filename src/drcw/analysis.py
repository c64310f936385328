"""Composite ambiguity evaluation and the four waveform quality metrics.

The pulse train transmits x1 or x2 from a complementary pair according to
the sign s_m; the receiver weights pulse m by w_m and a Doppler shift of
theta radians per pulse adds the phase ramp e^{j theta m}. The discrete
composite ambiguity at lag k is then

    R(k, theta) = sum_m w_m R_{x(m)}[k] e^{j theta m}
                = (R1[k]+R2[k])/2 * G(theta) + (R1[k]-R2[k])/2 * F(theta),

with G(theta) = sum w_m e^{j theta m} and F(theta) = sum s_m w_m e^{j theta m}.
Complementarity kills the first term at every nonzero lag, so range
sidelobes are proportional to |F| and the zero-lag Doppler profile to |G|.
Every metric is therefore computed from F and G, which ``factors``
evaluates on the uniform Doppler grid with one real FFT, exactly
conjugate-symmetric about theta = 0. The CAF itself
(``composite_ambiguity``) is kept as that rank-2 factorization, the
(2N-1) x 2 real coefficients and the 2 x G complex basis [G; F], and the
caf.csv/caf.svg exports evaluate it one distinct row at a time. The dense
lag x Doppler array is never held: the factors take O(N + G) memory
against its O(N G).

Metrics: PRSL (peak range sidelobe level per Doppler bin), RSBA (the
contiguous Doppler interval where PRSL stays below a blanking threshold),
DMBR (percent widening of the -3 dB Doppler mainlobe versus uniform
weights), PDSL (peak Doppler sidelobe of |G|), and NAG (coherent
integration gain loss of the weights).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .design import DesignResult
from .sequences import GolayPair, acf

DB_FLOOR = -300.0
# magnitudes below this fraction of the reference peak are float dust from
# cancelled null sums (~1e-12 of peak at most); report them at the floor.
ZERO_LEVEL = 1e-10

BLANKING_THRESHOLD_DB = -60.0


@dataclass(frozen=True)
class DopplerGrid:
    """Uniform Doppler grid of ``size`` points over [-pi, pi]. Even sizes
    cover [-pi, pi) half-open, odd sizes close at +pi; both hold theta = 0
    exactly, at ``zero_index`` = size // 2."""

    size: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"Doppler grid needs at least 2 points, got {self.size}")
        if self.size % 2 == 0:
            pts = -math.pi + 2.0 * math.pi * np.arange(self.size) / self.size
        else:
            pts = np.linspace(-math.pi, math.pi, self.size)
        pts[self.size // 2] = 0.0
        object.__setattr__(self, "points", pts)

    @property
    def resolution(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def zero_index(self) -> int:
        return self.size // 2

    def index_of(self, theta: float) -> int:
        """Nearest grid index to theta; rejects points off the grid span."""
        idx = int(np.argmin(np.abs(self.points - theta)))
        if abs(self.points[idx] - theta) > 0.5 * self.resolution + 1e-12:
            raise ValueError(f"theta={theta:.6g} lies outside the grid [{self.points[0]:.6g}, "
                             f"{self.points[-1]:.6g}]; an odd grid size ends at pi")
        return idx


@dataclass(frozen=True)
class CafGrid:
    """Composite ambiguity samples, indexed (lag, doppler point), as the
    rank-2 factorization of the module docstring: the row at lag
    ``lags[i]`` is ``coefficients[i] @ basis``.

    ``coefficients`` is (2N-1) x 2 real, the columns (R1+R2)/2 and
    (R1-R2)/2; ``basis`` is 2 x G complex, the rows G and F. Rows whose
    coefficient bytes are equal are bitwise equal.
    """

    lags: np.ndarray
    doppler: DopplerGrid
    coefficients: np.ndarray
    basis: np.ndarray

    @property
    def n(self) -> int:
        return (len(self.lags) + 1) // 2

    @property
    def zero_lag_index(self) -> int:
        return self.n - 1

    def row(self, i: int) -> np.ndarray:
        """The CAF over the Doppler grid at lag ``lags[i]``."""
        return _unsigned_zeros(self.coefficients[i] @ self.basis)

    @property
    def values(self) -> np.ndarray:
        """The dense (2N-1) x G array, built on each access by stacking
        ``row``, so each cell has the bits the exports and ``peak`` use; the
        exports never read it."""
        return np.stack([self.row(i) for i in range(len(self.lags))])

    @functools.cached_property
    def peak(self) -> float:
        """Zero-lag zero-Doppler response N * sum(w), the global maximum,
        evaluated on first use."""
        return abs(self.row(self.zero_lag_index)[self.doppler.zero_index])


def _unsigned_zeros(values: np.ndarray) -> np.ndarray:
    """``values`` with each -0.0 made +0.0, in place. The sign a BLAS
    product gives an exact zero follows its kernel's order of operations,
    not the CAF, so the exports print every zero cell as 0."""
    values += 0.0
    return values


def composite_ambiguity(design: DesignResult, pair: GolayPair, grid: DopplerGrid) -> CafGrid:
    """R(k, theta) = sum_m w_m R_{x(m)}[k] e^{j theta m} on the grid, as the
    rank-2 factorization (R1+R2)/2 G + (R1-R2)/2 F."""
    r1 = acf(pair.x1).astype(float)
    r2 = acf(pair.x2).astype(float)
    f, g, _ = factors(design, grid)
    caf = CafGrid(
        lags=np.arange(-(pair.n - 1), pair.n),
        doppler=grid,
        coefficients=0.5 * np.column_stack([r1 + r2, r1 - r2]),
        basis=np.stack([g, f]),
    )
    expected = pair.n * float(np.sum(design.weights))
    if abs(caf.peak - expected) > 1e-9 * max(1.0, expected):
        raise AssertionError("zero-lag zero-Doppler response mismatch")
    return caf


def factors(design: DesignResult, grid: DopplerGrid) -> np.ndarray:
    """F, G and the uniform-weight reference G_ref on the Doppler grid, as
    the rows of a (3, grid.size) array.

    F(theta) = sum y_m e^{j theta m}, G(theta) = sum w_m e^{j theta m}, and
    G_ref is G for unit weights. Every ``DopplerGrid`` has
    theta_k = -pi + 2 pi k / L, with L = G points for even G and L = G - 1
    for odd G (whose last point, +pi, repeats the first), so
    F(theta_k) = sum_m y_m (-1)^m e^{2 pi j k m / L}, the conjugate of a
    length-L real FFT of the columns [y, w, 1] (-1)^m, with pulses folded
    modulo L when M > L. The real FFT gives the theta <= 0 half, k <= L/2.
    As the columns are real, F(-theta) = conj F(theta), and the theta > 0
    half is filled with the conjugates of its mirror points, so every value
    at -theta and theta is an exact conjugate pair, bit for bit.
    """
    length = grid.size - grid.size % 2
    columns = np.stack([design.y, design.weights, np.ones(design.m)])
    columns[:, 1::2] *= -1.0
    if design.m > length:
        columns = np.pad(columns, ((0, 0), (0, -design.m % length)))
        columns = columns.reshape(3, -1, length).sum(axis=1)
    half = np.fft.rfft(columns, n=length, axis=1).conj()
    # the mirror of point zero_index + j is zero_index - j
    mirror = half[:, 1 - grid.size % 2 : grid.zero_index][:, ::-1]
    return np.concatenate([half, mirror.conj()], axis=1)


def magnitude_db(values, ref: float | None = None) -> np.ndarray:
    """Magnitudes in dB relative to ``ref`` (default: the largest entry).

    Levels at or below ZERO_LEVEL of the reference, and an all-zero input,
    are reported at DB_FLOOR.
    """
    mag = np.abs(np.asarray(values))
    top = float(mag.max()) if ref is None else float(ref)
    out = np.full(mag.shape, DB_FLOOR)
    if top == 0.0:
        return out
    rel = mag / top
    live = rel > ZERO_LEVEL
    out[live] = 20.0 * np.log10(rel[live])
    return out


def prsl_curve(design: DesignResult, pair: GolayPair, f) -> np.ndarray:
    """Peak range sidelobe level in dB at the Doppler shifts where the range
    factor ``f`` = F(theta) was evaluated (grid points or exact null
    centres), relative to the zero-lag zero-Doppler peak N sum(w).

    Complementarity cancels the (R1+R2)/2 G term at every nonzero lag, so
    the sidelobes at theta are (R1-R2)[k]/2 F(theta) and their peak is
    max_k |R1-R2|[k]/2 |F(theta)|; (R1-R2)[0] = N - N = 0 drops out.
    """
    half_diff = 0.5 * np.abs(acf(pair.x1) - acf(pair.x2))
    side = float(half_diff.max()) * np.abs(np.asarray(f))
    return magnitude_db(side, ref=pair.n * float(np.sum(design.weights)))


@dataclass(frozen=True)
class DopplerInterval:
    """Contiguous Doppler interval [lo, hi] around a center, in radians.
    Empty intervals have lo == hi == center."""

    center: float
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo == self.hi

    @property
    def half_width(self) -> float:
        """Symmetric half width: distance to the nearer edge."""
        return min(self.center - self.lo, self.hi - self.center)


def _run(ok: np.ndarray, i: int) -> tuple[int, int]:
    """Ends (lo, hi) of the run grown outward from index ``i`` while the
    next entry of the boolean mask ``ok`` on that side is True; ``ok[i]``
    itself is not read."""
    left = np.flatnonzero(~ok[:i])  # the False entries before i
    right = np.flatnonzero(~ok[i + 1 :])  # and after it, counted from i + 1
    lo = int(left[-1]) + 1 if left.size else 0
    hi = i + int(right[0]) if right.size else len(ok) - 1
    return lo, hi


def rsba(curve: np.ndarray, grid: DopplerGrid, center: float = 0.0) -> DopplerInterval:
    """Maximal contiguous grid interval containing ``center`` where the
    PRSL curve stays below BLANKING_THRESHOLD_DB. Returns an empty interval
    when the center itself is not below threshold."""
    curve = np.asarray(curve, dtype=float)
    if curve.shape != grid.points.shape:
        raise ValueError("curve length does not match grid")
    idx = grid.index_of(center)
    snapped = float(grid.points[idx])
    below = curve < BLANKING_THRESHOLD_DB
    if not below[idx]:
        return DopplerInterval(center=snapped, lo=snapped, hi=snapped)
    lo, hi = _run(below, idx)
    return DopplerInterval(center=snapped, lo=float(grid.points[lo]), hi=float(grid.points[hi]))


def _crossing_width(mag: np.ndarray, grid: DopplerGrid, level: float) -> float:
    """Width of the region around theta=0 where mag >= level, with the edge
    positions linearly interpolated between bracketing samples."""
    lo, hi = _run(mag >= level, grid.zero_index)
    if lo == 0 or hi == len(mag) - 1:
        raise ValueError("mainlobe edge not resolvable on this grid")
    pts = grid.points
    frac = (mag[hi] - level) / (mag[hi] - mag[hi + 1])
    right = pts[hi] + frac * (pts[hi + 1] - pts[hi])
    frac = (mag[lo] - level) / (mag[lo] - mag[lo - 1])
    left = pts[lo] - frac * (pts[lo] - pts[lo - 1])
    return float(right - left)


def dmbr(g_mag, g_ref_mag, grid: DopplerGrid) -> float:
    """Percent increase of the -3 dB mainlobe width versus the reference."""
    g = np.asarray(g_mag, dtype=float)
    ref = np.asarray(g_ref_mag, dtype=float)
    level = 10.0 ** (-3.0 / 20.0)
    width = _crossing_width(g, grid, level * g[grid.zero_index])
    width_ref = _crossing_width(ref, grid, level * ref[grid.zero_index])
    return (width / width_ref - 1.0) * 100.0


def pdsl(g_mag, grid: DopplerGrid) -> float:
    """Peak Doppler sidelobe level in dB: the largest |G| beyond the first
    local minimum on each side of theta = 0, relative to |G(0)|.

    Levels at or below ZERO_LEVEL of |G(0)| count as zero, so float dust in
    a null does not make a local minimum.
    """
    g = np.asarray(g_mag, dtype=float)
    z = grid.zero_index
    g = np.where(g > ZERO_LEVEL * g[z], g, 0.0)
    # g does not rise going right from z, nor going left
    _, right = _run(np.append(False, g[1:] <= g[:-1]), z)
    left, _ = _run(np.append(g[:-1] <= g[1:], False), z)
    if left == 0 and right == len(g) - 1:
        raise ValueError("no Doppler sidelobe region: |G| is monotone to both grid edges")
    peak_side = 0.0
    if right < len(g) - 1:
        peak_side = max(peak_side, float(g[right:].max()))
    if left > 0:
        peak_side = max(peak_side, float(g[: left + 1].max()))
    return 20.0 * math.log10(peak_side / g[z])


def nag(weights) -> float:
    """Normalized accumulation gain 10 log10(sum(w)^2 / (M sum(w^2))), dB.

    Zero for uniform weights, negative otherwise; invariant under positive
    scaling of w.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-D sequence")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    ssum = float(np.sum(w))
    ssq = float(np.sum(w * w))
    if ssq == 0.0:
        raise ValueError("weights must not be all zero")
    return 10.0 * math.log10(ssum * ssum / (len(w) * ssq))


@dataclass(frozen=True)
class MetricsReport:
    """The four quality metrics plus the PRSL-versus-Doppler curve.

    ``rsba`` holds one interval per requested null center: the zero-Doppler
    center first, then each positive theta null.
    """

    rsba: tuple[DopplerInterval, ...]
    dmbr: float
    pdsl: float
    nag: float
    prsl_curve: np.ndarray


def compute_metrics(design: DesignResult, pair: GolayPair, grid: DopplerGrid) -> MetricsReport:
    """Evaluate all metrics for a design against a complementary pair, from
    the factors F and G alone; the CAF is never built."""
    f, g, g_ref = factors(design, grid)
    curve = prsl_curve(design, pair, f)
    centers = [0.0] + [theta for theta, _ in design.null_spec.nulls]
    intervals = tuple(rsba(curve, grid, center=c) for c in centers)
    g_mag = np.abs(g)
    try:
        pdsl_db = pdsl(g_mag, grid)
    except ValueError:
        # profiles with no local minimum (e.g. binomial weights) have no
        # Doppler sidelobes at all; report the floor
        pdsl_db = DB_FLOOR
    return MetricsReport(
        rsba=intervals,
        dmbr=dmbr(g_mag, np.abs(g_ref), grid),
        pdsl=pdsl_db,
        nag=nag(design.weights),
        prsl_curve=curve,
    )
