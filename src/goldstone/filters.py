"""Smooth energy window g, annular wavepacket profile f, Chebyshev expansions.

The energy window g vanishes outside (epsilon, gamma), equals one on
[2*epsilon, gamma - delta_gamma], and is C-infinity via the standard
exp(-1/s) mollifier.  The time-domain picture is never materialised: every
use reduces to g(H - E0) acting on a vector, realised either exactly through
the dense eigensystem or by a Chebyshev expansion of sampled sup error, or
to a quadratic form <v, p(H) v> read off the Chebyshev moments of v.

The wavepacket parameter `p` is the grid momentum magnitude being excited;
the smooth profile lives on the annulus [R/2, R] with R = 4p/3, which puts
|k| = p in the middle of the unit plateau [5R/8, 7R/8].  Grid momenta at the
target magnitude therefore carry weight exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .operators import SparseHermitianOperator

__all__ = [
    "WavepacketSpec",
    "WavepacketWeights",
    "GFilter",
    "smoothstep",
    "build_f",
    "ChebyshevExpansion",
    "make_chebyshev_expansion",
    "chebyshev_moments",
    "FilterDegreeError",
    "SpectrumEnclosureError",
    "EmptySupportError",
    "DEGREE_CAP",
]

DEGREE_CAP = 32768


class FilterDegreeError(RuntimeError):
    """Requested uniform accuracy unreachable at the degree cap."""


class SpectrumEnclosureError(RuntimeError):
    """Chebyshev moments grew past mu_0: the interval misses the spectrum."""


class EmptySupportError(ValueError):
    """No grid momentum receives wavepacket weight on this lattice."""


def smoothstep(s):
    """C-infinity monotone step: 0 for s <= 0, 1 for s >= 1.

    sigma(s) = psi(s) / (psi(s) + psi(1-s)) with psi(s) = exp(-1/s); the
    construction gives sigma(s) + sigma(1-s) = 1 exactly.
    """
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.where(arr >= 1.0, 1.0, 0.0)
    mid = (arr > 0.0) & (arr < 1.0)
    sm = arr[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GFilter:
    """Energy window with support (epsilon, gamma) and unit plateau
    [2*epsilon, gamma - delta_gamma]; values in [0, 1].  Equal parameters
    give equal, equally hashed windows."""

    epsilon: float
    gamma: float
    delta_gamma: float

    def __post_init__(self):
        if not (self.epsilon > 0 and self.delta_gamma > 0
                and self.gamma < np.inf):
            raise ValueError("epsilon and delta_gamma must be positive and "
                             "gamma finite")
        if not (2 * self.epsilon < self.gamma - self.delta_gamma):
            raise ValueError(
                f"need 2*epsilon < gamma - delta_gamma, got "
                f"2*{self.epsilon} >= {self.gamma} - {self.delta_gamma}")

    def __call__(self, E):
        E = np.asarray(E, dtype=float)
        return (smoothstep((E - self.epsilon) / self.epsilon)
                * smoothstep((self.gamma - E) / self.delta_gamma))


@dataclass(frozen=True)
class WavepacketSpec:
    """Wavepacket request: excite grid momenta of magnitude p (< kappa).

    The profile's annulus outer radius is 4p/3; the cap applies to that
    radius, mirroring the role of kappa as an upper bound on the wavepacket
    momentum scale.
    """

    p: float
    kappa: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("target momentum magnitude must be positive")
        if not self.annulus_radius < self.kappa:
            raise ValueError(
                f"annulus radius {self.annulus_radius:.6f} = 4p/3 must stay "
                f"below kappa = {self.kappa:.6f}")

    @property
    def annulus_radius(self) -> float:
        return 4.0 * self.p / 3.0

    def profile(self, kmag):
        """Radial weight: smooth bump supported on [R/2, R], = 1 on [5R/8, 7R/8]."""
        r = self.annulus_radius
        kk = np.asarray(kmag, dtype=float)
        return smoothstep((kk - r / 2) / (r / 8)) * smoothstep((r - kk) / (r / 8))


@dataclass(frozen=True, eq=False)
class WavepacketWeights:
    """Wavepacket profile sampled on one lattice's momentum grid."""

    spec: WavepacketSpec
    weights: dict          # momentum label -> weight > 0
    annulus: tuple         # labels in the closed annulus [R/2, R]


def build_f(spec: WavepacketSpec, lattice: Lattice) -> WavepacketWeights:
    r = spec.annulus_radius
    weights = {}
    annulus = []
    for n in lattice.momenta:
        kmag = lattice.kmag(n)
        if r / 2 - 1e-9 <= kmag <= r + 1e-9:
            annulus.append(n)
        w = float(spec.profile(kmag))
        if w > 0.0:
            weights[n] = w
    if not weights:
        raise EmptySupportError(
            f"no grid momentum receives weight for p = {spec.p:.6f} on "
            f"lattice {lattice.extents}")
    return WavepacketWeights(spec, weights, tuple(annulus))


# -- Chebyshev machinery -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChebyshevExpansion:
    """Chebyshev polynomial approximation of fn on [lo, hi]; sup_error is
    max |p - fn| sampled on the grid of `make_chebyshev_expansion`."""

    coeffs: np.ndarray
    lo: float
    hi: float
    sup_error: float

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def quadratic_form(self, moments: np.ndarray) -> float:
        """<v, p(H) v> from the moments <v, T_n(H~) v> of `chebyshev_moments`."""
        return float(self.coeffs @ moments[:len(self.coeffs)])

    def apply(self, H: SparseHermitianOperator, v: np.ndarray) -> np.ndarray:
        """p(H) v by the Clenshaw-style three-term recurrence."""
        al = 2.0 / (self.hi - self.lo)
        be = -(self.hi + self.lo) / (self.hi - self.lo)
        c = self.coeffs
        t0 = v.astype(np.result_type(H.data, v), copy=True)
        w = c[0] * t0
        if len(c) == 1:
            return w
        t1 = al * H.matvec(t0) + be * t0
        w += c[1] * t1
        for j in range(2, len(c)):
            t2 = 2.0 * (al * H.matvec(t1) + be * t1) - t0
            w += c[j] * t2
            t0, t1 = t1, t2
        return w


def chebyshev_moments(H: SparseHermitianOperator, v: np.ndarray,
                      lo: float, hi: float, n_moments: int, offsets=(0,)):
    """(mu, matvecs): mu[n, i] = <v_i, T_n(H~) v_i> for n < n_moments, with
    H~ = (2H - (hi + lo)) / (hi - lo), for the segment v_i of the vector v
    in each invariant subspace of H, whose start rows are `offsets` (one
    segment, all of v, by default).

    Kernel polynomial method (Weisse, Wellein, Alvermann and Fehske, Rev.
    Mod. Phys. 78, 275 (2006), Sec. II): the recurrence t_{n+1} =
    2 H~ t_n - t_{n-1} runs on the whole vector, and the doubling identities
    mu_2n = 2<t_n, t_n> - mu_0 and mu_2n+1 = 2<t_n+1, t_n> - mu_1 give two
    moments per matvec, read by per-segment dots.
    """
    al = 2.0 / (hi - lo)
    be = -(hi + lo) / (hi - lo)

    def dot(a, b):
        return np.add.reduceat((a.conj() * b).real, offsets)

    mu = np.empty((n_moments, len(offsets)))
    mu[0] = dot(v, v)
    if n_moments == 1:
        return mu, 0
    prev, cur = v, al * H.matvec(v) + be * v
    mu[1] = dot(prev, cur)
    matvecs = 1
    n = 1
    while 2 * n < n_moments:
        mu[2 * n] = 2.0 * dot(cur, cur) - mu[0]
        if 2 * n + 1 == n_moments:
            break
        nxt = H.matvec(cur)
        nxt *= 2.0 * al
        nxt += (2.0 * be) * cur
        nxt -= prev
        prev, cur = cur, nxt
        matvecs += 1
        mu[2 * n + 1] = 2.0 * dot(cur, prev) - mu[1]
        n += 1
    return mu, matvecs


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalised type-II DCT, y_k = 2 sum_n x_n cos(pi k (2n + 1) / 2N),
    through one complex FFT of the even-odd reordered input (Makhoul, IEEE
    Trans. ASSP 28, 27 (1980))."""
    n = len(x)
    v = np.fft.fft(np.concatenate((x[::2], x[1::2][::-1])))
    return 2.0 * (np.exp(-0.5j * np.pi * np.arange(n) / n) * v).real


def _cheb_coeffs(fn, lo: float, hi: float, degree: int) -> np.ndarray:
    j = np.arange(degree + 1)
    nodes = np.cos(np.pi * (j + 0.5) / (degree + 1))
    xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = np.asarray(fn(xs), dtype=float)
    c = _dct2(vals) / (degree + 1)
    c[0] *= 0.5
    return c


def make_chebyshev_expansion(fn, lo: float, hi: float,
                             tol: float) -> ChebyshevExpansion:
    """Smallest-degree Chebyshev interpolant of fn on [lo, hi] whose
    measured sup error is at most tol.

    Interpolation degrees d double from 512 up to `DEGREE_CAP`.  Each
    candidate, cut where its coefficient tail stays below tol/2, is measured
    at x_j = cos(pi j / m), j = 0..m, m = 32 d, mapped to [lo, hi], where its
    values are one real FFT of the zero-padded coefficients (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013, ch. 3-4).
    At the top frequency that spacing under-reads a peak by at most 1 -
    cos(pi/64), about 0.12%: the recorded error is a sample, not a proof.
    """
    degree = 512
    while True:
        c = _cheb_coeffs(fn, lo, hi, degree)
        tail = np.cumsum(np.abs(c[::-1]))[::-1]
        keep = np.nonzero(tail > tol / 2)[0]
        c = c[:int(keep[-1]) + 1 if len(keep) else 1]
        m = 32 * degree
        xs = 0.5 * (hi - lo) * np.cos(np.pi * np.arange(m + 1) / m) \
            + 0.5 * (hi + lo)
        err = float(np.max(np.abs(np.fft.rfft(c, 2 * m).real - fn(xs))))
        if err <= tol:
            return ChebyshevExpansion(c, lo, hi, err)
        if degree >= DEGREE_CAP:
            raise FilterDegreeError(
                f"sup error {err:.3e} > tol {tol:.3e} at degree cap "
                f"{DEGREE_CAP} on [{lo:.4g}, {hi:.4g}]")
        degree *= 2


def spectral_interval(H: SparseHermitianOperator, x: np.ndarray) -> float:
    """The Collatz-Wielandt floor: a proved lower bound on the lowest
    eigenvalue of a real block H, from a real x with no zero entry; or NaN.

    If s_i H_ij s_j <= 0 for all i != j, s the signs of x (checked exactly),
    then lambda_min(H) >= min_i (Hx)_i / x_i (L. Collatz, Math. Z. 48, 221
    (1942); H. Wielandt, Math. Z. 52, 642 (1950)).  Each quotient is lowered
    by gamma_(k+3) (|H||x|)_i / |x_i|, gamma_k = k u / (1 - k u), u = 2^-53,
    k the length of row i: gamma_(k+1) bounds the rounding of the sum (Hx)_i
    and of the division (Higham, Accuracy and Stability of Numerical
    Algorithms, SIAM 2002, sec. 3.1), two more units that of the margin and
    the subtraction.  NaN if H or x is complex, or the condition fails.
    """
    rows = np.repeat(np.arange(H.dim), np.diff(H.indptr))
    s, cols = np.sign(x), H.indices
    if np.iscomplexobj(H.data) or np.iscomplexobj(x) or not np.all(x) \
            or np.any((s[rows] * H.data * s[cols] > 0) & (cols != rows)):
        return float("nan")
    k, u = np.diff(H.indptr) + 3.0, np.finfo(float).eps / 2
    spread = np.bincount(rows, np.abs(H.data * x[cols]), H.dim) / np.abs(x)
    return float(np.min(H.matvec(x) / x - k * u / (1 - k * u) * spread))
