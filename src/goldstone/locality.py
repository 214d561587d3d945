"""Quasi-locality estimates on dense tiny systems.

Heisenberg evolution, the smeared evolution through the energy window, the
partial-trace local approximation, the telescoping ball decomposition, and
Lieb-Robinson/field-continuity profiles.  Everything is realised spectrally
on dense matrices: these are operator-norm statements, and only dense
algebra gives certified norms.  Practical sizes stop near twelve spin-1/2
sites.  Norms are sqrt(max eig(b^dagger b)) of an exactly rescaled b, and
non-finite input raises (`operator_norm`); delta shells and partial-trace
checks take theirs on the block R of R (x) 1 (`support_norm`).  On desk.ini
both agree with a full-size SVD to 3e-15 relative (locality_profiles.csv).
H is real, and so are S^(1) and S^(2) (the S_z and S_x matrices,
`operators.SECTOR_AXES`): the scan takes axis 2, so its smeared evolution,
shells and field-continuity differences are real.  Balls and distances
are taken from site 0: twisted translations commute with H and carry
S^(axis) at site 0 to +-S^(axis) at every other site, so site 0 stands for
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import SpectralDecomposition, dense_spectrum
from .filters import GFilter
from .lattice import Lattice
from .operators import build_hamiltonian

__all__ = [
    "DecayFit",
    "operator_norm",
    "support_norm",
    "tau_g_star",
    "local_approximation",
    "delta_decomposition",
    "lr_commutator_profile",
    "b_continuity",
]

NORM_FLOOR = 1e-12


def operator_norm(a: np.ndarray) -> float:
    """s sqrt(lambda_max(b^dagger b)) for a = s b, s the largest normal power
    of two at or below max|a| (exact; the Gram matrix can neither overflow
    nor underflow).  NaN/inf raise."""
    top = float(np.max(np.abs(a)))
    if not np.isfinite(top):
        raise ValueError("operator_norm: matrix has a non-finite entry")
    scale = np.ldexp(1.0, max(np.frexp(top)[1] - 1, -1022))
    b = a / scale
    return float(scale * np.sqrt(abs(np.linalg.eigvalsh(b.conj().T @ b)[-1])))


def support_norm(b: np.ndarray, keep_sites, lattice: Lattice) -> float:
    """||b|| for b = R (x) 1 on `keep_sites`, as `local_approximation` makes
    it (by exact copies): the norm of R, the block of b between the states
    whose digits off the support are all 0 (site 0 most significant)."""
    dloc, codes = lattice.two_s + 1, np.zeros(1, dtype=np.int64)
    for j in range(lattice.n_sites):
        step = np.arange(dloc if j in keep_sites else 1)
        codes = (codes[:, None] * dloc + step).ravel()
    return operator_norm(b[np.ix_(codes, codes)])


@dataclass
class DecayFit:
    """Fitted envelope over norm samples: amplitude exp(velocity t - rate d)
    for a Lieb-Robinson profile, amplitude / (m + 1)^rate (a power law in the
    shell index) when velocity is None.  The envelope dominates every sample
    by construction, and the constants are measured artifacts (the
    underlying bounds only assert their existence)."""

    samples: list                   # (coordinates..., norm)
    amplitude: float
    rate: float
    velocity: float | None = None

    def envelope(self, *coords) -> float:
        if self.velocity is None:
            (m,) = coords
            return self.amplitude / (m + 1.0) ** self.rate
        t, dist = coords
        return self.amplitude * np.exp(self.velocity * t - self.rate * dist)


def _evolve(dec: SpectralDecomposition, at: np.ndarray,
            t: float) -> np.ndarray:
    """exp(iHt) a exp(-iHt) through the eigensystem, for the operator a
    whose eigenbasis matrix is `at`."""
    phases = np.exp(1j * dec.eigenvalues * t)
    return dec.eigenvectors @ (np.outer(phases, phases.conj()) * at) \
        @ dec.eigenvectors.conj().T


def tau_g_star(dec: SpectralDecomposition, g: GFilter,
               a: np.ndarray) -> np.ndarray:
    """Energy-smeared evolution: matrix elements <m|a|n> g(E_m - E_n).

    Exact spectral realisation of the time integral against the window's
    Fourier transform; no time quadrature enters anywhere.
    """
    at = dec.eigenvectors.conj().T @ a @ dec.eigenvectors
    gmat = g(dec.eigenvalues[:, None] - dec.eigenvalues[None, :])
    return dec.eigenvectors @ (gmat * at) @ dec.eigenvectors.conj().T


def local_approximation(b: np.ndarray, keep_sites, lattice: Lattice) -> np.ndarray:
    """Pi_X(b): normalised partial trace over the complement of X, embedded
    back with the identity.  Idempotent and norm-nonincreasing."""
    n = lattice.n_sites
    dloc = lattice.two_s + 1
    keep = sorted(set(int(j) for j in keep_sites))
    comp = [j for j in range(n) if j not in keep]
    if not comp:
        return b.copy()
    dim_k = dloc ** len(keep)
    dim_c = dloc ** len(comp)
    tensor = b.reshape((dloc,) * (2 * n))
    perm = keep + comp
    order = perm + [n + j for j in perm]
    tensor = np.transpose(tensor, order).reshape(dim_k, dim_c, dim_k, dim_c)
    reduced = np.einsum("abcb->ac", tensor) / dim_c
    embedded = np.einsum("ac,bd->abcd", reduced,
                         np.eye(dim_c, dtype=b.dtype))
    embedded = embedded.reshape((dloc,) * (2 * n))
    inverse = np.argsort(order)
    return np.transpose(embedded, inverse).reshape(b.shape)


def delta_decomposition(smeared: np.ndarray, lattice: Lattice):
    """Telescoping ball decomposition of a smeared evolution tau*g(a) of an
    operator a at site 0.

    Delta_0 is the ball-0 local approximation of `smeared`; Delta_m peels
    the shell between balls m-1 and m around site 0, up to the lattice
    diameter.  The partial sums reconstruct `smeared` exactly once the ball
    covers the lattice.  Returns (deltas, norms, power-law fit of the
    norms).
    """
    deltas = []
    norms = []
    prev = None
    for m in range(lattice.diameter + 1):
        ball = lattice.ball(0, m)
        approx = local_approximation(smeared, ball, lattice)
        delta = approx.copy() if prev is None else approx - prev
        prev = approx
        deltas.append(delta)
        norms.append(support_norm(delta, ball, lattice))
    return deltas, norms, _fit_power_law(norms)


def _fit_power_law(norms) -> DecayFit:
    samples = list(enumerate(norms))
    usable = [(m, v) for m, v in samples if v > NORM_FLOOR]
    if len(usable) < 2:
        return DecayFit(samples, amplitude=max(norms, default=0.0), rate=0.0)
    xs = np.log(np.array([m for m, _ in usable], dtype=float) + 1.0)
    ys = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    lift = float(np.max(ys - (intercept + slope * xs)))
    return DecayFit(samples, amplitude=float(np.exp(intercept + lift)),
                    rate=float(-slope))


def _commutator_norm(at: np.ndarray, local: np.ndarray, site: int) -> float:
    """||[at, b]|| for Hermitian `at` and b = `local` at `site`.  In the
    eigenbasis w of `local` (eigenvalues e), [at, b] has the blocks
    (e_b - e_a) sum_pq conj(w[p, a]) w[q, b] at_pq, at_pq joining the states
    of site digit p to those of digit q.  For spin 1/2 the norm is exactly
    that of the half-size block (0, 1); larger spins assemble every block."""
    e, w = np.linalg.eigh(local)
    dloc, m = len(e), len(at) // len(e)
    tiles = at.reshape((dloc ** site, dloc, m // dloc ** site) * 2)

    def rotated(a: int, b: int) -> np.ndarray:
        return (e[b] - e[a]) * sum(
            w[p, a].conj() * w[q, b] * tiles[:, p, :, :, q, :]
            for p in range(dloc) for q in range(dloc)).reshape(m, m)
    if dloc == 2:
        return operator_norm(rotated(0, 1))
    return operator_norm(np.block([[rotated(a, b) for b in range(dloc)]
                                   for a in range(dloc)]))


def lr_commutator_profile(dec: SpectralDecomposition, lattice: Lattice,
                          t_grid, a: np.ndarray) -> DecayFit:
    """Norm samples ||[tau_t(a), b_y]|| of a site-0 operator a = S^(axis)
    and b_y its copy at site y, each on a half-size block for spin 1/2
    (`_commutator_norm`), by distance class and time, with a dominating
    K exp(v t) exp(-alpha d) envelope fit.  Per (t, distance) the worst norm
    over sites at that distance is kept; with fewer than three samples above
    NORM_FLOOR the envelope is constant.
    """
    # the single-site matrix: a between the states whose digits off site 0
    # (the most significant) are all 0
    step = len(a) // (lattice.two_s + 1)
    local = a[::step, ::step]
    a_eig = dec.eigenvectors.conj().T @ a @ dec.eigenvectors
    samples = []
    for t in t_grid:
        at = _evolve(dec, a_eig, t)
        by_dist: dict[int, float] = {}
        for y in range(lattice.n_sites):
            d = lattice.graph_distance(0, y)
            norm = _commutator_norm(at, local, y)
            by_dist[d] = max(by_dist.get(d, 0.0), norm)
        for d, v in sorted(by_dist.items()):
            samples.append((float(t), float(d), v))
    usable = [s for s in samples if s[2] > NORM_FLOOR]
    if len(usable) < 3:
        top = max((s[2] for s in samples), default=0.0)
        return DecayFit(samples, amplitude=top, rate=0.0, velocity=0.0)
    ts = np.array([s[0] for s in usable])
    ds = np.array([s[1] for s in usable])
    ys = np.log([s[2] for s in usable])
    design = np.column_stack([np.ones_like(ts), ts, -ds])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    logk, vel, alpha = coef
    lift = float(np.max(ys - design @ coef))
    return DecayFit(samples, amplitude=float(np.exp(logk + lift)),
                    rate=float(alpha), velocity=float(vel))


def b_continuity(lattice: Lattice, g: GFilter, spectra,
                 a: np.ndarray) -> tuple[list, float]:
    """r(B) = ||tau*g,B(a) - tau*g,0(a)|| / B over a descending B ladder,
    given as (B, dense spectrum of H at B) pairs; only the B = 0 spectrum is
    computed here.

    Boundedness of r across the ladder is the finite-size face of the
    linear-in-B continuity of the smeared evolution.  Returns the (B, r(B))
    samples and the max/min ratio of r, which the acceptance check bounds.
    """
    if any(b <= 0 for b, _ in spectra):
        raise ValueError("B ladder must be strictly positive (B = 0 is the "
                         "reference point, not a ladder entry)")
    H0 = build_hamiltonian(lattice, 0.0)
    ref = tau_g_star(dense_spectrum(H0, H0.dim), g, a)
    samples = [(float(b), operator_norm(tau_g_star(dec, g, a) - ref) / b)
               for b, dec in spectra]
    rates = [r for _, r in samples]
    ratio = max(rates) / min(rates) if min(rates) > 0 else np.inf
    return samples, float(ratio)
