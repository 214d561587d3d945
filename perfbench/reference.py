"""Reference quantities computed apart from goldstone.

The Hamiltonian H = sum_bonds S_x . S_y - B sum_x sigma(x) S_x^(1) is built
from scipy.sparse.kron products of spin-1/2 matrices.  Sites are numbered in
row-major order and site 0 is the leftmost Kronecker factor, with the local
basis ordered (up, down); the nearest-neighbour bonds of the torus are
counted once each, and momenta carry integer labels n with
k = 2 pi n / L per axis.  Ground states come from numpy (dense) or
scipy.sparse.linalg.eigsh (sparse); spectral sums come from the dense
eigensystem.  Nothing here imports goldstone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SX = np.array([[0.0, 0.5], [0.5, 0.0]])
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]])
SZ = np.array([[0.5, 0.0], [0.0, -0.5]])
# S^+ - S^-: real, and S^(2)_x S^(2)_y = -(A_x A_y) / 4.
A = np.array([[0.0, 1.0], [-1.0, 0.0]])


def smoothstep(s):
    """psi(s) / (psi(s) + psi(1 - s)) with psi(s) = exp(-1/s) for s > 0."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return np.where(s >= 1, 1.0, np.where(s <= 0, 0.0, a / (a + b)))


def window(e, epsilon, gamma, delta_gamma):
    """The energy window g: zero outside (epsilon, gamma), one on
    [2 epsilon, gamma - delta_gamma]."""
    e = np.asarray(e, dtype=float)
    return (smoothstep((e - epsilon) / epsilon)
            * smoothstep((gamma - e) / delta_gamma))


class Torus:
    def __init__(self, extents):
        self.extents = tuple(extents)
        self.sites = list(itertools.product(*[range(e) for e in self.extents]))
        self.n = len(self.sites)
        self.dim = 2 ** self.n
        index = {x: i for i, x in enumerate(self.sites)}
        bonds = set()
        for x in self.sites:
            for ax, e in enumerate(self.extents):
                y = list(x)
                y[ax] = (y[ax] + 1) % e
                if tuple(y) != x:
                    bonds.add(tuple(sorted((index[x], index[tuple(y)]))))
        self.bonds = sorted(bonds)
        self.signs = np.array([(-1) ** (sum(x) % 2) for x in self.sites])

    def site_op(self, m, i):
        factors = [sp.identity(2 ** i, format="csr"), sp.csr_matrix(m),
                   sp.identity(2 ** (self.n - i - 1), format="csr")]
        return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)

    def hamiltonian(self, B):
        sx = [self.site_op(SX, i) for i in range(self.n)]
        sz = [self.site_op(SZ, i) for i in range(self.n)]
        sa = [self.site_op(A, i) for i in range(self.n)]
        H = sp.csr_matrix((self.dim, self.dim))
        for i, j in self.bonds:
            H = H + sx[i] @ sx[j] - 0.25 * (sa[i] @ sa[j]) + sz[i] @ sz[j]
        for i in range(self.n):
            H = H - B * self.signs[i] * sx[i]
        return H.tocsr()

    def kvec(self, label):
        return np.array([2 * np.pi * n / e for n, e in zip(label, self.extents)])

    def shift_q(self, label):
        """n + Q, folded back onto the grid (-L/2, L/2]."""
        out = []
        for n, e in zip(label, self.extents):
            half = e // 2
            out.append((n + half + half - 1) % (2 * half) - half + 1)
        return tuple(out)

    def staggered_m(self, phi):
        total = 0.0
        for i in range(self.n):
            total += self.signs[i] * np.vdot(phi, self.site_op(SX, i) @ phi).real
        return float(total / self.n)


@dataclass
class System:
    """Reference ground state of one (lattice, B), with the full spectrum
    when it was diagonalised densely."""

    torus: Torus
    B: float
    energy: float
    phi: np.ndarray
    m_b: float
    evals: np.ndarray | None = None
    evecs: np.ndarray | None = None

    def __post_init__(self):
        self._local: dict = {}

    def sk(self, label, axis=2):
        """hat S_k^(axis) phi0 = N^-1/2 sum_x e^{i k.x} S_x^(axis) phi0."""
        if axis not in self._local:
            m = {1: SX, 2: SY, 3: SZ}[axis]
            phi = self.phi.astype(complex)
            self._local[axis] = [self.torus.site_op(m, i) @ phi
                                 for i in range(self.torus.n)]
        k = self.torus.kvec(label)
        v = np.zeros(self.torus.dim, dtype=complex)
        for x, lv in zip(self.torus.sites, self._local[axis]):
            v += np.exp(1j * np.dot(k, x)) * lv
        return v / np.sqrt(self.torus.n)

    def spectral_sums(self, v, epsilon, gamma, delta_gamma):
        """(num, den, irb) of v: den = <v, g^2(H-E0) v>,
        num = <v, (H-E0) g^2(H-E0) v>, irb = <v, (1-P0)(H-E0)^-1 v>."""
        amps2 = np.abs(self.evecs.conj().T @ v) ** 2
        de = self.evals - self.evals[0]
        g2 = window(de, epsilon, gamma, delta_gamma) ** 2
        irb = float(np.sum(amps2[1:] / de[1:]))
        return float(np.sum(amps2 * de * g2)), float(np.sum(amps2 * g2)), irb

    @property
    def width(self):
        """Upper bound on H - E0 over the spectrum: each bond spans
        [-3/4, 1/4] and each field term [-B/2, B/2]."""
        if self.evals is not None:
            return float(self.evals[-1] - self.evals[0])
        return len(self.torus.bonds) + self.B * self.torus.n


def _flip_sectors(dim):
    """Isometries onto the even and odd sectors of R = prod_x sigma^1_x,
    which flips every spin (basis index s -> dim - 1 - s) and commutes with
    H: the bond terms are even in each component and the field is along
    S^(1)."""
    half = np.arange(dim // 2)
    rows = np.r_[half, dim - 1 - half]
    cols = np.r_[half, half]
    s = np.sqrt(0.5)
    even = sp.csr_matrix((np.full(dim, s), (rows, cols)), shape=(dim, dim // 2))
    odd = sp.csr_matrix((np.r_[np.full(dim // 2, s), np.full(dim // 2, -s)],
                         (rows, cols)), shape=(dim, dim // 2))
    return even, odd


def solve(extents, B, dense: bool) -> System:
    torus = Torus(extents)
    H = torus.hamiltonian(B)
    if dense:
        # full spectrum, one numpy eigh per flip sector
        evals, evecs = [], []
        for P in _flip_sectors(torus.dim):
            w, V = np.linalg.eigh((P.T @ H @ P).toarray())
            evals.append(w)
            evecs.append(P @ V)
        evals = np.concatenate(evals)
        order = np.argsort(evals, kind="stable")
        evals, evecs = evals[order], np.hstack(evecs)[:, order]
        phi = evecs[:, 0]
        return System(torus, B, float(evals[0]), phi, torus.staggered_m(phi),
                      evals, evecs)
    v0 = np.ones(torus.dim) / np.sqrt(torus.dim)
    evals, evecs = spla.eigsh(H, k=1, which="SA", v0=v0, tol=1e-13)
    phi = evecs[:, 0]
    return System(torus, B, float(evals[0]), phi, torus.staggered_m(phi))
