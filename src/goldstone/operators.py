"""Sparse spin operators on the full product basis or on magnetization sectors.

Basis encoding: each site's S_z level is one base-(2S+1) digit of the state
index, site 0 most significant (row-major over the coordinate list), digit 0
meaning m = +S.  The full basis (`basis_tables`) backs the dense oracle.  A
sector basis (`sector_basis`) holds only the states of given total
magnetizations, ranked by `searchsorted` over their sorted full-basis
indices; there the spin axes are relabelled so that the field axis is the
quantization axis (see `SECTOR_AXES`).  Every single-site spin sum, on
either basis, comes from `site_sum`.  All builders are vectorised over the
basis; the resulting CSR arrays feed the matvec kernels in `_kernels`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse

from . import _kernels
from .lattice import Lattice, LatticeSpec

__all__ = [
    "SparseHermitianOperator",
    "spin_matrices",
    "basis_tables",
    "sector_basis",
    "build_hamiltonian",
    "transformed_hamiltonian",
    "marshall_signs",
    "fourier_spin",
    "site_spin_operator",
    "site_sum",
    "ladder_weights",
    "staggered_operator",
    "site_phases",
    "site_ladders",
    "TwistedOrbits",
    "twisted_orbits",
    "twisted_zero_leak",
    "direct_sum",
]

# The single-site matrix (1, 2, 3: S_x, S_y, S_z of `spin_matrices`) that
# represents S^(1), S^(2), S^(3) on a sector basis.  The full basis uses
# (1, 2, 3).  Sector bases relabel the axes by the cyclic, hence proper,
# rotation (1, 2, 3) -> (z, x, y): the field axis 1 becomes the quantization
# axis, total S^(1) labels the sectors, and every result is unchanged up to
# rounding.
SECTOR_AXES = (3, 1, 2)


@dataclass(eq=False)
class SparseHermitianOperator:
    """Complex (or real) sparse matrix in CSR form on the spin Hilbert space.

    `dim` rows; `n_cols` columns when the operator maps between two bases
    (None: square)."""

    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int | None = None
    _scipy_cache: scipy.sparse.csr_matrix | None = field(
        default=None, repr=False, compare=False)

    @classmethod
    def from_coo(cls, dim, rows, cols, vals, n_cols=None):
        mat = scipy.sparse.coo_matrix((vals, (rows, cols)),
                                      shape=(dim, n_cols or dim)).tocsr()
        mat.sum_duplicates()
        return cls.from_scipy(mat)

    @classmethod
    def from_scipy(cls, mat):
        mat = mat.tocsr()
        rows, cols = mat.shape
        return cls(rows, mat.indptr, mat.indices, mat.data,
                   None if cols == rows else cols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _scipy(self) -> scipy.sparse.csr_matrix:
        if self._scipy_cache is None:
            self._scipy_cache = scipy.sparse.csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.dim, self.n_cols or self.dim))
        return self._scipy_cache

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _kernels.csr_matvec(self.indptr, self.indices, self.data, x,
                                   scipy_csr=self._scipy())

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._scipy().todense())

    def principal(self, idx: np.ndarray) -> "SparseHermitianOperator":
        """The principal submatrix on the ascending basis positions `idx`."""
        return SparseHermitianOperator.from_scipy(
            self._scipy()[idx][:, idx].sorted_indices())


def spin_matrices(two_s: int):
    """Dense single-site (S^(1), S^(2), S^(3)) for spin S = two_s/2.

    Rows/columns are ordered m = S, S-1, ..., -S to match the basis digits.
    """
    s = two_s / 2.0
    m = s - np.arange(two_s + 1, dtype=float)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    for i in range(1, two_s + 1):
        sp[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    sm = sp.conj().T
    return (sp + sm) / 2, (sp - sm) / 2j, sz


@dataclass(frozen=True, eq=False)
class BasisTables:
    """Product states of one lattice spec with their per-site digit tables.

    `codes` are the states' indices in the full product basis, ascending.
    `sectors` is None for the full basis (codes 0 .. dim-1), or the total
    magnetizations M = sum of m over sites that the basis spans.
    """

    dloc: int
    spin: float
    sectors: tuple | None
    codes: np.ndarray       # (dim,) int64, ascending
    digits: np.ndarray      # (n_sites, dim) int8
    strides: np.ndarray     # (n_sites,) int64

    @property
    def dim(self) -> int:
        return len(self.codes)

    def m(self, j: int) -> np.ndarray:
        """m value of site j in every basis state."""
        return self.spin - self.digits[j].astype(np.float64)

    def rank(self, codes: np.ndarray) -> np.ndarray:
        """Basis positions of full-basis codes, which must lie in the basis."""
        if self.sectors is None:
            return codes
        idx = np.searchsorted(self.codes, codes)
        found = self.codes[np.minimum(idx, self.dim - 1)]
        if not np.array_equal(found, codes):
            raise ValueError(f"states outside the sectors {self.sectors}")
        return idx


def _tables(spec: LatticeSpec, codes: np.ndarray, sectors) -> BasisTables:
    n = spec.n_sites
    dloc = spec.two_s + 1
    digits = np.empty((n, len(codes)), dtype=np.int8)
    r = codes.copy()
    for j in range(n - 1, -1, -1):
        digits[j] = r % dloc
        r //= dloc
    strides = np.array([dloc ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    return BasisTables(dloc, spec.spin, sectors, codes, digits, strides)


@lru_cache(maxsize=16)
def basis_tables(spec: LatticeSpec) -> BasisTables:
    """The full product basis (the dense oracle's basis)."""
    return _tables(spec, np.arange(spec.hilbert_dim, dtype=np.int64), None)


@lru_cache(maxsize=16)
def sector_basis(spec: LatticeSpec, sectors: tuple) -> BasisTables:
    """States of total magnetization M in `sectors`, without the full basis.

    A state's digit sum is n_sites * S - M.  Codes are built site by site,
    most significant digit first, keeping only prefixes that can still reach
    a wanted digit sum; appending digits in order keeps them ascending.
    """
    n, two_s = spec.n_sites, spec.two_s
    top = n * two_s // 2
    if not sectors or any(abs(M) > top for M in sectors):
        raise ValueError(f"sectors {sectors} outside |M| <= {top}")
    sums_wanted = sorted({top - M for M in sectors})
    lo, hi = sums_wanted[0], sums_wanted[-1]
    step = np.arange(two_s + 1, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for j in range(n):
        codes = (codes[:, None] * (two_s + 1) + step).ravel()
        sums = (sums[:, None] + step).ravel()
        keep = (sums <= hi) & (sums + two_s * (n - 1 - j) >= lo)
        codes, sums = codes[keep], sums[keep]
    return _tables(spec, codes[np.isin(sums, sums_wanted)], tuple(sectors))


def _ladder_terms(tab: BasisTables, j: int, raising: bool,
                  target: BasisTables):
    """(src, dst, amp) for S^+_j (or S^-_j) from the states of `tab` into
    `target`: <dst| S^+-_j |src> = amp."""
    s = tab.spin
    if raising:
        mask = tab.digits[j] > 0
        m = tab.m(j)[mask]
        amp = np.sqrt(s * (s + 1) - m * (m + 1))
    else:
        mask = tab.digits[j] < tab.dloc - 1
        m = tab.m(j)[mask]
        amp = np.sqrt(s * (s + 1) - m * (m - 1))
    src = np.nonzero(mask)[0].astype(np.int64)
    shift = -tab.strides[j] if raising else tab.strides[j]
    return src, target.rank(tab.codes[src] + shift), amp


def site_ladders(tab: BasisTables, target: BasisTables, sites=None):
    """(counts, src, dst, amp): the terms of S^+_j and S^-_j, in that order,
    for each j of `sites` (default: every site) in turn, from the states of
    `tab` into `target`; counts holds the number of terms of each."""
    if sites is None:
        sites = range(len(tab.strides))
    terms = [_ladder_terms(tab, j, raising, target)
             for j in sites for raising in (True, False)]
    src, dst, amp = (np.concatenate(column) for column in zip(*terms))
    return np.array([len(t[0]) for t in terms]), src, dst, amp


# The factors of the S^+ and S^- terms in S_x = (S^+ + S^-)/2 and
# S_y = (S^+ - S^-)/2i, the matrices of axes 1 and 2 of `spin_matrices`.
_LADDER_COEF = {1: (0.5, 0.5), 2: (-0.5j, 0.5j)}


def _matrix_axis(axis: int, sector) -> int:
    """The `spin_matrices` axis of S^(axis) on the full basis (sector None)
    or on a sector basis."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return axis if sector is None else SECTOR_AXES[axis - 1]


def ladder_weights(weights, axis: int, counts, sector=None) -> np.ndarray:
    """w_j c for each S^+-_j term of `site_ladders` (term counts `counts`),
    c its factor in S^(axis) on the basis of `site_sum` with `sector`."""
    coef = _LADDER_COEF[_matrix_axis(axis, sector)]
    return np.repeat(np.outer(weights, coef), counts)


def site_sum(lattice: Lattice, weights, axis: int, sector: int | None = None,
             scale: float = 1.0) -> SparseHermitianOperator:
    """scale * sum_j w_j S_j^(axis), one weight per site; sites of weight
    zero add no entries.

    On the full basis, or with `sector` = M the relabelled operator
    (`SECTOR_AXES`) on the states of magnetization M: a diagonal on M for
    axis 1, else a rectangular map into the sectors M + 1 and M - 1 (that
    basis, in that order of `sector_basis`).
    """
    mat_axis = _matrix_axis(axis, sector)
    tab = target = basis_tables(lattice.spec) if sector is None else \
        sector_basis(lattice.spec, (sector,))
    if sector is not None and mat_axis != 3:
        target = sector_basis(lattice.spec, (sector + 1, sector - 1))
    w = np.asarray(weights)
    sites = np.flatnonzero(w)
    if mat_axis == 3:
        diag = np.zeros(tab.dim, dtype=np.result_type(w, float))
        for j in sites:
            diag += w[j] * tab.m(j)
        rows = cols = np.arange(tab.dim, dtype=np.int64)
        vals = scale * diag
    else:
        counts, cols, rows, amp = site_ladders(tab, target, sites)
        vals = ladder_weights(scale * w[sites], axis, counts, sector) * amp
    return SparseHermitianOperator.from_coo(target.dim, rows, cols, vals,
                                            n_cols=tab.dim)


def build_hamiltonian(lattice: Lattice, B: float,
                      sectors: tuple | None = None) -> SparseHermitianOperator:
    """H = sum_bonds S_x . S_y  -  B sum_x sigma(x) S_x^(1).

    Real symmetric in the product basis (the S^(2)S^(2) bond piece combines
    with S^(1)S^(1) into real hopping).  With `sectors`, H on the
    magnetization sectors M in `sectors` (block diagonal in M) with the axes
    relabelled, so the field term is diagonal.
    """
    if B < 0:
        raise ValueError("staggered field must be nonnegative")
    tab = basis_tables(lattice.spec) if sectors is None else \
        sector_basis(lattice.spec, tuple(sectors))
    dim = tab.dim
    s = tab.spin
    idx = np.arange(dim, dtype=np.int64)

    diag = np.zeros(dim)
    rows = [idx]
    cols = [idx]
    vals = []
    for (i, j) in lattice.bonds:
        m_i, m_j = tab.m(i), tab.m(j)
        diag += m_i * m_j
        # transverse part: (S+_i S-_j + S-_i S+_j)/2
        mask = (tab.digits[i] > 0) & (tab.digits[j] < tab.dloc - 1)
        src = np.nonzero(mask)[0].astype(np.int64)
        mi = m_i[mask]
        mj = m_j[mask]
        amp = 0.5 * np.sqrt((s * (s + 1) - mi * (mi + 1)) *
                            (s * (s + 1) - mj * (mj - 1)))
        dst = tab.rank(tab.codes[src] - tab.strides[i] + tab.strides[j])
        rows.extend((dst, src))
        cols.extend((src, dst))
        vals.extend((amp, amp))
    if B != 0 and sectors is not None:
        for j in range(lattice.n_sites):
            diag -= B * lattice.staggered_signs[j] * tab.m(j)
    elif B != 0:
        field = site_sum(lattice, lattice.staggered_signs, 1,
                         scale=-B)._scipy().tocoo()
        rows.append(field.row)
        cols.append(field.col)
        vals.append(field.data)
    data = np.concatenate([diag] + vals)
    return SparseHermitianOperator.from_coo(
        dim, np.concatenate(rows), np.concatenate(cols), data)


def marshall_signs(lattice: Lattice) -> np.ndarray:
    """Diagonal of the sublattice pi-rotation about axis 3, as +-1 per state.

    Fixed to a real gauge: entry (-1)^(sum over odd-sublattice sites of S - m).
    This differs from exp(i pi sum S^(3)) by a global phase only.
    """
    tab = basis_tables(lattice.spec)
    odd = [j for j in range(lattice.n_sites) if lattice.staggered_signs[j] < 0]
    par = np.zeros(tab.dim, dtype=np.int64)
    for j in odd:
        par += tab.digits[j]
    return np.where(par % 2 == 0, 1.0, -1.0)


def transformed_hamiltonian(lattice: Lattice, B: float) -> SparseHermitianOperator:
    """U* H U = signs (x) H (x) signs, entry by entry, for the sublattice
    rotation U = diag(`marshall_signs`) (U = U* = U^-1).

    Bond terms become -(S+_x S-_y + S-_x S+_y)/2 + S3_x S3_y and the field
    -B/2 sum_x (S+_x + S-_x); all off-diagonal entries of the result are
    nonpositive, which is what makes the B > 0 ground state Perron-Frobenius
    positive and translation covariant with period one.
    """
    H = build_hamiltonian(lattice, B)
    signs = marshall_signs(lattice)
    row_signs = np.repeat(signs, np.diff(H.indptr))
    return SparseHermitianOperator(H.dim, H.indptr, H.indices,
                                   H.data * row_signs * signs[H.indices])


def site_spin_operator(lattice: Lattice, site: int, axis: int) -> SparseHermitianOperator:
    """S_x^(axis) at one site, axis in {1, 2, 3}."""
    return site_sum(lattice, np.eye(lattice.n_sites)[site], axis)


def fourier_spin(lattice: Lattice, n_momentum, axis: int,
                 sector: int | None = None) -> SparseHermitianOperator:
    """hat S_k^(axis) = N^{-1/2} sum_x e^{i k x} S_x^(axis), on the basis of
    `site_sum` with `sector`.  Its adjoint is the operator at -k."""
    n_momentum = tuple(n_momentum)
    if not lattice.momentum_on_grid(n_momentum):
        raise ValueError(f"momentum label {n_momentum} is off the grid")
    return site_sum(lattice, site_phases(lattice, n_momentum), axis, sector,
                    1.0 / np.sqrt(lattice.n_sites))


def site_phases(lattice: Lattice, n_momentum) -> np.ndarray:
    """e^{i k x} at every site x, for the grid momentum k of `n_momentum`."""
    k = lattice.kvec(n_momentum)
    return np.array([np.exp(1j * np.dot(k, x)) for x in lattice.sites])


def staggered_operator(lattice: Lattice, sector: int | None = None
                       ) -> SparseHermitianOperator:
    """sum_x sigma(x) S_x^(1): the order parameter N m_B is its expectation.

    On a sector (relabelled axes) it is diagonal."""
    return site_sum(lattice, lattice.staggered_signs, 1, sector)


@dataclass(frozen=True, eq=False)
class TwistedOrbits:
    """Orbits of a sector basis under the twisted translations
    g_a = T^a F^(a_1 + ... + a_d), one per site shift a (T^a moves the spin
    at x to x + a, F maps every digit d to 2S - d).

    Each orbit is represented by its smallest code; `elem[s]` is a group
    element g with g s = rep.  Block q is the span of the vectors on which
    g_a acts as chi_q(g_a) = e^{-i q.a}; its basis vectors are
    |r_q>[s] = chi_q(g_s) / sqrt(|orbit|) over the orbits whose stabiliser
    chi_q is trivial on.
    """

    shifts: np.ndarray      # (|G|, d) site shift a of each group element
    orbit: np.ndarray       # (dim,) orbit of each state
    elem: np.ndarray        # (dim,) index of a g with g s = rep
    reps: np.ndarray        # (n_orbits,) basis positions of representatives
    size: np.ndarray        # (n_orbits,) orbit sizes
    fixes: np.ndarray       # (|G|, n_orbits) g fixes the representative

    def character(self, lattice: Lattice, q) -> np.ndarray:
        return np.exp(-1j * (self.shifts @ lattice.kvec(q)))

    def allowed(self, chi: np.ndarray) -> np.ndarray:
        """Orbits that carry a basis vector of the block with character chi."""
        return ~np.any(self.fixes & (np.abs(chi - 1.0) > 1e-9)[:, None],
                       axis=0)

    def project(self, v: np.ndarray, chi: np.ndarray):
        """(coordinates <r_q|v> of v on the basis of the block, the loss
        ||v||^2 - ||P_q v||^2)."""
        w = chi[self.elem].conj() * v
        c = (np.bincount(self.orbit, w.real, len(self.reps))
             + 1j * np.bincount(self.orbit, w.imag, len(self.reps)))
        c = (c / np.sqrt(self.size))[self.allowed(chi)]
        return c, float(np.vdot(v, v).real - np.vdot(c, c).real)

    def block(self, H: SparseHermitianOperator,
              chi: np.ndarray) -> SparseHermitianOperator:
        """<r'_q|H|r_q> = sqrt(|O_r'| / |O_r|) sum_{s in O_r} H[r', s]
        chi_q(g_s), from the rows of H (which commutes with G) at the
        representatives."""
        ok = self.allowed(chi)
        col = np.full(len(self.reps), -1)
        col[ok] = np.arange(np.count_nonzero(ok))
        rows = H._scipy()[self.reps[ok]].tocoo()
        keep = col[self.orbit[rows.col]] >= 0
        r, s = rows.row[keep], rows.col[keep]
        o = self.orbit[s]
        vals = (rows.data[keep] * chi[self.elem[s]]
                * np.sqrt(self.size[ok][r] / self.size[o]))
        return SparseHermitianOperator.from_coo(rows.shape[0], r, col[o], vals)


def direct_sum(ops) -> SparseHermitianOperator:
    """The block-diagonal operator with the blocks `ops`, in order."""
    return SparseHermitianOperator.from_scipy(
        scipy.sparse.block_diag([op._scipy() for op in ops], format="csr"))


def _twisted_images(lattice: Lattice, tab: BasisTables, a) -> np.ndarray:
    """Basis positions of g_a s for every state s of `tab`, which must be
    closed under g_a."""
    codes = np.zeros(tab.dim, dtype=np.int64)
    for y, x in enumerate(lattice.sites):
        codes += tab.digits[lattice.site_index(np.subtract(x, a))] \
            * tab.strides[y]
    top = lattice.spec.hilbert_dim - 1
    return tab.rank(top - codes if np.sum(a) % 2 else codes)


def twisted_orbits(lattice: Lattice, sectors: tuple) -> TwistedOrbits:
    """Orbit tables of the twisted translations on the sector basis of
    `sectors`, which must be closed under M -> -M.

    H commutes with every g_a: a shift by one site flips the staggered sign
    of the field, F flips S^(1) back and leaves the bond terms as they are
    (F S^+ F = S^- with equal amplitudes, so F is a plain permutation).
    The |G| x dim table of images lives only while the tables are built.
    """
    tab = sector_basis(lattice.spec, tuple(sectors))
    ext = lattice.spec.extents
    shifts = np.array(list(itertools.product(*map(range, ext))))
    images = np.empty((len(shifts), tab.dim), dtype=np.int64)
    for g, a in enumerate(shifts):
        images[g] = _twisted_images(lattice, tab, a)
    rep = images.min(axis=0)
    reps, orbit = np.unique(rep, return_inverse=True)
    return TwistedOrbits(shifts, orbit, images.argmin(axis=0), reps,
                         np.bincount(orbit), images[:, reps] == reps)


def twisted_zero_leak(lattice: Lattice, sectors: tuple,
                      v: np.ndarray) -> float:
    """Upper bound on ||(1 - P_0) v||^2, P_0 the projector on twisted
    momentum 0, for v on the sector basis of `sectors` (closed under
    M -> -M), from the d one-site generators g_i alone: g_i is e^(-i q_i) on
    block q, so sum_i ||(g_i - 1) v||^2 >= 4 sin^2(pi / L_max) ||(1 - P_0)
    v||^2.  Each norm is summed from entry differences."""
    tab = sector_basis(lattice.spec, tuple(sectors))
    ext = lattice.spec.extents
    total = sum(float(np.sum(np.abs(v[_twisted_images(lattice, tab, e)] - v)
                             ** 2)) for e in np.eye(len(ext), dtype=np.int64))
    return total / (4.0 * np.sin(np.pi / max(ext)) ** 2)
