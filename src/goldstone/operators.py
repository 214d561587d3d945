"""Sparse spin operators on the full product basis or on twisted-momentum
blocks.

Basis encoding: each site's S_z level is one base-(2S+1) digit of the state
index, site 0 most significant (row-major over the coordinate list), digit 0
meaning m = +S.  Every basis represents the spin axes alike (see
`SECTOR_AXES`): the field axis 1 is the quantization axis, so H conserves
total S^(1) and its field term is diagonal.  The full basis (`basis_tables`)
backs the dense oracle, and every single-site spin sum on it comes from
`site_sum`.  The sparse path works on blocks (M, q): the states of total
magnetization M and -M at twisted momentum q (`TwistedOrbits`), built from
orbit representatives without the sector's states or operators.  All
builders are vectorised and return one scipy CSR matrix per operator, whose
product is the one matvec of every solver and filter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .lattice import Lattice, LatticeSpec

__all__ = [
    "SparseHermitianOperator",
    "basis_tables",
    "sector_basis",
    "build_hamiltonian",
    "gershgorin_upper",
    "fourier_spin",
    "fourier_ladder",
    "site_spin_operator",
    "site_sum",
    "staggered_operator",
    "site_phases",
    "TwistedOrbits",
    "twisted_orbits",
    "excitation_ladders",
    "direct_sum",
]

# The single-site matrix (1, 2, 3: S_x, S_y, S_z) that represents S^(1),
# S^(2), S^(3) on every basis: the cyclic, hence proper, rotation
# (1, 2, 3) -> (z, x, y) makes the field axis 1 the quantization axis, so
# total S^(1) labels the sectors.
SECTOR_AXES = (3, 1, 2)

# states per batch when images under the twisted group are computed
_BATCH = 1 << 16


@dataclass(eq=False)
class SparseHermitianOperator:
    """Complex (or real) square sparse matrix: one scipy CSR matrix."""

    csr: scipy.sparse.csr_matrix

    @classmethod
    def from_coo(cls, dim, rows, cols, vals):
        mat = scipy.sparse.coo_matrix((vals, (rows, cols)),
                                      shape=(dim, dim)).tocsr()
        mat.sum_duplicates()
        return cls(mat)

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def data(self) -> np.ndarray:
        return self.csr.data

    @property
    def indptr(self) -> np.ndarray:
        return self.csr.indptr

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x for one vector or a 2-D block of columns.  A real H times a
        complex x is two real products: scipy would otherwise copy all of H
        to complex on every call."""
        if np.iscomplexobj(x) and not np.iscomplexobj(self.data):
            out = np.empty(x.shape, dtype=np.result_type(self.data, x))
            out.real = self.csr @ x.real
            out.imag = self.csr @ x.imag
            return out
        return self.csr @ x

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


@dataclass(frozen=True, eq=False)
class BasisTables:
    """Product states of one lattice spec with their per-site digit tables.

    `codes` are the states' indices in the full product basis, ascending.
    """

    dloc: int
    spin: float
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
        idx = np.searchsorted(self.codes, codes)
        if not np.array_equal(self.codes[np.minimum(idx, self.dim - 1)],
                              codes):
            raise ValueError("states outside the basis")
        return idx


def _digits(spec: LatticeSpec, codes: np.ndarray) -> np.ndarray:
    """(n_sites, len(codes)) int8 digits of full-basis codes."""
    dloc = spec.two_s + 1
    digits = np.empty((spec.n_sites, len(codes)), dtype=np.int8)
    r = codes.copy()
    for j in range(spec.n_sites - 1, -1, -1):
        digits[j] = r % dloc
        r //= dloc
    return digits


def _tables(spec: LatticeSpec, codes: np.ndarray) -> BasisTables:
    n, dloc = spec.n_sites, spec.two_s + 1
    strides = np.array([dloc ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    return BasisTables(dloc, spec.spin, codes, _digits(spec, codes), strides)


@lru_cache(maxsize=16)
def basis_tables(spec: LatticeSpec) -> BasisTables:
    """The full product basis (the dense oracle's basis)."""
    return _tables(spec, np.arange(spec.hilbert_dim, dtype=np.int64))


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
    return _tables(spec, codes[np.isin(sums, sums_wanted)])


def _ladder_terms(tab: BasisTables, j: int, raising: bool):
    """(src, code, amp): S^+_j (or S^-_j) maps state src of `tab` to the
    full-basis state `code` with amplitude amp."""
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
    return src, tab.codes[src] + shift, amp


# The factors of the S^+ and S^- terms in S_x = (S^+ + S^-)/2 and
# S_y = (S^+ - S^-)/2i, by matrix (1: S_x, 2: S_y).
_LADDER_COEF = {1: (0.5, 0.5), 2: (-0.5j, 0.5j)}


def site_sum(lattice: Lattice, weights, axis: int,
             scale: float = 1.0) -> SparseHermitianOperator:
    """scale * sum_j w_j S_j^(axis) on the full basis, one weight per site;
    sites of weight zero add no entries."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    tab = basis_tables(lattice.spec)
    w = np.asarray(weights)
    sites = np.flatnonzero(w)
    matrix = SECTOR_AXES[axis - 1]
    if matrix == 3:
        diag = np.zeros(tab.dim, dtype=np.result_type(w, float))
        for j in sites:
            diag += w[j] * tab.m(j)
        rows = cols = np.arange(tab.dim, dtype=np.int64)
        vals = scale * diag
    else:
        terms = [_ladder_terms(tab, j, raising)
                 for j in sites for raising in (True, False)]
        cols, rows, amp = (np.concatenate(column) for column in zip(*terms))
        counts = [len(t[0]) for t in terms]
        vals = np.repeat(np.outer(scale * w[sites], _LADDER_COEF[matrix]),
                         counts) * amp
    return SparseHermitianOperator.from_coo(tab.dim, rows, cols, vals)


def _rows(lattice: Lattice, B: float, tab: BasisTables):
    """(src, code, amp, diag): the rows of H at the states of `tab`.

    The transverse bond terms (S+_i S-_j + S-_i S+_j)/2 map state src to the
    full-basis state `code` with amplitude amp > 0; diag holds
    sum_bonds m_i m_j and the field term."""
    s = tab.spin
    diag = np.zeros(tab.dim)
    terms = []
    for (i, j) in lattice.bonds:
        m_i, m_j = tab.m(i), tab.m(j)
        diag += m_i * m_j
        for a, b, m_a, m_b in ((i, j, m_i, m_j), (j, i, m_j, m_i)):
            # S+_a S-_b / 2
            mask = (tab.digits[a] > 0) & (tab.digits[b] < tab.dloc - 1)
            src = np.nonzero(mask)[0].astype(np.int64)
            ma, mb = m_a[mask], m_b[mask]
            amp = 0.5 * np.sqrt((s * (s + 1) - ma * (ma + 1)) *
                                (s * (s + 1) - mb * (mb - 1)))
            terms.append((src, tab.codes[src] - tab.strides[a]
                          + tab.strides[b], amp))
    if B != 0:
        for j in range(lattice.n_sites):
            diag -= B * lattice.staggered_signs[j] * tab.m(j)
    src, codes, amp = (np.concatenate(column) for column in zip(*terms))
    return src, codes, amp, diag


def build_hamiltonian(lattice: Lattice, B: float,
                      block: tuple | None = None) -> SparseHermitianOperator:
    """H = sum_bonds S_x . S_y  -  B sum_x sigma(x) S_x^(1).

    Real symmetric in the product basis, with the field term on the
    diagonal (the S^(2)S^(2) and S^(3)S^(3) bond pieces combine into real
    hopping).  With `block` = (M, q), M >= 0, the block of the pair (M, -M)
    at twisted momentum q (`TwistedOrbits`), assembled from the rows of H
    at the representatives (Sandvik, arXiv:1101.3281, Sec. 4.2):
    <r'_q|H|r_q> = sqrt(|O_r'| / |O_r|) sum_{s in O_r} H[r', s] chi_q(g_s).
    H commutes with G, so this is Hermitian; it is real for q = 0.
    """
    if B < 0:
        raise ValueError("staggered field must be nonnegative")
    if block is None:
        tab = basis_tables(lattice.spec)
        src, dst, amp, diag = _rows(lattice, B, tab)
        idx = np.arange(tab.dim, dtype=np.int64)
        return SparseHermitianOperator.from_coo(
            tab.dim, np.concatenate([idx, src]), np.concatenate([idx, dst]),
            np.concatenate([diag, amp]))
    M, q = block
    orbits = twisted_orbits(lattice.spec, M)
    src, codes, amp, diag = _rows(lattice, B, orbits.reps)
    rep, elem = orbits.locate(codes)
    chi, ok = orbits.block_basis(lattice, q)
    own = np.arange(len(diag))
    rows, cols = np.concatenate([own, src]), np.concatenate([own, rep])
    vals = np.concatenate([diag, amp * chi[elem] * np.sqrt(
        orbits.size[src] / orbits.size[rep])])
    keep = ok[rows] & ok[cols]
    col = np.cumsum(ok) - 1
    return SparseHermitianOperator.from_coo(
        int(ok.sum()), col[rows[keep]], col[cols[keep]], vals[keep])


def gershgorin_upper(lattice: Lattice, B: float, M: int) -> float:
    """Gershgorin bound max_i (H_ii + sum_{j != i} |H_ij|) on the largest
    eigenvalue of H on the pair (M, -M), without matvecs.  It is read from
    the rows at the representatives: G permutes the states and commutes
    with H, so row sums are constant on orbits."""
    orbits = twisted_orbits(lattice.spec, M)
    src, _, amp, diag = _rows(lattice, B, orbits.reps)
    return float(np.max(diag + np.bincount(src, amp, len(diag))))


def site_spin_operator(lattice: Lattice, site: int, axis: int) -> SparseHermitianOperator:
    """S_x^(axis) at one site, axis in {1, 2, 3}."""
    return site_sum(lattice, np.eye(lattice.n_sites)[site], axis)


def fourier_spin(lattice: Lattice, n_momentum,
                 axis: int) -> SparseHermitianOperator:
    """hat S_k^(axis) = N^{-1/2} sum_x e^{i k x} S_x^(axis) on the full
    basis.  Its adjoint is the operator at -k."""
    n_momentum = tuple(n_momentum)
    if not lattice.momentum_on_grid(n_momentum):
        raise ValueError(f"momentum label {n_momentum} is off the grid")
    return site_sum(lattice, site_phases(lattice, n_momentum), axis,
                    1.0 / np.sqrt(lattice.n_sites))


def fourier_ladder(lattice: Lattice, n_momentum, axis: int) -> np.ndarray:
    """c with hat S_k^(axis) = sum_j c[j, 0] S^+_j + c[j, 1] S^-_j, axis 2
    or 3 (axis 1 is diagonal)."""
    if axis not in (2, 3):
        raise ValueError(f"axis {axis} is not a ladder axis")
    return np.outer(site_phases(lattice, n_momentum),
                    _LADDER_COEF[SECTOR_AXES[axis - 1]]) / np.sqrt(lattice.n_sites)


def site_phases(lattice: Lattice, n_momentum) -> np.ndarray:
    """e^{i k x} at every site x, for the grid momentum k of `n_momentum`."""
    k = lattice.kvec(n_momentum)
    return np.array([np.exp(1j * np.dot(k, x)) for x in lattice.sites])


def staggered_operator(lattice: Lattice) -> SparseHermitianOperator:
    """sum_x sigma(x) S_x^(1) on the full basis: the order parameter N m_B
    is its expectation."""
    return site_sum(lattice, lattice.staggered_signs, 1)


@dataclass(frozen=True, eq=False)
class TwistedOrbits:
    """Orbit representatives of the pair of sectors (M, -M) under the
    twisted translations g_a = T^a F^(a_1 + ... + a_d), one per site shift a
    (T^a moves the spin at x to x + a, F maps every digit d to 2S - d).

    Each orbit is represented by its smallest code.  Block q is the span of
    the vectors on which g_a acts as chi_q(g_a) = e^{-i q.a}; its basis
    vectors are |r_q>[s] = chi_q(g_s) / sqrt(|O_r|), with g_s s = r, over
    the representatives r whose stabiliser chi_q is trivial on.
    """

    spec: LatticeSpec
    shifts: np.ndarray      # (|G|, d) site shift a of each group element
    moves: np.ndarray       # (|G|, n_sites) stride of the site g moves j to
    reps: BasisTables       # the representatives, ascending
    size: np.ndarray        # (n_reps,) orbit sizes
    fixes: np.ndarray       # (|G|, n_reps) g fixes the rep

    def block_basis(self, lattice: Lattice, q):
        """(chi, ok): chi_q(g) for every group element (all ones, real, at
        q = 0), and the representatives that carry a basis vector of block
        q, those whose stabiliser chi is trivial on."""
        chi = np.exp(-1j * (self.shifts @ lattice.kvec(q))) if any(q) \
            else np.ones(len(self.shifts))
        return chi, ~np.any(self.fixes & (np.abs(chi - 1.0) > 1e-9)[:, None],
                            axis=0)

    def locate(self, codes: np.ndarray):
        """(representative index, group element g with g s = rep) of every
        state s in `codes`, from the smallest image over G (in batches) and
        `searchsorted`; ValueError for a state outside the pair."""
        rep = np.empty(len(codes), dtype=np.int64)
        elem = np.empty(len(codes), dtype=np.int64)
        for lo in range(0, len(codes), _BATCH):
            img = _images(self.spec, self.shifts, self.moves,
                          _digits(self.spec, codes[lo:lo + _BATCH]))
            elem[lo:lo + _BATCH] = g = img.argmin(axis=0)
            rep[lo:lo + _BATCH] = self.reps.rank(
                np.take_along_axis(img, g[None], axis=0)[0])
        return rep, elem


def _images(spec: LatticeSpec, shifts: np.ndarray, moves: np.ndarray,
            digits: np.ndarray) -> np.ndarray:
    """(|G|, n) codes of g s for every group element g (site shift and
    stride table as in `TwistedOrbits`) and the n states s with `digits`.
    The sums are of integers below 2^53, so the float product is exact."""
    img = (moves @ digits.astype(np.float64)).astype(np.int64)
    odd = shifts.sum(axis=1) % 2 == 1
    img[odd] = spec.hilbert_dim - 1 - img[odd]
    return img


@lru_cache(maxsize=16)
def twisted_orbits(spec: LatticeSpec, M: int) -> TwistedOrbits:
    """Representatives of the pair (M, -M), M >= 0, under the twisted
    translations: the states whose code is the smallest of their images
    over G, found in batches of states, so no |G| x dim table is built.

    H commutes with every g_a: a shift by one site flips the staggered sign
    of the field, F flips S^(1) back and leaves the bond terms as they are
    (F S^+ F = S^- with equal amplitudes, so F is a plain permutation).
    """
    lattice = Lattice(spec)
    shifts = np.array(list(itertools.product(*map(range, spec.extents))))
    states = sector_basis(spec, (M, -M) if M else (0,))
    moves = np.array([[states.strides[lattice.site_index(np.add(x, a))]
                       for x in lattice.sites] for a in shifts],
                     dtype=np.float64)
    reps, fixes = [], []
    for lo in range(0, states.dim, _BATCH):
        codes = states.codes[lo:lo + _BATCH]
        img = _images(spec, shifts, moves, states.digits[:, lo:lo + _BATCH])
        mine = img.min(axis=0) == codes
        reps.append(codes[mine])
        fixes.append(img[:, mine] == codes[mine])
    fixes = np.concatenate(fixes, axis=1)
    return TwistedOrbits(spec, shifts, moves,
                         _tables(spec, np.concatenate(reps)),
                         len(shifts) // fixes.sum(axis=0), fixes)


@lru_cache(maxsize=4)
def excitation_ladders(spec: LatticeSpec):
    """(t, c, r, w): the ladder terms that carry block (0, 0) into the pair
    M = +-1.

    For every representative t of the pair and site j, the ladder S^e_j
    that reaches t from M = 0 (S^+ when t has M = 1, S^- when M = -1; the
    column c = 2 j + e of `fourier_ladder`) maps u = S^-+_j t (up to its
    amplitude) to t.  r is the representative of u in block (0, 0), and
    w = <t|S^e_j|u> sqrt(|O_t| / |O_r|).  If phi0 = sum_r p_r |r_0> and
    v = sum_je c_je S^e_j phi0 lies in block (1, q), its coordinate there is
    <t_q|v> = sqrt(|O_t|) v[t] = the sum over the terms of t of c_je w p_r.
    """
    pair, zero = twisted_orbits(spec, 1), twisted_orbits(spec, 0)
    plus = pair.reps.digits.sum(axis=0) < spec.n_sites * spec.two_s // 2
    terms = []
    for j in range(spec.n_sites):
        for e in (0, 1):
            # <t|S^+_j|u> = <u|S^-_j|t>, and the other way round
            t, codes, amp = _ladder_terms(pair.reps, j, raising=e == 1)
            mine = plus[t] == (e == 0)
            terms.append((t[mine], np.full(np.count_nonzero(mine), 2 * j + e),
                          codes[mine], amp[mine]))
    t, c, codes, amp = (np.concatenate(column) for column in zip(*terms))
    r, _ = zero.locate(codes)
    return t, c, r, amp * np.sqrt(pair.size[t] / zero.size[r])


def direct_sum(ops) -> SparseHermitianOperator:
    """The block-diagonal operator with the blocks `ops`, in order."""
    return SparseHermitianOperator(
        scipy.sparse.block_diag([op.csr for op in ops], format="csr"))
