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
builders are vectorised.  Blocks and full-basis operators are CSR arrays on
scipy's compiled kernels (`CSROperator`): one vector matvec for every solver.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Lattice

__all__ = [
    "CSROperator",
    "basis_tables",
    "sector_basis",
    "build_hamiltonian",
    "pair_ceiling",
    "BlockRows",
    "block_rows",
    "shared_rows",
    "fourier_spin",
    "fourier_ladder",
    "site_spin_operator",
    "site_sum",
    "staggered_operator",
    "site_phases",
    "TwistedOrbits",
    "direct_sum",
]

# The single-site matrix (1, 2, 3: S_x, S_y, S_z) that represents S^(1),
# S^(2), S^(3) on every basis: the cyclic, hence proper, rotation
# (1, 2, 3) -> (z, x, y) makes the field axis 1 the quantization axis, so
# total S^(1) labels the sectors.
SECTOR_AXES = (3, 1, 2)

# states per batch when images under the twisted group are computed
_BATCH = 1 << 16


@lru_cache(maxsize=None)
def sparsetools(directory: str | None = None):
    """scipy's compiled CSR kernels, the extension `_sparsetools` in
    `directory` (default: scipy's `sparse`), loaded without the 0.2 s and
    20 MB of `scipy/sparse/__init__.py`; ImportError if a kernel is missing."""
    scipy = importlib.util.find_spec("scipy")  # a top-level name: no import
    directory = directory or os.path.join(
        scipy.submodule_search_locations[0], "sparse")
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.sparse._sparsetools", [directory])  # imports no parent package
    module = spec and importlib.util.module_from_spec(spec)
    if module:
        spec.loader.exec_module(module)
        sys.modules.pop(spec.name, None)  # `import scipy.sparse` loads it anew
    kernels = ("coo_tocsr csr_has_sorted_indices csr_sort_indices "
               "csr_sum_duplicates csr_matvec").split()
    missing = [k for k in kernels if not hasattr(module, k)]
    if missing:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')}: no {', '.join(missing)}"
                          f" in an extension _sparsetools in {directory}")
    return module


@dataclass(eq=False)
class CSROperator:
    """A square matrix as canonical CSR arrays (row i: data[indptr[i]:
    indptr[i + 1]] in the columns indices[...], ascending, none twice), built
    and applied by the kernels a scipy csr_matrix calls, so to its bits."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    @classmethod
    def from_coo(cls, dim, rows, cols, vals):
        """The entries (rows, cols, vals), duplicates summed, by the kernels
        `coo_matrix(...).tocsr()` calls, in its order, trimmed as it trims."""
        k, vals, nnz = sparsetools(), np.asarray(vals), len(vals)
        idx = np.int32 if max(nnz, dim) < 2**31 else np.int64  # as scipy's
        rows, cols = np.asarray(rows), np.asarray(cols)
        if not rows.shape == cols.shape == (nnz,) or nnz and not 0 <= min(
                rows.min(), cols.min()) <= max(rows.max(), cols.max()) < dim:
            raise ValueError(f"entries do not fit a matrix of dimension {dim}")
        indptr, indices = np.empty(dim + 1, idx), np.empty(nnz, idx)
        data = np.empty_like(vals)
        k.coo_tocsr(dim, dim, nnz, rows.astype(idx), cols.astype(idx), vals,
                    indptr, indices, data)
        if not k.csr_has_sorted_indices(dim, indptr, indices):
            k.csr_sort_indices(dim, indptr, indices, data)
        k.csr_sum_duplicates(dim, dim, indptr, indices, data)
        nnz = int(indptr[-1])   # a copy if under half the array, else a view
        return cls(indptr, *(a[:nnz].copy() if nnz < len(a) // 2 else a[:nnz]
                             for a in (indices, data)), dim)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x for one vector x of shape (dim,), by csr_matvec as
        csr_matrix runs it.  A real H times a complex x is two real
        kernel calls (not matvecs, which a wrapper would count twice)."""
        if x.shape != (self.dim,):
            raise ValueError(f"x of shape {x.shape} != ({self.dim},)")
        if np.iscomplexobj(x) and not np.iscomplexobj(self.data):
            out = self._product(x.real).astype(complex)
            out.imag = self._product(x.imag)
            return out
        return self._product(x)

    def _product(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.result_type(self.data, x))
        sparsetools().csr_matvec(self.dim, self.dim, self.indptr,
                                 self.indices, self.data, x, out)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=self.data.dtype)
        out[np.repeat(np.arange(self.dim), np.diff(self.indptr)),
            self.indices] += self.data
        return out


# the name under which perfbench/traced_scan.py wraps the matvec
SparseHermitianOperator = CSROperator


@dataclass(frozen=True, eq=False)
class BasisTables:
    """Product states of one lattice with their per-site digit tables.

    `codes` are the states' indices in the full product basis, ascending.
    """

    dloc: int
    spin: float
    codes: np.ndarray       # (dim,) int64, ascending
    digits: np.ndarray      # (n_sites, dim) int8
    strides: np.ndarray     # (n_sites,) int64
    index: tuple | None = None  # `sector_basis`'s rank tables

    @property
    def dim(self) -> int:
        return len(self.codes)

    def m(self, j: int) -> np.ndarray:
        """m value of site j in every basis state."""
        return self.spin - self.digits[j].astype(np.float64)

    def rank(self, codes: np.ndarray) -> np.ndarray:
        """Positions of full-basis codes in a sector basis (`_rank`)."""
        return _rank(self.index, codes)


def _rank(index: tuple, codes: np.ndarray) -> np.ndarray:
    """Positions of codes in a sector basis by H. Q. Lin's two tables (PRB
    42, 6561 (1990)): the high digits give the first state with them, the
    low digits the offset among the low halves that complete them."""
    low, start, high_sum, within = index
    high, rest = np.divmod(codes, low)
    pos = within[high_sum[high], rest]
    if np.any(pos < 0):
        raise ValueError("states outside the basis")
    return start[high] + pos


def _strides(lattice: Lattice) -> np.ndarray:
    return (lattice.two_s + 1) ** np.arange(lattice.n_sites - 1, -1, -1)


@lru_cache(maxsize=16)
def basis_tables(lattice: Lattice) -> BasisTables:
    """The full product basis (the dense oracle's basis)."""
    top = lattice.n_sites * lattice.two_s // 2
    return sector_basis(lattice, tuple(range(-top, top + 1)))


def sector_basis(lattice: Lattice, sectors: tuple) -> BasisTables:
    """States of total magnetization M in `sectors`, without the full basis.

    A state's digit sum is n_sites * S - M.  The sites split into a high and
    a low half; each high half, in order, is followed by the low halves that
    complete a wanted sum, in order, so the codes come out ascending, with
    digits copied from tables of the halves and the rank tables of `_rank`.
    """
    n, dloc = lattice.n_sites, lattice.two_s + 1
    top = n * lattice.two_s // 2
    if not sectors or any(abs(M) > top for M in sectors):
        raise ValueError(f"sectors {sectors} outside |M| <= {top}")
    n_low = n // 2
    low = dloc ** n_low
    high_digits, low_digits = (
        np.array(np.unravel_index(np.arange(dloc ** k), (dloc,) * k),
                 dtype=np.int8) for k in (n - n_low, n_low))
    high_sum = high_digits.sum(axis=0)
    # fits[a, l]: low half l completes a high half of digit sum a
    fits = np.isin(np.add.outer(np.arange(high_sum.max() + 1),
                                low_digits.sum(axis=0)),
                   [top - M for M in sectors])
    high, rest = np.nonzero(fits[high_sum])
    counts = fits.sum(axis=1)[high_sum]
    return BasisTables(
        dloc, lattice.spin, high * low + rest,
        np.concatenate([np.repeat(high_digits, counts, axis=1),
                        low_digits[:, rest]]), _strides(lattice),
        (low, np.cumsum(counts) - counts, high_sum,
         np.where(fits, np.cumsum(fits, axis=1) - 1, -1)))


def _ladder_terms(tab: BasisTables, j: int, raising: bool):
    """(src, code, amp): S^+_j (or S^-_j) maps state src of `tab` to the
    full-basis state `code` with amplitude amp."""
    s, up = tab.spin, 1 if raising else -1
    mask = tab.digits[j] > 0 if raising else tab.digits[j] < tab.dloc - 1
    m = tab.m(j)[mask]
    src = np.nonzero(mask)[0].astype(np.int64)
    return (src, tab.codes[src] - up * tab.strides[j],
            np.sqrt(s * (s + 1) - m * (m + up)))


# The factors of the S^+ and S^- terms in S_x = (S^+ + S^-)/2 and
# S_y = (S^+ - S^-)/2i, by matrix (1: S_x, 2: S_y).
_LADDER_COEF = {1: (0.5, 0.5), 2: (-0.5j, 0.5j)}


def site_sum(lattice: Lattice, weights, axis: int,
             scale: float = 1.0) -> CSROperator:
    """scale * sum_j w_j S_j^(axis) on the full basis, one weight per site;
    sites of weight zero add no entries."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    tab = basis_tables(lattice)
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
    return CSROperator.from_coo(tab.dim, rows, cols, vals)


def _hops(lattice: Lattice, tab: BasisTables):
    """(src, code, amp): the transverse bond terms (S+_i S-_j + S-_i S+_j)/2
    of H map state src of `tab` to the full-basis state `code` with
    amplitude amp > 0.  They do not depend on the field."""
    s = tab.spin
    terms = []
    for (i, j) in lattice.bonds:
        for a, b in ((i, j), (j, i)):
            # S+_a S-_b / 2
            mask = (tab.digits[a] > 0) & (tab.digits[b] < tab.dloc - 1)
            src = np.nonzero(mask)[0].astype(np.int64)
            ma, mb = tab.m(a)[mask], tab.m(b)[mask]
            amp = 0.5 * np.sqrt((s * (s + 1) - ma * (ma + 1)) *
                                (s * (s + 1) - mb * (mb - 1)))
            terms.append((src, tab.codes[src] - tab.strides[a]
                          + tab.strides[b], amp))
    return tuple(np.concatenate(column) for column in zip(*terms))


def _diagonal(lattice: Lattice, B: float, tab: BasisTables) -> np.ndarray:
    """sum_bonds m_i m_j - B sum_j sigma_j m_j at the states of `tab`."""
    diag = np.zeros(tab.dim)
    for (i, j) in lattice.bonds:
        diag += tab.m(i) * tab.m(j)
    if B != 0:
        for j in range(lattice.n_sites):
            diag -= B * lattice.staggered_signs[j] * tab.m(j)
    return diag


def build_hamiltonian(lattice: Lattice, B: float, block: tuple | None = None
                      ) -> CSROperator:
    """H = sum_bonds S_x . S_y  -  B sum_x sigma(x) S_x^(1).

    Real symmetric in the product basis, with the field term on the
    diagonal (the S^(2)S^(2) and S^(3)S^(3) bond pieces combine into real
    hopping).  With `block` = (M, q), M >= 0, the block of the pair (M, -M)
    at twisted momentum q (`TwistedOrbits`), assembled from the rows of H
    at the representatives (Sandvik, arXiv:1101.3281, Sec. 4.2):
    <r'_q|H|r_q> = sqrt(|O_r'| / |O_r|) sum_{s in O_r} H[r', s] chi_q(g_s).
    H commutes with G, so this is Hermitian; it is real for q = 0.  Only
    the diagonal depends on B and only chi_q on q: the rest is the pair's
    `block_rows`.
    """
    if B < 0:
        raise ValueError("staggered field must be nonnegative")
    if block is None:
        tab = basis_tables(lattice)
        src, dst, amp = _hops(lattice, tab)
        idx = np.arange(tab.dim, dtype=np.int64)
        return CSROperator.from_coo(
            tab.dim, np.concatenate([idx, src]), np.concatenate([idx, dst]),
            np.concatenate([_diagonal(lattice, B, tab), amp]))
    M, q = block
    rows = block_rows(lattice, M)
    diag = _shared_diagonal(lattice, M, B) if M < 2 else \
        _diagonal(lattice, B, rows.orbits.reps)
    chi, ok = rows.orbits.block_basis(q)
    col = np.cumsum(ok) - 1
    own, off = np.flatnonzero(ok), ok[rows.src] & ok[rows.rep]
    return CSROperator.from_coo(
        len(own), col[np.concatenate([own, rows.src[off]])],
        col[np.concatenate([own, rows.rep[off]])],
        np.concatenate([diag[ok],
                        rows.amp[off] * chi[rows.elem[off]] * rows.ratio[off]]))


@lru_cache(maxsize=2)
def _shared_diagonal(lattice: Lattice, M: int, B: float) -> np.ndarray:
    """`_diagonal` at the representatives of a pair M < 2, whose rows are
    shared (`shared_rows`): once per field for all its blocks (M, q)."""
    return _diagonal(lattice, B, shared_rows(lattice)[M].orbits.reps)


# What the blocks (M, q) of one pair share at every field: the hops of H at
# the representatives (rep src[i] -> a state s_i, amplitude amp[i]), rep[i]
# and elem[i] = g with g s_i = rep, ratio = sqrt(|O_src| / |O_rep|).
BlockRows = namedtuple("BlockRows", "orbits src rep elem amp ratio")


def block_rows(lattice: Lattice, M: int) -> BlockRows:
    """The field-free, q-independent part of the blocks (M, q) of H
    (`BlockRows`).  Those of M = 0 and +-1 come from `shared_rows`, built
    once per lattice; the others are built on each call."""
    if M < 2:
        return shared_rows(lattice)[M]
    return _block_rows(*_orbit_pass(lattice, M))


def _block_rows(orbits, locate) -> BlockRows:
    src, codes, amp = _hops(orbits.lattice, orbits.reps)
    rep, elem = locate(codes)
    return BlockRows(orbits, src, rep, elem, amp,
                     np.sqrt(orbits.size[src] / orbits.size[rep]))


@lru_cache(maxsize=2)
def shared_rows(lattice: Lattice) -> tuple:
    """(rows of M = 0, rows of M = +-1, `excitation_ladders`), built once per
    lattice for all its fields, while the lookup tables of both pairs that
    all three read are live (`_orbit_pass`)."""
    zero, pair = _orbit_pass(lattice, 0), _orbit_pass(lattice, 1)
    return _block_rows(*zero), _block_rows(*pair), \
        excitation_ladders(pair[0], *zero)


def pair_ceiling(lattice: Lattice, B: float) -> float:
    """n_bonds S^2 + B (N S - 1) plus its rounding bound: a proved upper
    bound on H at field B >= 0 on M = +-1, which holds every block (1, q).

    Weyl: a bond term is at most S^2, and the field term is the diagonal
    B (N S - sum_x (S + sigma_x m_x)), each S + sigma_x m_x an integer in
    [0, 2S], all 0 only at M = 0; the ferromagnetic multiplet attains the
    bound at B = 0.  Rounding: a stored block entry lies within gamma_k =
    k u / (1 - k u), u = 2^-53, times that entry of the block of |H|
    (Higham, SIAM 2002, sec. 3.1), k adding 2 N for the field sum,
    2 n_bonds for a sum of hops, 5 for a hop, 2 + (d + 3) pi sum_i (L_i - 1)
    for its phase exp(-i q.a) and 4 for this bound; that block's norm is at
    most R = 3 n_bonds S^2 + B N S, so each eigenvalue moves by at most
    gamma_k R (Bauer and Fike, Numer. Math. 2, 137 (1960))."""
    s, n, bonds, u = lattice.spin, lattice.n_sites, len(lattice.bonds), 2**-53
    k = 2 * n + 2 * bonds + 12 + (lattice.dimension + 3) * np.pi * sum(
        e - 1 for e in lattice.extents)
    return float(bonds * s**2 + B * (n * s - 1)
                 + k * u / (1 - k * u) * (3 * bonds * s**2 + B * n * s))


def site_spin_operator(lattice: Lattice, site: int, axis: int) -> CSROperator:
    """S_x^(axis) at one site, axis in {1, 2, 3}."""
    return site_sum(lattice, np.eye(lattice.n_sites)[site], axis)


def fourier_spin(lattice: Lattice, n_momentum,
                 axis: int) -> CSROperator:
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


def staggered_operator(lattice: Lattice) -> CSROperator:
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

    lattice: Lattice
    shifts: np.ndarray      # (|G|, d) site shift a of each group element
    reps: BasisTables       # the representatives, ascending
    size: np.ndarray        # (n_reps,) orbit sizes
    fixes: np.ndarray       # (|G|, n_reps) g fixes the rep

    def block_basis(self, q):
        """(chi, ok): chi_q(g) for every group element (all ones, real, at
        q = 0), and the representatives that carry a basis vector of block
        q, those whose stabiliser chi is trivial on."""
        chi = np.exp(-1j * (self.shifts @ self.lattice.kvec(q))) if any(q) \
            else np.ones(len(self.shifts))
        return chi, ~np.any(self.fixes & (np.abs(chi - 1.0) > 1e-9)[:, None],
                            axis=0)


@lru_cache(maxsize=4)
def _group(lattice: Lattice):
    """(shifts, moves, offset): the site shift a of each g_a, and the code
    of g_a s as offset[a] + moves[a] . digits(s) (F maps code c to
    hilbert_dim - 1 - c).  Float sums of integers below 2^53 are exact."""
    strides = _strides(lattice)
    shifts = np.array(list(itertools.product(*map(range, lattice.extents))))
    sign = np.where(shifts.sum(axis=1) % 2 == 1, -1.0, 1.0)[:, None]
    moves = sign * np.array([[strides[lattice.site_index(np.add(x, a))]
                              for x in lattice.sites] for a in shifts])
    return shifts, moves, (1.0 - sign) / 2 * (lattice.hilbert_dim - 1)


def _orbit_pass(lattice: Lattice, M: int):
    """(orbits, locate): the representatives of the pair (M, -M), M >= 0,
    under the twisted translations, the states whose code is the smallest
    of their images over G (computed in batches of states); and `locate`,
    which maps codes of the pair to (rep index, g with g s = rep) by the
    lookup table those images give, the representative (int32) and first
    g_s (uint8) of each state at its rank (`_rank`); ValueError for a code
    outside the pair.

    H commutes with every g_a: a shift by one site flips the staggered sign
    of the field, F flips S^(1) back and leaves the bond terms as they are
    (F S^+ F = S^- with equal amplitudes, so F is a plain permutation).
    """
    shifts, moves, offset = _group(lattice)
    states = sector_basis(lattice, (M, -M) if M else (0,))
    least = np.empty(states.dim, dtype=np.int32)
    elem = np.empty(states.dim, dtype=np.uint8)
    for lo in range(0, states.dim, _BATCH):
        img = moves @ states.digits[:, lo:lo + _BATCH].astype(float) + offset
        elem[lo:lo + _BATCH] = g = img.argmin(axis=0)
        least[lo:lo + _BATCH] = states.rank(
            np.take_along_axis(img, g[None], axis=0)[0].astype(np.int64))
    mine = least == np.arange(states.dim)
    reps = BasisTables(states.dloc, lattice.spin, states.codes[mine],
                       states.digits[:, mine], states.strides)
    fixes = moves @ reps.digits.astype(float) + offset == reps.codes
    index, rep = states.index, (np.cumsum(mine, dtype=np.int32) - 1)[least]

    def locate(codes: np.ndarray):
        idx = _rank(index, codes)
        return rep[idx], elem[idx]

    return (TwistedOrbits(lattice, shifts, reps,
                          len(shifts) // fixes.sum(axis=0), fixes), locate)


def excitation_ladders(pair, zero, locate_zero):
    """(t, c, r, w): the ladder terms that carry block (0, 0) into the pair
    M = +-1 (built once per lattice, in `shared_rows`).

    For every representative t of the pair and site j, the ladder S^e_j
    that reaches t from M = 0 (S^+ when t has M = 1, S^- when M = -1; the
    column c = 2 j + e of `fourier_ladder`) maps u = S^-+_j t (up to its
    amplitude) to t.  r is the representative of u in block (0, 0), and
    w = <t|S^e_j|u> sqrt(|O_t| / |O_r|).  If phi0 = sum_r p_r |r_0> and
    v = sum_je c_je S^e_j phi0 lies in block (1, q), its coordinate there is
    <t_q|v> = sqrt(|O_t|) v[t] = the sum over the terms of t of c_je w p_r.
    """
    lattice = pair.lattice
    plus = pair.reps.digits.sum(axis=0) < lattice.n_sites * lattice.two_s // 2
    terms = []
    for j in range(lattice.n_sites):
        for e in (0, 1):
            # <t|S^+_j|u> = <u|S^-_j|t>, and the other way round
            t, codes, amp = _ladder_terms(pair.reps, j, raising=e == 1)
            mine = plus[t] == (e == 0)
            terms.append((t[mine], np.full(np.count_nonzero(mine), 2 * j + e),
                          codes[mine], amp[mine]))
    t, c, codes, amp = (np.concatenate(column) for column in zip(*terms))
    r, _ = locate_zero(codes)
    return t, c, r, amp * np.sqrt(pair.size[t] / zero.size[r])


def direct_sum(ops) -> CSROperator:
    """The block-diagonal operator with the blocks `ops`, in order: their CSR
    arrays end to end with offsets, as scipy.sparse.block_diag makes them."""
    dims = np.cumsum([0] + [op.dim for op in ops]).tolist()
    nnz = sum(op.nnz for op in ops)
    idx = np.int32 if max(dims[-1], nnz) < 2**31 else np.int64
    return CSROperator(
        np.concatenate([[0]] + [np.diff(op.indptr) for op in ops]).cumsum(
            dtype=idx),
        np.concatenate([op.indices.astype(idx, copy=False) + d
                        for op, d in zip(ops, dims)]),
        np.concatenate([op.data for op in ops]), dims[-1])
