"""Torus geometry for spin lattices: sites, bonds, staggering, momentum grid.

Conventions adopted here and relied on throughout the package:

* extents are the number of sites per axis (even, >= 2); axis i with extent
  2*L_i carries momenta k_i = pi*n_i/L_i for integers n_i in (-L_i, L_i];
* nearest-neighbour bonds are unordered and counted once; when an axis has
  exactly two sites the two wrap bonds coincide and are kept with
  multiplicity one;
* momenta are handled as integer tuples n (exact arithmetic for folding,
  negation and Q-shifts) and converted to radians only for phases and the
  dispersion symbol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Lattice",
    "MAX_HILBERT_DIM",
    "dispersion_symbol",
]

# the largest Hilbert dimension a Lattice accepts: extents and spin come
# from outside the program, and the builders allocate per basis state
MAX_HILBERT_DIM = 1 << 26


def dispersion_symbol(k) -> float:
    """Lattice dispersion symbol d - sum_i cos(k_i), d the number of
    components of k; lies in [0, 2d]."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return float(k.shape[0] - np.sum(np.cos(k)))


@dataclass(frozen=True)
class Lattice:
    """A torus of even per-axis site counts carrying spins of one magnitude,
    validated on construction.  Equal and hashed by (extents, spin), so it
    keys every per-lattice table.

    sites are coordinate tuples in row-major order; bonds are index pairs
    (i, j) with i < j, deduplicated under the periodic wrap; momenta are
    integer tuples n with k = pi*n/L per axis.
    """

    extents: tuple[int, ...]
    spin: float = 0.5
    sites: tuple[tuple[int, ...], ...] = field(init=False, compare=False,
                                               repr=False)
    bonds: tuple[tuple[int, int], ...] = field(init=False, compare=False,
                                               repr=False)
    momenta: tuple[tuple[int, ...], ...] = field(init=False, compare=False,
                                                 repr=False)
    staggered_signs: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ext = tuple(int(e) for e in self.extents)
        object.__setattr__(self, "extents", ext)
        if len(ext) < 1:
            raise ValueError("need at least one axis")
        for e in ext:
            if e < 2 or e % 2 != 0:
                raise ValueError(f"extent {e} must be an even integer >= 2")
        two_s = round(2 * self.spin) if math.isfinite(self.spin) else 0
        if two_s < 1 or abs(2 * self.spin - two_s) > 1e-12:
            raise ValueError(f"spin {self.spin} must be a positive half-integer")
        object.__setattr__(self, "spin", two_s / 2.0)
        if self.hilbert_dim > MAX_HILBERT_DIM:
            raise ValueError(
                f"Hilbert dimension {self.hilbert_dim} exceeds the "
                f"budget of {MAX_HILBERT_DIM}")
        sites = tuple(itertools.product(*[range(e) for e in ext]))
        index = {x: i for i, x in enumerate(sites)}
        bonds = set()
        for x in sites:
            for ax in range(len(ext)):
                y = list(x)
                y[ax] = (y[ax] + 1) % ext[ax]
                y = tuple(y)
                if y == x:
                    continue
                bonds.add(tuple(sorted((index[x], index[y]))))
        momenta = tuple(itertools.product(*[range(-L + 1, L + 1)
                                            for L in self.halves]))
        signs = np.array([(-1) ** (sum(x) % 2) for x in sites], dtype=np.int8)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "bonds", tuple(sorted(bonds)))
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "staggered_signs", signs)

    # -- geometry ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    @property
    def two_s(self) -> int:
        return round(2 * self.spin)

    @property
    def hilbert_dim(self) -> int:
        return (self.two_s + 1) ** self.n_sites

    @property
    def halves(self) -> tuple[int, ...]:
        return tuple(e // 2 for e in self.extents)

    def site_index(self, x) -> int:
        idx = 0
        for c, e in zip(x, self.extents):
            idx = idx * e + (c % e)
        return idx

    def graph_distance(self, i: int, j: int) -> int:
        """Shortest-path distance on the torus between site indices."""
        total = 0
        for a, b, e in zip(self.sites[i], self.sites[j], self.extents):
            dd = abs(a - b)
            total += min(dd, e - dd)
        return total

    def ball(self, center: int, radius: int) -> tuple[int, ...]:
        """Site indices within graph distance `radius` of `center`."""
        return tuple(j for j in range(self.n_sites)
                     if self.graph_distance(center, j) <= radius)

    @property
    def diameter(self) -> int:
        return sum(e // 2 for e in self.extents)

    # -- momenta ----------------------------------------------------------

    @property
    def q_ordering(self) -> tuple[int, ...]:
        """Integer label of Q = (pi, ..., pi)."""
        return self.halves

    def fold(self, n) -> tuple[int, ...]:
        """Fold integer momentum labels into (-L, L] per axis."""
        return tuple(((ni + L - 1) % (2 * L)) - L + 1
                     for ni, L in zip(n, self.halves))

    def add(self, n, m) -> tuple[int, ...]:
        return self.fold(tuple(a + b for a, b in zip(n, m)))

    def negate(self, n) -> tuple[int, ...]:
        return self.fold(tuple(-a for a in n))

    def shift_q(self, n) -> tuple[int, ...]:
        return self.add(n, self.q_ordering)

    def kvec(self, n) -> np.ndarray:
        return np.array([math.pi * ni / L for ni, L in zip(n, self.halves)])

    def kmag(self, n) -> float:
        return float(np.linalg.norm(self.kvec(n)))

    def dispersion(self, n) -> float:
        return dispersion_symbol(self.kvec(n))

    def momentum_on_grid(self, n) -> bool:
        return tuple(n) in set(self.momenta)
