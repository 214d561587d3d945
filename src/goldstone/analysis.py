"""Finite-volume inequality suite and wavepacket excitation energies.

Everything here evaluates expectation values in the original (untransformed)
basis; translation-invariance statements are consequences of the rotated
frame and show up as exact cross-momentum cancellations.  Each inequality is
reported with both sides and the signed margin, never as a bare boolean.

`SystemContext` returns a `DenseContext`, where every spectral quantity is a
sum over the eigensystem, or a `BlockContext`, where it comes from Chebyshev
moments, or from CG, on the twisted-momentum block of S_k phi0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .eigensolver import (SEED_DEFAULT, SOLVER_TOL_DEFAULT, GroundState,
                          SolverError, deflated_solve, dense_spectrum,
                          ground_state)
from .filters import (GFilter, SpectrumEnclosureError, WavepacketWeights,
                      chebyshev_moments, make_chebyshev_expansion,
                      spectral_interval)
from .lattice import Lattice
from .operators import (CSROperator, block_rows, build_hamiltonian,
                        direct_sum, fourier_ladder, fourier_spin,
                        pair_ceiling, shared_rows, staggered_operator)

__all__ = [
    "Tolerances",
    "BoundEntry",
    "DispersionRecord",
    "SystemContext", "DenseContext", "BlockContext",
    "filter_keys",
    "EpsilonChoiceError",
    "VanishingDenominatorError",
    "sum_rule_entry",
    "double_commutator_entry",
    "irb_entry",
    "window_entries",
    "bound_report",
    "choose_epsilon",
    "excitation_energy",
    "qmode_trend",
    "extrapolate_ms",
    "V_MIN_LADDER",
]

DENSE_CAP_DEFAULT = 4096        # largest dimension given the dense oracle
V_MIN_LADDER = (0.5, 0.25, 0.1, 0.05, 0.025)     # descending
INTERVAL_SOURCE = ("Collatz-Wielandt floor of block (1, 0) at its Ritz "
                   "vector; Weyl bound n_bonds S^2 + B (N S - 1) of M = +-1")


class EpsilonChoiceError(RuntimeError):
    """No ladder value gives a positive bracket on the annulus and an
    epsilon that fits the window."""


class VanishingDenominatorError(RuntimeError):
    """Filter window captures no weight for this wavepacket, or no more
    than the denominator's certified error."""


@dataclass(frozen=True)
class Tolerances:
    algebraic: float = 1e-10     # operator identities, sum rules
    resolvent: float = 1e-8      # solver- and filter-limited comparisons
    solver: float = SOLVER_TOL_DEFAULT  # iterative solve relative residual
    chebyshev: float = 1e-8      # uniform filter-approximation error


@dataclass(frozen=True)
class BoundEntry:
    """One verified (in)equality: lhs <= rhs for kind 'upper', lhs == rhs
    for kind 'equality'; margin >= -tolerance iff passed."""

    name: str
    momentum: tuple | None
    axis: int | None
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    kind: str
    note: str


@dataclass
class PerMomentum:
    momentum: tuple
    weight: float
    num_k: float
    den_k: float


@dataclass
class DispersionRecord:
    spin: float
    B: float
    mode: str                   # "zero" (around k = 0) or "staggered" (around Q)
    p_target: float
    annulus_radius: float
    kappa: float
    epsilon: float
    gamma: float
    delta_gamma: float
    v_min: float
    m_B: float
    numerator: float
    denominator: float
    delta_e: float
    per_k: list
    cross_momentum_max: float | None
    c0_estimate: float | None
    v_max_estimate: float | None


def _upper(name, momentum, axis, lhs, rhs, tol, note="") -> BoundEntry:
    margin = rhs - lhs
    return BoundEntry(name, momentum, axis, float(lhs), float(rhs),
                      float(margin), tol, bool(margin >= -tol), "upper", note)


def _equality(name, momentum, axis, lhs, rhs, tol, note="") -> BoundEntry:
    margin = -abs(lhs - rhs)
    return BoundEntry(name, momentum, axis, float(lhs), float(rhs),
                      float(margin), tol, bool(margin >= -tol), "equality", note)


class DenseContext:
    """The dense oracle of one (lattice, B): the full-basis H and its
    eigensystem, over which every spectral quantity is a sum."""

    def __init__(self, lattice: Lattice, B: float, tolerances: Tolerances):
        self.lattice, self.B, self.tol = lattice, B, tolerances
        self.H = build_hamiltonian(lattice, B)
        self.dense = dense_spectrum(self.H)
        self.gs = GroundState(float(self.dense.eigenvalues[0]),
                              self.dense.eigenvectors[:, 0].copy(),
                              residual=0.0)
        self.excitation = self.dense.eigenvalues - self.gs.energy  # E - E0
        self._sk_cache: dict = {}
        self._amplitudes: dict = {}

    @cached_property
    def m_B(self) -> float:
        """m_B = N^-1 sum_x sigma(x) <phi0| S_x^(1) |phi0>."""
        v = self.gs.vector
        val = np.vdot(v, staggered_operator(self.lattice).matvec(v))
        if abs(val.imag) > 1e-12:
            raise ArithmeticError(f"staggered magnetization not real: {val}")
        return float(val.real) / self.lattice.n_sites

    def sk_phi(self, n, axis: int) -> np.ndarray:
        """hat S_n^(axis) |phi0>, a vector of the full basis, cached."""
        key = (tuple(n), axis)
        if key not in self._sk_cache:
            self._sk_cache[key] = fourier_spin(self.lattice, n, axis).matvec(
                self.gs.vector.astype(complex, copy=False))
        return self._sk_cache[key]

    def amplitudes(self, n, axis: int) -> np.ndarray:
        """V^dagger sk_phi(n, axis): the eigen-amplitudes of S_n phi0."""
        key = (tuple(n), axis)
        if key not in self._amplitudes:
            self._amplitudes[key] = \
                self.dense.eigenvectors.conj().T @ self.sk_phi(*key)
        return self._amplitudes[key]

    def filtered_vector(self, g: GFilter, v: np.ndarray) -> np.ndarray:
        """g(H - E0) v for any vector of the full basis."""
        amps = self.dense.eigenvectors.conj().T @ v
        return self.dense.eigenvectors @ (g(self.excitation) * amps)

    def h_shifted(self, n, axis: int) -> np.ndarray:
        """(H - E0) v for v = sk_phi(n, axis)."""
        v = self.sk_phi(n, axis)
        return self.H.matvec(v) - self.gs.energy * v

    def forms(self, wanted) -> dict:
        """{(g, (momentum, axis)): (num_k, den_k, err_k)} over a point's
        [(g, keys)], for v = S_k phi0: den_k = <v, g^2(H - E0) v> and num_k
        = <v, (H - E0) g^2(H - E0) v>, sums of g^2 |a|^2 and (E - E0) g^2
        |a|^2 over the eigensystem, so den_k's error err_k is 0."""
        de, out = self.excitation, {}
        for g, keys in wanted:
            g2 = g(de) ** 2
            for n, axis in keys:
                w = g2 * np.abs(self.amplitudes(n, axis)) ** 2
                out[g, (tuple(n), axis)] = (float(np.sum(de * w)),
                                            float(np.sum(w)), 0.0)
        return out

    def irb_lhs(self, n, axis: int) -> float:
        """The sum of |a|^2 / (E - E0) over the excited eigenstates."""
        mask = self.excitation > 0
        return float(np.sum(np.abs(self.amplitudes(n, axis)[mask]) ** 2
                            / self.excitation[mask]))

    def window_pieces(self, g: GFilter, n, den_k: float) -> list:
        """window_small and window_large at momentum n: <S_k^(2) phi0,
        S_(k+Q)^(3) phi0> over the excited states up to 2 eps, and all."""
        lat, s, de = self.lattice, self.lattice.spin, self.excitation
        eps, tol, nq = g.epsilon, self.tol.resolvent, lat.shift_q(n)
        ek, ekq = lat.dispersion(n), lat.dispersion(nq)
        amps2, amps3 = self.amplitudes(n, 2), self.amplitudes(nq, 3)
        lhs_small, lhs_large = (abs(np.sum(np.conj(amps2[m]) * amps3[m]))
                                for m in ((de > 0.0) & (de <= 2 * eps),
                                          de > 1e-12))
        rhs_small = eps / np.sqrt(ekq * ek)
        rhs_large = rhs_small + ((4 * s * s * ekq + self.B * s) / (2 * ek)) \
            ** 0.25 * np.sqrt(den_k + (4 * s * s * ek + self.B * s)
                              / (g.gamma - g.delta_gamma))
        return [_upper("window_small", n, None, lhs_small, rhs_small, tol),
                _upper("window_large", n, None, lhs_large, rhs_large, tol)]

    def cross_momentum_max(self, g: GFilter, keys) -> float | None:
        """max |<S_i phi0, f(H - E0) S_j phi0>| over i < j, f = g^2, x g^2."""
        g2 = g(self.excitation) ** 2
        amps = [self.amplitudes(*key) for key in keys]
        cross = [max(abs(np.sum(self.excitation * w)), abs(np.sum(w)))
                 for i, a in enumerate(amps)
                 for w in (g2 * np.conj(a) * b for b in amps[i + 1:])]
        return float(max(cross)) if cross else None

    def solver_stats(self) -> dict:
        """The dense path has no blocks, interval or moments."""
        return {"path": "dense", "blocks": None, "interval": None,
                "interval_source": None, "expansions": [],
                "moment_passes": []}


class BlockContext:
    """The twisted-momentum blocks of one (lattice, B), in the spin axes of
    the full basis: `H` is block (0, 0), which holds the ground state (else
    SolverError), and S_k^(2) phi0, S_k^(3) phi0 lie in the blocks (1, k),
    (1, k + Q) of M = +-1 (`block`).  Forms come from Chebyshev moments (the
    kernel polynomial method) on `interval`, the infrared left side from CG."""

    def __init__(self, lattice: Lattice, B: float, tolerances: Tolerances,
                 seed: int):
        self.lattice, self.B, self.tol = lattice, B, tolerances
        self.seed = seed
        self._zero = (0,) * lattice.dimension
        self._blocks: dict = {}
        self.H = build_hamiltonian(lattice, B, (0, self._zero))
        self.gs = ground_state(self.H, tolerances.solver, seed)
        self._check_ground_sector()
        self.interval = (self.sector_lowest[0]["floor"],
                         pair_ceiling(lattice, B))
        self._sk_cache: dict = {}
        self._expansions: dict = {}
        self._moments: dict = {}
        self._moment_passes: list = []

    def _check_ground_sector(self) -> None:
        """The Collatz-Wielandt floor (`filters.spectral_interval`) of each
        block (M, 0), M = 1 .. N S, at its Lanczos ground state, a proved
        lower bound on the block, must lie above E0, else SolverError.
        `ground_gap` is the least floor - E0; `ground_floor`, the floor of
        block (0, 0) at phi0, brackets E0 from below.

        Block (M, 0) holds the lowest state of the pair (M, -M), so no other
        q needs a run.  In the Marshall basis (-1)^(sum_odd x d_x) every hop
        of H is negative and the field is diagonal, so by Perron-Frobenius
        the lowest state of each sector M is unique and positive (Marshall,
        Proc. R. Soc. A 232, 48 (1955); Lieb and Mattis, J. Math. Phys. 3,
        749 (1962)).  Even shifts preserve that sign, and an odd generator
        multiplies it by (-1)^M; so the minimum of the pair lies in q = 0
        (and also in q = Q when M != 0), and the ground state of M = 0 in
        block (0, 0).  Those signs meet the floor's sign condition.
        """
        lat, e0 = self.lattice, self.gs.energy
        self.sector_lowest = []
        for M in range(1, lat.n_sites * lat.two_s // 2 + 1):
            H_m = self.block(self._zero) if M == 1 else \
                build_hamiltonian(lat, self.B, (M, self._zero))
            gs = ground_state(H_m, self.tol.solver, self.seed)
            floor = spectral_interval(H_m, gs.vector)
            self.sector_lowest.append(
                {"M": M, "q": list(self._zero), "dim": H_m.dim,
                 "nnz": H_m.nnz, "ritz": gs.energy, "residual": gs.residual,
                 "floor": floor})
            # written so that a NaN fails the check
            if not floor > e0:
                raise SolverError(
                    f"sector M = {M} has a Collatz-Wielandt floor {floor:.12g}"
                    f" (Ritz value {gs.energy:.12g}) not above E0 = {e0:.12g}"
                    ": the ground state is not proved to lie in block (0, 0)")
        self.ground_gap = min(s["floor"] - e0 for s in self.sector_lowest)
        self.ground_floor = spectral_interval(self.H, self.gs.vector)

    @cached_property
    def m_B(self) -> float:
        """N^-1 sum_r |c_r|^2 m(r): on block (0, 0) the staggered operator is
        a diagonal, constant on orbits (a one-site shift flips both sigma
        and, through F, S^(1)).  chi_0 = 1, so no representative is masked."""
        lat = self.lattice
        orbits = block_rows(lat, 0).orbits
        m = sum(lat.staggered_signs[j] * orbits.reps.m(j)
                for j in range(lat.n_sites))
        return float(np.sum(np.abs(self.gs.vector) ** 2 * m)) / lat.n_sites

    # -- vectors ---------------------------------------------------------

    def block(self, q) -> CSROperator:
        """H on block (1, q) of the pair M = +-1, cached."""
        q = tuple(q)
        if q not in self._blocks:
            self._blocks[q] = build_hamiltonian(self.lattice, self.B, (1, q))
        return self._blocks[q]

    def _block_q(self, n, axis: int) -> tuple:
        """q of the block (1, q) that holds S_n^(axis) phi0: phi0 is at
        twisted momentum 0, g_a S_k^(2) g_a^-1 = e^{-i k.a} S_k^(2), and
        S^(3) also changes sign under F."""
        return tuple(n) if axis == 2 else self.lattice.shift_q(n)

    def sk_phi(self, n, axis: int) -> np.ndarray:
        """hat S_n^(axis) |phi0> (axes 2 and 3 only), cached: a vector of
        block (1, q) of `_block_q`, built from the ladder terms into
        block (0, 0) (`operators.shared_rows`).  No representative of
        M = +-1 is masked, none having a nontrivial stabiliser: a shift with
        F flips M, and a plain shift of order k > 1 fixing a state makes k
        divide M = 1 (or 2M on a ring of N = 2 mod 4, where k = 2 has F)."""
        key = (tuple(n), axis)
        if key not in self._sk_cache:
            _, pair, (t, c, r, w) = shared_rows(self.lattice)
            x = fourier_ladder(self.lattice, n, axis).ravel()[c] * w \
                * self.gs.vector[r]
            dim = pair.orbits.reps.dim
            self._sk_cache[key] = np.bincount(t, x.real, dim) \
                + 1j * np.bincount(t, x.imag, dim)
        return self._sk_cache[key]

    def h_shifted(self, n, axis: int) -> np.ndarray:
        """(H - E0) v for v = sk_phi(n, axis), on its block."""
        v = self.sk_phi(n, axis)
        return self.block(self._block_q(n, axis)).matvec(v) \
            - self.gs.energy * v

    def filter_expansions(self, g: GFilter):
        """(den, num) expansions of g^2(x - E0) and (x - E0) g^2(x - E0) on
        the interval, sup errors at most chebyshev_tol (times gamma)."""
        if g not in self._expansions:
            e0, tol = self.gs.energy, self.tol.chebyshev

            def den_fn(x):
                return g(np.asarray(x) - e0) ** 2

            def num_fn(x):
                return (np.asarray(x) - e0) * den_fn(x)

            self._expansions[g] = (
                make_chebyshev_expansion(den_fn, *self.interval, tol),
                make_chebyshev_expansion(num_fn, *self.interval, tol * g.gamma))
        return self._expansions[g]

    def moments(self, keys, n_moments: int) -> list:
        """Chebyshev moments <v, T_n(H~) v>, n < n_moments, of v = sk_phi(key)
        for each (momentum, axis) key, on the spectral interval.

        Every key not yet cached to that order joins one pass: the
        recurrence runs on one vector, the keys' vectors end to end, on the
        direct sum of their blocks (1, q) (`block`) in key order, and reads
        each key's moments from the dots of its segment.
        """
        keys = [(tuple(n), axis) for n, axis in keys]
        todo = [k for k in dict.fromkeys(keys)
                if len(self._moments.get(k, ())) < n_moments]
        if todo:
            self._moment_pass(todo, n_moments)
        return [self._moments[k][:n_moments] for k in keys]

    def _moment_pass(self, todo: list, n_moments: int) -> None:
        blocks = [self.block(self._block_q(*key)) for key in todo]
        starts = np.cumsum([0] + [b.dim for b in blocks])
        lo, hi = self.interval
        v = np.concatenate([self.sk_phi(*key) for key in todo])
        mu, matvecs = chebyshev_moments(direct_sum(blocks), v, lo, hi,
                                        n_moments, starts[:-1])
        ratio = 0.0
        for key, col in zip(todo, mu.T):
            worst = float(np.abs(col).max())
            if not worst <= col[0] * (1.0 + 1e-10):
                raise SpectrumEnclosureError(
                    f"Chebyshev moments of S_k^({key[1]}) phi0 at "
                    f"momentum {key[0]} reach {worst:.6e} > mu_0 = "
                    f"{col[0]:.6e}: the interval [{lo:.6g}, {hi:.6g}] "
                    "does not enclose the spectrum")
            if col[0] > 0:
                ratio = max(ratio, worst / col[0])
            self._moments[key] = col.copy()
        self._moment_passes.append({
            "vectors": len(todo),
            "blocks": [{"M": 1, "q": list(self._block_q(*key)),
                        "dim": b.dim, "nnz": b.nnz}
                       for key, b in zip(todo, blocks)],
            "dim": int(starts[-1]), "moments": n_moments,
            "block_matvecs": matvecs, "max_moment_ratio": ratio})

    def forms(self, wanted) -> dict:
        """{(g, (momentum, axis)): (num_k, den_k, err_k)} over a point's
        [(g, keys)], from one moment pass over every key, in `wanted` order,
        as deep as the deepest expansion needs: num_k and den_k lie within
        their expansion's sup error * ||v||^2 (the moment mu_0), err_k is
        that bound for den_k."""
        depth = 1 + max((e.degree for g, _ in wanted
                         for e in self.filter_expansions(g)), default=0)
        pairs = [(g, (tuple(n), axis)) for g, keys in wanted
                 for n, axis in keys]
        out = {}
        for (g, key), mu in zip(pairs, self.moments([k for _, k in pairs],
                                                     depth)):
            den, num = self.filter_expansions(g)
            out[g, key] = (num.quadratic_form(mu), den.quadratic_form(mu),
                           den.sup_error * float(mu[0]))
        return out

    def irb_lhs(self, n, axis: int) -> float:
        """<v, (H - E0)^-1 v> for v = sk_phi(n, axis) by CG on its block,
        where 1 - P0 is the identity: v lies in M = +-1 and phi0 in M = 0."""
        v = self.sk_phi(n, axis)
        x = deflated_solve(self.block(self._block_q(n, axis)),
                           self.gs.energy, v, self.tol.solver)
        return float(np.vdot(v, x).real)

    def window_pieces(self, g: GFilter, n, den_k: float) -> list:
        """No window pieces: they need the eigensystem."""
        return []

    def cross_momentum_max(self, g: GFilter, keys) -> None:
        """Not measured: it needs the eigensystem."""
        return None

    def solver_stats(self) -> dict:
        """Where the numbers come from: the ground-state block and sector
        check, the interval, the expansions and the moment passes."""
        return {
            "path": "sparse",
            "blocks": {
                "ground": {"M": 0, "q": list(self._zero), "dim": self.H.dim,
                           "nnz": self.H.nnz, "energy": self.gs.energy,
                           "residual": self.gs.residual,
                           "floor": self.ground_floor},
                "lowest": list(self.sector_lowest),
                "ground_gap": self.ground_gap,
            },
            "interval": list(self.interval),
            "interval_source": INTERVAL_SOURCE,
            "expansions": [
                {"epsilon": g.epsilon, "gamma": g.gamma,
                 "delta_gamma": g.delta_gamma,
                 "den_degree": den.degree, "den_sup_error": den.sup_error,
                 "num_degree": num.degree, "num_sup_error": num.sup_error}
                for g, (den, num) in self._expansions.items()],
            "moment_passes": list(self._moment_passes),
        }


Context = DenseContext | BlockContext


def SystemContext(lattice: Lattice, B: float, *,
                  dense_cap: int = DENSE_CAP_DEFAULT,
                  tolerances: Tolerances = Tolerances(),
                  seed: int = SEED_DEFAULT) -> Context:
    """The dense oracle of one (lattice, B) up to `dense_cap` states, its
    twisted-momentum blocks above; `seed` seeds the blocks' Lanczos runs."""
    if lattice.hilbert_dim <= dense_cap:
        return DenseContext(lattice, B, tolerances)
    return BlockContext(lattice, B, tolerances, seed)


# -- elementary quantities ---------------------------------------------------

def sum_rule_entry(ctx: Context, n) -> BoundEntry:
    """Check m_B = -i <[S2_{-k}, S3_{Q+k}]> at one grid momentum."""
    lat = ctx.lattice
    n = tuple(n)
    nQ = lat.shift_q(n)
    # <phi| S2_{-k} S3_{Q+k} |phi> = <S2_k phi, S3_{Q+k} phi>
    t1 = np.vdot(ctx.sk_phi(n, 2), ctx.sk_phi(nQ, 3))
    # <phi| S3_{Q+k} S2_{-k} |phi> = <S3_{-(Q+k)} phi, S2_{-k} phi>
    t2 = np.vdot(ctx.sk_phi(lat.negate(nQ), 3), ctx.sk_phi(lat.negate(n), 2))
    value = -1j * (t1 - t2)
    note = f"imag={value.imag:.3e}"
    return _equality("sum_rule", n, None, value.real, ctx.m_B,
                     ctx.tol.algebraic, note)


def double_commutator_entry(ctx: Context, n, axis: int) -> BoundEntry:
    """<[S_{-k}, [H, S_k]]> <= 4 S^2 E_k + B S on the ground state.

    With E0 the ground energy, the double commutator reduces to
    <u,(H-E0)u> + <w,(H-E0)w> for u = S_k phi0, w = S_{-k} phi0.
    """
    lat = ctx.lattice
    n = tuple(n)
    m = lat.negate(n)
    u = ctx.sk_phi(n, axis)
    w = ctx.sk_phi(m, axis)
    lhs = (np.vdot(u, ctx.h_shifted(n, axis)).real
           + np.vdot(w, ctx.h_shifted(m, axis)).real)
    s = ctx.lattice.spin
    rhs = 4 * s * s * lat.dispersion(n) + ctx.B * s
    return _upper("double_commutator", n, axis, lhs, rhs, ctx.tol.algebraic)


def irb_entry(ctx: Context, n, axis: int) -> BoundEntry:
    """Infrared bound: <S_{-k} (1-P0)(H-E0)^-1 S_k> <= 1/(2 E_{k+Q}), with
    the left side from the context (`irb_lhs`)."""
    lat = ctx.lattice
    n = tuple(n)
    if n == lat.q_ordering:
        raise ValueError("infrared bound has no finite right side at k = Q")
    rhs = 1.0 / (2.0 * lat.dispersion(lat.shift_q(n)))
    return _upper("irb", n, axis, ctx.irb_lhs(n, axis), rhs,
                  ctx.tol.resolvent)


def choose_epsilon(m_b: float, wp: WavepacketWeights, lattice: Lattice,
                   gamma: float, delta_gamma: float):
    """Pick v_min as the largest `V_MIN_LADDER` fraction of the annulus
    scale whose epsilon = v_min * R fits the window, 2 epsilon < gamma -
    delta_gamma.

    The scale is the largest velocity keeping the sum-rule bracket
    m_B/2 - v R / sqrt(E_{k+Q} E_k) positive at every grid momentum of the
    closed annulus [R/2, R] of the wavepacket `wp` on `lattice`; ladder
    entries are fractions of it.  Every fraction is at most 1/2, so v R /
    sqrt(E_{k+Q} E_k) <= m_B/4 and the bracket holds on each rung: only the
    window is tested.  Returns (v_min, epsilon).
    """
    if m_b <= 0:
        raise EpsilonChoiceError(
            f"staggered magnetization {m_b:.3e} is not positive; "
            "the bracket condition is unsatisfiable")
    if not wp.annulus:
        raise EpsilonChoiceError("no grid momenta in the annulus")
    for n in wp.annulus:
        if min(lattice.dispersion(n),
               lattice.dispersion(lattice.shift_q(n))) <= 1e-12:
            raise EpsilonChoiceError(
                f"the annulus reaches momentum label {n}, where "
                "E_k E_(k+Q) = 0: no velocity keeps the bracket positive")
    r = wp.spec.annulus_radius
    roots = [np.sqrt(lattice.dispersion(lattice.shift_q(n))
                     * lattice.dispersion(n)) for n in wp.annulus]
    scale = min(m_b * root / (2.0 * r) for root in roots)
    for frac in V_MIN_LADDER:
        v = frac * scale
        if 2 * v * r < gamma - delta_gamma:
            return v, v * r
    raise EpsilonChoiceError(
        f"no ladder value gives 2 epsilon < gamma - delta_gamma "
        f"(m_B = {m_b:.3e})")


def _denominator_bound(ctx: Context, g: GFilter, v_min: float, r: float, n):
    """(bracket, D(k, B)) at momentum n: the sum-rule bracket m_B/2 - v_min
    R / sqrt(E_{k+Q} E_k) and D(k, B) = sqrt(2 E_k / (4 S^2 E_{k+Q} + B S))
    bracket^2 - (4 S^2 E_k + B S) / (gamma - delta_gamma); None where
    E_k E_{k+Q} = 0."""
    lat, s, B = ctx.lattice, ctx.lattice.spin, ctx.B
    ek, ekq = lat.dispersion(n), lat.dispersion(lat.shift_q(n))
    if ek <= 1e-12 or ekq <= 1e-12:
        return None
    bracket = ctx.m_B / 2.0 - v_min * r / np.sqrt(ekq * ek)
    return bracket, (np.sqrt(2.0 * ek / (4 * s * s * ekq + B * s))
                     * bracket ** 2
                     - (4 * s * s * ek + B * s) / (g.gamma - g.delta_gamma))


def window_entries(ctx: Context, g: GFilter, v_min: float, r: float,
                   n, den_k: float) -> list[BoundEntry]:
    """Window-decomposition inequalities at momentum n (not 0 or Q), with
    den_k of S_n^(2) phi0 from the context's `forms`: window_small and
    window_large (`window_pieces`; none without the eigensystem, as the
    entry note records) and the final denominator bound D(k, B) <= den_k.
    """
    n = tuple(n)
    bound = _denominator_bound(ctx, g, v_min, r, n)
    if bound is None:
        raise ValueError("window bounds need E_k and E_{k+Q} positive")
    bracket, d_val = bound
    entries = ctx.window_pieces(g, n, den_k)
    note = "" if entries else "window pieces skipped (no dense oracle)"
    if bracket < 0:
        note = (note + "; " if note else "") + "bound not binding (bracket < 0)"
    entry = _upper("denominator_lower_bound", n, None, d_val, den_k,
                   ctx.tol.resolvent, note)
    entries.append(replace(entry, passed=True) if bracket < 0 else entry)
    return entries


def _window_momenta(lat: Lattice) -> list:
    q = lat.q_ordering
    return [n for n in lat.momenta if n not in (tuple(0 for _ in q), q)]


def _mode_keys(lat: Lattice, wp: WavepacketWeights, mode: str) -> list:
    return [(lat.shift_q(n) if mode == "staggered" else n, 2)
            for n in sorted(wp.weights)]


def _trend_representatives(lat: Lattice) -> list:
    """[(dispersion value, momentum)]: the first momentum of each distinct
    dispersion value, by increasing value."""
    reps = {}
    for n in sorted(lat.momenta):
        reps.setdefault(round(lat.dispersion(n), 9), n)
    return sorted(reps.items())


def filter_keys(lat: Lattice, wp: WavepacketWeights, groups) -> list:
    """(momentum, axis) keys of the filtered quantities that the check
    groups ask for at one wavepacket: the window momenta ("bounds"), the
    support ("dispersion"), its Q-shift and the trend representatives
    ("qmode")."""
    keys = []
    if "bounds" in groups:
        keys += [(n, 2) for n in _window_momenta(lat)]
    if "dispersion" in groups:
        keys += _mode_keys(lat, wp, "zero")
    if "qmode" in groups:
        keys += _mode_keys(lat, wp, "staggered")
        keys += [(lat.shift_q(n), 2) for _, n in _trend_representatives(lat)]
    return keys


def bound_report(ctx: Context, forms: dict, g: GFilter, v_min: float,
                 r: float) -> list[BoundEntry]:
    """Full inequality suite over every grid momentum at one (lattice, B),
    the window momenta's den_k read from the point's `forms` at g.

    Because the grid is closed under the Q-shift, this also certifies the
    staggered-mode chain: its sum rule, window pieces and denominator bound
    at momentum k coincide entry for entry with the zero-mode chain at k+Q.
    """
    lat = ctx.lattice
    report = []
    q = lat.q_ordering
    window = _window_momenta(lat)
    for n in lat.momenta:
        report.append(sum_rule_entry(ctx, n))
        for axis in (2, 3):
            report.append(double_commutator_entry(ctx, n, axis))
            if n != q:
                report.append(irb_entry(ctx, n, axis))
        if n in window:
            report += window_entries(ctx, g, v_min, r, n, forms[g, (n, 2)][1])
    return report


def excitation_energy(ctx: Context, forms: dict, wp: WavepacketWeights,
                      g: GFilter, v_min: float, mode: str) -> DispersionRecord:
    """Wavepacket excitation energy Delta E = num / den, from the point's
    `forms` at g.

    mode "zero" uses hat S_k^(2) at the wavepacket momenta (excitation near
    momentum zero); mode "staggered" shifts every operator momentum by Q.
    The record carries the largest cross-momentum element
    (`cross_momentum_max`, dense path only); these vanish by translation
    covariance of the rotated frame.  A den at most 1e-12, or at most the
    weighted sum of the forms' den errors, raises VanishingDenominatorError.
    """
    if mode not in ("zero", "staggered"):
        raise ValueError(f"unknown mode {mode!r}")
    lat = ctx.lattice
    items = sorted(wp.weights.items())
    keys = _mode_keys(lat, wp, mode)
    num = den = den_err = 0.0
    per_k = []
    for (n, weight), key in zip(items, keys):
        num_k, den_k, err_k = forms[g, key]
        per_k.append(PerMomentum(n, weight, num_k, den_k))
        num += weight ** 2 * num_k / lat.n_sites
        den += weight ** 2 * den_k / lat.n_sites
        den_err += weight ** 2 * err_k / lat.n_sites
    if den <= max(1e-12, den_err):
        raise VanishingDenominatorError(
            f"filter window empty for this wavepacket (den = {den:.3e}, "
            f"certified error {den_err:.3e})")
    spec = wp.spec
    c0, v_max = _c0_estimate(ctx, wp, g, v_min) if mode == "zero" \
        else (None, None)
    return DispersionRecord(
        spin=lat.spin, B=ctx.B, mode=mode, p_target=spec.p,
        annulus_radius=spec.annulus_radius, kappa=spec.kappa,
        epsilon=g.epsilon, gamma=g.gamma, delta_gamma=g.delta_gamma,
        v_min=v_min, m_B=ctx.m_B,
        numerator=num, denominator=den, delta_e=num / den, per_k=per_k,
        cross_momentum_max=ctx.cross_momentum_max(g, keys),
        c0_estimate=c0, v_max_estimate=v_max)


def _c0_estimate(ctx: Context, wp: WavepacketWeights, g: GFilter,
                 v_min: float) -> tuple:
    """(c0, v_max): c0 = min over annulus momenta of D(k, B)/R and v_max =
    2 S^2/c0; None for each where it is not defined."""
    s, r = ctx.lattice.spin, wp.spec.annulus_radius
    bounds = [_denominator_bound(ctx, g, v_min, r, n) for n in wp.annulus]
    d_over = [bound[1] / r for bound in bounds if bound is not None]
    if not d_over:
        return None, None
    c0 = float(min(d_over))
    return c0, float(2 * s * s / c0) if c0 > 0 else None


def qmode_trend(ctx: Context, forms: dict, g: GFilter) -> list:
    """den_k of the staggered-mode operator at one representative momentum
    per distinct dispersion value, sorted by increasing dispersion, read
    from the point's `forms` at g.

    The recorded trend exposes the growth of the staggered-mode weight as
    E_k shrinks (the ~ 1/|k| behaviour at small momenta).
    """
    lat = ctx.lattice
    return [(float(e), n, forms[g, (lat.shift_q(n), 2)][1])
            for e, n in _trend_representatives(lat)]


def extrapolate_ms(b_values, m_values) -> dict:
    """Low-order polynomial fit of m_B against B; intercept is the estimate.

    Labelled clearly as a finite-size extrapolation: the true order parameter
    is a double limit (volume first, then field) that desk-scale data cannot
    reach.
    """
    b = np.asarray(b_values, dtype=float)
    m = np.asarray(m_values, dtype=float)
    if len(b) < 3:
        raise ValueError("need at least three ladder points")
    order = sorted(range(len(b)), key=lambda i: b[i])
    b, m = b[order], m[order]
    coeffs = np.polyfit(b, m, min(2, len(b) - 1))
    return {
        "intercept": float(coeffs[-1]),
        "label": "estimate - finite-size extrapolation, not the "
                 "infinite-volume double limit",
    }
