"""Ground states (restarted Lanczos), dense spectral oracle, block resolvent.

One Lanczos routine, `ground_state`, finds the lowest eigenpair of a sparse
H: it keeps a fully reorthogonalised basis and restarts from the best Ritz
vector when the basis fills, trading memory for correctness at desk scale.
The dense oracle, `dense_spectrum`, backs every spectral quantity on small
systems; whether a system is small is decided by its caller
(`analysis.SystemContext`).
`deflated_solve` is conjugate gradients on H - E0 in a symmetry block that
does not hold the ground state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import CSROperator

__all__ = [
    "GroundState",
    "SpectralDecomposition",
    "SolverError",
    "ground_state",
    "dense_spectrum",
    "deflated_solve",
]

SOLVER_TOL_DEFAULT = 1e-10      # Ritz and CG residual target, relative
SEED_DEFAULT = 7                # seeds each Lanczos start vector
MAX_BASIS = 220                 # Lanczos basis vectors kept before a restart
MAX_RESTARTS = 60


class SolverError(RuntimeError):
    """Breakdown or non-convergence; callers must treat as inconclusive."""


@dataclass(frozen=True, eq=False)
class GroundState:
    energy: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def _lanczos_sweep(H: CSROperator, v0: np.ndarray, tol: float):
    """(converged, theta0, ritz_vector) of one fully reorthogonalised
    Lanczos sweep from v0, of at most MAX_BASIS vectors."""
    max_basis = min(MAX_BASIS, H.dim)
    basis = np.empty((max_basis, H.dim), dtype=v0.dtype)
    alphas = np.empty(max_basis)
    betas = np.empty(max_basis)
    basis[0] = v0 / np.linalg.norm(v0)
    for m in range(max_basis):
        w = H.matvec(basis[m])
        alphas[m] = np.real(np.vdot(basis[m], w))
        # full reorthogonalisation, twice for safety
        for _ in range(2):
            w -= basis[: m + 1].T @ (basis[: m + 1].conj() @ w)
        beta = np.linalg.norm(w)
        off = betas[:m]
        evals, evecs = np.linalg.eigh(
            np.diag(alphas[: m + 1]) + np.diag(off, 1) + np.diag(off, -1))
        converged = abs(beta * evecs[-1, 0]) <= tol or beta <= 1e-14
        if converged or m + 1 == max_basis:
            return converged, evals[0], basis[: m + 1].T @ evecs[:, 0]
        betas[m] = beta
        basis[m + 1] = w / beta


def ground_state(H: CSROperator, tol: float = SOLVER_TOL_DEFAULT,
                 seed: int = SEED_DEFAULT) -> GroundState:
    """Lowest eigenpair of H by Lanczos, restarted from each sweep's best
    Ritz vector until the residual estimate reaches tol * max(1,
    row_sum_bound(H)): the unit Ritz vector v of Ritz value theta, its
    Rayleigh quotient, and ||H v - theta v||.  The seeded start is complex
    only for a complex H."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(H.dim)
    if np.iscomplexobj(H.data):
        v = v + 1j * rng.standard_normal(H.dim)
    target = tol * max(1.0, row_sum_bound(H))
    for _ in range(MAX_RESTARTS):
        converged, theta, v = _lanczos_sweep(H, v, target)
        if converged:
            v = v / np.linalg.norm(v)
            hv = H.matvec(v)
            return GroundState(float(np.real(np.vdot(v, hv))), v,
                               float(np.linalg.norm(hv - theta * v)))
    raise SolverError(
        f"Lanczos did not reach residual {target:.2e} in "
        f"{MAX_RESTARTS} restarts of basis {MAX_BASIS}")


def row_sum_bound(H: CSROperator) -> float:
    """max_i sum_j |H_ij| >= ||H||, without matvecs: the sums of |entries|
    over the nonempty CSR rows, as scipy's `abs(csr).sum(axis=1)` adds them."""
    starts = H.indptr[np.flatnonzero(np.diff(H.indptr))]
    return float(np.add.reduceat(np.abs(H.data), starts).max(initial=0.0))


def dense_spectrum(H: CSROperator) -> SpectralDecomposition:
    """Full eigensystem oracle."""
    evals, evecs = np.linalg.eigh(H.to_dense())
    return SpectralDecomposition(evals, evecs)


def deflated_solve(H: CSROperator, e0: float, rhs: np.ndarray,
                   tol: float = SOLVER_TOL_DEFAULT) -> np.ndarray:
    """Solve (H - E0) x = rhs by conjugate gradients on a symmetry block H
    that does not hold the ground state.

    The ground state is deflated by symmetry: it lies in another block, so
    H - E0 is positive definite on this one and no projector is needed.
    Breakdown (vanishing gap relative to `tol`) raises SolverError rather
    than returning a silent wrong answer.
    """
    bnorm = np.linalg.norm(rhs)
    if bnorm <= 1e-14:
        return np.zeros_like(rhs)
    max_iter = max(2000, 60 * int(np.sqrt(H.dim)))
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = np.real(np.vdot(r, r))
    for _ in range(max_iter):
        Ap = H.matvec(p) - e0 * p
        pAp = np.real(np.vdot(p, Ap))
        if pAp <= 0.0:
            raise SolverError(
                "CG breakdown: H - E0 not positive on the block (gap too "
                "small relative to tolerance)")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = np.real(np.vdot(r, r))
        if np.sqrt(rs_new) <= tol * bnorm:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverError(f"CG: no convergence in {max_iter} iterations")
