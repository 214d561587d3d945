import numpy as np
import pytest

import goldstone.eigensolver
from goldstone.eigensolver import (SolverError, deflated_solve,
                                   dense_spectrum, ground_state)
from goldstone.filters import spectral_interval
from goldstone.lattice import Lattice
from goldstone.operators import (SparseHermitianOperator, build_hamiltonian,
                                 sector_basis)
from test_operators import marshall_signs, spin_matrices

ZERO = (0, (0, 0))


def _sho_from_dense(mat):
    mat = np.asarray(mat)
    rows, cols = np.nonzero(mat)
    return SparseHermitianOperator.from_coo(mat.shape[0], rows, cols,
                                            mat[rows, cols])


def test_single_site_field_spectrum():
    sx, _, _ = spin_matrices(1)
    B = 0.7
    dec = dense_spectrum(_sho_from_dense(-B * sx))
    assert np.allclose(dec.eigenvalues, [-B / 2, B / 2], atol=1e-14)


def test_dense_reconstruction(ring4):
    H = build_hamiltonian(ring4, 0.2)
    dec = dense_spectrum(H)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    dense = H.to_dense()
    assert np.linalg.norm(rebuilt - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


@pytest.mark.parametrize("extents,B", [((4,), 0.0), ((2, 2), 0.1),
                                       ((2, 4), 0.2)])
def test_lanczos_matches_dense(extents, B):
    lat = Lattice(extents)
    H = build_hamiltonian(lat, B)
    gs = ground_state(H)
    dec = dense_spectrum(H)
    assert abs(gs.energy - dec.eigenvalues[0]) <= 1e-10
    assert abs(np.linalg.norm(gs.vector) - 1.0) <= 1e-12
    overlap = abs(np.vdot(dec.eigenvectors[:, 0], gs.vector))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_ring4_energy_is_minus_two(ring4):
    H = build_hamiltonian(ring4, 0.0)
    gs = ground_state(H)
    assert gs.energy == pytest.approx(-2.0, abs=1e-10)


def test_spectral_shift_invariance(lat22):
    B = 0.1
    H = build_hamiltonian(lat22, B)
    shifted = _sho_from_dense(H.to_dense() + 3.7 * np.eye(H.dim))
    gs = ground_state(H)
    gs2 = ground_state(shifted)
    assert gs2.energy == pytest.approx(gs.energy + 3.7, abs=1e-9)
    assert abs(np.vdot(gs.vector, gs2.vector)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("phased", [False, True])
def test_floor_of_a_real_block_and_nan_of_a_complex_one(lat22, phased):
    """The floor at the Lanczos ground state of block (0, 0) lies at or
    below its lowest eigenvalue, and within 1e-8 of it; D H D^* with a
    diagonal unitary D has the same spectrum, but is complex, and its floor
    is NaN."""
    H = build_hamiltonian(lat22, 0.1, ZERO)
    lowest = np.linalg.eigvalsh(H.to_dense())[0]
    if phased:
        phases = np.exp(1j * np.random.default_rng(5).uniform(0, 6, H.dim))
        H = _sho_from_dense(phases[:, None] * H.to_dense() * phases.conj())
    assert np.iscomplexobj(H.data) == phased
    gs = ground_state(H, 1e-11, 3)
    assert np.iscomplexobj(gs.vector) == phased
    assert abs(gs.energy - lowest) <= 1e-12
    floor = spectral_interval(H, gs.vector)
    if phased:
        assert np.isnan(floor)
    else:
        assert lowest - 1e-8 <= floor <= lowest
        assert np.isnan(spectral_interval(H, np.zeros(H.dim)))


def test_lanczos_nonconvergence_error(ring4, monkeypatch):
    monkeypatch.setattr(goldstone.eigensolver, "MAX_BASIS", 3)
    monkeypatch.setattr(goldstone.eigensolver, "MAX_RESTARTS", 1)
    H = build_hamiltonian(ring4, 0.0)
    with pytest.raises(SolverError):
        ground_state(H, 1e-16)


def test_perron_positive_transformed_vector(lat24):
    # H conserves M; on the M = 0 states, where the ground state lies, its
    # sign structure is exactly the sublattice rotation's diagonal for B > 0
    H = build_hamiltonian(lat24, 0.2)
    gs = ground_state(H)
    zero = sector_basis(lat24, (0,)).codes
    rotated = (marshall_signs(lat24) * gs.vector.real)[zero]
    rotated *= np.sign(rotated[np.argmax(np.abs(rotated))])
    assert rotated.min() > 0.0


@pytest.fixture(scope="module")
def block24(lat24):
    """The 2x4 ground state at B = 0.2, solved in block (0, 0), and H on
    block (1, (0, 1)) of M = +-1, which does not hold it."""
    B = 0.2
    gs = ground_state(build_hamiltonian(lat24, B, ZERO))
    return gs, build_hamiltonian(lat24, B, (1, (0, 1)))


def test_deflated_solve_on_excited_eigenvector(block24):
    gs, H = block24
    evals, evecs = np.linalg.eigh(H.to_dense())
    v1 = evecs[:, 1].astype(complex)
    x = deflated_solve(H, gs.energy, v1)
    assert np.linalg.norm(x - v1 / (evals[1] - gs.energy)) <= 1e-8


def test_deflated_solve_matches_spectral_sum(block24, rng):
    gs, H = block24
    evals, evecs = np.linalg.eigh(H.to_dense())
    rhs = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    lhs = np.vdot(rhs, deflated_solve(H, gs.energy, rhs)).real
    expected = np.sum(np.abs(evecs.conj().T @ rhs) ** 2
                      / (evals - gs.energy))
    assert abs(lhs - expected) <= 1e-8 * expected
    assert lhs >= 0.0


def test_deflated_resolvent_self_adjoint(block24, rng):
    gs, H = block24
    a = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    b = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    ra = deflated_solve(H, gs.energy, a)
    rb = deflated_solve(H, gs.energy, b)
    assert abs(np.vdot(a, rb) - np.conj(np.vdot(b, ra))) <= 1e-8


def test_ground_energy_concave_in_field(lat22):
    bs = [0.05, 0.2, 0.4]
    es = [dense_spectrum(build_hamiltonian(lat22, b)).eigenvalues[0]
          for b in bs]
    slope_low = (es[1] - es[0]) / (bs[1] - bs[0])
    slope_high = (es[2] - es[1]) / (bs[2] - bs[1])
    assert slope_high - slope_low <= 1e-10


def test_floor_and_ground_sector_check(lat24):
    """At every M = 0 .. 4 on 2x4 at B = 0.2, the floor of block (M, 0) at
    its Lanczos ground state lies at or below the block's dense lowest
    eigenvalue, and every floor of M >= 1 lies above E0."""
    B = 0.2
    e0 = dense_spectrum(build_hamiltonian(lat24, B)).eigenvalues[0]
    for M in (0, 1, 2, 3, 4):
        H = build_hamiltonian(lat24, B, (M, (0, 0)))
        gs = ground_state(H)
        lowest = np.linalg.eigvalsh(H.to_dense())[0]
        assert abs(gs.energy - lowest) <= 1e-10
        assert gs.residual <= 1e-9
        floor = spectral_interval(H, gs.vector)
        assert lowest - 1e-6 <= floor <= lowest
        # the ground state lies in the sector M = 0
        assert floor > e0 if M else abs(floor - e0) <= 1e-6


def test_plain_cg_on_a_sector_without_the_ground_state(block24):
    gs, H_pm = block24
    rhs = np.random.default_rng(3).standard_normal(H_pm.dim) + 0j
    x = deflated_solve(H_pm, gs.energy, rhs, tol=1e-12)
    dense = H_pm.to_dense() - gs.energy * np.eye(H_pm.dim)
    assert np.linalg.norm(x - np.linalg.solve(dense, rhs)) <= 1e-9

