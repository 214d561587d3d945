import itertools
import math

import numpy as np
import pytest

from goldstone.eigensolver import dense_spectrum
from goldstone.lattice import Lattice
from goldstone.operators import (basis_tables, build_hamiltonian,
                                 fourier_spin, marshall_signs, sector_basis,
                                 site_phases, site_spin_operator,
                                 spin_matrices, staggered_operator,
                                 transformed_hamiltonian, twisted_orbits,
                                 twisted_zero_leak)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_spin_algebra(two_s):
    sx, sy, sz = spin_matrices(two_s)
    s = two_s / 2.0
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    assert np.allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-14)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, s * (s + 1) * np.eye(two_s + 1), atol=1e-14)


def test_two_site_ground_energy(pair):
    dec = dense_spectrum(build_hamiltonian(pair, 0.0))
    assert dec.eigenvalues[0] == pytest.approx(-0.75, abs=1e-12)
    assert np.allclose(dec.eigenvalues, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_two_site_spin_one():
    lat = Lattice.build((2,), spin=1.0)
    dec = dense_spectrum(build_hamiltonian(lat, 0.0))
    # S.S on a bond: (j(j+1) - 2 s(s+1))/2 for total spin j = 0, 1, 2
    assert dec.eigenvalues[0] == pytest.approx(-2.0, abs=1e-12)
    assert dec.eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)


def test_ring4_ground_energy(ring4):
    dec = dense_spectrum(build_hamiltonian(ring4, 0.0))
    assert dec.eigenvalues[0] == pytest.approx(-2.0, abs=1e-10)


def test_2x2_equals_ring4_with_deduplication(lat22, ring4, golden):
    """The 2x2 torus deduplicates coincident wrap bonds, so it IS the 4-ring;
    keeping duplicates would double every coupling and the energy."""
    e22 = dense_spectrum(build_hamiltonian(lat22, 0.0)).eigenvalues[0]
    e4 = dense_spectrum(build_hamiltonian(ring4, 0.0)).eigenvalues[0]
    assert e22 == pytest.approx(e4, abs=1e-12)
    assert e22 == pytest.approx(golden["e0_2x2_B0"], abs=1e-10)
    # doubling every bond scales the B=0 Hamiltonian and hence the energy
    assert 2 * e4 == pytest.approx(golden["e0_2x2_doubled_bonds"], abs=1e-10)


def test_hamiltonian_real_and_hermitian(lat24):
    H = build_hamiltonian(lat24, 0.3)
    dense = H.to_dense()
    assert np.abs(dense - dense.conj().T).max() == 0.0
    assert not np.iscomplexobj(H.data)


def test_field_sign_validation(lat22):
    with pytest.raises(ValueError):
        build_hamiltonian(lat22, -0.1)


def test_fourier_adjoint_is_negated_momentum(lat22):
    for n in lat22.momenta:
        for axis in (1, 2, 3):
            a = fourier_spin(lat22, n, axis)
            b = fourier_spin(lat22, lat22.negate(n), axis)
            assert np.abs(a.to_dense().conj().T - b.to_dense()).max() <= 1e-14


def test_fourier_zero_mode_commutes_at_zero_field(lat22):
    H = build_hamiltonian(lat22, 0.0).to_dense()
    for axis in (1, 2, 3):
        a = fourier_spin(lat22, (0, 0), axis).to_dense()
        assert np.abs(H @ a - a @ H).max() <= 1e-13


def test_fourier_expectation_vanishes(ctx22):
    # symmetry of H: the ground state carries no transverse spin density
    for n in ctx22.lattice.momenta:
        for axis in (2, 3):
            val = np.vdot(ctx22.gs.vector, ctx22.sk_phi(n, axis))
            assert abs(val) <= 1e-12


def test_fourier_rejects_off_grid(lat22):
    with pytest.raises(ValueError):
        fourier_spin(lat22, (5, 0), 2)
    with pytest.raises(ValueError):
        fourier_spin(lat22, (0, 0), 4)


def test_marshall_transform_properties(lat22):
    B = 0.1
    signs = marshall_signs(lat22)
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    Ud = np.diag(signs)
    H = build_hamiltonian(lat22, B).to_dense()
    tH = transformed_hamiltonian(lat22, B).to_dense()
    assert np.abs(Ud @ H @ Ud - tH).max() == 0.0
    # unitary equivalence of spectra
    ev1 = np.linalg.eigvalsh(H)
    ev2 = np.linalg.eigvalsh(tH)
    assert np.allclose(ev1, ev2, atol=1e-12)
    # rotated frame has nonpositive off-diagonal entries
    off = tH - np.diag(np.diag(tH))
    assert off.max() <= 0.0


def test_transformed_ground_vector_positive(lat22):
    # Perron-Frobenius: strictly one sign for B > 0 after a global flip
    tH = transformed_hamiltonian(lat22, 0.1)
    dec = dense_spectrum(tH)
    vec = dec.eigenvectors[:, 0]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    assert vec.min() > 0.0


def _translation_permutation(lattice, axis):
    """perm with (P v)[i] = v[perm[i]] for the one-site shift along `axis`:
    P maps the state with digits g(x) to the one with digits g(x - e_axis)."""
    tab = basis_tables(lattice.spec)
    perm = np.zeros(tab.dim, dtype=np.int64)
    for j, x in enumerate(lattice.sites):
        y = list(x)
        y[axis] = (y[axis] + 1) % lattice.spec.extents[axis]
        perm += tab.digits[lattice.site_index(tuple(y))].astype(np.int64) \
            * tab.strides[j]
    return perm


def test_translation_covariance_of_rotated_frame(lat24):
    tH = transformed_hamiltonian(lat24, 0.1).to_dense()
    for axis in (0, 1):
        perm = _translation_permutation(lat24, axis)
        moved = tH[np.ix_(perm, perm)]
        assert np.abs(moved - tH).max() <= 1e-12


def test_translation_breaks_original_frame(lat24):
    # the staggered field flips under a one-site shift, so H itself is only
    # two-site periodic
    H = build_hamiltonian(lat24, 0.4).to_dense()
    perm = _translation_permutation(lat24, 1)
    assert np.abs(H[np.ix_(perm, perm)] - H).max() > 0.1


def test_staggered_operator_matches_site_sum(lat22):
    direct = sum(lat22.staggered_signs[j]
                 * site_spin_operator(lat22, j, 1).to_dense()
                 for j in range(lat22.n_sites))
    assert np.abs(staggered_operator(lat22).to_dense() - direct).max() <= 1e-14


def _kron_site(lat, j, mat):
    """mat at site j and identities elsewhere, site 0 most significant."""
    out = np.ones((1, 1))
    for i in range(lat.n_sites):
        out = np.kron(out, mat if i == j else np.eye(lat.spec.two_s + 1))
    return out


@pytest.mark.parametrize("extents,spin", [((4,), 0.5), ((2, 2), 0.5),
                                          ((4,), 1.0)])
def test_site_sums_match_kronecker_products(extents, spin):
    """`site_sum` against dense Kronecker products of `spin_matrices`:
    single sites on the full basis, and the sector form of the Fourier
    modes (relabelled matrices, restricted to the sectors)."""
    lat = Lattice.build(extents, spin)
    mats = spin_matrices(lat.spec.two_s)
    for j in range(lat.n_sites):
        for axis in (1, 2, 3):
            ref = _kron_site(lat, j, mats[axis - 1])
            got = site_spin_operator(lat, j, axis).to_dense()
            assert np.abs(got - ref).max() <= 1e-15
    top = lat.n_sites * lat.spec.two_s // 2
    # sector bases represent S^(1), S^(2), S^(3) by the S_z, S_x, S_y
    # matrices
    relabelled = {1: mats[2], 2: mats[0], 3: mats[1]}
    for n in lat.momenta:
        phases = site_phases(lat, n) / np.sqrt(lat.n_sites)
        for axis in (1, 2, 3):
            full = sum(p * _kron_site(lat, j, relabelled[axis])
                       for j, p in enumerate(phases))
            for M in range(-top, top + 1):
                if axis != 1 and abs(M) == top:
                    continue
                cols = sector_basis(lat.spec, (M,)).codes
                rows = cols if axis == 1 else \
                    sector_basis(lat.spec, (M + 1, M - 1)).codes
                got = fourier_spin(lat, n, axis, sector=M).to_dense()
                assert np.abs(got - full[np.ix_(rows, cols)]).max() <= 1e-14


@pytest.mark.parametrize("extents,spin", [((4,), 0.5), ((2, 4), 0.5),
                                          ((4,), 1.0)])
def test_sector_basis_enumerates_fixed_magnetization(extents, spin):
    spec = Lattice.build(extents, spin).spec
    n, dloc = spec.n_sites, spec.two_s + 1
    every = np.arange(spec.hilbert_dim)
    digit_sums = sum((every // dloc ** j) % dloc for j in range(n))
    top = n * spec.two_s // 2
    for M in range(-top, top + 1):
        basis = sector_basis(spec, (M,))
        assert np.array_equal(basis.codes, every[digit_sums == top - M])
        assert np.array_equal(basis.rank(basis.codes), np.arange(basis.dim))
    pair = sector_basis(spec, (1, -1))
    assert np.all(np.diff(pair.codes) > 0)
    if spin == 0.5:
        assert sector_basis(spec, (0,)).dim == math.comb(n, n // 2)
    with pytest.raises(ValueError):
        pair.rank(sector_basis(spec, (0,)).codes)


@pytest.mark.parametrize("extents,spin,B", [((4,), 0.5, 0.3),
                                            ((2, 4), 0.5, 0.2),
                                            ((4,), 1.0, 0.45)])
def test_sector_spectra(extents, spin, B):
    """Sectors M and -M share one spectrum (spin flip times a one-site
    translation), and the sectors together give the full spectrum."""
    lat = Lattice.build(extents, spin)
    top = lat.n_sites * lat.spec.two_s // 2
    spectra = {
        M: np.linalg.eigvalsh(build_hamiltonian(lat, B, (M,)).to_dense())
        for M in range(-top, top + 1)}
    for M in range(1, top + 1):
        assert np.abs(spectra[M] - spectra[-M]).max() <= 1e-12
    full = np.linalg.eigvalsh(build_hamiltonian(lat, B).to_dense())
    assert np.abs(np.sort(np.concatenate(list(spectra.values())))
                  - full).max() <= 1e-12
    both = build_hamiltonian(lat, B, (1, -1)).to_dense()
    assert np.abs(both - both.conj().T).max() == 0.0
    assert np.abs(np.linalg.eigvalsh(both)
                  - np.sort(np.concatenate([spectra[1], spectra[-1]]))).max() \
        <= 1e-12


def test_sector_fourier_spin_lands_in_neighbouring_sectors(lat24):
    zero = sector_basis(lat24.spec, (0,))
    pair = sector_basis(lat24.spec, (1, -1))
    op = fourier_spin(lat24, (0, 1), 2, sector=0)
    assert (op.dim, op.n_cols) == (pair.dim, zero.dim)
    assert fourier_spin(lat24, (0, 1), 1, sector=0).dim == zero.dim
    diag = staggered_operator(lat24, 0).to_dense()
    assert np.count_nonzero(diag - np.diag(np.diag(diag))) == 0


def _twisted_action(lat, tab, a):
    """Basis positions of g_a s for every state s of `tab`, from digit lists:
    the spin at x moves to x + a, flipped (d -> 2S - d) when sum(a) is odd."""
    n, dloc = lat.n_sites, lat.spec.two_s + 1
    images = []
    for code in tab.codes:
        digits = [(int(code) // dloc ** (n - 1 - j)) % dloc for j in range(n)]
        moved = [0] * n
        for j, x in enumerate(lat.sites):
            y = lat.site_index(tuple(c + s for c, s in zip(x, a)))
            moved[y] = lat.spec.two_s - digits[j] if sum(a) % 2 else digits[j]
        images.append(sum(d * dloc ** (n - 1 - j) for j, d in enumerate(moved)))
    return tab.rank(np.array(images, dtype=np.int64))


@pytest.mark.parametrize("sectors", [(0,), (1, -1)])
@pytest.mark.parametrize("extents,spin", [((4,), 0.5), ((2, 4), 0.5),
                                          ((4,), 1.0)])
def test_twisted_blocks_match_explicit_projector(extents, spin, sectors):
    """H_q = P_q^dagger H P_q on the basis P_q |r> / ||P_q |r>|| of an
    explicit projector, and the block spectra together are the spectrum of
    H.  M = 0 has states with nontrivial stabilisers, M = +-1 has none."""
    lat = Lattice.build(extents, spin)
    tab = sector_basis(lat.spec, sectors)
    H = build_hamiltonian(lat, 0.3, sectors)
    dense = H.to_dense()
    orbits = twisted_orbits(lat, sectors)
    shifts = list(itertools.product(*map(range, extents)))
    perms = []
    for a in shifts:
        u = np.zeros((tab.dim, tab.dim))
        u[_twisted_action(lat, tab, a), np.arange(tab.dim)] = 1.0
        assert np.abs(u @ dense - dense @ u).max() <= 1e-14
        perms.append(u)
    images = np.array([u.argmax(axis=0) for u in perms])
    reps = np.unique(images.min(axis=0))
    assert np.array_equal(reps, orbits.reps)
    assert (orbits.size.min() < len(shifts)) == (sectors == (0,))
    spectra = []
    for q in lat.momenta:
        chi = np.exp(-1j * (np.array(shifts) @ lat.kvec(q)))
        proj = sum(c.conj() * u for c, u in zip(chi, perms)) / len(perms)
        cols = [proj[:, r] / np.linalg.norm(proj[:, r]) for r in reps
                if np.linalg.norm(proj[:, r]) > 1e-12]
        basis = np.column_stack(cols) if cols else np.zeros((tab.dim, 0))
        block = orbits.block(H, orbits.character(lat, q))
        assert block.dim == basis.shape[1]
        assert np.abs(block.to_dense() - block.to_dense().conj().T).max() \
            <= 1e-15
        assert np.abs(basis.conj().T @ basis - np.eye(block.dim)).max() \
            <= 1e-12
        assert np.abs(basis.conj().T @ dense @ basis
                      - block.to_dense()).max() <= 1e-12
        spectra.append(np.linalg.eigvalsh(block.to_dense()))
        if not any(q):
            # the generator bound on the part of a vector off momentum 0
            v = np.random.default_rng(1).standard_normal(tab.dim)
            off = np.linalg.norm(v - proj @ v) ** 2
            leak = twisted_zero_leak(lat, sectors, v)
            assert off <= leak * (1 + 1e-12)
            assert leak <= off * len(extents) \
                / np.sin(np.pi / max(extents)) ** 2
    assert np.abs(np.sort(np.concatenate(spectra))
                  - np.linalg.eigvalsh(dense)).max() <= 1e-12
