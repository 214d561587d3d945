import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import goldstone.operators
from goldstone.analysis import SystemContext
from goldstone.eigensolver import dense_spectrum
from goldstone.lattice import Lattice
from goldstone.operators import (SECTOR_AXES, SparseHermitianOperator,
                                 _orbit_pass, basis_tables,
                                 build_hamiltonian, direct_sum, fourier_ladder,
                                 fourier_spin, pair_ceiling, sector_basis,
                                 shared_rows, site_phases,
                                 site_spin_operator, staggered_operator)


def spin_matrices(two_s: int):
    """Dense single-site (S_x, S_y, S_z) for spin S = two_s/2; S^(axis) is
    the matrix `SECTOR_AXES[axis - 1]` of these.

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


def marshall_signs(lattice):
    """Diagonal of the sublattice pi-rotation about the field axis S^(1)
    (the S_z matrix), as +-1 per state.

    Fixed to a real gauge: entry (-1)^(sum over odd-sublattice sites of S - m).
    This differs from exp(i pi sum S^(1)) by a global phase only.
    """
    tab = basis_tables(lattice)
    odd = [j for j in range(lattice.n_sites) if lattice.staggered_signs[j] < 0]
    par = np.zeros(tab.dim, dtype=np.int64)
    for j in odd:
        par += tab.digits[j]
    return np.where(par % 2 == 0, 1.0, -1.0)


def transformed_hamiltonian(lattice, B):
    """U* H U = signs (x) H (x) signs, entry by entry, for the sublattice
    rotation U = diag(`marshall_signs`) (U = U* = U^-1).

    The hops (S+_x S-_y + S-_x S+_y)/2 change sign and the field stays on
    the diagonal, so every off-diagonal entry of the result is nonpositive,
    which makes the lowest state of each sector M Perron-Frobenius positive.
    """
    H = build_hamiltonian(lattice, B)
    signs = marshall_signs(lattice)
    rows = np.repeat(np.arange(H.dim), np.diff(H.indptr))
    return SparseHermitianOperator.from_coo(
        H.dim, rows, H.indices, H.data * signs[rows] * signs[H.indices])


def rotated_hamiltonian(lattice, B):
    """U* H U, dense, for U the pi-rotation about S^(3) (the S_y matrix) on
    the odd sublattice: exp(-i pi S_y) maps digit d to 2S - d with the sign
    (-1)^d, so U[flip(s), s] = marshall_signs[s].

    It flips S^(1) and S^(2) on the odd sites, so the field becomes
    -B sum_x S_x^(1) and the bonds -S^(1)S^(1) - S^(2)S^(2) + S^(3)S^(3):
    the result is translation covariant with period one.
    """
    tab = basis_tables(lattice)
    flip = tab.codes.copy()
    for j in range(lattice.n_sites):
        if lattice.staggered_signs[j] < 0:
            flip += (lattice.two_s - 2 * tab.digits[j].astype(np.int64)) \
                * tab.strides[j]
    signs = marshall_signs(lattice)
    H = build_hamiltonian(lattice, B).to_dense()
    return signs[:, None] * H[np.ix_(flip, flip)] * signs[None, :]


def expand_block(lattice, block, coords):
    """The full-basis vector with coordinates `coords` on block (M, q):
    v[s] = coords[r] chi_q(g_s) / sqrt(|O_r|) on the states of the pair."""
    M, q = block
    orbits, locate = _orbit_pass(lattice, M)
    chi, ok = orbits.block_basis(q)
    col = np.cumsum(ok) - 1
    states = sector_basis(lattice, (M, -M) if M else (0,)).codes
    rep, elem = locate(states)
    mine = ok[rep]
    v = np.zeros(lattice.hilbert_dim, dtype=complex)
    v[states[mine]] = (coords[col[rep[mine]]] * chi[elem[mine]]
                       / np.sqrt(orbits.size[rep[mine]]))
    return v


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
    lat = Lattice((2,), spin=1.0)
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
    # Perron-Frobenius: H conserves M, and the ground state lies in M = 0,
    # where it has strictly one sign for B > 0 after a global flip
    tH = transformed_hamiltonian(lat22, 0.1)
    dec = dense_spectrum(tH)
    vec = dec.eigenvectors[:, 0]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    zero = sector_basis(lat22, (0,)).codes
    assert vec[zero].min() > 0.0
    assert np.abs(np.delete(vec, zero)).max() <= 1e-12


def _translation_permutation(lattice, axis):
    """perm with (P v)[i] = v[perm[i]] for the one-site shift along `axis`:
    P maps the state with digits g(x) to the one with digits g(x - e_axis)."""
    tab = basis_tables(lattice)
    perm = np.zeros(tab.dim, dtype=np.int64)
    for j, x in enumerate(lattice.sites):
        y = list(x)
        y[axis] = (y[axis] + 1) % lattice.extents[axis]
        perm += tab.digits[lattice.site_index(tuple(y))].astype(np.int64) \
            * tab.strides[j]
    return perm


def test_translation_covariance_of_rotated_frame(lat24):
    tH = rotated_hamiltonian(lat24, 0.1)
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
        out = np.kron(out, mat if i == j else np.eye(lat.two_s + 1))
    return out


@pytest.mark.parametrize("extents,spin", [((4,), 0.5), ((2, 2), 0.5),
                                          ((4,), 1.0)])
def test_site_sums_match_kronecker_products(extents, spin):
    """`site_sum` against dense Kronecker products of `spin_matrices`, with
    S^(axis) the matrix `SECTOR_AXES[axis - 1]`: single sites, and the
    ladder coefficients of the Fourier modes."""
    lat = Lattice(extents, spin)
    mats = spin_matrices(lat.two_s)
    for j in range(lat.n_sites):
        for axis in (1, 2, 3):
            ref = _kron_site(lat, j, mats[SECTOR_AXES[axis - 1] - 1])
            got = site_spin_operator(lat, j, axis).to_dense()
            assert np.abs(got - ref).max() <= 1e-15
    raising = mats[0] + 1j * mats[1]
    for n in lat.momenta:
        phases = site_phases(lat, n) / np.sqrt(lat.n_sites)
        for axis in (2, 3):
            full = sum(p * _kron_site(lat, j, mats[SECTOR_AXES[axis - 1] - 1])
                       for j, p in enumerate(phases))
            c = fourier_ladder(lat, n, axis)
            got = sum(c[j, 0] * _kron_site(lat, j, raising)
                      + c[j, 1] * _kron_site(lat, j, raising.conj().T)
                      for j in range(lat.n_sites))
            assert np.abs(got - full).max() <= 1e-14
            assert np.abs(fourier_spin(lat, n, axis).to_dense()
                          - full).max() <= 1e-14
    with pytest.raises(ValueError):
        fourier_ladder(lat, (0,) * lat.dimension, 1)


@pytest.mark.parametrize("extents,spin", [((2, 2), 0.5), ((4,), 1.0)])
def test_hamiltonian_matches_kronecker_products(extents, spin):
    """H = sum_bonds S_x . S_y - B sum_x sigma(x) S_x^(1) from dense
    Kronecker products, with the field on the S_z matrix: the full basis
    uses the spin axes of the blocks."""
    lat = Lattice(extents, spin)
    mats = spin_matrices(lat.two_s)
    B = 0.3
    ref = sum(_kron_site(lat, i, m) @ _kron_site(lat, j, m)
              for (i, j) in lat.bonds for m in mats)
    ref = ref - B * sum(lat.staggered_signs[j] * _kron_site(lat, j, mats[2])
                        for j in range(lat.n_sites))
    H = build_hamiltonian(lat, B)
    assert not np.iscomplexobj(H.data)
    assert np.abs(H.to_dense() - ref).max() <= 1e-14


@pytest.mark.parametrize("extents,spin", [((4,), 0.5), ((2, 4), 0.5),
                                          ((4,), 1.0)])
def test_sector_basis_enumerates_fixed_magnetization(extents, spin):
    lat = Lattice(extents, spin)
    n, dloc = lat.n_sites, lat.two_s + 1
    every = np.arange(lat.hilbert_dim)
    digit_sums = sum((every // dloc ** j) % dloc for j in range(n))
    top = n * lat.two_s // 2
    for M in range(-top, top + 1):
        basis = sector_basis(lat, (M,))
        assert np.array_equal(basis.codes, every[digit_sums == top - M])
        assert np.array_equal(basis.rank(basis.codes), np.arange(basis.dim))
    pair = sector_basis(lat, (1, -1))
    assert np.all(np.diff(pair.codes) > 0)
    if spin == 0.5:
        assert sector_basis(lat, (0,)).dim == math.comb(n, n // 2)
    with pytest.raises(ValueError):
        pair.rank(sector_basis(lat, (0,)).codes)


ENUMERATED = [((2,), 0.5), ((4,), 0.5), ((6,), 0.5), ((10,), 0.5),
              ((2, 2), 0.5), ((2, 4), 0.5), ((2, 6), 0.5), ((4, 4), 0.5),
              ((2,), 1.0), ((4,), 1.0), ((6,), 1.0), ((2, 2), 1.0),
              ((4,), 1.5)]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(ENUMERATED), data=st.data())
def test_sector_basis_matches_brute_force_filter(shape, data):
    """sector_basis(lattice, sectors) is the ascending, duplicate-free list of
    the full-basis codes whose digit sum is n S - M for an M in `sectors`,
    with their digits and ranks, for the sector (0,), a pair (M, -M) and
    arbitrary tuples of sectors."""
    extents, spin = shape
    lat = Lattice(extents, spin)
    n, dloc = lat.n_sites, lat.two_s + 1
    top = n * lat.two_s // 2
    sector = st.integers(-top, top)
    sectors = data.draw(st.one_of(
        st.just((0,)), st.integers(0, top).map(lambda M: (M, -M)),
        st.lists(sector, min_size=1, max_size=4).map(tuple)))
    every = np.arange(lat.hilbert_dim)
    digits = np.array([(every // dloc ** (n - 1 - j)) % dloc
                       for j in range(n)])
    wanted = np.isin(digits.sum(axis=0), [top - M for M in sectors])
    basis = sector_basis(lat, sectors)
    assert np.array_equal(basis.codes, every[wanted])
    assert np.all(np.diff(basis.codes) > 0)
    assert np.array_equal(basis.digits, digits[:, wanted])
    assert np.array_equal(basis.rank(basis.codes), np.arange(basis.dim))
    if not wanted.all():
        with pytest.raises(ValueError):
            basis.rank(every[~wanted][:1])


@pytest.mark.parametrize("extents,spin", [((6,), 0.5), ((2, 4), 0.5),
                                          ((4,), 1.0)])
def test_locate_is_the_smallest_image(extents, spin):
    """For every state of every pair (M, -M), `locate` gives the index of
    the smallest image over G and the first group element that reaches it,
    from digit lists; a state of another pair raises ValueError."""
    lat = Lattice(extents, spin)
    top = lat.n_sites * lat.two_s // 2
    shifts = list(itertools.product(*map(range, extents)))
    for M in range(top + 1):
        orbits, locate = _orbit_pass(lat, M)
        states = sector_basis(lat, (M, -M) if M else (0,)).codes
        images = np.array([_twisted_images(lat, states, a) for a in shifts])
        elem = images.argmin(axis=0)
        smallest = images[elem, np.arange(len(states))]
        rep = np.searchsorted(orbits.reps.codes, smallest)
        assert np.array_equal(orbits.reps.codes[rep], smallest)
        got_rep, got_elem = locate(states)
        assert np.array_equal(got_rep, rep)
        assert np.array_equal(got_elem, elem)
        other = sector_basis(lat, (M + 1,) if M < top else (0,)).codes
        with pytest.raises(ValueError):
            locate(other[-1:])


@pytest.mark.parametrize("extents", [(2, 4), (4, 4)])
def test_blocks_sharing_rows_equal_blocks_built_alone(extents):
    """Blocks (1, q) at two fields, built one after another from the shared
    rows of M = +-1 (`shared_rows`), in two orders, equal the blocks each
    built from rows of its own (`shared_rows` cleared first), entry for
    entry."""
    lat = Lattice(extents)
    for B in (0.1, 0.05):
        alone = {}
        for q in lat.momenta:
            shared_rows.cache_clear()
            alone[q] = build_hamiltonian(lat, B, (1, q))
        for order in (lat.momenta, lat.momenta[::-1]):
            for q in order:
                together = build_hamiltonian(lat, B, (1, q))
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(together, part),
                                          getattr(alone[q], part))


@pytest.mark.parametrize("extents,spin,B", [((4,), 0.5, 0.3),
                                            ((2, 4), 0.5, 0.2),
                                            ((4,), 1.0, 0.45),
                                            ((6,), 0.5, 0.25),
                                            ((2, 2), 0.5, 0.15)])
def test_sector_spectra(extents, spin, B):
    """The blocks (M, q), M >= 0, of the pairs of sectors M and -M at every
    twisted momentum q are Hermitian (real at q = 0), and their spectra
    together give the full spectrum, at two fields."""
    lat = Lattice(extents, spin)
    top = lat.n_sites * lat.two_s // 2
    for field in (B, B / 3):
        spectra = []
        for M in range(top + 1):
            for q in lat.momenta:
                block = build_hamiltonian(lat, field, (M, q))
                dense = block.to_dense()
                assert np.abs(dense - dense.conj().T).max(initial=0.0) <= 1e-15
                if not any(q):
                    assert not np.iscomplexobj(block.data)
                spectra.append(np.linalg.eigvalsh(dense))
        full = np.linalg.eigvalsh(build_hamiltonian(lat, field).to_dense())
        assert np.abs(np.sort(np.concatenate(spectra)) - full).max() <= 1e-12


CEILING_LATTICES = {"ring4": ((4,), 0.5), "ring6": ((6,), 0.5),
                    "2x2": ((2, 2), 0.5), "2x4": ((2, 4), 0.5),
                    "4x2": ((4, 2), 0.5), "spin1-ring4": ((4,), 1.0),
                    "spin1-2x2": ((2, 2), 1.0), "spin3/2-2x2": ((2, 2), 1.5)}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CEILING_LATTICES)), B=st.floats(0.0, 3.0))
def test_pair_ceiling_bounds_every_block_of_the_pair(name, B):
    """The closed-form ceiling n_bonds S^2 + B (N S - 1) lies at or above
    the dense top eigenvalue of every block (1, q), and at B = 0, where the
    ferromagnetic multiplet attains it, within 1e-12 of the highest."""
    lat = Lattice(*CEILING_LATTICES[name])
    for field in (B, 0.0):
        ceiling = pair_ceiling(lat, field)
        assert ceiling >= len(lat.bonds) * lat.spin ** 2 \
            + field * (lat.n_sites * lat.spin - 1)
        tops = [np.linalg.eigvalsh(
            build_hamiltonian(lat, field, (1, q)).to_dense())[-1]
            for q in lat.momenta]
        assert max(tops) <= ceiling, (field, max(tops), ceiling)
    assert ceiling - max(tops) <= 1e-12


def _twisted_action(lat, tab, a):
    """Basis positions of g_a s for every state s of `tab`."""
    return tab.rank(_twisted_images(lat, tab.codes, a))


def _twisted_images(lat, codes, a):
    """Codes of g_a s for every state s in `codes`, from digit lists: the
    spin at x moves to x + a, flipped (d -> 2S - d) when sum(a) is odd."""
    n, dloc = lat.n_sites, lat.two_s + 1
    images = []
    for code in codes:
        digits = [(int(code) // dloc ** (n - 1 - j)) % dloc for j in range(n)]
        moved = [0] * n
        for j, x in enumerate(lat.sites):
            y = lat.site_index(tuple(c + s for c, s in zip(x, a)))
            moved[y] = lat.two_s - digits[j] if sum(a) % 2 else digits[j]
        images.append(sum(d * dloc ** (n - 1 - j) for j, d in enumerate(moved)))
    return np.array(images, dtype=np.int64)


def test_sector_fourier_spin_lands_in_neighbouring_sectors(lat24):
    """What the sparse path takes for granted, shown on the full basis from
    digit lists: phi0 of block (0, 0) is invariant under every twisted
    translation, and S_k^(2) phi0 and S_k^(3) phi0 lie in the sectors
    M = +-1 with twisted momentum k and k + Q, where g_a acts as
    e^{-i q.a}."""
    ctx = SystemContext(lat24, 0.2, dense_cap=0)
    zero, pair = sector_basis(lat24, (0,)), sector_basis(lat24, (1, -1))
    phi = expand_block(lat24, (0, (0, 0)), ctx.gs.vector)
    shifts = list(itertools.product(*map(range, lat24.extents)))
    for a in shifts:
        assert np.abs(phi[zero.codes[_twisted_action(lat24, zero, a)]]
                      - phi[zero.codes]).max() <= 1e-14
    outside = np.setdiff1d(np.arange(lat24.hilbert_dim), pair.codes)
    for n in lat24.momenta:
        for axis, q in ((2, n), (3, lat24.shift_q(n))):
            v = fourier_spin(lat24, n, axis).matvec(phi)
            assert np.abs(v[outside]).max() <= 1e-15
            for a in shifts:
                moved = np.zeros_like(v)
                moved[pair.codes[_twisted_action(lat24, pair, a)]] = \
                    v[pair.codes]
                chi = np.exp(-1j * np.dot(lat24.kvec(q), a))
                assert np.abs(moved - chi * v).max() <= 1e-14


@pytest.mark.parametrize("sectors", [(0,), (1, -1)])
@pytest.mark.parametrize("extents,spin", [((4,), 0.5), ((2, 4), 0.5),
                                          ((4,), 1.0)])
def test_twisted_blocks_match_explicit_projector(extents, spin, sectors):
    """H_q = P_q^dagger H P_q on the basis P_q |r> / ||P_q |r>|| of an
    explicit projector, and the block spectra together are the spectrum of
    H on the sectors.  M = 0 has states with nontrivial stabilisers, M = +-1
    has none."""
    lat = Lattice(extents, spin)
    tab = sector_basis(lat, sectors)
    dense = build_hamiltonian(lat, 0.3).to_dense()[np.ix_(tab.codes,
                                                          tab.codes)]
    orbits, _ = _orbit_pass(lat, sectors[0])
    shifts = list(itertools.product(*map(range, extents)))
    perms = []
    for a in shifts:
        u = np.zeros((tab.dim, tab.dim))
        u[_twisted_action(lat, tab, a), np.arange(tab.dim)] = 1.0
        assert np.abs(u @ dense - dense @ u).max() <= 1e-14
        perms.append(u)
    images = np.array([u.argmax(axis=0) for u in perms])
    reps = np.unique(images.min(axis=0))
    assert np.array_equal(tab.codes[reps], orbits.reps.codes)
    assert (orbits.size.min() < len(shifts)) == (sectors == (0,))
    spectra = []
    for q in lat.momenta:
        chi = np.exp(-1j * (np.array(shifts) @ lat.kvec(q)))
        proj = sum(c.conj() * u for c, u in zip(chi, perms)) / len(perms)
        cols = [proj[:, r] / np.linalg.norm(proj[:, r]) for r in reps
                if np.linalg.norm(proj[:, r]) > 1e-12]
        basis = np.column_stack(cols) if cols else np.zeros((tab.dim, 0))
        block = build_hamiltonian(lat, 0.3, (sectors[0], q))
        assert block.dim == basis.shape[1]
        assert np.abs(block.to_dense() - block.to_dense().conj().T) \
            .max(initial=0.0) <= 1e-15
        assert np.abs(basis.conj().T @ basis - np.eye(block.dim)) \
            .max(initial=0.0) <= 1e-12
        assert np.abs(basis.conj().T @ dense @ basis
                      - block.to_dense()).max(initial=0.0) <= 1e-12
        spectra.append(np.linalg.eigvalsh(block.to_dense()))
    assert np.abs(np.sort(np.concatenate(spectra))
                  - np.linalg.eigvalsh(dense)).max() <= 1e-12


@pytest.mark.parametrize("extents,spin", [((2, 4), 0.5), ((2, 6), 0.5),
                                          ((4,), 1.0)])
def test_full_basis_products_equal_csr_bit_for_bit(extents, spin):
    """A full-basis operator keeps its entries as CSR rows and runs scipy's
    csr_matvec on them, so its product equals the public CSR product of the
    same entries exactly: H and every Fourier mode on real and complex
    vectors, the staggered sum on real ones (as the dense oracle applies
    them); the dense matrix too, up to dimension 256."""
    lat = Lattice(extents, spin=spin)
    rng = np.random.default_rng(11)
    real = rng.standard_normal(lat.hilbert_dim)
    cplx = real + 1j * rng.standard_normal(real.size)
    cases = [(build_hamiltonian(lat, 0.3), (real, cplx)),
             (staggered_operator(lat), (real,))]
    cases += [(fourier_spin(lat, n, axis), (real, cplx))
              for n in lat.momenta for axis in (1, 2, 3)]
    for op, vectors in cases:
        rows = np.repeat(np.arange(op.dim), np.diff(op.indptr))
        csr = scipy.sparse.coo_matrix((op.data, (rows, op.indices)),
                                      shape=(op.dim, op.dim)).tocsr()
        for v in vectors:
            got, ref = op.matvec(v), csr @ v
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        if op.dim <= 256:
            assert np.array_equal(op.to_dense(), csr.toarray())


def test_block_operators_hold_only_their_csr(lat24):
    """A block keeps the three arrays of its CSR matrix, each as long as
    its rows need, and its dimension, but no copy of the entries it was
    built from, and so does a direct sum of blocks."""
    blocks = [build_hamiltonian(lat24, 0.2, (1, q)) for q in lat24.momenta]
    for op in blocks + [build_hamiltonian(lat24, 0.2, (0, (0, 0))),
                        direct_sum(blocks)]:
        assert list(vars(op)) == ["indptr", "indices", "data", "dim"]
        assert len(op.indptr) == op.dim + 1
        assert op.indptr[-1] == len(op.indices) == len(op.data) == op.nnz


def test_pair_diagonal_once_per_field(lat24, monkeypatch):
    """One sparse 2x4 context and a moment pass over every key evaluate the
    diagonal of H at the representatives of M = +-1 once: the ground-sector
    check, every block (1, q) and the Gershgorin bound share it."""
    reps = shared_rows(lat24)[1].orbits.reps
    diagonal, calls = goldstone.operators._diagonal, []

    def counted(lattice, B, tab):
        calls.append(tab is reps)
        return diagonal(lattice, B, tab)

    monkeypatch.setattr(goldstone.operators, "_diagonal", counted)
    goldstone.operators._shared_diagonal.cache_clear()
    ctx = SystemContext(lat24, 0.2, dense_cap=0)
    ctx.moments([(n, axis) for n in lat24.momenta for axis in (2, 3)], 8)
    (moment_pass,) = ctx.solver_stats()["moment_passes"]
    # every block (1, q) holds one axis-2 and one axis-3 vector
    assert len(moment_pass["blocks"]) == 2 * len(lat24.momenta)
    assert sum(calls) == 1


@pytest.mark.parametrize("extents,spin", [
    ((2, 2), 0.5), ((2, 4), 0.5), ((2, 6), 0.5), ((4, 4), 0.5), ((2,), 0.5),
    ((6,), 0.5), ((10,), 0.5), ((4,), 1.0), ((2, 4), 1.0)])
def test_pair_representatives_have_trivial_stabilisers(extents, spin):
    """The block context masks no representative (`BlockContext.sk_phi`,
    `m_B`): every one of M = +-1 has a trivial stabiliser, so it carries a
    basis vector of every block (1, q), and chi_0 = 1 keeps all of M = 0."""
    lat = Lattice(extents, spin)
    zero, pair, _ = shared_rows(lat)
    assert np.all(pair.orbits.size == len(pair.orbits.shifts))
    assert all(pair.orbits.block_basis(q)[1].all() for q in lat.momenta)
    assert zero.orbits.block_basis((0,) * lat.dimension)[1].all()
