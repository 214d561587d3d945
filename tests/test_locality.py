import numpy as np
import pytest

from goldstone.config import parse_config_text
from goldstone.eigensolver import dense_spectrum
from goldstone.filters import FilterSpec, GFilter
from goldstone.lattice import Lattice
from goldstone.locality import (_commutator_norm, _evolve, b_continuity,
                                delta_decomposition, local_approximation,
                                lr_commutator_profile, operator_norm,
                                support_norm, tau_g_star)
from goldstone.operators import (SECTOR_AXES, build_hamiltonian,
                                 site_spin_operator)
from goldstone.runner import run_scan
from test_operators import spin_matrices

GF = GFilter(FilterSpec(0.2, 3.0, 0.5))


def heisenberg_evolve(dec, a, t):
    """exp(iHt) a exp(-iHt) through the eigensystem."""
    return _evolve(dec, dec.eigenvectors.conj().T @ a @ dec.eigenvectors, t)


@pytest.fixture(scope="module")
def dec22(lat22):
    return dense_spectrum(build_hamiltonian(lat22, 0.1))


@pytest.fixture(scope="module")
def dec24(lat24):
    return dense_spectrum(build_hamiltonian(lat24, 0.1))


def test_evolution_at_zero_time(dec22, lat22):
    a = site_spin_operator(lat22, 0, 2).to_dense()
    assert np.abs(heisenberg_evolve(dec22, a, 0.0) - a).max() <= 1e-12


def test_default_locality_operator_is_real(dec22, lat22):
    # S^(2) is the real S_x matrix, so the smeared evolution of the desk
    # locality suite is real
    a = site_spin_operator(lat22, 0, 2).to_dense()
    assert not np.iscomplexobj(a)
    assert not np.iscomplexobj(tau_g_star(dec22, GF, a))


def test_evolution_fixes_hamiltonian(dec22, lat22):
    H = build_hamiltonian(lat22, 0.1).to_dense()
    assert np.abs(heisenberg_evolve(dec22, H, 0.73) - H).max() <= 1e-10


def test_evolution_preserves_norm(dec22, lat22):
    a = site_spin_operator(lat22, 1, 2).to_dense()
    for t in (0.25, 1.0, 3.0):
        assert operator_norm(heisenberg_evolve(dec22, a, t)) == pytest.approx(
            operator_norm(a), abs=1e-10)


def test_smeared_identity_vanishes(dec22):
    # g(0) = 0, so the identity is annihilated
    out = tau_g_star(dec22, GF, np.eye(dec22.dim, dtype=complex))
    assert operator_norm(out) <= 1e-12


def test_smeared_rank_one_scaling(dec22):
    m, n = 1, 5
    a = np.outer(dec22.eigenvectors[:, m], dec22.eigenvectors[:, n].conj())
    out = tau_g_star(dec22, GF, a)
    factor = GF(dec22.eigenvalues[m] - dec22.eigenvalues[n])
    assert np.abs(out - factor * a).max() <= 1e-12


def test_smeared_action_identity(dec22, lat22):
    # tau*g(a) phi0 = g(H - E0) a phi0
    a = site_spin_operator(lat22, 0, 2).to_dense()
    phi = dec22.eigenvectors[:, 0]
    lhs = tau_g_star(dec22, GF, a) @ phi
    amps = dec22.eigenvectors.conj().T @ (a @ phi)
    rhs = dec22.eigenvectors @ (GF(dec22.eigenvalues - dec22.eigenvalues[0]) * amps)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_local_approximation_fixed_points(dec24, lat24):
    a = site_spin_operator(lat24, 2, 2).to_dense()
    assert np.abs(local_approximation(a, [2], lat24) - a).max() <= 1e-12
    assert np.abs(local_approximation(a, range(lat24.n_sites), lat24)
                  - a).max() <= 1e-12
    flat = local_approximation(a, [], lat24)
    expected = np.trace(a) / a.shape[0] * np.eye(a.shape[0])
    assert np.abs(flat - expected).max() <= 1e-12


def test_local_approximation_projector_properties(dec24, lat24):
    smeared = tau_g_star(dec24, GF, site_spin_operator(lat24, 0, 2).to_dense())
    X = lat24.ball(0, 1)
    once = local_approximation(smeared, X, lat24)
    twice = local_approximation(once, X, lat24)
    assert operator_norm(once - twice) <= 1e-12
    assert operator_norm(once) <= operator_norm(smeared) + 1e-12
    # support containment: tracing over X recovers the full average
    outside = [j for j in range(lat24.n_sites) if j not in X]
    again = local_approximation(once, outside, lat24)
    flat = np.trace(once) / once.shape[0] * np.eye(once.shape[0])
    assert operator_norm(again - flat) <= 1e-12


def test_local_approximation_improves_with_radius(dec24, lat24):
    a = site_spin_operator(lat24, 0, 2).to_dense()
    at = heisenberg_evolve(dec24, a, 0.5)
    errors = []
    for m in range(lat24.diameter + 1):
        approx = local_approximation(at, lat24.ball(0, m), lat24)
        errors.append(operator_norm(approx - at))
    assert all(hi >= lo - 1e-12 for hi, lo in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-12


@pytest.mark.parametrize("kind", ["real", "imaginary", "complex", "rank1",
                                  "zero"])
@pytest.mark.parametrize("exponent", [0, 600, -600])
def test_operator_norm_matches_the_svd(rng, kind, exponent):
    # the Gram route against LAPACK's SVD, also where b^dagger b of the
    # unscaled matrix would overflow (2^600) or underflow (2^-600)
    u, v = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
    a = {"real": rng.standard_normal((24, 24)),
         "imaginary": 1j * rng.standard_normal((24, 24)),
         "complex": rng.standard_normal((24, 24))
         + 1j * rng.standard_normal((24, 24)),
         "rank1": np.outer(u, v.conj()),
         "zero": np.zeros((24, 24))}[kind] * 2.0 ** exponent
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13,
                                             abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_operator_norm_rejects_non_finite_entries(bad):
    a = np.eye(4, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError):
        operator_norm(a)


@pytest.mark.parametrize("extents,spin", [((2, 4), 0.5), ((4,), 1.0)])
def test_support_norm_is_the_full_norm_of_a_local_approximation(rng, extents,
                                                                spin):
    # every ball around site 0, and a support that is not contiguous
    lat = Lattice(extents, spin=spin)
    dim = lat.hilbert_dim
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    supports = [lat.ball(0, m) for m in range(lat.diameter + 1)] + [(1, 3)]
    for keep in supports:
        local = local_approximation(b, keep, lat)
        assert support_norm(local, keep, lat) == pytest.approx(
            np.linalg.norm(local, 2), rel=1e-13, abs=0), keep


def test_delta_decomposition_telescopes(dec22, lat22):
    a = site_spin_operator(lat22, 0, 2).to_dense()
    smeared = tau_g_star(dec22, GF, a)
    deltas, norms, fit = delta_decomposition(smeared, lat22)
    assert operator_norm(sum(deltas) - smeared) <= 1e-10
    # shells beyond the diameter vanish
    balls = [local_approximation(smeared, lat22.ball(0, m), lat22)
             for m in range(lat22.diameter, lat22.diameter + 3)]
    assert operator_norm(balls[1] - balls[0]) <= 1e-12
    assert operator_norm(balls[2] - balls[1]) <= 1e-12


def test_delta_decomposition_envelope(dec24, lat24):
    a = site_spin_operator(lat24, 0, 2).to_dense()
    _, norms, fit = delta_decomposition(tau_g_star(dec24, GF, a), lat24)
    assert fit.velocity is None
    for m, v in enumerate(norms):
        assert v <= fit.envelope(m) + 1e-12


def test_commutator_of_spin_components(dec22, lat22):
    # t = 0, same site, different axes: ||[S^(2), S^(3)]|| = ||S^(1)|| = 1/2
    a = site_spin_operator(lat22, 0, 2).to_dense()
    b = site_spin_operator(lat22, 0, 3).to_dense()
    assert operator_norm(a @ b - b @ a) == pytest.approx(0.5, abs=1e-12)


def test_lr_zero_time_disjoint_supports(dec24, lat24):
    a = site_spin_operator(lat24, 0, 2).to_dense()
    b = site_spin_operator(lat24, 3, 2).to_dense()
    assert operator_norm(a @ b - b @ a) <= 1e-13


def test_lr_profile_decreases_with_distance(dec24, lat24):
    fit = lr_commutator_profile(dec24, lat24, (0.25, 0.5, 1.0), axis=2)
    by_time = {}
    for (t, d, v) in fit.samples:
        by_time.setdefault(t, []).append((d, v))
    for t, pairs in by_time.items():
        pairs.sort()
        vals = [v for _, v in pairs]
        assert all(hi > lo for hi, lo in zip(vals, vals[1:])), (t, vals)
    # fitted envelope dominates every sample
    for (t, d, v) in fit.samples:
        assert v <= fit.envelope(t, d) * (1 + 1e-12) + 1e-12
    assert fit.rate > 0


@pytest.mark.parametrize("extents,spin", [((2, 4), 0.5), ((4,), 1.0)])
@pytest.mark.parametrize("axis", [1, 2, 3])
def test_lr_norms_match_the_dense_commutator(extents, spin, axis):
    # the block norm against ||tau_t(a) b - b tau_t(a)|| on the full space,
    # site by site and as the profile's worst norm per distance class
    lat = Lattice(extents, spin=spin)
    dec = dense_spectrum(build_hamiltonian(lat, 0.1))
    a = site_spin_operator(lat, 0, axis).to_dense()
    local = spin_matrices(lat.two_s)[SECTOR_AXES[axis - 1] - 1]
    times = (0.25, 0.5, 1.0)
    expected = []
    for t in times:
        at = heisenberg_evolve(dec, a, t)
        by_dist = {}
        for y in range(lat.n_sites):
            b = site_spin_operator(lat, y, axis).to_dense()
            ref = operator_norm(at @ b - b @ at)
            assert _commutator_norm(at, local, y) == pytest.approx(
                ref, abs=1e-12), (t, y)
            d = lat.graph_distance(0, y)
            by_dist[d] = max(by_dist.get(d, 0.0), ref)
        expected += [(t, float(d), v) for d, v in sorted(by_dist.items())]
    fit = lr_commutator_profile(dec, lat, times, axis)
    assert [s[:2] for s in fit.samples] == [s[:2] for s in expected]
    assert np.allclose([s[2] for s in fit.samples],
                       [s[2] for s in expected], rtol=0, atol=1e-12)


def test_lr_envelope_with_too_few_samples_is_constant(pair):
    # one time on two sites gives two samples, too few for the fit: the
    # envelope must still dominate them
    fit = lr_commutator_profile(dense_spectrum(build_hamiltonian(pair, 0.1)),
                                pair, (0.5,))
    assert len(fit.samples) == 2
    assert min(v for _, _, v in fit.samples) > 0.1
    assert (fit.rate, fit.velocity) == (0.0, 0.0)
    for (t, d, v) in fit.samples:
        assert v <= fit.envelope(t, d)


def test_spin_one_locality_scan_passes(tmp_path):
    config = parse_config_text("""
[scan]
checks = locality
lattices = 4
spin = 1
b_ladder = 0.2 0.1 0.05
""")
    result = run_scan(config, out_dir=tmp_path)
    assert result.exit_code == 0
    checks = result.manifest["checks"]
    assert len(checks) == 8
    assert all(c["group"] == "locality" and c["passed"] for c in checks)


def _spectra(lattice, ladder):
    return [(b, dense_spectrum(build_hamiltonian(lattice, b)))
            for b in ladder]


def test_b_continuity_commuting_observable(lat22):
    ident = np.eye(16, dtype=complex)
    samples, _ = b_continuity(lat22, GF, _spectra(lat22, (0.2, 0.1)), ident)
    assert all(r <= 1e-12 for _, r in samples)


def test_b_continuity_ratio(lat22):
    a = site_spin_operator(lat22, 0, 2).to_dense()
    samples, ratio = b_continuity(lat22, GF, _spectra(lat22, (0.2, 0.1, 0.05)),
                                  a)
    assert ratio <= 4.0
    assert len(samples) == 3
    with pytest.raises(ValueError):
        b_continuity(lat22, GF, _spectra(lat22, (0.2, 0.0)), a)
