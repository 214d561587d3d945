import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

import goldstone
from goldstone.filters import (DEGREE_CAP, EmptySupportError,
                               FilterDegreeError, GFilter, WavepacketSpec,
                               _cheb_coeffs, build_f, chebyshev_moments,
                               make_chebyshev_expansion, smoothstep)
from goldstone.lattice import Lattice
from goldstone.operators import (SparseHermitianOperator, build_hamiltonian,
                                 direct_sum)


def test_smoothstep_boundaries():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(-3.0) == 0.0
    assert smoothstep(7.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5, abs=1e-15)


def test_smoothstep_partition_of_unity():
    s = np.linspace(-0.5, 1.5, 401)
    total = smoothstep(s) + smoothstep(1.0 - s)
    assert np.allclose(total, 1.0, atol=1e-14)
    vals = smoothstep(s)
    assert np.all(np.diff(vals) >= -1e-15)


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        GFilter(-0.1, 3.0, 0.5)
    with pytest.raises(ValueError):
        GFilter(0.2, 3.0, -0.5)
    with pytest.raises(ValueError):
        GFilter(1.3, 3.0, 0.5)   # 2 eps >= gamma - delta_gamma
    GFilter(0.2, 3.0, 0.5)


def test_window_endpoint_values():
    g = GFilter(0.2, 3.0, 0.5)
    assert g(0.2) == 0.0
    assert g(0.4) == 1.0
    assert g(3.0) == 0.0
    assert g((2 * 0.2 + 3.0 - 0.5) / 2) == 1.0
    assert g(0.0) == 0.0
    assert g(-1.0) == 0.0


def test_window_conformance_dense_sample():
    g = GFilter(0.2, 3.0, 0.5)
    xs = np.linspace(0.0, 2 * g.gamma, 10_000)
    vals = g(xs)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    plateau = (xs >= 2 * g.epsilon) & (xs <= g.gamma - g.delta_gamma)
    assert np.all(vals[plateau] == 1.0)
    outside = (xs <= g.epsilon) | (xs >= g.gamma)
    assert np.all(vals[outside] == 0.0)


def test_wavepacket_spec_validation():
    with pytest.raises(ValueError):
        WavepacketSpec(-1.0, 2.0)
    with pytest.raises(ValueError):
        WavepacketSpec(np.pi / 2, np.pi / 2)   # annulus radius exceeds kappa
    wp = WavepacketSpec(np.pi / 2, 2.2)
    assert wp.annulus_radius == pytest.approx(2 * np.pi / 3)


def test_profile_support_and_plateau():
    wp = WavepacketSpec(1.2, 2.0)
    r = wp.annulus_radius
    assert wp.profile(0.0) == 0.0
    assert wp.profile(r / 2) == 0.0
    assert wp.profile(r) == 0.0
    assert wp.profile(1.05 * r) == 0.0
    assert wp.profile(3 * r / 4) == 1.0
    assert wp.profile(wp.p) == 1.0
    assert wp.profile(5 * r / 8) == 1.0
    assert wp.profile(7 * r / 8) == 1.0


def test_grid_weights_4x4(golden):
    lat = Lattice((4, 4))
    wp = WavepacketSpec(np.pi / 2, 2.2)
    weights = build_f(wp, lat)
    support = sorted(weights.weights)
    assert support == [tuple(t) for t in golden["f_support_4x4"]]
    for n in support:
        assert lat.kmag(n) == pytest.approx(np.pi / 2)
        assert weights.weights[n] == 1.0
    q = lat.q_ordering
    assert q not in weights.weights
    assert (0, 0) not in weights.weights


def test_empty_support_rejected(lat22):
    with pytest.raises(EmptySupportError):
        build_f(WavepacketSpec(0.3, 2.0), lat22)


def dense_interval(ctx):
    """The dense spectrum of a full-basis context, widened by 1% of its
    width at each end: an interval that encloses it."""
    lo, hi = ctx.dense.eigenvalues[[0, -1]]
    width = max(hi - lo, 1e-12)
    return lo - 0.01 * width, hi + 0.01 * width


def dense_expansion(ctx, fn, tol):
    """Certified expansion of fn(x - E0) on `dense_interval`."""
    e0 = ctx.gs.energy
    return make_chebyshev_expansion(lambda x: fn(np.asarray(x) - e0),
                                    *dense_interval(ctx), tol)


def _chebyshev_filtered(ctx, fn, v, tol):
    """fn(H - E0) v by a certified expansion on `dense_interval`."""
    return dense_expansion(ctx, fn, tol).apply(ctx.H, v)


def test_apply_identity_function(ctx22, rng):
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    one = np.ones_like
    for w in (ctx22.filtered_vector(one, v),
              _chebyshev_filtered(ctx22, one, v, 1e-12)):
        assert np.linalg.norm(w - v) <= 1e-10


def test_filter_annihilates_ground_state(ctx22):
    g = GFilter(0.2, 3.0, 0.5)
    v = ctx22.gs.vector.astype(complex)
    for w in (ctx22.filtered_vector(g, v),
              _chebyshev_filtered(ctx22, g, v, 1e-10)):
        assert np.linalg.norm(w) <= 1e-9


def test_chebyshev_matches_dense(ctx22):
    g = GFilter(0.2, 3.0, 0.5)
    v = ctx22.sk_phi((1, 0), 2)
    dense = ctx22.filtered_vector(g, v)
    cheb = _chebyshev_filtered(ctx22, g, v, 1e-10)
    assert np.linalg.norm(cheb - dense) <= 1e-8


def test_chebyshev_error_decreases_with_tolerance(ctx22):
    g = GFilter(0.2, 3.0, 0.5)
    v = ctx22.sk_phi((1, 0), 2)
    dense = ctx22.filtered_vector(g, v)
    errors = []
    for tol in (1e-4, 5e-5, 2.5e-5, 1e-6, 1e-8):
        w = _chebyshev_filtered(ctx22, g, v, tol)
        errors.append(np.linalg.norm(w - dense))
    assert all(a >= b - 1e-13 for a, b in zip(errors, errors[1:]))


def test_degree_cap_error():
    g = GFilter(0.01, 3.0, 0.5)
    with pytest.raises(FilterDegreeError, match=f"cap {DEGREE_CAP} "):
        make_chebyshev_expansion(g, -1.0, 40.0, 1e-12)


@pytest.mark.parametrize("n_moments", [1, 2, 7, 40])
def test_chebyshev_moments_match_dense(ctx22, rng, n_moments):
    evals = ctx22.dense.eigenvalues
    lo, hi = evals[0] - 0.5, evals[-1] + 0.5
    block = rng.standard_normal((ctx22.H.dim, 3))
    amps2 = np.abs(ctx22.dense.eigenvectors.T @ block) ** 2
    theta = np.arccos((2 * evals - (hi + lo)) / (hi - lo))
    ref = np.cos(np.outer(np.arange(n_moments), theta)) @ amps2
    for j in range(3):
        mu, matvecs = chebyshev_moments(ctx22.H, block[:, j], lo, hi,
                                        n_moments)
        assert mu.shape == (n_moments, 1) and matvecs == n_moments // 2
        assert np.abs(mu[:, 0] - ref[:, j]).max() <= \
            1e-12 * np.abs(ref[0]).max()


def test_chebyshev_moments_per_segment(rng):
    """On a direct sum, `offsets` gives each segment of a vector the moments
    it has on its own block."""
    full = [build_hamiltonian(Lattice(ext), 0.3) for ext in
            ((4,), (2, 2), (2,))]
    parts = [SparseHermitianOperator(h.indptr, h.indices, h.data, h.dim)
             for h in full]
    starts = np.cumsum([0] + [h.dim for h in parts])
    block = rng.standard_normal((starts[-1], 2)) \
        + 1j * rng.standard_normal((starts[-1], 2))
    for v in block.T:
        mu, matvecs = chebyshev_moments(direct_sum(parts), v, -4.0, 4.0, 11,
                                        starts[:-1])
        assert mu.shape == (11, 3) and matvecs == 5
        for i, h in enumerate(parts):
            ref, _ = chebyshev_moments(h, v[starts[i]:starts[i + 1]],
                                       -4.0, 4.0, 11)
            assert np.abs(mu[:, i] - ref[:, 0]).max() <= 1e-13 * ref[0, 0]


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 512, 3743])
def test_cheb_coeffs_match_scipy_dct(degree):
    from scipy.fft import dct

    g = GFilter(0.2, 3.0, 0.5)
    lo, hi = -1.5, 9.0
    nodes = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    ref = dct(g(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)), type=2) \
        / (degree + 1)
    ref[0] *= 0.5
    got = _cheb_coeffs(g, lo, hi, degree)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_cli_import_loads_no_scipy_fft_or_special():
    package_root = str(Path(goldstone.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import sys, goldstone.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.fft', 'scipy.special'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _shipped_window(interval, e0, eps, num):
    """(fn, lo, hi, tol) of a sparse scan's den or num expansion: g(x - E0)^2
    or (x - E0) g(x - E0)^2 at gamma = 3, delta_gamma = 0.5, on the scan's
    interval, at its chebyshev_tol of 1e-6 (times gamma for num)."""
    g = GFilter(eps, 3.0, 0.5)

    def den_fn(x):
        return g(x - e0) ** 2

    def num_fn(x):
        return (x - e0) * den_fn(x)
    return (num_fn, *interval, 3e-6) if num else (den_fn, *interval, 1e-6)


# intervals, E0 and epsilon as the manifests of configs/torus4x4.ini and
# perfbench/workloads/sparse-2x6.ini record them
TORUS4X4 = ((-10.763698613843383, 8.699999999999998), -11.526798148796937,
            0.1297054509689016)
SPARSE2X6 = ((-6.6218204685789335, 5.500000000000001), -7.554755579161622,
             0.11272485376331674)


@pytest.mark.parametrize("window, degree", [
    ((GFilter(0.2, 3.0, 0.5), -0.5, 6.0, 1e-8), 1859),
    (_shipped_window(*TORUS4X4, num=False), 1268),
    (_shipped_window(*TORUS4X4, num=True), 1241),
    (_shipped_window(*SPARSE2X6, num=False), 909),
    (_shipped_window(*SPARSE2X6, num=True), 895),
], ids=["own", "torus4x4-den", "torus4x4-num", "sparse-2x6-den",
        "sparse-2x6-num"])
def test_expansion_is_certified(window, degree):
    """The recorded sup error is within 1% of a 2^16 + 1 point equispaced
    measurement, and within the tolerance."""
    fn, lo, hi, tol = window
    exp = make_chebyshev_expansion(fn, lo, hi, tol)
    assert exp.degree == degree
    xs = np.linspace(lo, hi, 2 ** 16 + 1)
    err = np.max(np.abs(chebval((2 * xs - (hi + lo)) / (hi - lo), exp.coeffs)
                        - fn(xs)))
    assert err <= 1.01 * exp.sup_error
    assert exp.sup_error <= tol


@pytest.mark.parametrize("fixture", ["ctx22", "ctx24"])
def test_idempotence_bracketing(fixture, rng, request):
    ctx = request.getfixturevalue(fixture)
    g = GFilter(0.2, 3.0, 0.5)
    dim = ctx.H.dim
    for _ in range(5):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w1 = ctx.filtered_vector(g, v)
        w2 = ctx.filtered_vector(g, w1)
        assert np.linalg.norm(w2) <= np.linalg.norm(w1) + 1e-12
        assert np.linalg.norm(w1) <= np.linalg.norm(v) + 1e-12


@pytest.mark.parametrize("fixture", ["ctx22", "ctx24"])
def test_window_and_plateau_projections(fixture, rng, request):
    """g(H-E0)^2 is squeezed between the plateau projector and the support
    projector."""
    ctx = request.getfixturevalue(fixture)
    g = GFilter(0.2, 3.0, 0.5)
    dec = ctx.dense
    de = dec.eigenvalues - dec.eigenvalues[0]
    support_mask = (de > g.epsilon) & (de < g.gamma)
    plateau_mask = (de >= 2 * g.epsilon) & (de <= g.gamma - g.delta_gamma)
    dim = ctx.H.dim
    for _ in range(20):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps = np.abs(dec.eigenvectors.conj().T @ v) ** 2
        quad = float(np.sum(g(de) ** 2 * amps))
        assert quad <= float(np.sum(amps[support_mask])) + 1e-8
        assert float(np.sum(amps[plateau_mask])) <= quad + 1e-8
