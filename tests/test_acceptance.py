"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
plain `pytest` shows the same result through the test outcomes.  The heavy
4x4 pipeline (criteria 3 and 4) is built once and shared.
"""

import time

import numpy as np
import pytest

from goldstone.analysis import (BlockContext, SystemContext, Tolerances,
                                bound_report, choose_epsilon,
                                excitation_energy, filter_keys, irb_entry,
                                qmode_trend)
from goldstone.config import parse_config_text
from goldstone.eigensolver import dense_spectrum, ground_state
from goldstone.filters import GFilter, WavepacketSpec, build_f
from goldstone.lattice import Lattice
from goldstone.locality import (b_continuity, delta_decomposition,
                                local_approximation, lr_commutator_profile,
                                operator_norm, tau_g_star)
from goldstone.operators import build_hamiltonian, site_spin_operator
from goldstone.runner import run_scan

B_LADDER = (0.4, 0.2, 0.1, 0.05)
ORDERING_SLACK = 1e-6


def _announce(num, description, failures, elapsed=None, detail=""):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nacceptance criterion {num} ({description}): {status}{timing}"
          f"{' ' + detail if detail else ''}")
    assert not failures, f"criterion {num}: {failures}"


def _setup(ctx, p):
    wp = WavepacketSpec(p, 2.2 if p < 1.6 else 4.5)
    weights = build_f(wp, ctx.lattice)
    v_min, eps = choose_epsilon(ctx.m_B, weights, ctx.lattice,
                                gamma=3.0, delta_gamma=0.5)
    return wp, weights, GFilter(eps, 3.0, 0.5), v_min


@pytest.fixture(scope="module")
def ladders():
    """Dense-oracle contexts for the 2x2 and 2x4 tori over the B ladder."""
    out = {}
    for extents in ((2, 2), (2, 4)):
        lat = Lattice(extents)
        out[extents] = {b: SystemContext(lat, b) for b in B_LADDER}
    return out


@pytest.fixture(scope="session")
def big():
    """4x4 torus at B = 0.1: Lanczos ground state plus Chebyshev records,
    all from one moment pass."""
    t0 = time.time()
    lat = Lattice((4, 4))
    ctx = SystemContext(lat, 0.1, tolerances=Tolerances(chebyshev=1e-6))
    assert isinstance(ctx, BlockContext)
    wp, weights, g, v_min = _setup(ctx, np.pi / 2)
    keys = filter_keys(lat, weights, {"dispersion", "qmode"})
    forms = ctx.forms([(g, keys)])
    rec = excitation_energy(ctx, forms, weights, g, v_min, "zero")
    rec_q = excitation_energy(ctx, forms, weights, g, v_min, "staggered")
    trend = qmode_trend(ctx, forms, g)
    assert len(ctx.solver_stats()["moment_passes"]) == 1
    return {"ctx": ctx, "wp": wp, "g": g, "v_min": v_min, "rec": rec,
            "rec_q": rec_q, "trend": trend, "elapsed": time.time() - t0}


def test_criterion_1_inequality_suite(ladders):
    t0 = time.time()
    tolerances = {"irb": 1e-8, "double_commutator": 1e-10, "sum_rule": 1e-10,
                  "window_small": 1e-8, "window_large": 1e-8,
                  "denominator_lower_bound": 1e-8}
    failures = []
    total = 0
    for extents, by_b in ladders.items():
        p = np.pi if extents == (2, 2) else np.pi / 2
        for b, ctx in by_b.items():
            wp, weights, g, v_min = _setup(ctx, p)
            forms = ctx.forms(
                [(g, filter_keys(ctx.lattice, weights, {"bounds"}))])
            report = bound_report(ctx, forms, g, v_min, wp.annulus_radius)
            for e in report:
                total += 1
                if e.margin < -tolerances[e.name]:
                    failures.append((extents, b, e.name, e.momentum, e.margin))
    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(("runtime", elapsed))
    _announce(1, "finite-volume inequality suite", failures, elapsed,
              f"{total} entries over 2 lattices x {len(B_LADDER)} fields")


def test_criterion_2_oracle_equivalence(ladders):
    t0 = time.time()
    failures = []
    # Lanczos ground energies against the dense oracle
    ring4 = Lattice((4,))
    h_ring = build_hamiltonian(ring4, 0.0)
    e_l = ground_state(h_ring).energy
    e_d = dense_spectrum(h_ring).eigenvalues[0]
    if abs(e_l - e_d) > 1e-10:
        failures.append(("lanczos", "ring4", abs(e_l - e_d)))
    for extents, by_b in ladders.items():
        for b, ctx in by_b.items():
            gs = ground_state(ctx.H, 1e-12)
            if abs(gs.energy - ctx.gs.energy) > 1e-10:
                failures.append(("lanczos", extents, b,
                                 abs(gs.energy - ctx.gs.energy)))
    # the sparse path (block CG resolvent, Chebyshev-filtered moments) vs
    # spectral sums of the dense oracle
    for extents, by_b in ladders.items():
        p = np.pi if extents == (2, 2) else np.pi / 2
        for b, dense in by_b.items():
            ctx = SystemContext(dense.lattice, b, dense_cap=0,
                                tolerances=Tolerances(chebyshev=1e-10))
            dec = dense.dense
            de = dec.eigenvalues - dec.eigenvalues[0]
            for n in sorted(ctx.lattice.momenta):
                if n == ctx.lattice.q_ordering:
                    continue
                for axis in (2, 3):
                    lhs = irb_entry(ctx, n, axis).lhs
                    v = dense.sk_phi(n, axis)
                    amps = np.abs(dec.eigenvectors.conj().T @ v) ** 2
                    ref = float(np.sum(amps[de > 0] / de[de > 0]))
                    if abs(lhs - ref) > 1e-8:
                        failures.append(("resolvent", extents, b, n, axis,
                                         abs(lhs - ref)))
            wp, weights, g, v_min = _setup(dense, p)
            wanted = [(g, [(n, 2) for n in weights.weights])]
            chebyshev, oracle = ctx.forms(wanted), dense.forms(wanted)
            for n in weights.weights:
                num_c, den_c, _ = chebyshev[g, (n, 2)]
                num_d, den_d, _ = oracle[g, (n, 2)]
                if abs(num_c - num_d) > 1e-8 or abs(den_c - den_d) > 1e-8:
                    failures.append(("chebyshev", extents, b, n,
                                     abs(num_c - num_d), abs(den_c - den_d)))
    elapsed = time.time() - t0
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _announce(2, "sparse path equals dense oracle", failures, elapsed)


def test_criterion_3_excitation_sandwich(big, ladders):
    failures = []
    rec = big["rec"]
    eps, gamma = rec.epsilon, rec.gamma
    if not (eps - 1e-9 <= rec.delta_e <= gamma + 1e-9):
        failures.append(("window", rec.delta_e, eps, gamma))
    if rec.delta_e < big["v_min"] * rec.annulus_radius - 1e-9:
        failures.append(("lower_bound_annulus", rec.delta_e))
    if rec.delta_e < big["v_min"] * rec.p_target - 1e-9:
        failures.append(("lower_bound_target", rec.delta_e))
    # cross-momentum terms vanish on the dense 2x4 configuration
    ctx24 = ladders[(2, 4)][0.1]
    _, weights, g, v_min = _setup(ctx24, np.pi / 2)
    forms = ctx24.forms([(g, filter_keys(ctx24.lattice, weights,
                                         {"dispersion"}))])
    rec24 = excitation_energy(ctx24, forms, weights, g, v_min, "zero")
    if rec24.cross_momentum_max > 1e-10:
        failures.append(("cross_momentum", rec24.cross_momentum_max))
    elapsed = big["elapsed"]
    if elapsed >= 1800:
        failures.append(("runtime", elapsed))
    _announce(3, "4x4 excitation-energy sandwich", failures, elapsed,
              f"delta_e={rec.delta_e:.6f} in [{eps:.6f}, {gamma}]")


def test_4x4_block_moments_match_h_exc(big):
    """The 4x4 moment pass ran on twisted-momentum blocks of M = +-1; its
    moments agree with the dense eigensystems of blocks (1, (1, 0)) and
    (1, (2, 2)).

    The bound: the reference sums w_i T_n(x_i) over eigh's eigenvalues
    lambda_i, mapped to x_i in [-1, 1].  Each lambda_i lies within
    r_i = ||H e_i - lambda_i e_i|| of an exact eigenvalue, so x_i within
    2 r_i / (hi - lo) of its exact image, and |T_n'| <= n^2 on [-1, 1]
    (Markov), so moment n may be off by n^2 * 2 max r_i / (hi - lo) * mu_0,
    plus the rounding of the sums themselves (1e-14 mu_0).  That slope is
    reached at the interval's ends: the lower end, the floor of block
    (1, 0), lies 3.1e-8 below the lowest eigenvalue of block (1, Q), Q =
    (2, 2).  The pass's own rounding grows the same way, and the whole
    difference measured at most 0.4 of the bound.
    """
    ctx = big["ctx"]
    (moment_pass,) = ctx.solver_stats()["moment_passes"]
    assert {(b["dim"], b["nnz"]) for b in moment_pass["blocks"]} == \
        {(1430, 25258)}
    lo, hi = ctx.interval
    n_sq = np.arange(200) ** 2
    for n in ((1, 0), (2, 2)):
        (mu,) = ctx.moments([(n, 2)], 200)
        H = ctx.block(n).to_dense()
        evals, evecs = np.linalg.eigh(H)
        r = np.linalg.norm(H @ evecs - evecs * evals, axis=0).max()
        weights = np.abs(evecs.conj().T @ ctx.sk_phi(n, 2)) ** 2
        x = (2 * evals - (hi + lo)) / (hi - lo)
        ref = np.cos(np.outer(np.arange(200), np.arccos(x))) @ weights
        bound = (n_sq * 2 * r / (hi - lo) + 1e-14) * ref[0]
        assert np.all(np.abs(mu - ref) <= bound)


def test_criterion_4_dispersion_trend(big):
    failures = []
    diff = big["rec"].delta_e - big["rec_q"].delta_e
    # the 4x4 torus graph is the 4-cube, whose extra automorphisms make the
    # two modes exactly degenerate here; the ordering is asserted with the
    # stated tolerance as slack
    if not diff > -ORDERING_SLACK:
        failures.append(("delta_e_ordering", diff))
    dens = [d for _, _, d in big["trend"]]
    disps = [e for e, _, _ in big["trend"]]
    for (e1, d1), (e2, d2) in zip(zip(disps, dens), list(zip(disps, dens))[1:]):
        if not d1 > d2 - ORDERING_SLACK:
            failures.append(("trend", e1, e2, d1, d2))
    _announce(4, "staggered-mode weight grows as the dispersion shrinks",
              failures,
              detail=f"delta_e diff={diff:.3e}; trend="
                     + " > ".join(f"{d:.4f}" for d in dens))


def test_criterion_5_filter_conformance(ladders):
    failures = []
    rng = np.random.default_rng(2024)
    g = GFilter(0.2, 3.0, 0.5)
    xs = np.linspace(0.0, 2 * g.gamma, 10_000)
    vals = g(xs)
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        failures.append("range")
    plateau = (xs >= 2 * g.epsilon) & (xs <= g.gamma - g.delta_gamma)
    if not np.all(vals[plateau] == 1.0):
        failures.append("plateau")
    outside = (xs <= g.epsilon) | (xs >= g.gamma)
    if not np.all(vals[outside] == 0.0):
        failures.append("support")
    for extents, by_b in ladders.items():
        ctx = by_b[0.1]
        dec = ctx.dense
        de = dec.eigenvalues - dec.eigenvalues[0]
        support_mask = (de > g.epsilon) & (de < g.gamma)
        plateau_mask = ((de >= 2 * g.epsilon)
                        & (de <= g.gamma - g.delta_gamma))
        for trial in range(20):
            v = rng.standard_normal(ctx.H.dim) \
                + 1j * rng.standard_normal(ctx.H.dim)
            amps = np.abs(dec.eigenvectors.conj().T @ v) ** 2
            quad = float(np.sum(g(de) ** 2 * amps))
            if quad > float(np.sum(amps[support_mask])) + 1e-8:
                failures.append(("window", extents, trial))
            if float(np.sum(amps[plateau_mask])) > quad + 1e-8:
                failures.append(("plateau_capture", extents, trial))
    _announce(5, "filter conformance", failures)


def test_criterion_6_appendix_suite(ladders):
    t0 = time.time()
    failures = []
    g = GFilter(0.2, 3.0, 0.5)

    ctx24 = ladders[(2, 4)][0.1]
    lat24 = ctx24.lattice
    dec = ctx24.dense
    a = site_spin_operator(lat24, 0, 2).to_dense()
    smeared = tau_g_star(dec, g, a)
    amps = dec.eigenvectors.conj().T @ (a @ ctx24.gs.vector)
    rhs = dec.eigenvectors @ (g(dec.eigenvalues - ctx24.gs.energy) * amps)
    defect = float(np.linalg.norm(smeared @ ctx24.gs.vector - rhs))
    if defect > 1e-10:
        failures.append(("smeared_action_identity", defect))

    ball = lat24.ball(0, 1)
    once = local_approximation(smeared, ball, lat24)
    twice = local_approximation(once, ball, lat24)
    if operator_norm(once - twice) > 1e-12:
        failures.append(("idempotence", operator_norm(once - twice)))
    if operator_norm(once) > operator_norm(smeared) + 1e-12:
        failures.append(("contraction",))

    deltas, _, _ = delta_decomposition(smeared, lat24)
    recon = operator_norm(sum(deltas) - smeared)
    if recon > 1e-10:
        failures.append(("telescoping", recon))

    lr = lr_commutator_profile(dec, lat24, (0.25, 0.5, 1.0), a)
    by_time = {}
    for (t, d, v) in lr.samples:
        by_time.setdefault(t, []).append((d, v))
    for t, pairs in by_time.items():
        pairs.sort()
        norms = [v for _, v in pairs]
        if not all(hi > lo for hi, lo in zip(norms, norms[1:])):
            failures.append(("lr_monotone", t, norms))

    lat22 = ladders[(2, 2)][0.1].lattice
    _, ratio = b_continuity(lat22, g, [(b, ladders[(2, 2)][b].dense)
                                       for b in (0.2, 0.1, 0.05)],
                            site_spin_operator(lat22, 0, 2).to_dense())
    if ratio > 4.0:
        failures.append(("b_continuity_ratio", ratio))

    elapsed = time.time() - t0
    if elapsed >= 600:
        failures.append(("runtime", elapsed))
    _announce(6, "quasi-locality suite", failures, elapsed,
              f"b-continuity ratio {ratio:.3f}")


def test_criterion_7_physics_sanity(ladders):
    failures = []
    lat22 = ladders[(2, 2)][0.4].lattice
    ctx0 = SystemContext(lat22, 0.0)
    m0 = ctx0.m_B
    if abs(m0) > 1e-10:
        failures.append(("m_B_at_zero_field", m0))
    for extents, by_b in ladders.items():
        ms = [by_b[b].m_B for b in B_LADDER]      # descending B
        if not all(hi >= lo - 1e-10 for hi, lo in zip(ms, ms[1:])):
            failures.append(("m_B_monotone", extents, ms))
        es = [by_b[b].gs.energy for b in B_LADDER]
        bs = list(B_LADDER)
        for i in range(len(bs) - 2):
            lo_slope = (es[i] - es[i + 1]) / (bs[i] - bs[i + 1])
            hi_slope = (es[i + 1] - es[i + 2]) / (bs[i + 1] - bs[i + 2])
            if lo_slope - hi_slope > 1e-10:
                failures.append(("concavity", extents, bs[i]))
    ring4 = Lattice((4,))
    e0 = ground_state(build_hamiltonian(ring4, 0.0)).energy
    if abs(e0 + 2.0) > 1e-10:
        failures.append(("ring4_energy", e0))
    _announce(7, "physics sanity", failures)


def test_criterion_8_determinism(tmp_path):
    config = parse_config_text("""
[scan]
checks = bounds dispersion qmode
lattices = 2x2
b_ladder = 0.2 0.1 0.05

[wavepacket]
p = auto
kappa = auto
""")
    run_scan(config, out_dir=tmp_path / "a")
    run_scan(config, out_dir=tmp_path / "b")
    failures = []
    for name in ("bounds.csv", "dispersion.csv", "dispersion_per_k.csv",
                 "qmode_trend.csv"):
        if (tmp_path / "a" / name).read_bytes() != \
                (tmp_path / "b" / name).read_bytes():
            failures.append(name)
    _announce(8, "bit-identical scan bodies", failures)
