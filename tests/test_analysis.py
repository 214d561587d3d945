import csv
import json
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import goldstone.analysis
import goldstone.eigensolver
import goldstone.operators
from goldstone.analysis import (BlockContext, DenseContext,
                                EpsilonChoiceError, SystemContext, Tolerances,
                                VanishingDenominatorError, bound_report,
                                choose_epsilon, filter_keys,
                                double_commutator_entry, excitation_energy,
                                extrapolate_ms, irb_entry, qmode_trend,
                                sum_rule_entry, window_entries)
from goldstone.config import ScanConfig, parse_config_text
from goldstone.eigensolver import GroundState, SolverError, ground_state
from goldstone.operators import build_hamiltonian, fourier_spin
from goldstone.filters import (GFilter, SpectrumEnclosureError,
                               WavepacketSpec, build_f, chebyshev_moments,
                               spectral_interval)
from goldstone.lattice import Lattice
from goldstone.runner import run_scan
from test_filters import dense_expansion, dense_interval
from test_operators import expand_block

GF = GFilter(0.2, 3.0, 0.5)


def test_m_b_vanishes_without_field(lat22):
    ctx = SystemContext(lat22, 0.0)
    assert abs(ctx.m_B) <= 1e-10


def test_m_b_golden_value(ctx22, golden):
    assert ctx22.m_B == pytest.approx(
        golden["m_b_2x2_B0.1"], abs=1e-10)


def test_m_b_saturates_toward_spin(lat22):
    values = [SystemContext(lat22, b).m_B
              for b in (1.0, 4.0, 16.0)]
    assert values[0] < values[1] < values[2] < 0.5
    assert values[2] > 0.45


@pytest.mark.parametrize("fixture", ["ctx22", "ctx24"])
def test_sum_rule_every_momentum(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for n in ctx.lattice.momenta:
        entry = sum_rule_entry(ctx, n)
        assert entry.passed, (n, entry.margin)
        assert abs(entry.margin) <= 1e-10
        # the reported value is real up to rounding
        assert float(entry.note.split("=")[1]) <= 1e-12


def test_double_commutator_zero_momentum(lat22):
    ctx0 = SystemContext(lat22, 0.0)
    entry = double_commutator_entry(ctx0, (0, 0), 2)
    assert abs(entry.lhs) <= 1e-12      # zero mode commutes at B = 0
    ctx = SystemContext(lat22, 0.4)
    entry = double_commutator_entry(ctx, (0, 0), 2)
    assert entry.lhs <= 0.4 * 0.5 + 1e-12   # only the field term survives
    assert entry.rhs == pytest.approx(0.4 * 0.5)


@pytest.mark.parametrize("fixture", ["ctx22", "ctx24"])
def test_double_commutator_bound_everywhere(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for n in ctx.lattice.momenta:
        for axis in (2, 3):
            entry = double_commutator_entry(ctx, n, axis)
            assert entry.passed, (n, axis, entry.margin)


def test_irb_bound_and_cross_validation(ctx22):
    entry = irb_entry(ctx22, (0, 0), 2)
    assert entry.rhs == pytest.approx(1.0 / (4 * 2))   # 1/(2 E_Q) = 1/(4d)
    assert entry.lhs >= 0.0
    assert entry.passed and entry.note == ""
    # the block CG of the sparse path gives the same left side
    blocks = SystemContext(ctx22.lattice, ctx22.B, dense_cap=0)
    assert abs(irb_entry(blocks, (0, 0), 2).lhs - entry.lhs) <= 1e-8


def test_irb_rejects_ordering_momentum(ctx22):
    with pytest.raises(ValueError):
        irb_entry(ctx22, ctx22.lattice.q_ordering, 2)


def test_filtered_moments_match_spectral_sums(ctx22):
    n = (1, 0)
    num, den, err = ctx22.forms([(GF, [(n, 2)])])[GF, (n, 2)]
    assert err == 0.0       # sums over the eigensystem
    # the quadratic forms of the filtered vector w = g(H - E0) S_k phi0
    w = ctx22.filtered_vector(GF, ctx22.sk_phi(n, 2))
    assert den == pytest.approx(float(np.vdot(w, w).real), abs=1e-12)
    # <w, (H - E0) w> = <g^2(H - E0) v, (H - E0) v>
    assert num == pytest.approx(float(np.vdot(
        ctx22.filtered_vector(GF, w), ctx22.h_shifted(n, 2)).real), abs=1e-12)
    dec = ctx22.dense
    de = dec.eigenvalues - dec.eigenvalues[0]
    amps = np.abs(dec.eigenvectors.conj().T @ ctx22.sk_phi(n, 2)) ** 2
    g2 = GF(de) ** 2
    assert den == pytest.approx(float(np.sum(g2 * amps)), abs=1e-12)
    assert num == pytest.approx(float(np.sum(g2 * de * amps)), abs=1e-12)
    # window sandwich and unfiltered domination
    assert num >= GF.epsilon * den
    assert num <= GF.gamma * den
    assert den <= float(np.sum(amps[de > 0])) + 1e-12


LATTICES = {"ring4": ((4,), 0.5), "ring6": ((6,), 0.5), "2x2": ((2, 2), 0.5),
            "2x4": ((2, 4), 0.5), "spin1-ring4": ((4,), 1.0)}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(LATTICES)),
       B=st.floats(0.02, 1.0),
       eps=st.floats(0.1, 1.2),
       pick=st.integers(0, 10 ** 6),
       axis=st.sampled_from([2, 3]))
def test_chebyshev_moments_match_spectral_sums(name, B, eps, pick, axis):
    extents, spin = LATTICES[name]
    lat = Lattice(extents, spin)
    ctx = SystemContext(lat, B, tolerances=Tolerances(chebyshev=1e-6))
    g = GFilter(eps, 3.0, 0.5)
    momenta = sorted(lat.momenta)
    n = momenta[pick % len(momenta)]
    # Chebyshev moments on the full basis, against the dense context's own
    # spectral sums
    den_exp = dense_expansion(ctx, lambda x: g(x) ** 2, 1e-6)
    num_exp = dense_expansion(ctx, lambda x: x * g(x) ** 2, 3e-6)
    v = ctx.sk_phi(n, axis)
    mu, _ = chebyshev_moments(ctx.H, v, *dense_interval(ctx),
                              max(den_exp.degree, num_exp.degree) + 1)
    num, den = num_exp.quadratic_form(mu[:, 0]), den_exp.quadratic_form(mu[:, 0])
    norm2 = float(np.vdot(v, v).real)
    de = ctx.dense.eigenvalues - ctx.gs.energy
    amps = np.abs(ctx.dense.eigenvectors.conj().T @ v) ** 2
    g2 = g(de) ** 2
    assert abs(den - float(np.sum(g2 * amps))) <= \
        den_exp.sup_error * norm2 + 1e-12
    assert abs(num - float(np.sum(g2 * de * amps))) <= \
        num_exp.sup_error * norm2 + 1e-12


def test_choose_epsilon_errors_without_order():
    lat = Lattice((2, 2))
    wp = WavepacketSpec(np.pi, 4.5)
    with pytest.raises(EpsilonChoiceError):
        choose_epsilon(0.0, build_f(wp, lat), lat, 3.0, 0.5)


def test_choose_epsilon_arithmetic(ctx22):
    # on the 2x2 grid both annulus momenta have E_k = E_{k+Q} = 2, so the
    # bracket threshold is m_B/R and the top-of-ladder epsilon is m_B/2
    m_b = ctx22.m_B
    wp = WavepacketSpec(np.pi, 4.5)
    v_min, eps = choose_epsilon(m_b, build_f(wp, ctx22.lattice),
                                ctx22.lattice, 3.0, 0.5)
    assert v_min == pytest.approx(0.5 * m_b / wp.annulus_radius, rel=1e-12)
    assert eps == pytest.approx(m_b / 2, rel=1e-12)


def test_choose_epsilon_respects_window():
    lat = Lattice((2, 2))
    wp = WavepacketSpec(np.pi, 4.5)
    # the bracket allows epsilon = 0.5 .. 0.025 (m_B = 1, E_k = E_{k+Q} = 2)
    # but 2 epsilon < gamma - delta_gamma = 0.01 allows none of them
    with pytest.raises(EpsilonChoiceError, match="gamma - delta_gamma"):
        choose_epsilon(1.0, build_f(wp, lat), lat, 0.51, 0.5)


def test_choose_epsilon_names_a_zero_energy_annulus_momentum():
    # on 2x4, p = 3.4 puts Q inside the annulus [R/2, R], where
    # E_k E_{k+Q} = 0: the choice fails up front, with no 0/0 warning
    lat = Lattice((2, 4))
    wp = WavepacketSpec(3.4, 4.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EpsilonChoiceError, match="momentum label"):
            choose_epsilon(0.3, build_f(wp, lat), lat, 3.0, 0.5)


def test_window_entries_pass(ctx22):
    wp = WavepacketSpec(np.pi, 4.5)
    v_min, eps = choose_epsilon(ctx22.m_B, build_f(wp, ctx22.lattice),
                                ctx22.lattice, gamma=3.0, delta_gamma=0.5)
    g = GFilter(eps, 3.0, 0.5)
    _, den, _ = ctx22.forms([(g, [((1, 0), 2)])])[g, ((1, 0), 2)]
    entries = window_entries(ctx22, g, v_min, wp.annulus_radius, (1, 0), den)
    names = [e.name for e in entries]
    assert names == ["window_small", "window_large", "denominator_lower_bound"]
    for e in entries:
        assert e.passed, (e.name, e.margin)
    # at desk scale the denominator bound is not binding (D < 0)
    denom = entries[-1]
    assert denom.lhs < 0.0 < denom.rhs


def test_window_entries_reject_zero_momentum(ctx22):
    with pytest.raises(ValueError):
        window_entries(ctx22, GF, 0.1, np.pi, (0, 0), 1.0)


def point_forms(ctx, g, weights, groups):
    """The forms a scan point asks of its context at one window: those of
    the groups' keys (`filter_keys`)."""
    return ctx.forms([(g, filter_keys(ctx.lattice, weights, groups))])


def test_bound_report_composition(ctx22):
    wp = WavepacketSpec(np.pi, 4.5)
    weights = build_f(wp, ctx22.lattice)
    v_min, eps = choose_epsilon(ctx22.m_B, weights, ctx22.lattice,
                                gamma=3.0, delta_gamma=0.5)
    g = GFilter(eps, 3.0, 0.5)
    forms = point_forms(ctx22, g, weights, {"bounds"})
    report = bound_report(ctx22, forms, g, v_min, wp.annulus_radius)
    counts = {}
    for e in report:
        counts[e.name] = counts.get(e.name, 0) + 1
    assert counts == {"sum_rule": 4, "double_commutator": 8, "irb": 6,
                      "window_small": 2, "window_large": 2,
                      "denominator_lower_bound": 2}
    assert all(e.passed for e in report)


def _dispersion_setup(ctx, p):
    wp = WavepacketSpec(p, 2.2)
    weights = build_f(wp, ctx.lattice)
    v_min, eps = choose_epsilon(ctx.m_B, weights, ctx.lattice,
                                gamma=3.0, delta_gamma=0.5)
    return weights, GFilter(eps, 3.0, 0.5), v_min


def test_excitation_energy_record(ctx24, golden):
    weights, g, v_min = _dispersion_setup(ctx24, np.pi / 2)
    forms = point_forms(ctx24, g, weights, {"dispersion"})
    rec = excitation_energy(ctx24, forms, weights, g, v_min, "zero")
    assert rec.epsilon <= rec.delta_e <= rec.gamma
    assert rec.delta_e >= v_min * rec.annulus_radius
    assert rec.cross_momentum_max <= 1e-10
    assert rec.delta_e == pytest.approx(golden["delta_e_2x4_B0.1"], abs=1e-9)
    assert {p.momentum for p in rec.per_k} == set(weights.weights)
    for p in rec.per_k:
        assert p.weight == 1.0
        assert p.num_k >= rec.epsilon * p.den_k - 1e-12


def test_qmode_record_and_ordering(ctx24):
    weights, g, v_min = _dispersion_setup(ctx24, np.pi / 2)
    forms = point_forms(ctx24, g, weights, {"dispersion", "qmode"})
    rec = excitation_energy(ctx24, forms, weights, g, v_min, "zero")
    rec_q = excitation_energy(ctx24, forms, weights, g, v_min, "staggered")
    assert rec_q.epsilon <= rec_q.delta_e <= rec_q.gamma
    assert rec.delta_e > rec_q.delta_e - 1e-6


def test_qmode_sum_rule_reduces_at_zero(ctx24):
    # the staggered-mode sum rule at k = 0 is the same commutator as the
    # zero-mode one: -i <[S2_Q, S3_0]> = m_B
    lat = ctx24.lattice
    q = lat.q_ordering
    zero = (0, 0)
    t1 = np.vdot(ctx24.sk_phi(lat.negate(q), 2), ctx24.sk_phi(zero, 3))
    t2 = np.vdot(ctx24.sk_phi(zero, 3), ctx24.sk_phi(q, 2))
    value = (-1j * (t1 - t2)).real
    assert value == pytest.approx(ctx24.m_B, abs=1e-10)


def test_qmode_trend_grows_at_small_dispersion(ctx24):
    weights, g, _ = _dispersion_setup(ctx24, np.pi / 2)
    trend = qmode_trend(ctx24, point_forms(ctx24, g, weights, {"qmode"}), g)
    assert [e for e, _, _ in trend] == [0.0, 1.0, 2.0, 3.0, 4.0]
    dens = [d for _, _, d in trend]
    for hi, lo in zip(dens, dens[1:]):
        assert hi > lo - 1e-6
    assert dens[0] > 3 * dens[1]     # the near-Q weight dominates clearly


def test_vanishing_denominator_diagnostic(ctx22):
    # a window far above the spectrum captures nothing
    weights = build_f(WavepacketSpec(np.pi, 4.5), ctx22.lattice)
    empty = GFilter(50.0, 200.0, 10.0)
    forms = point_forms(ctx22, empty, weights, {"dispersion"})
    with pytest.raises(VanishingDenominatorError, match="den = "):
        excitation_energy(ctx22, forms, weights, empty, 0.5, "zero")


SPIN_3_2 = """
[scan]
checks = dispersion
lattices = 2x2
spin = 1.5
b_ladder = 0.2
dense_cap = {cap}
seed = 7

[filter]
chebyshev_tol = 1e-6
"""


@pytest.mark.parametrize("cap,path", [(16, "sparse"), (4096, "dense")])
def test_empty_window_is_inconclusive_on_both_paths(tmp_path, cap, path):
    """At spin 3/2 on 2x2 the packet's filter window holds no weight: the
    dense sums give den ~ 6e-32, the Chebyshev forms noise of about 1e-9,
    inside den's certified error of about 1e-7.  Both paths skip the packet
    (exit 3); the noise is never read as a delta_e outside the window."""
    result = run_scan(parse_config_text(SPIN_3_2.format(cap=cap)),
                      out_dir=tmp_path)
    assert result.exit_code == 3
    assert result.manifest["solver_stats"][0]["path"] == path
    assert result.manifest["checks"] == []
    (skip,) = result.manifest["summary"]["skipped"]
    assert skip["reason"].startswith("filter window empty")


def test_extrapolate_ms_constant_and_linear():
    fit = extrapolate_ms([0.4, 0.2, 0.1], [0.3, 0.3, 0.3])
    assert fit["intercept"] == pytest.approx(0.3, abs=1e-12)
    bs = [0.4, 0.2, 0.1, 0.05]
    fit = extrapolate_ms(bs, [0.2 + 0.5 * b for b in bs])
    assert fit["intercept"] == pytest.approx(0.2, abs=1e-10)
    assert "finite-size" in fit["label"]
    with pytest.raises(ValueError):
        extrapolate_ms([0.1, 0.2], [0.1, 0.2])


@pytest.mark.parametrize("cap,cls,path", [(16, DenseContext, "dense"),
                                          (15, BlockContext, "sparse")])
def test_dense_cap_is_the_largest_dense_dimension(lat22, tmp_path, cap, cls,
                                                  path):
    """The 2x2 torus (dimension 16) gets the dense oracle at dense_cap = 16
    and the blocks at dense_cap = 15, in SystemContext and in a scan."""
    assert type(SystemContext(lat22, 0.1, dense_cap=cap)) is cls
    cfg = parse_config_text("[scan]\nchecks = bounds\nlattices = 2x2\n"
                            f"b_ladder = 0.2 0.1\ndense_cap = {cap}\n")
    result = run_scan(cfg, out_dir=tmp_path)
    assert result.exit_code == 0
    assert [s["path"] for s in result.manifest["solver_stats"]] == [path] * 2


def test_sparse_context_skips_window_pieces(lat22):
    ctx = SystemContext(lat22, 0.1, dense_cap=0)
    assert isinstance(ctx, BlockContext)
    _, den, _ = ctx.forms([(GF, [((1, 0), 2)])])[GF, ((1, 0), 2)]
    entries = window_entries(ctx, GF, 0.02, np.pi, (1, 0), den)
    assert [e.name for e in entries] == ["denominator_lower_bound"]
    assert "window pieces skipped" in entries[0].note


def test_moment_guard_rejects_short_interval(lat22):
    ctx = SystemContext(lat22, 0.1, dense_cap=0)
    lo, hi = ctx.interval
    ctx.interval = (lo, 0.5 * (lo + hi))    # misses the top of the spectrum
    # a window whose upper edge falls inside the cut interval, so that the
    # expansions are not constant there
    g = GFilter(0.5, 2.0, 0.5)
    with pytest.raises(SpectrumEnclosureError,
                       match=r"\(1, 0\).*does not enclose") as info:
        ctx.forms([(g, [((1, 0), 2)])])
    assert f"{lo:.6g}" in str(info.value)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(LATTICES)),
       B=st.floats(0.0, 0.5, exclude_min=True),
       eps=st.floats(0.1, 1.2),
       pick=st.integers(0, 10 ** 6),
       axis=st.sampled_from([2, 3]))
def test_sector_path_matches_dense_oracle(name, B, eps, pick, axis):
    """The sparse path (twisted-momentum blocks) against the full-basis
    dense oracle."""
    extents, spin = LATTICES[name]
    lat = Lattice(extents, spin)
    tol = Tolerances(chebyshev=1e-6)
    dense = SystemContext(lat, B, tolerances=tol)
    ctx = SystemContext(lat, B, tolerances=tol, dense_cap=0)
    assert isinstance(dense, DenseContext) and isinstance(ctx, BlockContext)
    assert abs(ctx.gs.energy - dense.gs.energy) <= 1e-10
    assert abs(ctx.m_B - dense.m_B) <= 1e-9
    momenta = sorted(lat.momenta)
    n = momenta[pick % len(momenta)]
    v, w = ctx.sk_phi(n, axis), dense.sk_phi(n, axis)
    norm2 = float(np.vdot(v, v).real)
    assert abs(norm2 - float(np.vdot(w, w).real)) <= 1e-10
    assert abs(double_commutator_entry(ctx, n, axis).lhs
               - double_commutator_entry(dense, n, axis).lhs) <= 1e-9
    assert abs(sum_rule_entry(ctx, n).lhs - sum_rule_entry(dense, n).lhs) \
        <= 1e-10
    if n != lat.q_ordering:
        assert abs(irb_entry(ctx, n, axis).lhs
                   - irb_entry(dense, n, axis).lhs) <= 1e-8
    g = GFilter(eps, 3.0, 0.5)
    num, den, err = ctx.forms([(g, [(n, axis)])])[g, (n, axis)]
    num_d, den_d, err_d = dense.forms([(g, [(n, axis)])])[g, (n, axis)]
    den_exp, num_exp = ctx.filter_expansions(g)
    assert err == pytest.approx(den_exp.sup_error * norm2, rel=1e-10)
    assert err_d == 0.0
    assert abs(den - den_d) <= den_exp.sup_error * norm2 + 1e-10
    assert abs(num - num_d) <= num_exp.sup_error * norm2 + 1e-10


def test_two_windows_share_one_moment_pass(lat24):
    """One forms call over two windows (den degrees 1167 and 245) with
    overlapping keys makes one moment pass, as deep as the deeper window,
    over the distinct keys in the call's order; each window's forms equal,
    bit for bit, those of a new context asked for that window alone, and
    agree with the dense oracle's."""
    wide, narrow = GFilter(0.2, 3.0, 0.5), GFilter(0.3, 2.0, 1.0)
    wanted = [(wide, [((1, 0), 2), ((0, 1), 2), ((1, 2), 3)]),
              (narrow, [((0, 1), 2), ((1, 2), 3), ((1, 1), 2)])]
    ctx = SystemContext(lat24, 0.2, dense_cap=0)
    forms = ctx.forms(wanted)
    stats = ctx.solver_stats()
    # on the interval whose lower end is the floor of block (1, 0)
    assert [e["den_degree"] for e in stats["expansions"]] == [1167, 245]
    (moment_pass,) = stats["moment_passes"]
    assert moment_pass["moments"] == 1168
    assert moment_pass["vectors"] == 4
    # S^(3) at k lies in block (1, k + Q), and Q = (1, 2)
    assert [b["q"] for b in moment_pass["blocks"]] == \
        [[1, 0], [0, 1], [0, 0], [1, 1]]
    assert len(forms) == 6
    for g, keys in wanted:
        alone = SystemContext(lat24, 0.2, dense_cap=0).forms([(g, keys)])
        assert alone == {key: forms[key] for key in alone}
    # the dense oracle's forms lie within each form's certified error, the
    # expansions' sup errors times mu_0 = ||v||^2 (up to 4.7e-9 here, at
    # the S^(3) key)
    dense = SystemContext(lat24, 0.2).forms(wanted)
    assert dense.keys() == forms.keys()
    for (g, key), (num, den, err) in forms.items():
        num_d, den_d, err_d = dense[g, key]
        den_exp, num_exp = ctx.filter_expansions(g)
        mu0 = err / den_exp.sup_error
        assert err_d == 0.0
        assert abs(den - den_d) <= err + 1e-12
        assert abs(num - num_d) <= num_exp.sup_error * mu0 + 1e-12


def test_equal_windows_share_one_expansion(lat22):
    """The expansion cache is keyed by the window's value: two equal
    windows built apart share one entry."""
    ctx = SystemContext(lat22, 0.2, dense_cap=0)
    first = ctx.filter_expansions(GFilter(0.2, 3.0, 0.5))
    assert ctx.filter_expansions(GFilter(0.2, 3.0, 0.5)) is first
    assert len(ctx.solver_stats()["expansions"]) == 1


FLOOR_LATTICES = {"2x4": ((2, 4), 0.5), "4x2": ((4, 2), 0.5),
                  "2x6": ((2, 6), 0.5), "spin1-2x4": ((2, 4), 1.0),
                  "spin3/2-2x2": ((2, 2), 1.5)}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(FLOOR_LATTICES)), B=st.floats(0.01, 1.0))
def test_floors_lie_below_each_sector_minimum(name, B):
    """Every Collatz-Wielandt floor of a block context, that of block (0, 0)
    and of each block (M, 0), M = 1 .. N S, lies at or below the dense
    lowest eigenvalue of its block, and within 1e-6 of it at M = 1, the
    interval's lower end."""
    extents, spin = FLOOR_LATTICES[name]
    lat = Lattice(extents, spin)
    ctx = SystemContext(lat, B, dense_cap=0)
    floors = [ctx.ground_floor] + [s["floor"] for s in ctx.sector_lowest]
    for M, floor in enumerate(floors):
        H = build_hamiltonian(lat, B, (M, (0,) * len(extents)))
        lowest = np.linalg.eigvalsh(H.to_dense())[0]
        assert floor <= lowest, (M, floor, lowest)
        if M == 1:
            assert lowest - floor <= 1e-6
            assert ctx.interval[0] == floor


def test_planted_ground_sector_failure_raises(lat22, monkeypatch):
    """A sector M >= 1 whose floor reaches below E0 is an error, never a
    pass."""
    monkeypatch.setattr(goldstone.analysis, "spectral_interval",
                        lambda H, x: -100.0)
    with pytest.raises(SolverError, match="M = 1"):
        SystemContext(lat22, 0.1, dense_cap=0)


def test_ground_sector_verdict(lat24, monkeypatch):
    """BlockContext's verdict on 2x4 at B = 0.2: the gap is the floor of
    M = 1 minus E0, and every floor lies at or below its Ritz value and
    above E0; a floor at E0, or a NaN, raises and names its sector."""
    B = 0.2
    e0 = SystemContext(lat24, B).gs.energy      # the dense oracle
    ctx = SystemContext(lat24, B, dense_cap=0)
    lowest = ctx.sector_lowest
    assert ctx.ground_gap == pytest.approx(lowest[0]["floor"] - e0)
    assert ctx.ground_gap == min(s["floor"] for s in lowest) - ctx.gs.energy
    assert all(e0 < s["floor"] <= s["ritz"] for s in lowest)
    for planted, match in (([e0 + 0.5, ctx.gs.energy], "M = 2"),
                           ([np.nan], "M = 1")):
        floors = iter(planted + [e0 + 0.5] * 4)
        monkeypatch.setattr(goldstone.analysis, "spectral_interval",
                            lambda H, x: next(floors))
        with pytest.raises(SolverError, match=match):
            SystemContext(lat24, B, dense_cap=0)


def flip_largest(gs: GroundState) -> GroundState:
    """The ground state with its largest entry's sign flipped."""
    v = gs.vector.copy()
    i = int(np.argmax(np.abs(v)))
    v[i] = -v[i]
    return GroundState(gs.energy, v, gs.residual)


def test_planted_sign_violation_is_inconclusive(tmp_path, monkeypatch):
    """One entry of the Ritz vector of block (1, 0) flipped: the floor's
    sign condition fails, so the floor is NaN, the context raises a
    SolverError that names the sector, and the scan skips the field,
    lists it as uncertified and exits 3."""
    lat = Lattice((2, 4))
    H = build_hamiltonian(lat, 0.2, (1, (0, 0)))
    gs = ground_state(H)
    assert spectral_interval(H, gs.vector) <= gs.energy
    assert np.isnan(spectral_interval(H, flip_largest(gs).vector))

    calls = []

    def planted(H, tol, seed):
        calls.append(H.dim)
        gs = ground_state(H, tol, seed)
        # the first call solves block (0, 0), the second block (1, 0)
        return flip_largest(gs) if len(calls) == 2 else gs

    monkeypatch.setattr(goldstone.analysis, "ground_state", planted)
    with pytest.raises(SolverError, match=r"M = 1 has a Collatz-Wielandt "
                                          r"floor nan"):
        SystemContext(lat, 0.2, dense_cap=0)
    calls.clear()
    cfg = parse_config_text("[scan]\nchecks = dispersion\nlattices = 2x4\n"
                            "b_ladder = 0.2\ndense_cap = 0\n")
    result = run_scan(cfg, out_dir=tmp_path)
    assert result.exit_code == 3
    index = json.loads((tmp_path / "failures.json").read_text())
    (record,) = index["uncertified"]
    assert (record["B"], record["error"]) == (0.2, "SolverError")
    assert "M = 1" in record["reason"]


def test_planted_ground_sector_failure_skips_only_its_field(tmp_path,
                                                           monkeypatch):
    """A SolverError at the first field of a two-field sparse ladder: that
    field is skipped with the error named and left out of the ladder
    checks, the other field's rows are written, and the scan exits 3."""
    calls = []

    def planted(H, x):
        calls.append(H.dim)
        # sector M = 1 of the first field reaches below E0, and its error
        # ends that field's check
        return -100.0 if len(calls) == 1 else spectral_interval(H, x)

    monkeypatch.setattr(goldstone.analysis, "spectral_interval", planted)
    cfg = parse_config_text("[scan]\nchecks = bounds dispersion\n"
                            "lattices = 2x2\nb_ladder = 0.4 0.2\n"
                            "dense_cap = 0\n")
    result = run_scan(cfg, out_dir=tmp_path)
    assert result.exit_code == 3
    summary = result.manifest["summary"]
    assert summary["bound_failures"] == summary["check_failures"] == 0
    (skip,) = summary["skipped"]
    assert (skip["B"], skip["error"], skip["groups"]) == \
        (0.4, "SolverError", ["bounds", "dispersion"])
    assert [(i["group"], "SolverError" in i["reason"])
            for i in summary["inconclusive"]] == \
        [("bounds", True), ("dispersion", True)]
    assert [s["B"] for s in result.manifest["solver_stats"]] == [0.2]
    assert not any(c["name"] == "m_B_nondecreasing_in_B"
                   for c in result.manifest["checks"])
    for stem in ("bounds", "dispersion"):
        with open(tmp_path / f"{stem}.csv", newline="") as fh:
            fields = {row["B"] for row in csv.DictReader(fh)}
        assert fields == {"0.2"}, stem


def test_field_left_without_a_context_is_listed_uncertified(tmp_path,
                                                             monkeypatch):
    """A SolverError from the second field's constructor: failures.json lists
    that field as uncertified, the scan still exits 3, and the solver
    statistics hold the first field alone, without an error."""
    calls = []

    def planted(H, x):
        calls.append(H.dim)
        # the first field takes three floors (M = 1, 2 and block (0, 0));
        # sector M = 1 of the second field reaches below E0
        return -100.0 if len(calls) > 3 else spectral_interval(H, x)

    monkeypatch.setattr(goldstone.analysis, "spectral_interval", planted)
    cfg = parse_config_text("[scan]\nchecks = bounds dispersion\n"
                            "lattices = 2x2\nb_ladder = 0.4 0.2\n"
                            "dense_cap = 0\n")
    result = run_scan(cfg, out_dir=tmp_path)
    assert result.exit_code == 3
    assert [(s["B"], "error" in s) for s in
            result.manifest["solver_stats"]] == [(0.4, False)]
    index = json.loads((tmp_path / "failures.json").read_text())
    assert index["uncertified"] == result.manifest["summary"]["skipped"]
    (record,) = index["uncertified"]
    assert (record["B"], record["error"]) == (0.2, "SolverError")
    assert index["bound_failures"] == index["check_failures"] == []


def test_solver_tolerance_and_seed_reach_every_lanczos_run(lat24, tmp_path,
                                                           monkeypatch):
    """The config's [tolerances] solver and [scan] seed reach the Lanczos
    runs of block (0, 0) and of every sector M = 1 .. 4 on the block path;
    without them SystemContext uses the config defaults."""
    calls = []

    def spy(H, tol, seed):
        calls.append((tol, seed))
        return ground_state(H, tol, seed)

    monkeypatch.setattr(goldstone.analysis, "ground_state", spy)
    cfg = parse_config_text("[scan]\nchecks = bounds\nlattices = 2x4\n"
                            "b_ladder = 0.2\ndense_cap = 100\nseed = 8\n"
                            "[tolerances]\nsolver = 1e-9\n")
    result = run_scan(cfg, out_dir=tmp_path)
    assert result.manifest["solver_stats"][0]["path"] == "sparse"
    assert calls == [(1e-9, 8)] * 5
    calls.clear()
    SystemContext(lat24, 0.2, dense_cap=0)
    defaults = ScanConfig()
    assert calls == [(defaults.tolerances.solver, defaults.seed)] * 5


def test_sparse_context_never_builds_full_basis(lat24, monkeypatch):
    def refuse(spec):
        raise AssertionError("full basis tables on the sparse path")

    monkeypatch.setattr(goldstone.operators, "basis_tables", refuse)
    ctx = SystemContext(lat24, 0.2, dense_cap=0)
    wp = WavepacketSpec(np.pi / 2, 2.2)
    weights = build_f(wp, lat24)
    v_min, eps = choose_epsilon(ctx.m_B, weights, lat24, gamma=3.0,
                                delta_gamma=0.5)
    g = GFilter(eps, 3.0, 0.5)
    forms = point_forms(ctx, g, weights, {"bounds", "qmode"})
    report = bound_report(ctx, forms, g, v_min, wp.annulus_radius)
    assert all(e.passed for e in report)
    excitation_energy(ctx, forms, weights, g, v_min, "staggered")
    qmode_trend(ctx, forms, g)
    # the 2 * 56 states of M = +-1 fall into orbits of 8
    assert {b.dim for b in ctx._blocks.values()} == {14}


def test_sparse_4x4_context_builds_only_blocks(monkeypatch):
    """A 4x4 context and a moment pass over the keys of a dispersion and
    qmode scan build no Hamiltonian larger than one block of M = +-1 and
    never the full basis tables; every block (1, q) shares the one set of
    rows of M = +-1 that the lattice's fields share."""
    def refuse(spec):
        raise AssertionError("full basis tables on the sparse path")

    built, shared = [], []
    block_rows = goldstone.operators.block_rows

    def record(lattice, B, block=None):
        H = build_hamiltonian(lattice, B, block)
        built.append((block, H.dim))
        return H

    def record_rows(lattice, M):
        shared.append((M, block_rows(lattice, M)))
        return shared[-1][1]

    monkeypatch.setattr(goldstone.operators, "basis_tables", refuse)
    monkeypatch.setattr(goldstone.analysis, "build_hamiltonian", record)
    monkeypatch.setattr(goldstone.operators, "block_rows", record_rows)
    lat = Lattice((4, 4))
    ctx = SystemContext(lat, 0.1)
    weights = build_f(WavepacketSpec(np.pi / 2, 2.2), lat)
    ctx.moments(filter_keys(lat, weights, {"dispersion", "qmode"}), 16)
    assert max(dim for _, dim in built) == 1430
    assert all(block is not None for block, _ in built)
    pair = [rows for M, rows in shared if M == 1]
    # the representatives' magnetization, N S minus their digit sum, is +-1
    half = lat.n_sites * lat.two_s // 2
    assert set(np.abs(half - pair[0].orbits.reps.digits.sum(axis=0))) == {1}
    assert all(rows is pair[0] for rows in pair)
    assert len(pair) == len({block for block, _ in built if block[0] == 1})
    assert ctx.H.dim == 827
    stats = ctx.solver_stats()
    assert [s["dim"] for s in stats["blocks"]["lowest"]] == \
        [1430, 1022, 546, 240, 70, 18, 2, 1]
    (moment_pass,) = stats["moment_passes"]
    assert all(b["dim"] == 1430 for b in moment_pass["blocks"])


BLOCK_LATTICES = {**LATTICES, "2x6": ((2, 6), 0.5)}


@pytest.mark.parametrize("name", sorted(BLOCK_LATTICES))
def test_block_minimum_lies_at_zero_twist(name):
    """Perron-Frobenius in the Marshall basis puts the lowest state of each
    pair (M, -M) in q = 0: the minimum over q of the lowest eigenvalue of
    block (M, q) is that of block (M, 0), for every M."""
    extents, spin = BLOCK_LATTICES[name]
    lat = Lattice(extents, spin)
    zero = (0,) * len(extents)
    for M in range(lat.n_sites * lat.two_s // 2 + 1):
        lowest = {q: np.linalg.eigvalsh(
            build_hamiltonian(lat, 0.1, (M, q)).to_dense())[:1]
            for q in lat.momenta}
        best = min(float(v[0]) for v in lowest.values() if len(v))
        assert abs(best - float(lowest[zero][0])) <= 1e-10


def test_block_minimum_lies_at_zero_twist_4x4():
    """The same on the 4x4 torus at B = 0.1, for M = 0 and 1, through
    the Lanczos ground state of every block."""
    lat = Lattice((4, 4))
    for M in (0, 1):
        lowest = {q: ground_state(build_hamiltonian(lat, 0.1, (M, q))).energy
                  for q in lat.momenta}
        assert min(lowest.values()) >= lowest[(0, 0)] - 1e-10


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["ring4", "ring6", "2x4", "2x6", "spin1-ring4"]),
       B=st.floats(0.05, 0.5),
       picks=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.sampled_from([2, 3])),
                      min_size=1, max_size=5),
       n_moments=st.integers(1, 90))
def test_block_moments_match_h_exc_moments(name, B, picks, n_moments):
    """Moments from one pass on the direct sum of the blocks of M = +-1
    equal the moments of each vector on its own block, and the blocks'
    dense eigensystems."""
    extents, spin = BLOCK_LATTICES[name]
    lat = Lattice(extents, spin)
    ctx = SystemContext(lat, B, dense_cap=0)
    momenta = sorted(lat.momenta)
    keys = [(momenta[p % len(momenta)], axis) for p, axis in picks]
    got = ctx.moments(keys, n_moments)
    lo, hi = ctx.interval
    for key, mu in zip(keys, got):
        H = ctx.block(ctx._block_q(*key))
        v = ctx.sk_phi(*key)
        ref, _ = chebyshev_moments(H, v, lo, hi, n_moments)
        assert np.abs(mu - ref[:, 0]).max() <= 1e-12 * ref[0, 0]
        evals, evecs = np.linalg.eigh(H.to_dense())
        weights = np.abs(evecs.conj().T @ v) ** 2
        x = (2 * evals - (hi + lo)) / (hi - lo)
        spectral = np.cos(np.outer(np.arange(n_moments), np.arccos(x))) \
            @ weights
        assert np.abs(mu - spectral).max() <= 1e-11 * ref[0, 0]
    (moment_pass,) = ctx.solver_stats()["moment_passes"]
    assert moment_pass["vectors"] == len(set(keys))
    # one block of the direct sum per vector, a shared block repeated
    assert len(moment_pass["blocks"]) == len(set(keys))
    assert moment_pass["dim"] == sum(b["dim"] for b in moment_pass["blocks"])


@pytest.mark.parametrize("extents,spin,B", [((4, 4), 0.5, 0.1),
                                            ((2, 6), 0.5, 0.2),
                                            ((2, 4), 0.5, 0.2),
                                            ((2, 4), 1.0, 0.2)])
def test_inverted_momenta_have_equal_moments(extents, spin, B):
    """Inversion k -> -k commutes with H and fixes phi0 up to a sign, so
    S_k phi0 and S_-k phi0 have the same Chebyshev moments: within 1e-12
    mu_0 over 400 moments, at every momentum k != -k and axis 2 and 3.
    They agree to rounding, not bit for bit."""
    lat = Lattice(extents, spin)
    ctx = SystemContext(lat, B, dense_cap=0)
    keys = [(n, axis) for n in sorted(lat.momenta) if lat.negate(n) != n
            for axis in (2, 3)]
    moments = dict(zip(keys, ctx.moments(keys, 400)))
    for (n, axis), mu in moments.items():
        twin = moments[lat.negate(n), axis]
        assert np.abs(mu - twin).max() <= 1e-12 * mu[0], (n, axis)


@pytest.mark.parametrize("extents,B", [((2, 4), 1e-6), ((2, 6), 1e-5)])
def test_small_field_moment_pass_matches_dense_oracle(extents, B):
    """At small B, where ||S_0^(2) phi0||^2 ~ B^2, a full moment pass over
    every key matches the dense oracle of the sectors M = 0 and M = +-1,
    cut from the full-basis H."""
    lat = Lattice(extents)
    ctx = SystemContext(lat, B, dense_cap=0)
    keys = [(n, axis) for n in sorted(lat.momenta) for axis in (2, 3)]
    got = ctx.moments(keys, 16)
    full = build_hamiltonian(lat, B)
    H = scipy.sparse.csr_matrix((full.data, full.indices, full.indptr),
                                shape=(full.dim, full.dim))
    zero = goldstone.operators.sector_basis(lat, (0,)).codes
    pair = goldstone.operators.sector_basis(lat, (1, -1)).codes
    e0, phi = np.linalg.eigh(H[zero][:, zero].toarray())
    assert abs(e0[0] - ctx.gs.energy) <= 1e-10
    full = np.zeros(lat.hilbert_dim)
    full[zero] = phi[:, 0]
    evals, evecs = np.linalg.eigh(H[pair][:, pair].toarray())
    lo, hi = ctx.interval
    x = (2 * evals - (hi + lo)) / (hi - lo)
    cheb = np.cos(np.outer(np.arange(16), np.arccos(x)))
    for (n, axis), mu in zip(keys, got):
        v = fourier_spin(lat, n, axis).matvec(full + 0j)[pair]
        ref = cheb @ np.abs(evecs.T @ v) ** 2
        assert np.abs(mu - ref).max() <= 1e-10 * max(ref[0], 1e-6)


def test_sparse_sk_phi_matches_fourier_spin(lat24):
    """The block coordinates of S_k phi0, expanded to the full basis, are
    the full-basis Fourier mode applied to the expanded phi0."""
    ctx = SystemContext(lat24, 0.2, dense_cap=0)
    phi = expand_block(lat24, (0, (0, 0)), ctx.gs.vector)
    for n in lat24.momenta:
        for axis in (2, 3):
            ref = fourier_spin(lat24, n, axis).matvec(phi)
            got = expand_block(lat24, (1, ctx._block_q(n, axis)),
                               ctx.sk_phi(n, axis))
            assert np.abs(got - ref).max() <= 1e-14
    with pytest.raises(ValueError):
        ctx.sk_phi((0, 1), 1)
