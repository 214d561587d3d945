"""Scan execution: builds systems over (lattice, B, p) grids, runs the
enabled check groups, and persists CSV/JSON artifacts.

Output layout under the chosen directory:
    bounds.csv              one row per inequality entry
    dispersion.csv          one row per wavepacket record (both modes)
    dispersion_per_k.csv    per-momentum contributions
    qmode_trend.csv         staggered-mode weight vs dispersion value
    locality_profiles.csv   norm samples and fitted envelopes
    filter_samples.csv      window and annulus profiles (argument, value)
    manifest.json           config echo, versions, summary, pass/fail
    failures.json           present only when checks failed

CSV bodies are byte-deterministic for a fixed config; the manifest carries
the only timestamp.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._kernels import HAVE_NUMBA, use_numba
from .analysis import (EpsilonChoiceError, SystemContext,
                       VanishingDenominatorError, bound_report, choose_epsilon,
                       ctx_m_b, excitation_energy, extrapolate_ms, filter_keys,
                       ground_sectors, qmode_trend)
from .config import ScanConfig, auto_p_target
from .eigensolver import (SolverOptions, cached_residual,
                          ground_state_cache_name, load_ground_state,
                          read_ground_state_header, save_ground_state)
from .filters import (EmptySupportError, FilterSpec, GFilter, WavepacketSpec,
                      build_f)
from .lattice import Lattice
from .locality import (b_continuity, delta_decomposition, local_approximation,
                       lr_commutator_profile, operator_norm, tau_g_star)
from .operators import build_hamiltonian, site_spin_operator

CACHE_ENV_VAR = "GOLDSTONE_CACHE_DIR"
ORDERING_SLACK = 1e-6


@dataclass
class ScanResult:
    exit_code: int
    manifest: dict
    out_dir: Path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return str(value)


def _label(n) -> str:
    return ";".join(str(int(v)) for v in n)


def _kcols(lattice, n) -> str:
    return ";".join(repr(float(x)) for x in lattice.kvec(n))


def _resolve_cache_dir(config: ScanConfig) -> Path | None:
    env = os.environ.get(CACHE_ENV_VAR)
    raw = env or config.cache_dir
    if not raw:
        return None
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _context(lattice: Lattice, B: float, config: ScanConfig,
             cache_dir: Path | None) -> SystemContext:
    """The context of one (lattice, B), its ground state read from the cache
    when a valid file is there; a missing or rejected file is (re)written."""
    sectors = ground_sectors(lattice, config.dense_cap)
    sector = None if sectors is None else sectors[0]
    H = build_hamiltonian(lattice, B, sectors)
    tol = config.tolerances.solver
    gs = None
    cache_path = None
    if cache_dir is not None:
        cache_path = cache_dir / ground_state_cache_name(
            lattice.spec, B, tol, sector)
        gs = load_ground_state(cache_path, lattice, H, B, tol, sector)
    ctx = SystemContext(lattice, B, dense_cap=config.dense_cap,
                        tolerances=config.tolerances,
                        solver_opts=SolverOptions(tol=tol, seed=config.seed),
                        hamiltonian=H, ground=gs,
                        degree_cap=config.degree_cap)
    if cache_path is not None and gs is None:
        save_ground_state(cache_path, ctx.gs, tol)
    return ctx


def _prefetch_moments(ctx: SystemContext, config: ScanConfig,
                      wavepackets) -> None:
    """One Chebyshev moment pass per (lattice, B) on the sparse path: every
    key that the enabled groups ask for, at every wavepacket, to the largest
    order that any of their filters needs."""
    keys, orders = [], []
    groups = set(config.checks)
    for _, wp, weights in wavepackets:
        new = filter_keys(ctx.lattice, weights, groups)
        groups.discard("bounds")    # the suite runs at the first wavepacket
        try:
            g, _ = _auto_filter(ctx, wp, config)
        except EpsilonChoiceError:
            continue
        if new:
            den, num = ctx.filter_expansions(g)
            keys += new
            orders.append(max(den.degree, num.degree) + 1)
    if keys:
        ctx.moments(keys, max(orders))


def _auto_filter(ctx: SystemContext, wp: WavepacketSpec, config: ScanConfig):
    """(GFilter, v_min) for one (lattice, B): epsilon from the sum-rule
    bracket unless pinned in the config."""
    if config.filter_epsilon == "auto":
        v_min, eps = choose_epsilon(ctx_m_b(ctx), wp, ctx.lattice,
                                    config.v_min_ladder, gamma=config.gamma,
                                    delta_gamma=config.delta_gamma)
    else:
        eps = float(config.filter_epsilon)
        v_min = eps / wp.annulus_radius
    return GFilter(FilterSpec(eps, config.gamma, config.delta_gamma)), v_min


def run_scan(config: ScanConfig, out_dir=None, jobs: int | None = None,
             fail_fast: bool = False, corrupt: str | None = None) -> ScanResult:
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = _resolve_cache_dir(config)
    jobs = jobs or config.jobs
    cfg_hash = config.config_hash()

    bounds_rows: list[dict] = []
    disp_rows: list[dict] = []
    per_k_rows: list[dict] = []
    trend_rows: list[dict] = []
    loc_rows: list[dict] = []
    sample_rows: list[dict] = []
    checks: list[dict] = []
    skipped: list[dict] = []
    solver_stats: list[dict] = []

    def check(group, name, lattice, B, value, threshold, passed, note=""):
        checks.append({
            "group": group, "name": name,
            "lattice": "x".join(str(e) for e in lattice) if lattice else "",
            "B": B, "value": None if value is None else float(value),
            "threshold": None if threshold is None else float(threshold),
            "passed": bool(passed), "note": note,
        })
        return passed

    aborted = False
    for extents in config.lattices:
        if aborted:
            break
        lattice = Lattice.build(extents, config.spin)
        lat_tag = "x".join(str(e) for e in extents)
        if config.p_values == "auto":
            p_targets = [auto_p_target(lattice)]
        else:
            p_targets = list(config.p_values)
        kappa = config.resolve_kappa([4 * p / 3 for p in p_targets])

        wavepackets = []
        for p in p_targets:
            try:
                wp = WavepacketSpec(p, kappa)
                wavepackets.append((p, wp, build_f(wp, lattice)))
            except (EmptySupportError, ValueError) as exc:
                skipped.append({"lattice": lat_tag, "p": p, "reason": str(exc)})

        if not wavepackets and ("dispersion" in config.checks
                                or "qmode" in config.checks
                                or "bounds" in config.checks):
            skipped.append({"lattice": lat_tag, "p": None,
                            "reason": "no usable wavepacket on this grid"})
            continue

        def process_b(B, lattice=lattice, wavepackets=wavepackets):
            ctx = _context(lattice, B, config, cache_dir)
            return ctx

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                contexts = list(pool.map(process_b, config.b_ladder))
        else:
            contexts = [process_b(B) for B in config.b_ladder]

        m_b_ladder = []
        e0_ladder = []
        for ctx in contexts:
            if aborted:
                break
            B = ctx.B
            m_b_ladder.append(ctx_m_b(ctx))
            e0_ladder.append(ctx.gs.energy)
            p0, wp0, weights0 = wavepackets[0]
            if ctx.dense is None:
                _prefetch_moments(ctx, config, wavepackets)

            if "bounds" in config.checks:
                try:
                    g, v_min = _auto_filter(ctx, wp0, config)
                except EpsilonChoiceError as exc:
                    skipped.append({"lattice": lat_tag, "p": p0, "B": B,
                                    "reason": f"bounds: {exc}"})
                    continue
                report = bound_report(ctx, g, v_min, wp0.annulus_radius)
                for e in report.entries:
                    lhs = e.lhs + 1.0 if corrupt and e.name == corrupt else e.lhs
                    margin = e.rhs - lhs if e.kind == "upper" else -abs(lhs - e.rhs)
                    passed = e.passed if not (corrupt and e.name == corrupt) \
                        else margin >= -e.tolerance
                    bounds_rows.append({
                        "config": cfg_hash, "lattice": lat_tag,
                        "spin": lattice.spec.spin, "B": B, "name": e.name,
                        "axis": e.axis, "n": _label(e.momentum),
                        "k": _kcols(lattice, e.momentum), "lhs": lhs,
                        "rhs": e.rhs, "margin": margin,
                        "tolerance": e.tolerance, "kind": e.kind,
                        "passed": passed, "note": e.note,
                    })
                    if not passed and fail_fast:
                        aborted = True

            for p, wp, weights in wavepackets:
                if not ({"dispersion", "qmode"} & set(config.checks)):
                    break
                try:
                    g, v_min = _auto_filter(ctx, wp, config)
                except EpsilonChoiceError as exc:
                    skipped.append({"lattice": lat_tag, "p": p, "B": B,
                                    "reason": str(exc)})
                    continue
                for arg, val in g.sample_table(0.0, 1.2 * g.spec.gamma, 241):
                    sample_rows.append({
                        "config": cfg_hash, "lattice": lat_tag, "B": B,
                        "p_target": p, "kind": "window", "argument": arg,
                        "value": val})
                for arg, val in weights.sample_table(241):
                    sample_rows.append({
                        "config": cfg_hash, "lattice": lat_tag, "B": B,
                        "p_target": p, "kind": "annulus", "argument": arg,
                        "value": val})
                records = []
                try:
                    if "dispersion" in config.checks:
                        records.append(excitation_energy(ctx, weights, g,
                                                         v_min, "zero"))
                    if "qmode" in config.checks:
                        records.append(excitation_energy(ctx, weights, g,
                                                         v_min, "staggered"))
                except VanishingDenominatorError as exc:
                    skipped.append({"lattice": lat_tag, "p": p, "B": B,
                                    "reason": str(exc)})
                    continue
                for rec in records:
                    group = "dispersion" if rec.mode == "zero" else "qmode"
                    eps = rec.epsilon
                    ok_window = (eps - ORDERING_SLACK <= rec.delta_e
                                 <= rec.gamma + ORDERING_SLACK)
                    check(group, "delta_e_window", extents, B, rec.delta_e,
                          eps, ok_window,
                          f"window [{eps:.6g}, {rec.gamma:.6g}]")
                    if rec.cross_momentum_max is not None:
                        check(group, "cross_momentum", extents, B,
                              rec.cross_momentum_max, 1e-10,
                              rec.cross_momentum_max <= 1e-10)
                    disp_rows.append(_disp_row(cfg_hash, lat_tag, rec))
                    for pk in rec.per_k:
                        per_k_rows.append({
                            "config": cfg_hash, "lattice": lat_tag, "B": B,
                            "mode": rec.mode, "p_target": rec.p_target,
                            "n": _label(pk.momentum),
                            "k": _kcols(lattice, pk.momentum),
                            "weight": pk.weight, "num_k": pk.num_k,
                            "den_k": pk.den_k,
                        })
                if len(records) == 2:
                    diff = records[0].delta_e - records[1].delta_e
                    check("qmode", "delta_e_ordering", extents, B, diff,
                          -ORDERING_SLACK, diff > -ORDERING_SLACK,
                          "zero-mode above staggered-mode (slack 1e-6)")
                if "qmode" in config.checks:
                    trend = qmode_trend(ctx, g)
                    for (e_val, n, den_k) in trend:
                        trend_rows.append({
                            "config": cfg_hash, "lattice": lat_tag, "B": B,
                            "dispersion": e_val, "n": _label(n),
                            "k": _kcols(lattice, n), "den_k": den_k,
                        })
                    # a finite-size trend, recorded with its value; it is
                    # not a finite-volume inequality and sets no exit code
                    steps = [d1 - d2 for (_, _, d1), (_, _, d2)
                             in zip(trend, trend[1:])]
                    if steps:
                        trend_is = ("decreases"
                                    if min(steps) > -ORDERING_SLACK
                                    else "does not decrease")
                        checks.append({
                            "group": "qmode", "name": "trend_den_decreasing",
                            "lattice": lat_tag, "B": B,
                            "value": float(min(steps)), "threshold": None,
                            "passed": True,
                            "note": f"trend - den_k {trend_is} as the "
                                    "dispersion grows (value: smallest step); "
                                    "a finite-size trend, not a finite-volume "
                                    "inequality"})

        # ladder-level physics checks (the ladder descends in B, so m_B must
        # be nonincreasing along it)
        if "bounds" in config.checks and len(contexts) >= 2 and not aborted:
            bs = [c.B for c in contexts]
            mono = all(m_hi >= m_lo - 1e-10
                       for m_hi, m_lo in zip(m_b_ladder, m_b_ladder[1:]))
            check("bounds", "m_B_nondecreasing_in_B", extents, None,
                  None, None, mono)
            if len(contexts) >= 3:
                worst = -np.inf
                for i in range(len(bs) - 2):
                    b1, b2, b3 = bs[i], bs[i + 1], bs[i + 2]
                    e1, e2, e3 = e0_ladder[i], e0_ladder[i + 1], e0_ladder[i + 2]
                    second = ((e1 - e2) / (b1 - b2) - (e2 - e3) / (b2 - b3))
                    worst = max(worst, second)
                check("bounds", "e0_concave_in_B", extents, None, worst,
                      1e-10, worst <= 1e-10)

        solver_stats.extend({"lattice": lat_tag, "B": ctx.B,
                             **ctx.solver_stats()} for ctx in contexts)

        if ({"dispersion", "qmode"} & set(config.checks)) and len(m_b_ladder) >= 3:
            ms = extrapolate_ms([c.B for c in contexts], m_b_ladder)
            if disp_rows:
                disp_rows[-1]["ms_intercept"] = ms["intercept"]
            checks.append({"group": "dispersion", "name": "ms_extrapolation",
                           "lattice": lat_tag, "B": None,
                           "value": ms["intercept"], "threshold": None,
                           "passed": True, "note": ms["label"]})

        if "locality" in config.checks and not aborted:
            if lattice.spec.hilbert_dim <= config.dense_cap:
                _run_locality(lattice, config, contexts, cfg_hash, lat_tag,
                              loc_rows, check, extents)
            else:
                skipped.append({"lattice": lat_tag, "p": None,
                                "reason": "locality needs the dense oracle"})

    _write_csv(out / "bounds.csv", bounds_rows,
               ["config", "lattice", "spin", "B", "name", "axis", "n", "k",
                "lhs", "rhs", "margin", "tolerance", "kind", "passed", "note"])
    _write_csv(out / "dispersion.csv", disp_rows, _DISP_COLS)
    _write_csv(out / "dispersion_per_k.csv", per_k_rows,
               ["config", "lattice", "B", "mode", "p_target", "n", "k",
                "weight", "num_k", "den_k"])
    _write_csv(out / "qmode_trend.csv", trend_rows,
               ["config", "lattice", "B", "dispersion", "n", "k", "den_k"])
    _write_csv(out / "locality_profiles.csv", loc_rows,
               ["config", "lattice", "kind", "x", "y", "norm", "envelope"])
    _write_csv(out / "filter_samples.csv", sample_rows,
               ["config", "lattice", "B", "p_target", "kind", "argument",
                "value"])

    bound_failures = [r for r in bounds_rows if not r["passed"]]
    check_failures = [c for c in checks if not c["passed"]]
    exit_code = 0 if not bound_failures and not check_failures else 1
    manifest = {
        "config_hash": cfg_hash,
        "config_text": config.raw_text,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {
            "goldstone": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba_kernels": bool(use_numba),
            "numba_available": bool(HAVE_NUMBA),
        },
        "checks": checks,
        "summary": {
            "bound_entries": len(bounds_rows),
            "bound_failures": len(bound_failures),
            "check_entries": len(checks),
            "check_failures": len(check_failures),
            "dispersion_records": len(disp_rows),
            "skipped": skipped,
            "all_passed": exit_code == 0,
        },
        "corruption_hook": corrupt,
        "solver_stats": solver_stats,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if exit_code != 0:
        index = {
            "bound_failures": [
                {k: _fmt(v) for k, v in row.items()} for row in bound_failures],
            "check_failures": check_failures,
        }
        with open(out / "failures.json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        try:
            os.remove(out / "failures.json")
        except FileNotFoundError:
            pass
    return ScanResult(exit_code, manifest, out)


_DISP_COLS = ["config", "lattice", "spin", "B", "mode", "p_target",
              "annulus_radius", "kappa", "epsilon", "gamma", "delta_gamma",
              "v_min", "m_B", "numerator", "denominator", "delta_e",
              "cross_momentum_max", "c0_estimate", "v_max_estimate",
              "ms_intercept"]


def _disp_row(cfg_hash, lat_tag, rec) -> dict:
    return {
        "config": cfg_hash, "lattice": lat_tag, "spin": rec.spin, "B": rec.B,
        "mode": rec.mode, "p_target": rec.p_target,
        "annulus_radius": rec.annulus_radius, "kappa": rec.kappa,
        "epsilon": rec.epsilon, "gamma": rec.gamma,
        "delta_gamma": rec.delta_gamma, "v_min": rec.v_min, "m_B": rec.m_B,
        "numerator": rec.numerator, "denominator": rec.denominator,
        "delta_e": rec.delta_e, "cross_momentum_max": rec.cross_momentum_max,
        "c0_estimate": rec.c0_estimate, "v_max_estimate": rec.v_max_estimate,
        "ms_intercept": rec.ms_estimate,
    }


def _run_locality(lattice, config, contexts, cfg_hash, lat_tag, loc_rows,
                  check, extents) -> None:
    g = GFilter(FilterSpec(config.locality_epsilon, config.locality_gamma,
                           config.locality_delta_gamma))
    center = config.locality_center
    axis = config.locality_axis
    ctx = contexts[min(len(contexts) - 1, len(contexts) // 2)]
    dec = ctx.dense
    a = site_spin_operator(lattice, center, axis).to_dense()

    smeared = tau_g_star(dec, g, a)
    lhs = smeared @ ctx.gs.vector
    amps = dec.eigenvectors.conj().T @ (a @ ctx.gs.vector)
    rhs = dec.eigenvectors @ (g(dec.eigenvalues - ctx.gs.energy) * amps)
    defect = float(np.linalg.norm(lhs - rhs))
    check("locality", "smeared_action_identity", extents, ctx.B, defect,
          1e-10, defect <= 1e-10)

    ball = lattice.ball(center, 1)
    once = local_approximation(smeared, ball, lattice)
    twice = local_approximation(once, ball, lattice)
    idem = operator_norm(once - twice)
    check("locality", "partial_trace_idempotent", extents, ctx.B, idem,
          1e-12, idem <= 1e-12)
    contraction = operator_norm(once) - operator_norm(smeared)
    check("locality", "partial_trace_contractive", extents, ctx.B,
          contraction, 1e-12, contraction <= 1e-12)

    deltas, norms, fit = delta_decomposition(dec, lattice, g, a, center)
    recon = operator_norm(sum(deltas) - smeared)
    check("locality", "telescoping_reconstruction", extents, ctx.B, recon,
          1e-10, recon <= 1e-10)
    for m, v in enumerate(norms):
        loc_rows.append({"config": cfg_hash, "lattice": lat_tag,
                         "kind": "delta_shell", "x": float(m), "y": None,
                         "norm": v, "envelope": fit.envelope(m)})

    lr = lr_commutator_profile(dec, lattice, center, config.locality_times,
                               axis)
    by_time: dict[float, list] = {}
    for (t, d, v) in lr.samples:
        loc_rows.append({"config": cfg_hash, "lattice": lat_tag,
                         "kind": "lr_commutator", "x": t, "y": d, "norm": v,
                         "envelope": lr.envelope(t, d) if lr.velocity is not None else None})
        by_time.setdefault(t, []).append((d, v))
    for t, pairs in sorted(by_time.items()):
        pairs.sort()
        vals = [v for _, v in pairs]
        decreasing = all(a > b for a, b in zip(vals, vals[1:]))
        check("locality", "lr_distance_decreasing", extents, None, t, None,
              decreasing, f"t={t}")

    cont = b_continuity(lattice, g, config.b_ladder, center, axis,
                        config.dense_cap)
    for (b, r) in cont.samples:
        loc_rows.append({"config": cfg_hash, "lattice": lat_tag,
                         "kind": "b_continuity", "x": b, "y": None,
                         "norm": r, "envelope": cont.amplitude})
    ratio = cont.extras["ratio_max_min"]
    check("locality", "b_continuity_ratio", extents, None, ratio, 4.0,
          ratio <= 4.0)


def _write_csv(path: Path, rows: list, columns: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def verify_cache(cache_dir) -> list:
    """Recompute residuals for every cached ground state; evict stale files."""
    cache = Path(cache_dir)
    reports = []
    for path in sorted(cache.glob("gs_*.bin")):
        entry = {"file": path.name, "status": "valid", "detail": ""}
        try:
            extents, two_s, sector, B, tol, e0, vec = \
                read_ground_state_header(path)
        except (OSError, ValueError) as exc:
            entry["status"] = "unreadable"
            entry["detail"] = str(exc)
            reports.append(entry)
            continue
        try:
            lattice = Lattice.build(extents, two_s / 2.0)
            expected = ground_state_cache_name(lattice.spec, B, tol, sector)
            if expected != path.name:
                raise ValueError(f"name/spec hash mismatch (expected {expected})")
            H = build_hamiltonian(lattice, B,
                                  None if sector is None else (sector,))
            resid = cached_residual(H, e0, vec, tol)
            entry["detail"] = f"residual={resid:.3e}"
        except (ValueError, MemoryError) as exc:
            entry["status"] = "evicted"
            entry["detail"] = str(exc)
            path.unlink(missing_ok=True)
        reports.append(entry)
    return reports
