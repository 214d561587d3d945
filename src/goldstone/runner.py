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
    failures.json           present only when a check failed or a point was
                            not certified

Exit status: 0 when every check passed, 1 when one failed, 3 (inconclusive)
when none failed but a group produced no entry or a point was uncertified.

Locality runs on the fields that `analysis.SystemContext` gave the dense
oracle; the grids of filter_samples.csv are sampled here alone.

CSV bodies are byte-deterministic for a fixed config; the manifest carries
the only timestamp.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import blas_threads
from ._kernels import HAVE_NUMBA, use_numba
from .analysis import (Context, DenseContext, EpsilonChoiceError,
                       SystemContext, VanishingDenominatorError, bound_report,
                       choose_epsilon, excitation_energy, extrapolate_ms,
                       filter_keys, qmode_trend)
from .config import ScanConfig, auto_p_target
from .eigensolver import SolverError
from .filters import (EmptySupportError, FilterDegreeError, GFilter,
                      SpectrumEnclosureError, WavepacketSpec,
                      WavepacketWeights, build_f)
from .lattice import Lattice
from .locality import (b_continuity, delta_decomposition, local_approximation,
                       lr_commutator_profile, operator_norm, support_norm,
                       tau_g_star)
from .operators import site_spin_operator

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
    return str(value)


def _label(n) -> str:
    return ";".join(str(int(v)) for v in n)


def _kcols(lattice, n) -> str:
    return ";".join(repr(float(x)) for x in lattice.kvec(n))


_COLUMNS = {
    "bounds": ["config", "lattice", "spin", "B", "name", "axis", "n", "k",
               "lhs", "rhs", "margin", "tolerance", "kind", "passed", "note"],
    "dispersion": ["config", "lattice", "spin", "B", "mode", "p_target",
                   "annulus_radius", "kappa", "epsilon", "gamma",
                   "delta_gamma", "v_min", "m_B", "numerator", "denominator",
                   "delta_e", "cross_momentum_max", "c0_estimate",
                   "v_max_estimate", "ms_intercept"],
    "dispersion_per_k": ["config", "lattice", "B", "mode", "p_target", "n",
                         "k", "weight", "num_k", "den_k"],
    "qmode_trend": ["config", "lattice", "B", "dispersion", "n", "k",
                    "den_k"],
    "locality_profiles": ["config", "lattice", "kind", "x", "y", "norm",
                          "envelope"],
    "filter_samples": ["config", "lattice", "B", "p_target", "kind",
                       "argument", "value"],
}


class _Outputs:
    """What one scan records: CSV rows by file stem, manifest checks,
    skipped points and per-(lattice, B) solver statistics."""

    def __init__(self, cfg_hash: str):
        self.cfg_hash = cfg_hash
        self.rows: dict[str, list] = {stem: [] for stem in _COLUMNS}
        self.checks: list[dict] = []
        self.skipped: list[dict] = []
        self.solver_stats: list[dict] = []

    def row(self, stem: str, **fields) -> None:
        self.rows[stem].append({"config": self.cfg_hash, **fields})

    def check(self, group, name, lattice, B, value, threshold, passed,
              note="") -> None:
        self.checks.append({
            "group": group, "name": name, "lattice": lattice, "B": B,
            "value": None if value is None else float(value),
            "threshold": None if threshold is None else float(threshold),
            "passed": bool(passed), "note": note,
        })

    def skip(self, lattice, p, reason, groups, **where) -> None:
        self.skipped.append({"lattice": lattice, "p": p, **where,
                             "groups": list(groups), "reason": reason})

    def bound_failures(self) -> list:
        return [r for r in self.rows["bounds"] if not r["passed"]]


def run_scan(config: ScanConfig, out_dir,
             fail_fast: bool = False) -> ScanResult:
    """Every enabled check group over the config's (lattice, B) grid.

    With `fail_fast`, a failing bound entry ends the scan once its
    (lattice, B) is done: later fields, the ladder checks, locality and
    later lattices are skipped."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    groups = set(config.checks)
    res = _Outputs(config.config_hash())
    aborted = False
    for extents in config.lattices:
        lattice = Lattice(extents, config.spin)
        tag = "x".join(str(e) for e in extents)
        wavepackets = _wavepackets(res, config, lattice, tag)
        if not wavepackets and groups & {"bounds", "dispersion", "qmode"}:
            res.skip(tag, None, "no usable wavepacket on this grid",
                     ("bounds", "dispersion", "qmode"))

        fields, dense = [], []
        for B in config.b_ladder:
            ctx = None  # a sparse context is freed before the next is built
            try:
                ctx = SystemContext(lattice, B, dense_cap=config.dense_cap,
                                    tolerances=config.tolerances,
                                    seed=config.seed)
                if wavepackets:
                    _point(res, config, ctx, tag, wavepackets)
            except (SolverError, SpectrumEnclosureError,
                    FilterDegreeError) as exc:
                res.skip(tag, None, "a point was not certified: "
                         f"{type(exc).__name__}: {exc}",
                         sorted(groups - {"locality"}), B=B,
                         error=type(exc).__name__)
                if ctx is not None:     # what the context had solved
                    res.solver_stats.append({"lattice": tag, "B": B,
                                             **ctx.solver_stats(),
                                             "error": type(exc).__name__})
            else:
                res.solver_stats.append({"lattice": tag, "B": B,
                                         **ctx.solver_stats()})
                fields.append((B, ctx.gs.energy, ctx.m_B))
                if "locality" in groups and isinstance(ctx, DenseContext):
                    dense.append(ctx)   # the contexts that _locality reads
            aborted = fail_fast and bool(res.bound_failures())
            if aborted:
                break
        if aborted:
            break
        if "bounds" in groups and len(fields) >= 2:
            _ladder_checks(res, tag, fields, config.tolerances.algebraic)
        if groups & {"dispersion", "qmode"} and len(fields) >= 3:
            ms = extrapolate_ms([b for b, _, _ in fields],
                                [m for _, _, m in fields])
            rows = res.rows["dispersion"]
            if rows and rows[-1]["lattice"] == tag:
                rows[-1]["ms_intercept"] = ms["intercept"]
            res.check("dispersion", "ms_extrapolation", tag, None,
                      ms["intercept"], None, True, ms["label"])
        if dense:
            _locality(res, config, lattice, tag, dense)
        elif "locality" in groups:
            res.skip(tag, None, "locality needs the dense oracle",
                     ("locality",))
    return _write_outputs(res, config, out)


def _wavepackets(res: _Outputs, config: ScanConfig, lattice: Lattice,
                 tag: str) -> list:
    """The WavepacketWeights of the usable targets."""
    if config.p_values == "auto":
        p_targets = [auto_p_target(lattice)]
    else:
        p_targets = list(config.p_values)
    kappa = config.resolve_kappa([4 * p / 3 for p in p_targets])
    wavepackets = []
    for p in p_targets:
        try:
            wavepackets.append(build_f(WavepacketSpec(p, kappa), lattice))
        except (EmptySupportError, ValueError) as exc:
            res.skip(tag, p, str(exc), ("bounds", "dispersion", "qmode"))
    return wavepackets


def _auto_filter(ctx: Context, wp: WavepacketWeights, config: ScanConfig):
    """(GFilter, v_min) for one (lattice, B), or the EpsilonChoiceError that
    says why there is none: epsilon from the sum-rule bracket unless pinned
    in the config."""
    if config.filter_epsilon == "auto":
        try:
            v_min, eps = choose_epsilon(ctx.m_B, wp, ctx.lattice,
                                        config.gamma, config.delta_gamma)
        except EpsilonChoiceError as exc:
            return exc
    else:
        eps = float(config.filter_epsilon)
        v_min = eps / wp.spec.annulus_radius
    return GFilter(eps, config.gamma, config.delta_gamma), v_min


def _point(res: _Outputs, config: ScanConfig, ctx: Context, tag: str,
           wavepackets) -> None:
    """The bounds and dispersion/qmode stages of one (lattice, B): one filter
    choice per wavepacket, and one `forms` call for all their keys."""
    filters = [_auto_filter(ctx, wp, config) for wp in wavepackets]
    wanted, groups = [], set(config.checks)
    for wp, chosen in zip(wavepackets, filters):
        keys = filter_keys(ctx.lattice, wp, groups)
        groups.discard("bounds")    # the suite runs at the first wavepacket
        if keys and not isinstance(chosen, EpsilonChoiceError):
            wanted.append((chosen[0], keys))
    forms = ctx.forms(wanted)
    if "bounds" in config.checks:
        spec, chosen = wavepackets[0].spec, filters[0]
        if isinstance(chosen, EpsilonChoiceError):
            res.skip(tag, spec.p, f"bounds: {chosen}", ("bounds",), B=ctx.B)
        else:
            lattice = ctx.lattice
            for e in bound_report(ctx, forms, *chosen, spec.annulus_radius):
                res.row("bounds", lattice=tag, spin=lattice.spin, B=ctx.B,
                        name=e.name, axis=e.axis, n=_label(e.momentum),
                        k=_kcols(lattice, e.momentum), lhs=e.lhs, rhs=e.rhs,
                        margin=e.margin, tolerance=e.tolerance, kind=e.kind,
                        passed=e.passed, note=e.note)
    if {"dispersion", "qmode"} & set(config.checks):
        for wp, chosen in zip(wavepackets, filters):
            if isinstance(chosen, EpsilonChoiceError):
                res.skip(tag, wp.spec.p, str(chosen), ("dispersion", "qmode"),
                         B=ctx.B)
            else:
                _dispersion(res, config, ctx, forms, tag, wp, *chosen)


def _dispersion(res: _Outputs, config: ScanConfig, ctx: Context,
                forms: dict, tag: str, wp: WavepacketWeights, g: GFilter,
                v_min: float) -> None:
    """Filter samples, wavepacket records and the qmode trend at one
    wavepacket."""
    lattice, B, tol = ctx.lattice, ctx.B, config.tolerances.algebraic
    window = np.linspace(0.0, 1.2 * g.gamma, 241)
    annulus = np.linspace(0.0, 1.25 * wp.spec.annulus_radius, 241)
    for kind, xs, ys in (("window", window, g(window)),
                         ("annulus", annulus, wp.spec.profile(annulus))):
        for arg, val in zip(xs, ys):
            res.row("filter_samples", lattice=tag, B=B, p_target=wp.spec.p,
                    kind=kind, argument=arg, value=val)
    modes = [mode for group, mode in (("dispersion", "zero"),
                                      ("qmode", "staggered"))
             if group in config.checks]
    try:
        records = [excitation_energy(ctx, forms, wp, g, v_min, mode)
                   for mode in modes]
    except VanishingDenominatorError as exc:
        res.skip(tag, wp.spec.p, str(exc), ("dispersion", "qmode"), B=B)
        return
    for rec in records:
        group = "dispersion" if rec.mode == "zero" else "qmode"
        eps = rec.epsilon
        res.check(group, "delta_e_window", tag, B, rec.delta_e, eps,
                  eps - ORDERING_SLACK <= rec.delta_e
                  <= rec.gamma + ORDERING_SLACK,
                  f"window [{eps:.6g}, {rec.gamma:.6g}]")
        if rec.cross_momentum_max is not None:
            res.check(group, "cross_momentum", tag, B,
                      rec.cross_momentum_max, tol,
                      rec.cross_momentum_max <= tol)
        # every dispersion column between the lattice and ms_intercept is
        # a record field of the same name
        res.row("dispersion", lattice=tag, **{
            c: getattr(rec, c) for c in _COLUMNS["dispersion"][2:-1]})
        for pk in rec.per_k:
            res.row("dispersion_per_k", lattice=tag, B=B, mode=rec.mode,
                    p_target=rec.p_target, n=_label(pk.momentum),
                    k=_kcols(lattice, pk.momentum), weight=pk.weight,
                    num_k=pk.num_k, den_k=pk.den_k)
    if len(records) == 2:
        diff = records[0].delta_e - records[1].delta_e
        res.check("qmode", "delta_e_ordering", tag, B, diff, -ORDERING_SLACK,
                  diff > -ORDERING_SLACK,
                  "zero-mode above staggered-mode (slack 1e-6)")
    if "qmode" in config.checks:
        trend = qmode_trend(ctx, forms, g)
        for (e_val, n, den_k) in trend:
            res.row("qmode_trend", lattice=tag, B=B, dispersion=e_val,
                    n=_label(n), k=_kcols(lattice, n), den_k=den_k)
        # a finite-size trend, recorded with its value; it is not a
        # finite-volume inequality and sets no exit code
        steps = [d1 - d2 for (_, _, d1), (_, _, d2) in zip(trend, trend[1:])]
        if steps:
            trend_is = ("decreases" if min(steps) > -ORDERING_SLACK
                        else "does not decrease")
            res.check("qmode", "trend_den_decreasing", tag, B, min(steps),
                      None, True,
                      f"trend - den_k {trend_is} as the dispersion grows "
                      "(value: smallest step); a finite-size trend, not a "
                      "finite-volume inequality")


def _ladder_checks(res: _Outputs, tag: str, fields, tol: float) -> None:
    """The ladder descends in B, so m_B must not increase along it; E0 must
    be concave in B; both to within `tol`.  `fields` holds (B, E0, m_B) per
    field."""
    bs, es, ms = zip(*fields)
    res.check("bounds", "m_B_nondecreasing_in_B", tag, None, None, None,
              all(hi >= lo - tol for hi, lo in zip(ms, ms[1:])))
    if len(fields) >= 3:
        worst = max((es[i] - es[i + 1]) / (bs[i] - bs[i + 1])
                    - (es[i + 1] - es[i + 2]) / (bs[i + 1] - bs[i + 2])
                    for i in range(len(bs) - 2))
        res.check("bounds", "e0_concave_in_B", tag, None, worst, tol,
                  worst <= tol)


def _locality(res: _Outputs, config: ScanConfig, lattice: Lattice, tag: str,
              contexts: list[DenseContext]) -> None:
    g = GFilter(config.locality_epsilon, config.locality_gamma,
                config.locality_delta_gamma)
    # S^(2) is the real S_x matrix (`operators.SECTOR_AXES`) and H is real,
    # so every locality matrix stays real
    a = site_spin_operator(lattice, 0, 2).to_dense()
    ctx, tol = contexts[len(contexts) // 2], config.tolerances.algebraic

    smeared = tau_g_star(ctx.dense, g, a)
    phi0 = ctx.gs.vector
    defect = float(np.linalg.norm(smeared @ phi0
                                  - ctx.filtered_vector(g, a @ phi0)))
    res.check("locality", "smeared_action_identity", tag, ctx.B, defect,
              tol, defect <= tol)

    ball = lattice.ball(0, 1)
    once = local_approximation(smeared, ball, lattice)
    twice = local_approximation(once, ball, lattice)
    idem = support_norm(once - twice, ball, lattice)
    res.check("locality", "partial_trace_idempotent", tag, ctx.B, idem,
              1e-12, idem <= 1e-12)
    contraction = support_norm(once, ball, lattice) - operator_norm(smeared)
    res.check("locality", "partial_trace_contractive", tag, ctx.B,
              contraction, 1e-12, contraction <= 1e-12)

    deltas, norms, fit = delta_decomposition(smeared, lattice)
    recon = operator_norm(sum(deltas) - smeared)
    res.check("locality", "telescoping_reconstruction", tag, ctx.B, recon,
              tol, recon <= tol)
    for m, v in enumerate(norms):
        res.row("locality_profiles", lattice=tag, kind="delta_shell",
                x=float(m), y=None, norm=v, envelope=fit.envelope(m))

    lr = lr_commutator_profile(ctx.dense, lattice, config.locality_times, a)
    by_time: dict[float, list] = {}
    for (t, d, v) in lr.samples:
        res.row("locality_profiles", lattice=tag, kind="lr_commutator", x=t,
                y=d, norm=v, envelope=lr.envelope(t, d))
        by_time.setdefault(t, []).append((d, v))
    for t, pairs in sorted(by_time.items()):
        pairs.sort()
        vals = [v for _, v in pairs]
        decreasing = all(a > b for a, b in zip(vals, vals[1:]))
        res.check("locality", "lr_distance_decreasing", tag, None, t, None,
                  decreasing, f"t={t}")

    samples, ratio = b_continuity(lattice, g,
                                  [(c.B, c.dense) for c in contexts], a)
    top = max(r for _, r in samples)
    for (b, r) in samples:
        res.row("locality_profiles", lattice=tag, kind="b_continuity", x=b,
                y=None, norm=r, envelope=top)
    res.check("locality", "b_continuity_ratio", tag, None, ratio, 4.0,
              ratio <= 4.0)


def _inconclusive(res: _Outputs, groups) -> list:
    """The enabled groups with an uncertified point or no entry (no bound
    row for "bounds", no dispersion record of its mode for "dispersion" and
    "qmode", no check for "locality"), each with the reason."""
    modes = [r["mode"] for r in res.rows["dispersion"]]
    produced = {"bounds": bool(res.rows["bounds"]),
                "dispersion": "zero" in modes, "qmode": "staggered" in modes,
                "locality": any(c["group"] == "locality" for c in res.checks)}
    why = {g: "; ".join(sorted({s["reason"] for s in res.skipped
                                if g in s["groups"]})) for g in groups}
    errors = {g: "; ".join(sorted({s["reason"] for s in res.skipped
                                   if g in s["groups"] and "error" in s}))
              for g in groups}
    return [{"group": g, "reason": errors[g] or "no entry checked: "
             + (why[g] or "no point reached it")}
            for g in sorted(groups) if errors[g] or not produced[g]]


def _write_outputs(res: _Outputs, config: ScanConfig, out: Path) -> ScanResult:
    """The CSVs, manifest.json, and failures.json when a check failed or a
    point was not certified."""
    import scipy    # for its version alone: kept off start-up
    for stem, columns in _COLUMNS.items():
        _write_csv(out / f"{stem}.csv", res.rows[stem], columns)
    bound_failures = res.bound_failures()
    check_failures = [c for c in res.checks if not c["passed"]]
    inconclusive = _inconclusive(res, config.checks)
    exit_code = 1 if bound_failures or check_failures else \
        3 if inconclusive else 0
    manifest = {
        "config_hash": res.cfg_hash,
        "config_text": config.raw_text,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {
            "goldstone": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba_kernels": bool(use_numba),
            "numba_available": bool(HAVE_NUMBA),
            "openblas_num_threads": blas_threads(),
        },
        "checks": res.checks,
        "summary": {
            "bound_entries": len(res.rows["bounds"]),
            "bound_failures": len(bound_failures),
            "check_entries": len(res.checks),
            "check_failures": len(check_failures),
            "dispersion_records": len(res.rows["dispersion"]),
            "skipped": res.skipped,
            "inconclusive": inconclusive,
            "exit_code": exit_code,
            "all_passed": exit_code == 0,
        },
        "solver_stats": res.solver_stats,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    uncertified = [s for s in res.skipped if "error" in s]
    if exit_code == 1 or uncertified:
        index = {
            "bound_failures": [
                {k: _fmt(v) for k, v in row.items()} for row in bound_failures],
            "check_failures": check_failures,
            "uncertified": uncertified,
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


def _write_csv(path: Path, rows: list, columns: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])

