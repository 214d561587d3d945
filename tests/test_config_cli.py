import configparser
import csv
import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import goldstone.cli
import goldstone.operators
import goldstone.runner
from goldstone.analysis import (EpsilonChoiceError, SystemContext,
                                filter_keys)
from goldstone.cli import main
from goldstone.config import (_KEYS, _SCHEMA, ConfigError, ScanConfig,
                              auto_p_target, parse_config_text)
from goldstone.eigensolver import row_sum_bound
from goldstone.lattice import Lattice
from goldstone.operators import build_hamiltonian, pair_ceiling
from goldstone.runner import run_scan

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

SMOKE = """
[scan]
checks = bounds
lattices = 2x2
b_ladder = 0.2 0.1

[wavepacket]
p = auto
kappa = auto
"""

FULL = """
[scan]
checks = bounds dispersion qmode locality
lattices = 2x2
spin = 0.5
b_ladder = 0.2 0.1 0.05
dense_cap = 4096
jobs = 1
seed = 7

[wavepacket]
p = auto
kappa = auto

[filter]
epsilon = auto
gamma = 3.0
delta_gamma = 0.5

[locality]
epsilon = 0.2
gamma = 3.0
delta_gamma = 0.5
times = 0.25 0.5 1.0

[tolerances]
algebraic = 1e-10
resolvent = 1e-8
solver = 1e-10
"""


def test_parse_full_config():
    cfg = parse_config_text(FULL)
    assert cfg.lattices == [(2, 2)]
    assert cfg.b_ladder == [0.2, 0.1, 0.05]
    assert cfg.checks == ("bounds", "dispersion", "qmode", "locality")
    assert cfg.tolerances.algebraic == 1e-10
    assert cfg.locality_times == (0.25, 0.5, 1.0)


def test_unknown_key_is_error():
    with pytest.raises(ConfigError, match=r"unknown key 'tolerence'"):
        parse_config_text("[tolerances]\ntolerence = 1e-8\n")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        parse_config_text("[misc]\nx = 1\n")
    with pytest.raises(ConfigError,
                       match=r"unknown key 'cache_dir' in section \[scan\]"):
        parse_config_text("[scan]\ncache_dir = x\n")


def test_empty_checks_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[scan]\nchecks =\n")


def test_ladder_validation():
    with pytest.raises(ConfigError, match="descending"):
        parse_config_text("[scan]\nb_ladder = 0.1 0.2\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config_text("[scan]\nb_ladder = 0.2 0.0\n")


def test_p_below_kappa_required():
    with pytest.raises(ConfigError, match="kappa"):
        parse_config_text("[wavepacket]\np = 2.0\nkappa = 1.5\n")


def test_annulus_radius_below_kappa_required(tmp_path, capsys):
    """p < kappa, but the annulus radius 4p/3 = 2.67 is not: the scan stops
    on one error line before any work, not on a skipped wavepacket."""
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[scan]\nchecks = dispersion\nlattices = 2x4\n"
                        "[wavepacket]\np = 2.0\nkappa = 2.5\n")
    code = main(["scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "4p/3 must stay below kappa" in err
    assert not (tmp_path / "out").exists()


def test_epsilon_window_validation():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text("[filter]\nepsilon = 1.4\ngamma = 3.0\n"
                          "delta_gamma = 0.5\n")


def test_bad_lattice_token():
    with pytest.raises(ConfigError, match="lattice token"):
        parse_config_text("[scan]\nlattices = 2xq\n")


def test_auto_p_target():
    assert auto_p_target(Lattice((2, 2))) == pytest.approx(np.pi)
    assert auto_p_target(Lattice((2, 4))) == pytest.approx(np.pi / 2)


def test_bounds_only_scan_passes(tmp_path):
    cfg = parse_config_text(SMOKE)
    result = run_scan(cfg, out_dir=tmp_path / "out")
    assert result.exit_code == 0
    assert (tmp_path / "out" / "bounds.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["summary"]["all_passed"]
    assert manifest["summary"]["bound_entries"] > 0
    assert not (tmp_path / "out" / "failures.json").exists()


def test_algebraic_tolerance_is_every_rounding_level_threshold(tmp_path):
    """[tolerances] algebraic is the threshold of the sum-rule and
    double-commutator rows and of every rounding-level manifest check; the
    partial-trace checks keep their stricter 1e-12."""
    cfg = parse_config_text(FULL.replace("algebraic = 1e-10",
                                         "algebraic = 1e-9"))
    result = run_scan(cfg, out_dir=tmp_path)
    assert result.exit_code == 0
    thresholds = {}
    for c in result.manifest["checks"]:
        thresholds.setdefault(c["name"], set()).add(c["threshold"])
    for name in ("cross_momentum", "smeared_action_identity",
                 "telescoping_reconstruction", "e0_concave_in_B"):
        assert thresholds[name] == {1e-9}, name
    assert thresholds["partial_trace_idempotent"] == {1e-12}
    with open(tmp_path / "bounds.csv", newline="") as fh:
        assert {r["tolerance"] for r in csv.DictReader(fh)
                if r["name"] in ("sum_rule", "double_commutator")} == {"1e-09"}
    # m_B may rise along the descending ladder by no more than the tolerance
    for tol, passed in ((1e-9, True), (1e-10, False)):
        res = goldstone.runner._Outputs("hash")
        goldstone.runner._ladder_checks(
            res, "2x2", [(0.2, -1.0, 0.3), (0.1, -0.9, 0.3 + 5e-10)], tol)
        assert [c["passed"] for c in res.checks] == [passed]


def _plant_irb_failure(monkeypatch, field=None):
    """Make the first irb entry of every bound report (or only of the one at
    B = field) fail, its left side raised by one."""
    original = goldstone.runner.bound_report

    def planted(ctx, *args, **kwargs):
        report = original(ctx, *args, **kwargs)
        if field is not None and ctx.B != field:
            return report
        i = next(i for i, e in enumerate(report) if e.name == "irb")
        e = report[i]
        report[i] = replace(e, lhs=e.lhs + 1.0, margin=e.margin - 1.0,
                            passed=False)
        return report

    monkeypatch.setattr(goldstone.runner, "bound_report", planted)


def test_failing_entry_fails_and_is_named(tmp_path, monkeypatch):
    _plant_irb_failure(monkeypatch)
    result = run_scan(parse_config_text(SMOKE), out_dir=tmp_path / "out")
    assert result.exit_code == 1
    index = json.loads((tmp_path / "out" / "failures.json").read_text())
    names = {row["name"] for row in index["bound_failures"]}
    assert names == {"irb"}


TWO_LATTICES = SMOKE.replace("lattices = 2x2", "lattices = 2x2 2x4")


@pytest.mark.parametrize("fail_fast", [False, True])
def test_fail_fast_stops_after_the_failing_point(tmp_path, monkeypatch,
                                                 fail_fast):
    _plant_irb_failure(monkeypatch)
    result = run_scan(parse_config_text(TWO_LATTICES), out_dir=tmp_path,
                      fail_fast=fail_fast)
    assert result.exit_code == 1
    with open(tmp_path / "bounds.csv", encoding="utf-8", newline="") as fh:
        points = {(r["lattice"], r["B"]) for r in csv.DictReader(fh)}
    if fail_fast:
        assert points == {("2x2", "0.2")}
        assert result.manifest["checks"] == []
    else:
        assert points == {(lat, b) for lat in ("2x2", "2x4")
                          for b in ("0.2", "0.1")}


def _track_contexts(monkeypatch) -> list:
    """[(B, weakref, [whether each context built before is alive])] of every
    SystemContext that run_scan builds, the flags taken after gc.collect()
    just before the context is built."""
    built = []

    def tracked(lattice, B, **kwargs):
        gc.collect()
        alive = [ref() is not None for _, ref, _ in built]
        ctx = SystemContext(lattice, B, **kwargs)
        built.append((B, weakref.ref(ctx), alive))
        return ctx

    monkeypatch.setattr(goldstone.runner, "SystemContext", tracked)
    return built


def test_fail_fast_at_a_later_field_skips_the_ladder(tmp_path, monkeypatch):
    """A failure at the third of four fields ends the scan there, without
    the m_B extrapolation over the fields that never ran, and without
    building the context of the fourth."""
    _plant_irb_failure(monkeypatch, field=0.1)
    built = _track_contexts(monkeypatch)
    text = SMOKE.replace("bounds", "bounds dispersion").replace(
        "b_ladder = 0.2 0.1", "b_ladder = 0.4 0.2 0.1 0.05")
    result = run_scan(parse_config_text(text), out_dir=tmp_path,
                      fail_fast=True)
    assert result.exit_code == 1
    assert [s["B"] for s in result.manifest["solver_stats"]] == [0.4, 0.2, 0.1]
    assert [B for B, _, _ in built] == [0.4, 0.2, 0.1]
    names = {c["name"] for c in result.manifest["checks"]}
    assert names == {"delta_e_window", "cross_momentum"}


def test_scan_determinism(tmp_path):
    cfg = parse_config_text(FULL)
    run_scan(cfg, out_dir=tmp_path / "a")
    run_scan(cfg, out_dir=tmp_path / "b")
    for name in ("bounds.csv", "dispersion.csv", "dispersion_per_k.csv",
                 "qmode_trend.csv", "locality_profiles.csv",
                 "filter_samples.csv"):
        body = (tmp_path / "a" / name).read_bytes()
        assert body == (tmp_path / "b" / name).read_bytes(), name


# a three-field ladder on 2x4 (256 states) forced onto the sparse path
SPARSE_LADDER = """
[scan]
checks = bounds dispersion qmode
lattices = 2x4
b_ladder = 0.4 0.2 0.1
dense_cap = 100
"""


def test_ladder_runs_the_orbit_passes_of_m0_and_m1_once(tmp_path,
                                                        monkeypatch):
    """The fields of a sparse ladder share the rows of M = 0 and +-1: the
    orbit passes of those pairs run once per lattice, those of M = 2 .. 4
    once per field (the ground-sector check); and the CSV bodies equal
    those of a scan whose operator caches are cleared before each field."""
    cfg = parse_config_text(SPARSE_LADDER)
    goldstone.operators.shared_rows.cache_clear()
    orbit_pass, passes = goldstone.operators._orbit_pass, Counter()

    def counted(spec, M):
        passes[M] += 1
        return orbit_pass(spec, M)

    monkeypatch.setattr(goldstone.operators, "_orbit_pass", counted)
    run_scan(cfg, out_dir=tmp_path / "shared")
    assert passes == {0: 1, 1: 1, 2: 3, 3: 3, 4: 3}

    def fresh(*args, **kwargs):
        for fn in vars(goldstone.operators).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        return SystemContext(*args, **kwargs)

    monkeypatch.setattr(goldstone.runner, "SystemContext", fresh)
    run_scan(cfg, out_dir=tmp_path / "fresh")
    assert passes == {0: 4, 1: 4, 2: 6, 3: 6, 4: 6}
    for path in sorted((tmp_path / "shared").glob("*.csv")):
        assert path.read_bytes() == \
            (tmp_path / "fresh" / path.name).read_bytes(), path.name


@pytest.mark.parametrize("text,keep", [
    (SPARSE_LADDER, False),
    (FULL.replace("bounds dispersion qmode locality", "bounds"), False),
    (FULL, True)], ids=["sparse", "dense", "dense-locality"])
def test_contexts_live_only_as_long_as_a_later_stage_reads_them(
        tmp_path, monkeypatch, text, keep):
    """run_scan builds each field's context when its point runs.  A sparse
    context, or a dense one without the locality suite, is dead by the time
    the next field's is built; with locality on a dense lattice the
    contexts stay alive until _locality has run."""
    built = _track_contexts(monkeypatch)
    locality, seen = goldstone.runner._locality, []

    def checked(*args):
        gc.collect()
        seen.append([ref() is not None for _, ref, _ in built])
        return locality(*args)

    monkeypatch.setattr(goldstone.runner, "_locality", checked)
    run_scan(parse_config_text(text), out_dir=tmp_path)
    assert [alive for _, _, alive in built] == \
        [[keep] * i for i in range(len(built))]
    assert len(built) == 3
    assert seen == ([[True] * 3] if keep else [])


def test_k_columns_are_numbers(tmp_path):
    run_scan(parse_config_text(FULL), out_dir=tmp_path)
    seen = 0
    for path in sorted(tmp_path.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if "k" in row:
                    assert len([float(x) for x in row["k"].split(";")]) == 2, \
                        (path.name, row["k"])
                    seen += 1
    assert seen > 0


# 2x2 forced onto the Lanczos + Chebyshev path by a dense cap below its
# dimension (16)
SPARSE_22 = """
[scan]
checks = bounds dispersion
lattices = 2x2
b_ladder = 0.2
dense_cap = 8

[wavepacket]
p = auto
kappa = auto
"""


def test_sparse_scan_reports_solver_stats(tmp_path, monkeypatch):
    # a scan reads no GOLDSTONE_CACHE_DIR: it leaves that directory empty
    # and writes only its own artifacts
    unused = tmp_path / "unused"
    unused.mkdir()
    monkeypatch.setenv("GOLDSTONE_CACHE_DIR", str(unused))
    cfg = parse_config_text(SPARSE_22)
    out = tmp_path / "out"
    result = run_scan(cfg, out_dir=out)
    assert result.exit_code == 0
    assert not list(unused.iterdir())
    assert sorted(p.name for p in out.iterdir()) == [
        "bounds.csv", "dispersion.csv", "dispersion_per_k.csv",
        "filter_samples.csv", "locality_profiles.csv", "manifest.json",
        "qmode_trend.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    (stats,) = manifest["solver_stats"]
    assert (stats["lattice"], stats["B"], stats["path"]) == ("2x2", 0.2, "sparse")
    assert "Weyl bound" in stats["interval_source"]
    lo, hi = stats["interval"]
    assert hi == pair_ceiling(Lattice((2, 2)), 0.2)
    assert lo < hi
    blocks = stats["blocks"]
    # M = 0 holds 6 states in 4 orbits, M = +-1 8 states in 2 orbits
    assert (blocks["ground"]["M"], blocks["ground"]["q"]) == (0, [0, 0])
    assert blocks["ground"]["dim"] == 4
    # the Lanczos residual, within ten times its target
    H = build_hamiltonian(Lattice((2, 2)), 0.2, (0, (0, 0)))
    residual = blocks["ground"]["residual"]
    assert np.isfinite(residual)
    assert residual <= 10 * cfg.tolerances.solver * max(1.0, row_sum_bound(H))
    assert [(s["M"], s["q"], s["dim"]) for s in blocks["lowest"]] == \
        [(1, [0, 0], 2), (2, [0, 0], 1)]
    assert blocks["ground_gap"] > 0.5
    assert lo < blocks["lowest"][0]["ritz"]
    (expansion,) = stats["expansions"]
    assert expansion["den_sup_error"] <= 1e-8
    assert expansion["num_sup_error"] <= 1e-8 * expansion["gamma"]
    # the dispersion records reuse the moments of the bounds pass: the two
    # window momenta of the 2x2 grid, each in its own twisted-momentum block
    (moment_pass,) = stats["moment_passes"]
    assert moment_pass["vectors"] == 2
    blocks = moment_pass["blocks"]
    assert sorted(b["q"] for b in blocks) == [[0, 1], [1, 0]]
    assert moment_pass["dim"] == sum(b["dim"] for b in blocks)
    assert all(0 < b["dim"] and 0 < b["nnz"] for b in blocks)
    assert moment_pass["vectors"] == len(blocks)
    assert moment_pass["moments"] == 1 + max(expansion["den_degree"],
                                             expansion["num_degree"])
    assert moment_pass["block_matvecs"] == moment_pass["moments"] // 2
    assert moment_pass["max_moment_ratio"] <= 1.0 + 1e-10
    for name in ("bounds.csv", "dispersion.csv", "dispersion_per_k.csv"):
        assert "solver" not in (out / name).read_text()


@pytest.mark.parametrize("checks", [
    pytest.param("dispersion qmode", id="dispersion-qmode"),
    pytest.param("bounds dispersion qmode", id="bounds-dispersion-qmode")])
def test_one_moment_pass_for_dispersion_and_qmode(tmp_path, checks):
    config = parse_config_text(SPARSE_22.replace(
        "checks = bounds dispersion", f"checks = {checks}"))
    result = run_scan(config, out_dir=tmp_path)
    assert result.exit_code == 0
    (stats,) = result.manifest["solver_stats"]
    # one vector per distinct key of the point: the zero-mode, staggered-mode
    # and trend vectors of the 2x2 grid (and the window momenta) are all
    # four momenta, whose blocks together span the 8 states of M = +-1
    lat = Lattice((2, 2))
    (wp,) = goldstone.runner._wavepackets(goldstone.runner._Outputs(""),
                                          config, lat, "2x2")
    keys = filter_keys(lat, wp, set(config.checks))
    (moment_pass,) = stats["moment_passes"]
    assert moment_pass["vectors"] == len(set(keys)) == 4
    assert len(moment_pass["blocks"]) == 4
    assert moment_pass["dim"] == 8


def test_qmode_trend_is_recorded_not_asserted(tmp_path, monkeypatch):
    """A den_k trend that grows with the dispersion is a finite-size fact,
    recorded with its value; it does not fail the scan."""
    def rising(ctx, forms, g):
        return [(1.0, (1, 0), 0.1), (2.0, (1, 1), 0.3)]

    monkeypatch.setattr(goldstone.runner, "qmode_trend", rising)
    result = run_scan(parse_config_text(FULL.replace(
        "bounds dispersion qmode locality", "qmode")), out_dir=tmp_path)
    assert result.exit_code == 0
    trends = [c for c in result.manifest["checks"]
              if c["name"] == "trend_den_decreasing"]
    assert len(trends) == 3          # one per field of the ladder
    for c in trends:
        assert c["value"] == pytest.approx(-0.2)
        assert c["passed"] and "not a finite-volume inequality" in c["note"]


def test_mode_ordering_is_recorded_not_asserted(tmp_path):
    """On ring 6 the zero-mode Delta E lies 0.166 below the staggered-mode
    one on the exact dense oracle: the ordering is a finite-size trend, so
    its negative value is recorded and the scan exits 0."""
    result = run_scan(parse_config_text(
        "[scan]\nchecks = dispersion qmode\nlattices = 6\n"
        "b_ladder = 0.2\n"), out_dir=tmp_path)
    assert result.exit_code == 0
    (ordering,) = [c for c in result.manifest["checks"]
                   if c["name"] == "delta_e_ordering"]
    assert ordering["value"] == pytest.approx(-0.166, abs=1e-3)
    assert ordering["passed"] and ordering["threshold"] is None
    assert ordering["note"].startswith("trend - zero-mode Delta E below")


def test_cli_scan_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMOKE)
    code = main(["bounds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    code = main(["report", "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.parametrize("numpy_first", [False, True])
@pytest.mark.parametrize("threads", [None, "2"])
def test_scan_defaults_to_one_blas_thread(tmp_path, threads, numpy_first):
    """A scan process runs on one OpenBLAS thread unless the caller set
    OPENBLAS_NUM_THREADS, whether or not numpy was imported before goldstone,
    and the manifest records the count OpenBLAS reports."""
    cfg_path = tmp_path / "smoke.ini"
    cfg_path.write_text(SMOKE)
    # this session imported goldstone, which set the variable here too
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    package_root = str(Path(goldstone.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    entry = (["-c", "import sys, numpy, goldstone.cli; "
              "sys.exit(goldstone.cli.main(sys.argv[1:]))"]
             if numpy_first else ["-m", "goldstone.cli"])
    subprocess.run([sys.executable, *entry, "scan", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")],
                   env=env, check=True, capture_output=True, timeout=300)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # OpenBLAS runs on no more threads than the process has CPUs
    cpus = len(os.sched_getaffinity(0))
    expected = 1 if threads is None else min(int(threads), cpus)
    assert manifest["versions"]["openblas_num_threads"] == expected


UNCERTIFIED = """
[scan]
checks = dispersion
lattices = 2x2
b_ladder = 0.2
dense_cap = 0
seed = 7

[filter]
chebyshev_tol = 1e-15
"""


def test_point_the_filter_cannot_certify_is_inconclusive(tmp_path, capsys):
    """A tolerance the config accepts but no expansion reaches below the
    degree cap: the point is skipped with the FilterDegreeError named, the
    scan writes its manifest and exits 3, not 1 with a traceback."""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(UNCERTIFIED)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg_path), "--out", str(out)]) == 3
    printed = capsys.readouterr().out
    assert "inconclusive: dispersion: a point was not certified: " \
        "FilterDegreeError: " in printed
    manifest = json.loads((out / "manifest.json").read_text())
    (skip,) = manifest["summary"]["skipped"]
    assert (skip["B"], skip["error"]) == (0.2, "FilterDegreeError")
    index = json.loads((out / "failures.json").read_text())
    assert index["uncertified"] == [skip]


def test_uncertified_point_keeps_what_its_context_solved(tmp_path):
    """The FilterDegreeError comes after the context was built: the manifest
    keeps that context's statistics (ground block, sector Ritz values and
    interval), marked with the error."""
    result = run_scan(parse_config_text(UNCERTIFIED), out_dir=tmp_path)
    assert result.exit_code == 3
    (stats,) = result.manifest["solver_stats"]
    assert (stats["B"], stats["path"], stats["error"]) == \
        (0.2, "sparse", "FilterDegreeError")
    assert stats["blocks"]["ground"]["q"] == [0, 0]
    assert [s["M"] for s in stats["blocks"]["lowest"]] == [1, 2]
    lo, hi = stats["interval"]
    assert lo < stats["blocks"]["lowest"][0]["ritz"] < hi
    assert stats["expansions"] == []


def test_out_naming_a_file_is_an_error_before_any_scan(tmp_path, capsys,
                                                        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scan work for an unusable output directory")

    monkeypatch.setattr(goldstone.cli, "run_scan", refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["scan", "--config", str(ROOT / "configs" / "desk.ini"),
                 "--out", str(taken)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[scan]\nchecks = nonsense\n")
    code = main(["scan", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-cache", "--cache", str(tmp_path)])
    assert exc.value.code == 2
    # a config that is not UTF-8 is a config error that names the file
    capsys.readouterr()
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[scan]\n# caf\xe9\nchecks = bounds\n")
    code = main(["scan", "--config", str(latin1), "--out",
                 str(tmp_path / "latin1")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "latin1.ini" in line
    assert not (tmp_path / "latin1").exists()


@pytest.mark.parametrize("text", ["[]", "{}", "{not json"])
def test_report_rejects_what_is_not_a_manifest(tmp_path, capsys, text):
    """A manifest.json that is not a scan manifest, or not JSON, is an
    error: exit 2 with one error line naming the file, no report lines."""
    (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "manifest.json" in line


@pytest.mark.parametrize("section,key,value", [
    ("scan", "spin", "abc"),
    ("scan", "lattices", "3x4"),
    ("locality", "axis", "5"),
    ("locality", "delta_gamma", "0"),
    ("locality", "epsilon", "2.0"),
    ("locality", "times", "0.5 0.5"),
    ("locality", "times", "0.0"),
    ("locality", "times", "-0.5 1.0"),
    ("filter", "epsilon", "-0.1"),
    ("filter", "delta_gamma", "-1"),
    ("filter", "v_min_ladder", "-0.5"),
    ("filter", "v_min_ladder", ""),
    ("filter", "gamma", "-1"),
    ("filter", "gamma", "inf"),
    ("locality", "gamma", "inf"),
    ("filter", "chebyshev_tol", "0"),
    ("filter", "chebyshev_tol", "-1"),
    ("filter", "chebyshev_tol", "inf"),
    ("filter", "chebyshev_tol", "1"),
    ("filter", "chebyshev_tol", "5"),
    ("filter", "degree_cap", "0"),
    ("scan", "seed", "-1"),
    ("scan", "jobs", "2"),
    ("scan", "checks", "locality locality"),
    ("scan", "lattices", "2x4 2x4"),
    ("wavepacket", "p", "0.5 0.5"),
    ("scan", "cache_dir", "x"),
    ("scan", "lattices", ""),
    ("wavepacket", "p", ""),
    ("wavepacket", "p", "-1"),
    ("locality", "times", ""),
    ("wavepacket", "kappa", "0"),
    ("wavepacket", "kappa", "-1"),
    ("wavepacket", "kappa", "nan"),
    ("scan", "b_ladder", "nan"),
    ("scan", "b_ladder", "0.2 nan"),
    ("scan", "b_ladder", "inf"),
    ("scan", "spin", "inf"),
    ("tolerances", "algebraic", "-1"),
    ("tolerances", "algebraic", "nan"),
    ("tolerances", "resolvent", "-1"),
    ("tolerances", "solver", "-1"),
])
def test_malformed_value_is_a_config_error(tmp_path, capsys, section, key,
                                           value):
    sections = {"scan": {"checks": "bounds locality", "lattices": "2x2",
                         "b_ladder": "0.2"}, "wavepacket": {}, "filter": {},
                "locality": {}, "tolerances": {}}
    sections[section][key] = value
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    code = main(["scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("section,key,value", [
    ("scan", "out_dir", "out"),
    ("filter", "v_min_ladder", "0.5 0.25 0.1 0.05 0.025"),
    ("filter", "degree_cap", "32768"),
    ("locality", "axis", "2"),
])
def test_retired_key_is_a_config_error(tmp_path, capsys, section, key, value):
    """Keys that no shipped config set are gone: a config that sets one,
    even to its old default, gets one error line that names it."""
    cfg_path = tmp_path / "old.ini"
    cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
    code = main(["scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err and repr(key) in err


def test_scan_config_defaults_are_valid():
    ScanConfig()


NON_DEFAULT = {
    "scan": {"checks": "bounds", "lattices": "2x4", "spin": "1.0",
             "b_ladder": "0.3 0.1", "dense_cap": "100", "seed": "8"},
    "wavepacket": {"p": "0.5", "kappa": "2.0"},
    "filter": {"epsilon": "0.3", "gamma": "4.0", "delta_gamma": "0.6",
               "chebyshev_tol": "1e-6"},
    "locality": {"epsilon": "0.3", "gamma": "4.0", "delta_gamma": "0.6",
                 "times": "0.5 2.0"},
    "tolerances": {"algebraic": "1e-9", "resolvent": "1e-7",
                   "solver": "1e-9"},
}


# keys that accept one value only: `[scan] jobs = 1` still parses, because
# existing configs set it, and changes nothing
FIXED = {"scan": {"jobs": "1"}}


def test_every_schema_key_changes_the_config():
    """Each key is used or rejected: every key the schema accepts changes
    the parsed ScanConfig, except the fixed keys, which change nothing; and
    every field is reached by some key."""
    assert {s: set(keys) | set(FIXED.get(s, ())) for s, keys in
            NON_DEFAULT.items()} == _SCHEMA
    default = ScanConfig()
    assert parse_config_text("") == default
    for section, keys in FIXED.items():
        for key, value in keys.items():
            text = f"[{section}]\n{key} = {value}\n"
            assert parse_config_text(text) == replace(default, raw_text=text)
    reached = set()
    for section, keys in NON_DEFAULT.items():
        for key, value in keys.items():
            cfg = parse_config_text(f"[{section}]\n{key} = {value}\n")
            changed = {name for name in vars(default) if name != "raw_text"
                       and getattr(cfg, name) != getattr(default, name)}
            assert changed, (section, key)
            reached |= changed
    assert reached == set(vars(default)) - {"raw_text"}
    cfg = parse_config_text("[filter]\nchebyshev_tol = 1e-6\n")
    assert cfg.tolerances.chebyshev == 1e-6


def test_every_schema_key_is_set_by_a_shipped_config():
    """A key that no shipped config sets runs its default everywhere, so it
    is a constant, not a key."""
    used = set()
    for path in [*ROOT.glob("configs/*.ini"),
                 *ROOT.glob("perfbench/workloads/*.ini")]:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(path, encoding="utf-8")
        used |= {(s, key) for s in parser.sections() for key in parser[s]}
    assert set(_KEYS) - used == set()


def test_readme_config_block_is_the_schema_with_its_defaults():
    """The README's `ini` block parses to the default ScanConfig and names
    every key of the schema, and only those."""
    block = README.read_text(encoding="utf-8").split("```ini\n")[1] \
        .split("```")[0]
    assert replace(parse_config_text(block), raw_text="") == ScanConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    assert {s: set(parser[s]) for s in parser.sections()} == _SCHEMA


def test_lattice_without_wavepacket_keeps_locality(tmp_path):
    """p = 1.4 has no annulus momentum on 2x2 but has on 2x4.  The 2x2
    lattice skips only its wavepacket stages: its locality suite and m_B
    extrapolation still run, and the 2x4 dispersion row keeps the
    intercept of 2x4."""
    text = ("[scan]\nchecks = dispersion locality\nlattices = 2x4 2x2\n"
            "b_ladder = 0.4 0.2 0.1\n[wavepacket]\np = 1.4\n")
    result = run_scan(parse_config_text(text), out_dir=tmp_path / "both")
    assert result.exit_code == 0
    checks = result.manifest["checks"]
    assert {c["lattice"] for c in checks if c["group"] == "locality"} == \
        {"2x4", "2x2"}
    ms = {c["lattice"]: c["value"] for c in checks
          if c["name"] == "ms_extrapolation"}
    assert set(ms) == {"2x4", "2x2"} and ms["2x4"] != ms["2x2"]
    with open(tmp_path / "both" / "dispersion.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["lattice"] for r in rows} == {"2x4"}
    assert float(rows[-1]["ms_intercept"]) == ms["2x4"]
    alone = run_scan(parse_config_text(text.replace("2x4 2x2", "2x2")),
                     out_dir=tmp_path / "alone")
    assert alone.exit_code == 3
    assert [i["group"] for i in alone.manifest["summary"]["inconclusive"]] \
        == ["dispersion"]





@pytest.mark.parametrize("p_values", ["3.4 1.5707963267948966",
                                      "1.5707963267948966 3.4"])
def test_bounds_skip_keeps_dispersion_records(tmp_path, p_values):
    """p = 3.4 has no usable epsilon on 2x4.  When it is the first
    wavepacket, the bounds stage is skipped and reported inconclusive, but
    every wavepacket still gets its dispersion stage.  Each skip names the
    groups it blocks, and the bounds reason gives the bounds stage's own
    skip once, not the dispersion stage's skip of the same wavepacket."""
    text = ("[scan]\nchecks = bounds dispersion\nlattices = 2x4\n"
            f"b_ladder = 0.2\n[wavepacket]\np = {p_values}\n")
    result = run_scan(parse_config_text(text), out_dir=tmp_path / "out")
    with open(tmp_path / "out" / "dispersion.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["p_target"]) for r in rows] == [np.pi / 2]
    inconclusive = result.manifest["summary"]["inconclusive"]
    if p_values.startswith("3.4"):
        assert result.exit_code == 3
        (bounds,) = inconclusive
        assert bounds["group"] == "bounds"
        assert bounds["reason"].count("the annulus reaches") == 1
        assert [(s["p"], s["groups"]) for s in
                result.manifest["summary"]["skipped"]] == \
            [(3.4, ["bounds"]), (3.4, ["dispersion", "qmode"])]
    else:
        assert result.exit_code == 0 and not inconclusive


def test_scan_that_checked_nothing_is_inconclusive(tmp_path, monkeypatch,
                                                   capsys):
    """Every point skipped for a data-dependent EpsilonChoiceError: nothing
    failed, and nothing was checked, so the scan exits 3, names the groups
    and the reason, and prints INCONCLUSIVE."""
    def no_epsilon(*args, **kwargs):
        raise EpsilonChoiceError("planted: no ladder value")

    monkeypatch.setattr(goldstone.runner, "choose_epsilon", no_epsilon)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMOKE.replace("checks = bounds",
                                      "checks = bounds dispersion"))
    result = run_scan(parse_config_text(cfg_path.read_text()),
                      out_dir=tmp_path / "out")
    assert result.exit_code == 3
    summary = result.manifest["summary"]
    assert not summary["all_passed"]
    assert [i["group"] for i in summary["inconclusive"]] == \
        ["bounds", "dispersion"]
    assert all("planted" in i["reason"] for i in summary["inconclusive"])
    assert not (tmp_path / "out" / "failures.json").exists()
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "cli")]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "INCONCLUSIVE"
    assert main(["report", "--out", str(tmp_path / "cli")]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "INCONCLUSIVE"
