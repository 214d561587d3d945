#!/usr/bin/env python3
"""Benchmark of the goldstone scan.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a goldstone checkout.  Each scan is a fresh
`python -m goldstone.cli` process on the workload's config (from
perfbench/workloads/, with `seed` set to --seed), timed from spawn to exit.

--trace 0 reports the end-to-end metrics, each the median over the run:
  scan_s       wall time of one scan process
  setup_s      wall time of a fresh interpreter that imports goldstone and
               parses the workload config (five times, after one warm-up)
  cpu_s        user + system CPU time of one scan process
  peak_rss_mb  maximum resident set size of one scan process
--trace 1 runs untraced and traced scans (traced_scan.py) in pairs and reports
the per-layer metrics of the traced scans (medians) and trace.overhead_s.

A run makes --seconds // (nominal scan time) scans, at least one; a trace
run makes half as many pairs.  Every scan's CSV bodies must equal the
first's, byte for byte, and the first scan is checked against reference.py
(see checks.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Operations are the manifest's bound entries and checks plus the
benchmark's own assertions; `failed` counts the ones that failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
SETUP_REPEATS = 5
DEADLINE_S = 170.0

# name: (CLI command, config, nominal scan time in s).  The nominal time is
# the median scan_s measured when the workload was defined; a run makes
# seconds // nominal scans (at least one), so it lasts about --seconds on
# that machine and every run of a workload does the same work, whatever the
# speed of the machine or of the code.
WORKLOADS = {
    "desk": ("scan", "desk.ini", 1.8),
    "sparse-2x6": ("scan", "sparse-2x6.ini", 14.7),
    "torus4x4-dispersion": ("dispersion", "torus4x4-dispersion.ini", 20.6),
}
# reference eigensolves: full numpy spectrum up to this dimension, else eigsh
REFERENCE_DENSE_CAP = 4096


class Failure(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GOLDSTONE_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, log: Path, timeout: float) -> dict:
    """Spawn, wait, and return wall time, CPU time, peak RSS and exit code."""
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def seeded_config(name: str, seed: int, run_dir: Path) -> Path:
    text = (HERE / "workloads" / WORKLOADS[name][1]).read_text(encoding="utf-8")
    text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if count != 1:
        raise Failure(f"workload {name}: expected one seed line")
    path = run_dir / "config.ini"
    path.write_text(text, encoding="utf-8")
    return path


def measure_setup(config: Path, run_dir: Path, deadline: float) -> float:
    code = ("import goldstone.cli\n"
            "from goldstone.config import parse_config\n"
            f"parse_config({str(config)!r})\n")
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = run_process([sys.executable, "-c", code], run_dir / "setup.log",
                          deadline - time.perf_counter())
        if res["code"] != 0:
            raise Failure(f"setup failed, see {run_dir / 'setup.log'}")
        if i:  # the first one may compile bytecode
            times.append(res["wall"])
    return statistics.median(times)


class Scans:
    """Runs scans of one workload and keeps their timings and outputs."""

    def __init__(self, name: str, config: Path, run_dir: Path, deadline: float):
        self.command = WORKLOADS[name][0]
        self.config = config
        self.run_dir = run_dir
        self.deadline = deadline
        self.outputs: list[Path] = []
        self.program_ops = 0
        self.program_failures = 0

    def run(self, traced: bool) -> dict:
        out = self.run_dir / f"scan-{len(self.outputs)}"
        cli = [self.command, "--config", str(self.config), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_scan.py"),
                    str(out / "trace.json")] + cli
        else:
            argv = [sys.executable, "-m", "goldstone.cli"] + cli
        out.mkdir(parents=True)
        res = run_process(argv, out / "stdout.log",
                          self.deadline - time.perf_counter())
        manifest_path = out / "manifest.json"
        if res["code"] not in (0, 1) or not manifest_path.exists():
            raise Failure(f"scan exited {res['code']}, see {out / 'stdout.log'}")
        summary = json.loads(manifest_path.read_text())["summary"]
        self.program_ops += summary["bound_entries"] + summary["check_entries"]
        self.program_failures += (summary["bound_failures"]
                                  + summary["check_failures"])
        self.outputs.append(out)
        return res

    def repeat(self, count: int, traced_pairs: bool) -> list:
        """`count` scans, or untraced/traced pairs of scans."""
        if traced_pairs:
            return [(self.run(False), self.run(True)) for _ in range(count)]
        return [self.run(False) for _ in range(count)]


def reference_systems(config: checks.WorkloadConfig) -> dict:
    systems = {}
    for extents in config.lattices:
        dense = 2 ** math.prod(extents) <= REFERENCE_DENSE_CAP
        for B in config.b_ladder:
            systems[(extents, B)] = reference.solve(extents, B, dense)
    return systems


def verify(scans: Scans, config: Path, check: checks.Checker) -> None:
    first = checks.csv_bodies(scans.outputs[0])
    for out in scans.outputs[1:]:
        check(checks.csv_bodies(out) == first,
              f"CSV bodies of {out.name} differ from {scans.outputs[0].name}")
    cfg = checks.WorkloadConfig(config)
    checks.check_scan(scans.outputs[0], cfg, reference_systems(cfg), check)


def layer_metrics(trace_path: Path) -> dict:
    """Per-layer metrics of one traced scan."""
    trace = json.loads(trace_path.read_text())
    spans = trace["spans"]
    n = len(spans)
    inclusive_mv = [s["matvecs_real"] + s["matvecs_complex"] for s in spans]
    child_s = [s["matvec_real_s"] + s["matvec_complex_s"] for s in spans]
    for i in range(n - 1, -1, -1):
        parent = spans[i]["parent"]
        if parent >= 0:
            inclusive_mv[parent] += inclusive_mv[i]
            child_s[parent] += spans[i]["end"] - spans[i]["start"]

    def select(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total_s(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in select(name))

    def self_s(name):
        return sum(spans[i]["end"] - spans[i]["start"] - child_s[i]
                   for i in select(name))

    def matvecs(name):
        return sum(inclusive_mv[i] for i in select(name))

    every = spans + [trace["root"]]
    real = sum(s["matvecs_real"] for s in every)
    cplx = sum(s["matvecs_complex"] for s in every)
    real_s = sum(s["matvec_real_s"] for s in every)
    cplx_s = sum(s["matvec_complex_s"] for s in every)
    applies = select("filters.apply")
    return {
        "filters.apply.s": total_s("filters.apply"),
        "filters.apply.calls": len(applies),
        "filters.apply.matvecs": matvecs("filters.apply"),
        "filters.chebyshev.degree": max((spans[i]["degree"] for i in applies),
                                        default=0),
        "filters.make_chebyshev_expansion.s":
            total_s("filters.make_chebyshev_expansion"),
        "filters.spectral_interval.s": total_s("filters.spectral_interval"),
        "operators.matvec.calls": real + cplx,
        "operators.matvec.complex_calls": cplx,
        "operators.matvec.s": real_s + cplx_s,
        "operators.matvec_real.ms": 1e3 * real_s / real if real else 0.0,
        "operators.matvec_complex.ms": 1e3 * cplx_s / cplx if cplx else 0.0,
        "operators.build_hamiltonian.s": total_s("operators.build_hamiltonian"),
        "operators.fourier_spin.s": total_s("operators.fourier_spin"),
        "eigensolver.ground_state.s": total_s("eigensolver.ground_state"),
        "eigensolver.ground_state.matvecs": matvecs("eigensolver.ground_state"),
        "eigensolver.deflated_solve.s": total_s("eigensolver.deflated_solve"),
        "eigensolver.deflated_solve.calls":
            len(select("eigensolver.deflated_solve")),
        "eigensolver.deflated_solve.matvecs":
            matvecs("eigensolver.deflated_solve"),
        "eigensolver.dense_spectrum.s": total_s("eigensolver.dense_spectrum"),
        "eigensolver.dense_spectrum.calls":
            len(select("eigensolver.dense_spectrum")),
        "locality.lr_commutator_profile.s":
            total_s("locality.lr_commutator_profile"),
        "locality.delta_decomposition.s":
            total_s("locality.delta_decomposition"),
        "locality.b_continuity.s": total_s("locality.b_continuity"),
        "analysis.bound_report.self_s": self_s("analysis.bound_report"),
        "analysis.excitation_energy.self_s": self_s("analysis.excitation_energy"),
        "analysis.qmode_trend.self_s": self_s("analysis.qmode_trend"),
        "runner.run_scan.self_s": self_s("runner.run_scan"),
        "config.parse_config.s": total_s("config.parse_config"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "goldstone" / "__init__.py").is_file():
        print(f"error: no goldstone sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = seeded_config(args.workload, args.seed, run_dir)
        scans = Scans(args.workload, config, run_dir, deadline)
        check = checks.Checker()
        count = max(1, int(args.seconds // WORKLOADS[args.workload][2]))
        if args.trace:
            pairs = scans.repeat(max(1, count // 2), traced_pairs=True)
            per_scan = [layer_metrics(t_out / "trace.json")
                        for t_out in scans.outputs[1::2]]
            metrics = {key: statistics.median(m[key] for m in per_scan)
                       for key in per_scan[0]}
            metrics["trace.overhead_s"] = (
                statistics.median(t["wall"] for _, t in pairs)
                - statistics.median(u["wall"] for u, _ in pairs))
        else:
            setup_s = measure_setup(config, run_dir, deadline)
            runs = scans.repeat(count, traced_pairs=False)
            metrics = {
                "scan_s": statistics.median(r["wall"] for r in runs),
                "setup_s": setup_s,
                "cpu_s": statistics.median(r["cpu"] for r in runs),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            }
        verify(scans, config, check)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for msg in check.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(scans.outputs)} scans, "
          f"{check.attempted} assertions", file=sys.stderr)
    result = {
        "correct": check.failed == 0,
        "attempted": scans.program_ops + check.attempted,
        "failed": scans.program_failures + check.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
