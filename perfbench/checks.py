"""Correctness checks on one scan's output directory.

Each check either compares a quantity with reference.py (computed apart from
goldstone) or asserts a property the method must have.  None compares with a
stored copy of earlier output.  Tolerances come from the workload config:

- state: `algebraic` when the program used its dense oracle, `resolvent`
  when it used Lanczos and deflated CG;
- filter: `chebyshev_tol` (the certified sup error of the filter
  polynomial) on the Chebyshev path, zero on the dense path.  A filtered
  vector w = p(H - E0) v with |p - g| <= e then has |<w, w> - <v, g^2 v>| <=
  (2e + e^2) ||v||^2, and the numerator the same times the spectral width.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

import numpy as np


class Checker:
    """Counts assertions; keeps the first few failures for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class WorkloadConfig:
    """The parts of a workload INI that the checks need."""

    def __init__(self, path: Path):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(path, encoding="utf-8")
        self.lattices = [tuple(int(e) for e in tok.split("x"))
                         for tok in cp["scan"]["lattices"].split()]
        self.b_ladder = [float(b) for b in cp["scan"]["b_ladder"].split()]
        self.dense_cap = cp.getint("scan", "dense_cap", fallback=4096)
        self.chebyshev_tol = cp.getfloat("filter", "chebyshev_tol",
                                         fallback=1e-8)
        self.algebraic = cp.getfloat("tolerances", "algebraic", fallback=1e-10)
        self.resolvent = cp.getfloat("tolerances", "resolvent", fallback=1e-8)

    def program_dense(self, extents) -> bool:
        return 2 ** math.prod(extents) <= self.dense_cap


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def label(text: str) -> tuple:
    return tuple(int(t) for t in text.split(";"))


def extents_of(text: str) -> tuple:
    return tuple(int(e) for e in text.split("x"))


def check_scan(out: Path, cfg: WorkloadConfig, systems: dict,
               check: Checker) -> None:
    """All checks on one scan.  `systems` maps (extents, B) to a
    reference.System; `dense` systems also carry the full spectrum."""
    bounds = read_csv(out / "bounds.csv")
    disp = read_csv(out / "dispersion.csv")
    per_k = read_csv(out / "dispersion_per_k.csv")
    trend = read_csv(out / "qmode_trend.csv")

    def tols(extents):
        if cfg.program_dense(extents):
            return cfg.algebraic, 0.0
        return cfg.resolvent, cfg.chebyshev_tol

    windows = {}
    for row in disp:
        key = (extents_of(row["lattice"]), float(row["B"]))
        ref = systems[key]
        state, e = tols(key[0])
        eps, gamma = float(row["epsilon"]), float(row["gamma"])
        windows[key] = (eps, gamma, float(row["delta_gamma"]))
        m_b = float(row["m_B"])
        check(abs(m_b - ref.m_b) <= state * max(1.0, abs(ref.m_b)),
              f"dispersion m_B {m_b!r} vs reference {ref.m_b!r} at {key}")
        de = float(row["delta_e"])
        # filter error of num and den, each summed with weights <= 1 over
        # momenta; sum_k ||S_k phi0||^2 / N = S(S+1)/3 < 1 bounds the norms
        slack = (2 * e + e * e) * (ref.width + gamma) / float(row["denominator"]) \
            + state
        check(eps - slack <= de <= gamma + slack,
              f"delta_e {de!r} outside [{eps}, {gamma}] at {key}")

    def filtered_check(key, n, den, num=None, what=""):
        ref = systems[key]
        state, e = tols(key[0])
        eps, gamma, dgamma = windows[key]
        v = ref.sk(n)
        norm2 = float(np.vdot(v, v).real)
        grow = 2 * e + e * e
        check(den <= norm2 * (1 + e) ** 2 + state,
              f"{what} den_k {den!r} above ||S_k phi0||^2 {norm2!r} at {key} {n}")
        if num is not None:
            slack = grow * norm2 * (ref.width + gamma) + state * max(1.0, ref.width)
            check(eps * den - slack <= num <= gamma * den + slack,
                  f"{what} num_k {num!r} outside [eps, gamma] * den_k at {key} {n}")
        if ref.evals is None:
            return norm2
        ref_num, ref_den, _ = ref.spectral_sums(v, eps, gamma, dgamma)
        check(abs(den - ref_den) <= grow * norm2 + state,
              f"{what} den_k {den!r} vs spectral sum {ref_den!r} at {key} {n}")
        if num is not None:
            check(abs(num - ref_num) <= grow * norm2 * ref.width
                  + state * max(1.0, ref.width),
                  f"{what} num_k {num!r} vs spectral sum {ref_num!r} at {key} {n}")
        return norm2

    for row in bounds:
        key = (extents_of(row["lattice"]), float(row["B"]))
        ref = systems[key]
        state, _ = tols(key[0])
        n = label(row["n"])
        lhs, rhs = float(row["lhs"]), float(row["rhs"])
        margin, tol = float(row["margin"]), float(row["tolerance"])
        check(margin >= -tol, f"{row['name']} margin {margin!r} < -{tol} at {key} {n}")
        if row["name"] == "sum_rule":
            check(abs(rhs - ref.m_b) <= state * max(1.0, abs(ref.m_b)),
                  f"sum_rule m_B {rhs!r} vs reference {ref.m_b!r} at {key}")
        elif row["name"] == "irb" and ref.evals is not None:
            _, _, irb = ref.spectral_sums(ref.sk(n, int(row["axis"])),
                                          *windows[key])
            check(abs(lhs - irb) <= state * max(1.0, abs(irb)),
                  f"irb lhs {lhs!r} vs spectral sum {irb!r} at {key} {n}")
        elif row["name"] == "denominator_lower_bound":
            filtered_check(key, n, rhs, what="bounds")

    dens: dict = {}
    for row in per_k:
        key = (extents_of(row["lattice"]), float(row["B"]))
        n = label(row["n"])
        op = n if row["mode"] == "zero" else systems[key].torus.shift_q(n)
        den, num = float(row["den_k"]), float(row["num_k"])
        norm2 = filtered_check(key, op, den, num, what=f"{row['mode']}-mode")
        if len(set(key[0])) == 1:
            # momenta with the same sorted |n| are images under the point
            # group of the square torus, which the staggered field keeps
            orbit = tuple(sorted(abs(c) for c in n))
            dens.setdefault((key, row["mode"], orbit), []).append((den, norm2))
    for (key, mode, orbit), pairs in dens.items():
        state, e = tols(key[0])
        values = [d for d, _ in pairs]
        spread = max(values) - min(values)
        norm2 = max(nn for _, nn in pairs)
        check(spread <= 2 * (2 * e + e * e) * norm2 + 2 * state,
              f"{mode}-mode den_k spread {spread!r} over momenta {orbit} at {key}")

    for row in trend:
        key = (extents_of(row["lattice"]), float(row["B"]))
        op = systems[key].torus.shift_q(label(row["n"]))
        filtered_check(key, op, float(row["den_k"]), what="qmode trend")


def csv_bodies(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
