"""Scan configuration: flat INI (key = value under section headers).

Unknown sections or keys are hard errors so that a typo in a tolerance name
cannot silently run with defaults.  The schema is documented in the README.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .analysis import Tolerances, V_MIN_LADDER_DEFAULT

__all__ = ["ScanConfig", "ConfigError", "parse_config", "parse_config_text"]

CHECK_GROUPS = ("bounds", "dispersion", "qmode", "locality")

_SCHEMA = {
    "scan": {"checks", "lattices", "spin", "b_ladder", "dense_cap", "jobs",
             "seed", "cache_dir", "out_dir"},
    "wavepacket": {"p", "kappa"},
    "filter": {"epsilon", "gamma", "delta_gamma", "v_min_ladder",
               "chebyshev_tol", "degree_cap"},
    "locality": {"epsilon", "gamma", "delta_gamma", "times", "center", "axis"},
    "tolerances": {"algebraic", "resolvent", "solver"},
}


class ConfigError(ValueError):
    pass


@dataclass
class ScanConfig:
    lattices: list = field(default_factory=lambda: [(2, 2)])
    spin: float = 0.5
    b_ladder: list = field(default_factory=lambda: [0.4, 0.2, 0.1, 0.05])
    checks: tuple = CHECK_GROUPS
    dense_cap: int = 4096
    jobs: int = 1
    seed: int = 7
    cache_dir: str | None = None
    out_dir: str = "out"
    p_values: list | str = "auto"
    kappa: float | str = "auto"
    filter_epsilon: float | str = "auto"
    gamma: float = 3.0
    delta_gamma: float = 0.5
    v_min_ladder: tuple = V_MIN_LADDER_DEFAULT
    degree_cap: int = 32768
    locality_epsilon: float = 0.2
    locality_gamma: float = 3.0
    locality_delta_gamma: float = 0.5
    locality_times: tuple = (0.25, 0.5, 1.0)
    locality_center: int = 0
    locality_axis: int = 2
    tolerances: Tolerances = field(default_factory=Tolerances)
    raw_text: str = ""

    def __post_init__(self):
        if not self.checks:
            raise ConfigError("at least one check group must be enabled")
        for c in self.checks:
            if c not in CHECK_GROUPS:
                raise ConfigError(f"unknown check group {c!r}; "
                                  f"choose from {CHECK_GROUPS}")
        if not self.b_ladder:
            raise ConfigError("b_ladder must not be empty")
        if any(b <= 0 for b in self.b_ladder):
            raise ConfigError("b_ladder entries must be strictly positive")
        if any(a <= b for a, b in zip(self.b_ladder, self.b_ladder[1:])):
            raise ConfigError("b_ladder must be strictly descending")
        if self.filter_epsilon != "auto":
            eps = float(self.filter_epsilon)
            if not 2 * eps < self.gamma - self.delta_gamma:
                raise ConfigError(
                    f"filter: 2*epsilon = {2 * eps} must stay below "
                    f"gamma - delta_gamma = {self.gamma - self.delta_gamma}")
        if self.p_values != "auto":
            if self.kappa != "auto":
                for p in self.p_values:
                    if not p < self.kappa:
                        raise ConfigError(
                            f"wavepacket: p = {p} must stay below "
                            f"kappa = {self.kappa}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]

    def resolve_kappa(self, annulus_radii) -> float:
        if self.kappa != "auto":
            return float(self.kappa)
        return 1.01 * max(annulus_radii)


def _parse_lattice_token(token: str) -> tuple:
    try:
        extents = tuple(int(part) for part in token.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad lattice token {token!r}") from exc
    return extents


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def parse_config_text(text: str) -> ScanConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")

    kwargs: dict = {"raw_text": text}
    tolerances: dict = {}
    if parser.has_section("scan"):
        sec = parser["scan"]
        if "checks" in sec:
            kwargs["checks"] = tuple(sec["checks"].split())
        if "lattices" in sec:
            kwargs["lattices"] = [_parse_lattice_token(t)
                                  for t in sec["lattices"].split()]
        if "spin" in sec:
            kwargs["spin"] = float(sec["spin"])
        if "b_ladder" in sec:
            kwargs["b_ladder"] = _floats(sec["b_ladder"])
        if "dense_cap" in sec:
            kwargs["dense_cap"] = int(sec["dense_cap"])
        if "jobs" in sec:
            kwargs["jobs"] = int(sec["jobs"])
        if "seed" in sec:
            kwargs["seed"] = int(sec["seed"])
        if "cache_dir" in sec:
            kwargs["cache_dir"] = sec["cache_dir"]
        if "out_dir" in sec:
            kwargs["out_dir"] = sec["out_dir"]
    if parser.has_section("wavepacket"):
        sec = parser["wavepacket"]
        if "p" in sec:
            kwargs["p_values"] = ("auto" if sec["p"].strip() == "auto"
                                  else _floats(sec["p"]))
        if "kappa" in sec:
            kwargs["kappa"] = ("auto" if sec["kappa"].strip() == "auto"
                               else float(sec["kappa"]))
    if parser.has_section("filter"):
        sec = parser["filter"]
        if "epsilon" in sec:
            kwargs["filter_epsilon"] = ("auto" if sec["epsilon"].strip() == "auto"
                                        else float(sec["epsilon"]))
        if "gamma" in sec:
            kwargs["gamma"] = float(sec["gamma"])
        if "delta_gamma" in sec:
            kwargs["delta_gamma"] = float(sec["delta_gamma"])
        if "v_min_ladder" in sec:
            kwargs["v_min_ladder"] = tuple(_floats(sec["v_min_ladder"]))
        if "chebyshev_tol" in sec:
            tolerances["chebyshev"] = float(sec["chebyshev_tol"])
        if "degree_cap" in sec:
            kwargs["degree_cap"] = int(sec["degree_cap"])
    if parser.has_section("locality"):
        sec = parser["locality"]
        if "epsilon" in sec:
            kwargs["locality_epsilon"] = float(sec["epsilon"])
        if "gamma" in sec:
            kwargs["locality_gamma"] = float(sec["gamma"])
        if "delta_gamma" in sec:
            kwargs["locality_delta_gamma"] = float(sec["delta_gamma"])
        if "times" in sec:
            kwargs["locality_times"] = tuple(_floats(sec["times"]))
        if "center" in sec:
            kwargs["locality_center"] = int(sec["center"])
        if "axis" in sec:
            kwargs["locality_axis"] = int(sec["axis"])
    if parser.has_section("tolerances"):
        for key, value in parser["tolerances"].items():
            tolerances[key] = float(value)
    return ScanConfig(**kwargs, tolerances=Tolerances(**tolerances))


def parse_config(path) -> ScanConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def auto_p_target(lattice) -> float:
    """Smallest nonzero grid momentum magnitude: the closest desk-scale
    stand-in for the small-|p| regime."""
    mags = sorted(m for m in (lattice.kmag(n) for n in lattice.momenta)
                  if m > 1e-12)
    if not mags:
        raise ConfigError(f"lattice {lattice.spec.extents} has no nonzero momenta")
    return mags[0]
