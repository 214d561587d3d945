"""Scan configuration: flat INI (key = value under section headers).

Unknown sections or keys are hard errors so that a typo in a tolerance name
cannot silently run with defaults; so is a value that does not parse or that
no scan can use, raised as ConfigError before any scan work.  The schema is
documented in the README.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .analysis import Tolerances
from .eigensolver import DENSE_CAP_DEFAULT, SEED_DEFAULT
from .filters import GFilter, WavepacketSpec
from .lattice import Lattice

__all__ = ["ScanConfig", "ConfigError", "parse_config", "parse_config_text"]

CHECK_GROUPS = ("bounds", "dispersion", "qmode", "locality")

class ConfigError(ValueError):
    pass


@dataclass
class ScanConfig:
    lattices: list = field(default_factory=lambda: [(2, 2)])
    spin: float = 0.5
    b_ladder: list = field(default_factory=lambda: [0.4, 0.2, 0.1, 0.05])
    checks: tuple = CHECK_GROUPS
    dense_cap: int = DENSE_CAP_DEFAULT
    seed: int = SEED_DEFAULT
    p_values: list | str = "auto"
    kappa: float | str = "auto"
    filter_epsilon: float | str = "auto"
    gamma: float = 3.0
    delta_gamma: float = 0.5
    locality_epsilon: float = 0.2
    locality_gamma: float = 3.0
    locality_delta_gamma: float = 0.5
    locality_times: tuple = (0.25, 0.5, 1.0)
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
        if not all(0 < b < float("inf") for b in self.b_ladder):
            raise ConfigError("b_ladder entries must be positive and finite")
        if any(a <= b for a, b in zip(self.b_ladder, self.b_ladder[1:])):
            raise ConfigError("b_ladder must be strictly descending")
        windows = [("locality", self.locality_epsilon, self.locality_gamma,
                    self.locality_delta_gamma)]
        if self.filter_epsilon != "auto":
            windows.append(("filter", float(self.filter_epsilon), self.gamma,
                            self.delta_gamma))
        for section, *window in windows:
            try:
                GFilter(*window)
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        # with gamma <= delta_gamma no epsilon gives a window
        if not float("inf") > self.gamma > self.delta_gamma > 0:
            raise ConfigError("filter: need finite gamma > delta_gamma > 0")
        # the den filter g^2 lies in [0, 1]: a sup error of 1 bounds nothing
        if not 0 < self.tolerances.chebyshev < 1:
            raise ConfigError("filter: chebyshev_tol must lie in (0, 1)")
        for name in ("algebraic", "resolvent", "solver"):
            if not 0 < getattr(self.tolerances, name) < float("inf"):
                raise ConfigError(f"tolerances: {name} must be positive "
                                  "and finite")
        if self.seed < 0:
            raise ConfigError("scan: seed must be >= 0")
        if not self.lattices:
            raise ConfigError("scan: lattices must not be empty")
        if self.p_values != "auto" and not (
                self.p_values
                and all(0 < p < float("inf") for p in self.p_values)):
            raise ConfigError("wavepacket: p must be auto or a nonempty "
                              "list of finite momenta > 0")
        if self.kappa != "auto" and not 0 < self.kappa < float("inf"):
            raise ConfigError("wavepacket: kappa must be auto or a finite "
                              "value > 0")
        if self.p_values != "auto" and self.kappa != "auto":
            for p in self.p_values:
                try:
                    WavepacketSpec(p, self.kappa)
                except ValueError as exc:
                    raise ConfigError(f"wavepacket: p = {p}: {exc}") from exc
        for extents in self.lattices:
            try:
                Lattice(extents, self.spin)
            except ValueError as exc:
                name = "x".join(map(str, extents))
                raise ConfigError(f"lattice {name}: {exc}") from exc
        t = self.locality_times  # t = 0: only rounding
        if not (t and all(0 < x < float("inf") for x in t)):
            raise ConfigError("locality: times must be a nonempty list of "
                              "finite times > 0")
        # a repeat would run the same work twice and write its rows twice
        # (repeated times would merge their samples)
        for name, values in (("scan: checks", self.checks),
                             ("scan: lattices", self.lattices),
                             ("wavepacket: p", self.p_values),
                             ("locality: times", self.locality_times)):
            if values != "auto" and len(set(values)) < len(values):
                raise ConfigError(f"{name} lists a value twice")

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]

    def resolve_kappa(self, annulus_radii) -> float:
        if self.kappa != "auto":
            return float(self.kappa)
        return 1.01 * max(annulus_radii)


def _lattices(text: str) -> list:
    try:
        return [tuple(int(e) for e in token.lower().split("x"))
                for token in text.split()]
    except ValueError as exc:
        raise ValueError(f"bad lattice token in {text!r}") from exc


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _one_job(text: str) -> None:
    """[scan] jobs sets nothing; configs from before may set it to 1."""
    if int(text) != 1:
        raise ValueError("a scan runs one field at a time, so jobs must be 1")


def _auto(parse):
    return lambda text: "auto" if text.strip() == "auto" else parse(text)


# (section, key) -> (ScanConfig field, "tolerances.<name>" or None, parser)
_KEYS = {
    ("scan", "checks"): ("checks", lambda text: tuple(text.split())),
    ("scan", "lattices"): ("lattices", _lattices),
    ("scan", "spin"): ("spin", float),
    ("scan", "b_ladder"): ("b_ladder", _floats),
    ("scan", "dense_cap"): ("dense_cap", int),
    ("scan", "jobs"): (None, _one_job),
    ("scan", "seed"): ("seed", int),
    ("wavepacket", "p"): ("p_values", _auto(_floats)),
    ("wavepacket", "kappa"): ("kappa", _auto(float)),
    ("filter", "epsilon"): ("filter_epsilon", _auto(float)),
    ("filter", "gamma"): ("gamma", float),
    ("filter", "delta_gamma"): ("delta_gamma", float),
    ("filter", "chebyshev_tol"): ("tolerances.chebyshev", float),
    ("locality", "epsilon"): ("locality_epsilon", float),
    ("locality", "gamma"): ("locality_gamma", float),
    ("locality", "delta_gamma"): ("locality_delta_gamma", float),
    ("locality", "times"): ("locality_times",
                            lambda text: tuple(_floats(text))),
    ("tolerances", "algebraic"): ("tolerances.algebraic", float),
    ("tolerances", "resolvent"): ("tolerances.resolvent", float),
    ("tolerances", "solver"): ("tolerances.solver", float),
}

_SCHEMA = {s: {key for t, key in _KEYS if t == s} for s, _ in _KEYS}


def parse_config_text(text: str) -> ScanConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    kwargs: dict = {"raw_text": text}
    tolerances: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser[section].items():
            if (section, key) not in _KEYS:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")
            name, parse = _KEYS[section, key]
            try:
                parsed = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            if name is None:
                continue
            if name.startswith("tolerances."):
                tolerances[name.removeprefix("tolerances.")] = parsed
            else:
                kwargs[name] = parsed
    return ScanConfig(**kwargs, tolerances=Tolerances(**tolerances))


def parse_config(path) -> ScanConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def auto_p_target(lattice) -> float:
    """Smallest nonzero grid momentum magnitude: the closest desk-scale
    stand-in for the small-|p| regime.  Every torus with even extents of at
    least 2 has one."""
    return min(m for m in (lattice.kmag(n) for n in lattice.momenta)
               if m > 1e-12)
