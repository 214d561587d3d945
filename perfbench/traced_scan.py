"""Run one goldstone CLI command with spans recorded around the public calls
into each module, then write the spans and the run's context as JSON.

    python traced_scan.py TRACE_OUT.json <goldstone cli arguments...>

Spans are kept in memory while the scan runs.  Each span has a name
(`<module>.<function>`), a parent (the enclosing span, or -1), a start and an
end time.  CSR matvecs are too many and too short for spans of their own:
each one adds to the counters of the span it ran in (count and time, split
by real or complex vector).  Apply spans also carry their Chebyshev degree.
Nothing in goldstone changes: functions are replaced, by identity, in every
goldstone module namespace that holds them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import goldstone
import goldstone.cli

# The functions behind the per-layer metrics, plus the ones the runner and
# analysis call directly that do material work of another layer, so that
# self times stay with the layer that spent them.
TRACED = {
    "operators": ("build_hamiltonian", "fourier_spin", "site_spin_operator",
                  "staggered_operator"),
    "eigensolver": ("ground_state", "dense_spectrum", "deflated_solve"),
    "filters": ("spectral_interval", "make_chebyshev_expansion"),
    "analysis": ("bound_report", "excitation_energy", "qmode_trend",
                 "choose_epsilon"),
    "locality": ("tau_g_star", "local_approximation", "operator_norm",
                 "delta_decomposition", "lr_commutator_profile",
                 "b_continuity"),
    "runner": ("run_scan",),
    "config": ("parse_config",),
}
MODULES = [importlib.import_module(f"goldstone.{m}") for m in
           ("lattice", "operators", "eigensolver", "filters", "analysis",
            "locality", "config", "runner", "cli")] + [goldstone]

# span fields
NAME, PARENT, START, END, MV_REAL, MV_COMPLEX, MV_REAL_S, MV_COMPLEX_S, \
    DEGREE = range(9)

spans: list = []
# counters for matvecs made outside every span
ROOT = [None, -1, 0.0, 0.0, 0, 0, 0.0, 0.0, None]
_local = threading.local()


def _stack() -> list:
    if not hasattr(_local, "stack"):
        _local.stack = [-1]
    return _local.stack


def _open(name: str) -> int:
    stack = _stack()
    idx = len(spans)
    spans.append([name, stack[-1], time.perf_counter(), None, 0, 0, 0.0, 0.0,
                  None])
    stack.append(idx)
    return idx


def _close(idx: int) -> None:
    spans[idx][END] = time.perf_counter()
    _stack().pop()


def _spanned(name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = _open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(idx)
    return traced


def _replace_everywhere(original, replacement) -> None:
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    for modname, names in TRACED.items():
        module = importlib.import_module(f"goldstone.{modname}")
        for name in names:
            original = getattr(module, name)
            _replace_everywhere(original,
                                _spanned(f"{modname}.{name}", original))

    expansion = goldstone.filters.ChebyshevExpansion
    apply = expansion.apply

    def traced_apply(self, H, v):
        idx = _open("filters.apply")
        spans[idx][DEGREE] = self.degree
        try:
            return apply(self, H, v)
        finally:
            _close(idx)
    expansion.apply = traced_apply

    operator = goldstone.operators.SparseHermitianOperator
    matvec = operator.matvec

    def traced_matvec(self, x):
        t0 = time.perf_counter()
        y = matvec(self, x)
        dt = time.perf_counter() - t0
        idx = _stack()[-1]
        span = spans[idx] if idx >= 0 else ROOT
        if np.iscomplexobj(x):
            span[MV_COMPLEX] += 1
            span[MV_COMPLEX_S] += dt
        else:
            span[MV_REAL] += 1
            span[MV_REAL_S] += dt
        return y
    operator.matvec = traced_matvec


def context() -> dict:
    root = Path(__file__).resolve().parent.parent
    sha = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_available": bool(goldstone._kernels.HAVE_NUMBA),
        "numba_kernels": bool(goldstone._kernels.use_numba),
    }


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    install()
    start = time.perf_counter()
    code = goldstone.cli.main(cli_args)
    ROOT[START], ROOT[END] = start, time.perf_counter()
    keys = ("name", "parent", "start", "end", "matvecs_real",
            "matvecs_complex", "matvec_real_s", "matvec_complex_s", "degree")
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"context": context(),
                   "root": dict(zip(keys, ROOT)),
                   "spans": [dict(zip(keys, s)) for s in spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
