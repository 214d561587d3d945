"""The benchmark's tracer (`perfbench/traced_scan.py`) looks goldstone
functions up by name; a deletion that breaks a traced run fails here."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import goldstone
import goldstone.filters
import goldstone.operators

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced_scan = importlib.import_module("traced_scan")
    missing = []
    for modname, names in traced_scan.TRACED.items():
        module = importlib.import_module(f"goldstone.{modname}")
        missing += [f"{modname}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing
    assert callable(goldstone.filters.ChebyshevExpansion.apply)
    assert callable(goldstone.operators.SparseHermitianOperator.matvec)


def test_tracer_flags_reachable_from_cli_import():
    # the tracer imports goldstone.cli alone, then reads these two flags for
    # its context; the child imports the same goldstone as this session
    package_root = str(Path(goldstone.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import goldstone.cli, goldstone; k = goldstone._kernels; "
            "print(k.HAVE_NUMBA, k.use_numba)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
