"""The benchmark's tracer (`perfbench/traced_scan.py`) looks goldstone
functions up by name; a deletion that breaks a traced run fails here."""

import importlib
from pathlib import Path

import goldstone._kernels
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
    assert isinstance(goldstone._kernels.HAVE_NUMBA, bool)
    assert isinstance(goldstone._kernels.use_numba, bool)
