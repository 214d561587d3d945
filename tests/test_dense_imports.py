"""No scan process imports scipy.sparse: full-basis operators and blocks
alike run scipy's compiled CSR kernels, loaded without the package
(`operators.sparsetools`).  Nor does a config parse import scipy at all:
the manifest, which records its version, imports it when it is written."""

import os
import subprocess
import sys
from pathlib import Path

import goldstone

# every check group on the 2x2 torus, dense (dim 16 <= dense_cap)
DENSE_22 = """
[scan]
checks = bounds dispersion qmode locality
lattices = 2x2
b_ladder = 0.2 0.1 0.05

[wavepacket]
p = auto
kappa = auto
"""

# the same torus forced onto the block path by a cap below its dimension
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

# each step prints whether scipy.sparse and scipy are loaded after it; the
# last one imports scipy.sparse, to show that the check would see it
CHILD = """
import sys
import goldstone.cli
from goldstone.config import parse_config

def step(name, code=0):
    print("step", name, code, "scipy.sparse" in sys.modules,
          "scipy" in sys.modules)

parse_config(sys.argv[1])
step("parse")
step("scan", goldstone.cli.main(["scan", "--config", sys.argv[1],
                                 "--out", sys.argv[3]]))
step("report", goldstone.cli.main(["report", "--out", sys.argv[3]]))
step("sparse", goldstone.cli.main(["scan", "--config", sys.argv[2],
                                   "--out", sys.argv[4]]))
import scipy.sparse
step("control")
"""


def test_dense_scan_and_report_leave_scipy_sparse_unloaded(tmp_path):
    dense, sparse = tmp_path / "dense.ini", tmp_path / "sparse.ini"
    dense.write_text(DENSE_22)
    sparse.write_text(SPARSE_22)
    package_root = str(Path(goldstone.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(dense), str(sparse),
         str(tmp_path / "dense"), str(tmp_path / "sparse")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    steps = [line.split()[1:] for line in out.stdout.splitlines()
             if line.startswith("step ")]
    assert steps == [["parse", "0", "False", "False"],
                     ["scan", "0", "False", "True"],
                     ["report", "0", "False", "True"],
                     ["sparse", "0", "False", "True"],
                     ["control", "0", "True", "True"]]
