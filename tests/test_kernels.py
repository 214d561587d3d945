import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import goldstone
from goldstone import _kernels
from goldstone.lattice import Lattice
from goldstone.operators import build_hamiltonian, fourier_spin

# the scipy lane always runs; the numba lane only where numba is importable
LANES = ([True] if _kernels.HAVE_NUMBA else []) + [False]


def _random_csr(rng, n, density, dtype):
    mat = scipy.sparse.random(n, n, density=density, random_state=42,
                              format="csr")
    data = mat.data.astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        data = data + 1j * rng.standard_normal(len(data))
    return mat.indptr, mat.indices, data


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lanes_agree_on_random_matrices(rng, monkeypatch, dtype):
    n = 300
    indptr, indices, data = _random_csr(rng, n, 0.03, dtype)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n)) @ x
    for lane in LANES:
        monkeypatch.setattr(_kernels, "use_numba", lane)
        got = _kernels.csr_matvec(indptr, indices, data, x)
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_empty_rows_handled(monkeypatch):
    # row 1 and the last row carry no entries
    indptr = np.array([0, 2, 2, 3, 3])
    indices = np.array([0, 3, 2])
    data = np.array([1.0, 2.0, -3.0])
    x = np.arange(4, dtype=float)
    expected = np.array([6.0, 0.0, -6.0, 0.0])
    for lane in LANES:
        monkeypatch.setattr(_kernels, "use_numba", lane)
        got = _kernels.csr_matvec(indptr, indices, data, x)
        assert np.allclose(got, expected)


def test_lanes_agree_on_hamiltonian(rng, monkeypatch):
    lat = Lattice.build((2, 4))
    H = build_hamiltonian(lat, 0.3)
    sk = fourier_spin(lat, (0, 1), 2)
    x = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    ref_h = H.to_dense() @ x
    ref_s = sk.to_dense() @ x
    for lane in LANES:
        monkeypatch.setattr(_kernels, "use_numba", lane)
        assert np.abs(H.matvec(x) - ref_h).max() <= 1e-12
        assert np.abs(sk.matvec(x) - ref_s).max() <= 1e-12


def test_real_matrix_complex_vectors_and_blocks(rng, monkeypatch):
    lat = Lattice.build((2, 4))
    H = build_hamiltonian(lat, 0.3)
    assert not np.iscomplexobj(H.data)
    dense = H.to_dense()
    x = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    block = rng.standard_normal((H.dim, 6))
    cblock = block + 1j * rng.standard_normal((H.dim, 6))
    for lane in LANES:
        monkeypatch.setattr(_kernels, "use_numba", lane)
        for v in (x, block, cblock):
            got = H.matvec(v)
            assert got.shape == v.shape
            assert got.dtype == np.result_type(H.data, v)
            assert np.abs(got - dense @ v).max() <= 1e-12


def test_real_matrix_real_vector_stays_real(rng):
    lat = Lattice.build((2, 2))
    H = build_hamiltonian(lat, 0.2)
    x = rng.standard_normal(H.dim)
    y = H.matvec(x)
    assert not np.iscomplexobj(y)
    assert np.abs(y - H.to_dense().real @ x).max() <= 1e-12


def test_env_flag_documented():
    assert _kernels.NUMBA_ENV_FLAG == "GOLDSTONE_NO_NUMBA"


def test_env_flag_selects_fallback_lane():
    # the child must import the same goldstone as this session, installed or
    # found through PYTHONPATH, whatever the working directory
    package_root = str(Path(goldstone.__file__).resolve().parents[1])
    env = dict(os.environ, GOLDSTONE_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import goldstone._kernels as k; "
            "print(k.use_numba, k.HAVE_NUMBA)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
