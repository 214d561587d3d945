"""The CSR matvec, `SparseHermitianOperator.matvec`, against dense products."""

import numpy as np
import pytest
import scipy.sparse

from goldstone.lattice import Lattice
from goldstone.operators import (SparseHermitianOperator, build_hamiltonian,
                                 fourier_spin)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matvec_matches_dense_on_random_matrices(rng, dtype):
    n = 300
    mat = scipy.sparse.random(n, n, density=0.03, random_state=42,
                              format="csr")
    mat.data = mat.data.astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        mat.data += 1j * rng.standard_normal(mat.nnz)
    op = SparseHermitianOperator(mat)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = mat.toarray() @ x
    got = op.matvec(x)
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_empty_rows_handled():
    # row 1 and the last row carry no entries
    indptr = np.array([0, 2, 2, 3, 3])
    indices = np.array([0, 3, 2])
    data = np.array([1.0, 2.0, -3.0])
    op = SparseHermitianOperator(
        scipy.sparse.csr_matrix((data, indices, indptr), shape=(4, 4)))
    x = np.arange(4, dtype=float)
    assert np.allclose(op.matvec(x), [6.0, 0.0, -6.0, 0.0])


def test_matvec_matches_dense_on_hamiltonian(rng):
    lat = Lattice((2, 4))
    H = build_hamiltonian(lat, 0.3)
    sk = fourier_spin(lat, (0, 1), 2)
    x = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    assert np.abs(H.matvec(x) - H.to_dense() @ x).max() <= 1e-12
    assert np.abs(sk.matvec(x) - sk.to_dense() @ x).max() <= 1e-12


def test_real_matrix_complex_vectors_and_blocks(rng):
    lat = Lattice((2, 4))
    H = build_hamiltonian(lat, 0.3)
    assert not np.iscomplexobj(H.data)
    dense = H.to_dense()
    x = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    block = rng.standard_normal((H.dim, 6))
    cblock = block + 1j * rng.standard_normal((H.dim, 6))
    for v in (x, block, cblock):
        got = H.matvec(v)
        assert got.shape == v.shape
        assert got.dtype == np.result_type(H.data, v)
        assert np.abs(got - dense @ v).max() <= 1e-12


def test_real_matrix_real_vector_stays_real(rng):
    lat = Lattice((2, 2))
    H = build_hamiltonian(lat, 0.2)
    x = rng.standard_normal(H.dim)
    y = H.matvec(x)
    assert not np.iscomplexobj(y)
    assert np.abs(y - H.to_dense().real @ x).max() <= 1e-12
