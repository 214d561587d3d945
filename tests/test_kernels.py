"""The CSR operators (`operators.CSROperator`) against public scipy.sparse:
they call the kernels a csr_matrix calls, in its order, so every array and
every product must equal scipy's bit for bit."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse

import goldstone
from goldstone.eigensolver import row_sum_bound
from goldstone.lattice import Lattice
from goldstone.operators import (SparseHermitianOperator, build_hamiltonian,
                                 direct_sum, fourier_spin, sparsetools)

DIM = 40


def coo_entries(rng, complex_values):
    """Entries in random order, columns unsorted within their rows, every
    row of index 1 mod 4 empty, and the first ten entries three times."""
    rows = rng.integers(0, DIM, 4 * DIM)
    rows = rows[rows % 4 != 1]
    cols = rng.integers(0, DIM, len(rows))
    vals = rng.standard_normal(len(rows))
    if complex_values:
        vals = vals + 1j * rng.standard_normal(len(rows))
    rows, cols, vals = (np.concatenate([a, a[:10], a[:10]])
                        for a in (rows, cols, vals))
    order = rng.permutation(len(rows))
    return rows[order], cols[order], vals[order]


def scipy_csr(rows, cols, vals):
    return scipy.sparse.coo_matrix((vals, (rows, cols)),
                                   shape=(DIM, DIM)).tocsr()


def same(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and \
        np.array_equal(got, ref)


def assert_same_csr(op, csr):
    assert op.dim == csr.shape[0]
    for part in ("indptr", "indices", "data"):
        assert same(getattr(op, part), getattr(csr, part)), part


@pytest.mark.parametrize("complex_values", [False, True])
def test_from_coo_equals_scipy_arrays(rng, complex_values):
    entries = coo_entries(rng, complex_values)
    csr = scipy_csr(*entries)
    assert csr.nnz < len(entries[0])   # duplicates are summed
    # coo_tocsr keeps the order within a row, so csr_sort_indices runs
    rows, cols = (a[np.argsort(entries[0], kind="stable")]
                  for a in entries[:2])
    assert np.any((rows[1:] == rows[:-1]) & (cols[1:] < cols[:-1]))
    assert_same_csr(SparseHermitianOperator.from_coo(DIM, *entries), csr)


@pytest.mark.parametrize("rows,cols", [([0, 3], [0, 1]), ([0, -1], [0, 1]),
                                       ([0, 1], [0, 1, 2])])
def test_from_coo_rejects_entries_outside_the_matrix(rows, cols):
    # the kernel would write outside its arrays, or read past cols
    with pytest.raises(ValueError, match="do not fit"):
        SparseHermitianOperator.from_coo(3, np.array(rows), np.array(cols),
                                         np.ones(2))


@pytest.mark.parametrize("complex_h", [False, True])
@pytest.mark.parametrize("complex_x", [False, True])
@pytest.mark.parametrize("shape", [(DIM,), (DIM, 1), (DIM, 5)])
def test_matvec_equals_scipy_product(rng, complex_h, complex_x, shape):
    """A vector, or each column of a block applied on its own, equals
    scipy's product of the whole block (csr_matvecs on more columns)."""
    entries = coo_entries(rng, complex_h)
    op, csr = SparseHermitianOperator.from_coo(DIM, *entries), \
        scipy_csr(*entries)
    x = rng.standard_normal(shape)
    if complex_x:
        x = x + 1j * rng.standard_normal(shape)
    got = op.matvec(x) if x.ndim == 1 else \
        np.column_stack([op.matvec(column) for column in x.T])
    assert same(got, csr @ x)


def test_matvec_rejects_a_wrong_length():
    op = SparseHermitianOperator.from_coo(DIM, np.arange(DIM),
                                          np.arange(DIM), np.ones(DIM))
    for shape in ((DIM - 1,), (DIM, 1), (DIM, 2)):
        with pytest.raises(ValueError,
                           match=re.escape(f"shape {shape} != ({DIM},)")):
            op.matvec(np.ones(shape))


def test_direct_sum_equals_block_diag(rng):
    entries = [coo_entries(rng, c) for c in (False, True, False)]
    got = direct_sum([SparseHermitianOperator.from_coo(DIM, *e)
                      for e in entries])
    ref = scipy.sparse.block_diag([scipy_csr(*e) for e in entries],
                                  format="csr")
    assert_same_csr(got, ref)


@pytest.mark.parametrize("complex_values", [False, True])
def test_row_sum_bound_and_dense_equal_scipy(rng, complex_values):
    entries = coo_entries(rng, complex_values)
    op, csr = SparseHermitianOperator.from_coo(DIM, *entries), \
        scipy_csr(*entries)
    assert row_sum_bound(op) == abs(csr).sum(axis=1).max()
    assert same(op.to_dense(), csr.toarray())


def test_loader_fails_loudly_without_the_extension(tmp_path):
    with pytest.raises(ImportError) as err:
        sparsetools(str(tmp_path))
    assert scipy.__version__ in str(err.value)
    assert str(tmp_path) in str(err.value)


def test_loader_imports_no_scipy_sparse_module():
    # a fresh process: the kernels load, but no module of scipy.sparse, and
    # a later import of scipy.sparse finds the same kernels
    package_root = str(Path(goldstone.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from goldstone.operators import sparsetools\n"
            "sparsetools()\n"
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])\n"
            "import scipy.sparse\n"
            "print(scipy.sparse._sparsetools.csr_matvec is "
            "sparsetools().csr_matvec)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matvec_matches_dense_on_random_matrices(rng, dtype):
    n = 300
    mat = scipy.sparse.random(n, n, density=0.03, random_state=42,
                              format="csr")
    mat.data = mat.data.astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        mat.data += 1j * rng.standard_normal(mat.nnz)
    op = SparseHermitianOperator(mat.indptr, mat.indices, mat.data, n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = mat.toarray() @ x
    got = op.matvec(x)
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_empty_rows_handled():
    # row 1 and the last row carry no entries
    indptr = np.array([0, 2, 2, 3, 3], dtype=np.int32)
    indices = np.array([0, 3, 2], dtype=np.int32)
    op = SparseHermitianOperator(indptr, indices, np.array([1.0, 2.0, -3.0]),
                                 4)
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
    for v in (x, *block.T, *cblock.T):  # the blocks column by column
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
