"""Kept for readers of `goldstone._kernels.HAVE_NUMBA` and `use_numba`: the
CSR matvec is `SparseHermitianOperator.matvec`, on `operators.sparsetools`."""

HAVE_NUMBA = use_numba = False
