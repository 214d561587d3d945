"""Hot numeric kernels: CSR matvec in numba, with a scipy fallback.

The numba path is the default.  Set GOLDSTONE_NO_NUMBA=1 (or install without
numba) to force the scipy/numpy lane; `benchmarks/bench_matvec.py` compares
the two.  Both lanes are bitwise-reproducible run to run: the parallel kernel
splits work across rows only, and each output element is accumulated by a
single thread in a fixed order.
"""

import os

import numpy as np
import scipy.sparse

NUMBA_ENV_FLAG = "GOLDSTONE_NO_NUMBA"

try:
    if os.environ.get(NUMBA_ENV_FLAG, "") == "1":
        raise ImportError("numba disabled by environment flag")
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

use_numba = HAVE_NUMBA


if HAVE_NUMBA:

    @njit(parallel=True, cache=True)
    def _csr_matvec_numba(indptr, indices, data, x, out):
        n = out.shape[0]
        for i in prange(n):
            acc = out[i]
            for j in range(indptr[i], indptr[i + 1]):
                acc += data[j] * x[indices[j]]
            out[i] = acc
        return out


def csr_matvec(indptr, indices, data, x, scipy_csr=None):
    """y = A @ x for a CSR matrix given by (indptr, indices, data).

    `x` is one vector or a 2-D block of columns; blocks always take the
    scipy lane, because the numba kernel is 1-D.  `scipy_csr` is an optional
    prebuilt scipy matrix over the same arrays, used by the scipy lane to
    avoid re-wrapping on every call.
    """
    if use_numba and x.ndim == 1:
        dtype = np.result_type(data, x)
        out = np.zeros(len(indptr) - 1, dtype=dtype)
        return _csr_matvec_numba(indptr, indices, data,
                                 x.astype(dtype, copy=False), out)
    if scipy_csr is None:
        n = len(indptr) - 1
        scipy_csr = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    if np.iscomplexobj(x) and not np.iscomplexobj(data):
        # scipy would copy the whole real matrix to complex on every call
        out = np.empty((scipy_csr.shape[0],) + x.shape[1:],
                       dtype=np.result_type(data, x))
        out.real = scipy_csr @ x.real
        out.imag = scipy_csr @ x.imag
        return out
    return scipy_csr @ x
