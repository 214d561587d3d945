"""The thread count of numpy's OpenBLAS, read and set while it runs: the
scipy-openblas that numpy wheels bundle, or nothing on other builds."""

import ctypes
import glob
import os

import numpy as np

_FOUND = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                "numpy.libs", "libscipy_openblas64_*.so"))
_OPENBLAS = ctypes.CDLL(_FOUND[0]) if _FOUND else None


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs with, None if unknown."""
    return _OPENBLAS and _OPENBLAS.scipy_openblas_get_num_threads64_()


def set_one_blas_thread() -> None:
    if _OPENBLAS is not None:
        _OPENBLAS.scipy_openblas_set_num_threads64_(1)
