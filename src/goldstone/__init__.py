"""Finite-volume dispersion-bound toolkit for quantum Heisenberg
antiferromagnets with a staggered symmetry-breaking field.

Builds torus Hamiltonians exactly, computes ground states by restarted
Lanczos (dense oracle on tiny systems), and verifies the full chain of
finite-volume inequalities behind linear spin-wave dispersion: infrared
susceptibility bounds, double-commutator sum rules, smooth spectral filters,
wavepacket excitation energies, and quasi-locality estimates.  Each name is
imported from its module (`goldstone.analysis`, `goldstone.runner`, ...).
"""

import os
import sys

# One BLAS thread unless the caller set one: the dense calls here are small,
# so a second thread only spins between calls (a third of a scan's CPU) and
# its reductions make CSV bytes depend on the core count.  OpenBLAS reads the
# variable when numpy loads it, so if numpy came first, its running OpenBLAS
# is set to one thread instead.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" in sys.modules:
        from ._blas import set_one_blas_thread
        set_one_blas_thread()

__version__ = "0.1.0"
