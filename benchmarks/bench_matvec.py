#!/usr/bin/env python3
"""Benchmark the CSR matvec, `SparseHermitianOperator.matvec`.

The matvec dominates everything at scale: Lanczos sweeps, Chebyshev moment
passes and the infrared-bound CG are all matvec loops.  Run as

    python benchmarks/bench_matvec.py [--extents 4x4] [--field 0.1] [--reps 50]
                                      [--lanczos]

It times one real and one complex vector on the CSR arrays of the full H
(the dense path's operator, applied here as a block), then one real vector
on that matrix, on block (0, 0) that holds the ground state and on block
(1, 0) of M = +1, -1, and one complex vector on the direct sum of every
twisted-momentum block (1, q), the shape of the sparse path's moment pass:
the vector holds one S_k phi0 per block, so that row is the cost of one
matvec on N vectors.  `--lanczos` also times a ground-state solve on that
CSR matrix.
"""

import argparse
import time

# goldstone before numpy, so the timings run on the scan's one BLAS thread
from goldstone.eigensolver import ground_state
from goldstone.lattice import Lattice
from goldstone.operators import (SparseHermitianOperator, build_hamiltonian,
                                 direct_sum)

import numpy as np


def time_matvec(H, x, reps):
    H.matvec(x)  # warm up
    t0 = time.perf_counter()
    for _ in range(reps):
        H.matvec(x)
    return (time.perf_counter() - t0) / reps


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--extents", default="4x4")
    parser.add_argument("--field", type=float, default=0.1)
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--lanczos", action="store_true",
                        help="also time a full ground-state solve")
    args = parser.parse_args()

    extents = tuple(int(t) for t in args.extents.split("x"))
    lat = Lattice(extents)
    t0 = time.perf_counter()
    full = build_hamiltonian(lat, args.field)
    H = SparseHermitianOperator(full.indptr, full.indices, full.data,
                                full.dim)
    print(f"lattice {args.extents}: dim {H.dim}, nnz {H.nnz} "
          f"(built in {time.perf_counter() - t0:.2f}s)")

    rng = np.random.default_rng(0)
    x_real = rng.standard_normal(H.dim)
    x_cplx = x_real + 1j * rng.standard_normal(H.dim)

    dt_r = time_matvec(H, x_real, args.reps)
    dt_c = time_matvec(H, x_cplx, args.reps)
    print(f"  1 vector: real {dt_r * 1e3:8.3f} ms  complex {dt_c * 1e3:8.3f} "
          f"ms  ({2 * H.nnz / dt_r / 1e9:.2f} Gflop/s real)")

    zero = (0,) * len(extents)
    for name, block in (("full", None), ("(0, 0)", (0, zero)),
                        ("(1, 0)", (1, zero))):
        op = H if block is None else build_hamiltonian(lat, args.field, block)
        dt = time_matvec(op, rng.standard_normal(op.dim), args.reps)
        print(f"  1 real vector on {name:6s}: dim {op.dim:8d}, nnz "
              f"{op.nnz:9d}, {dt * 1e3:8.3f} ms")

    op = direct_sum([build_hamiltonian(lat, args.field, (1, q))
                     for q in lat.momenta])
    vector = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    dt = time_matvec(op, vector, args.reps)
    n = len(lat.momenta)
    print(f"  1 complex vector on the {n} momentum blocks of M=+-1: dim "
          f"{op.dim:8d}, nnz {op.nnz:9d}, {dt * 1e3:8.3f} ms "
          f"({dt * 1e3 / n:.3f} ms per vector)")

    if args.lanczos:
        t0 = time.perf_counter()
        gs = ground_state(H)
        print(f"  ground state in {time.perf_counter() - t0:.2f}s "
              f"(E0 = {gs.energy:.10f})")


if __name__ == "__main__":
    main()
