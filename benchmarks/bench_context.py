#!/usr/bin/env python3
"""Time the sparse context build by stage, with the peak RSS after each.

    python benchmarks/bench_context.py [--extents 4x4] [--spin 0.5]
                                       [--fields N]

The field, the seed, the solver tolerance and the wavepacket are those of
`configs/torus4x4.ini`.  With `--fields N`, the script first builds the
contexts of the ladder B, B/2, B/4, ... (N fields) one after another, as
`run_scan` does: each from the rows that the lattice's fields share
(`operators.shared_rows`, built with the first), and each dropped before
the next is built.  It prints each field's time and the peak RSS after it.
`SystemContext` gives a lattice within the config's dense cap (2x4) the
dense oracle, and a larger one (4x4) its blocks.

Then the stages of one field, in order, each from empty caches where said:

- `enumeration`: `sector_basis` of every pair (M, -M), M = 0 .. N S;
- `orbits`: the orbit pass of every pair, its lookup table dropped after;
- `shared rows`: from empty caches, as a lattice's first field starts:
  the orbit passes of M = 0 and +-1, their rows and the ladder terms;
- `block (0, 0)`: block (0, 0) and its Lanczos ground state;
- `ground sector`: block (M, 0), its Lanczos ground state and its
  Collatz-Wielandt floor (`filters.spectral_interval`), M = 1 .. N S; it
  prints the floor of M = 1, the interval's lower end, and the least
  floor - E0; M >= 2 run their own orbit passes, as at every field;
- `blocks (1, q)`: the interval's upper end, the closed-form ceiling
  `pair_ceiling` of M = +-1, and the other blocks (1, q) of the moment
  pass of a `configs/torus4x4.ini` scan;
- `expansions`: the den and num Chebyshev expansions (`filter_expansions`)
  of the config's window, chosen as the scan chooses it, on the interval of
  a block context (`dense_cap = 0`, so a 2x4 lattice takes it too); the
  context, which fixes its interval when it is built, is built before the
  clock starts.

A context keeps the blocks (1, q) of its pass until its field is done;
this script builds each and drops it, so the last stage's peak is that of
one block at a time.  Peak RSS is the process's high-water mark so far
(`ru_maxrss`), so a stage's peak includes that of the fields before it.
"""

import argparse
import resource
import time
from pathlib import Path

# goldstone before numpy, so the timings run on the scan's one BLAS thread
import goldstone.operators as operators
from goldstone.analysis import SystemContext, filter_keys
from goldstone.config import parse_config
from goldstone.eigensolver import ground_state
from goldstone.filters import WavepacketSpec, build_f, spectral_interval
from goldstone.lattice import Lattice
from goldstone.operators import (build_hamiltonian, pair_ceiling,
                                 sector_basis, shared_rows)
from goldstone.runner import _auto_filter

TORUS = Path(__file__).resolve().parent.parent / "configs" / "torus4x4.ini"


def empty_caches():
    """Clear every cache of `goldstone.operators`, as in a new process."""
    for fn in vars(operators).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--extents", default="4x4")
    parser.add_argument("--spin", type=float, default=0.5)
    parser.add_argument("--fields", type=int, default=0)
    args = parser.parse_args()

    cfg = parse_config(TORUS)
    lat = Lattice(tuple(int(t) for t in args.extents.split("x")), args.spin)
    B = cfg.b_ladder[0]
    tol, seed = cfg.tolerances.solver, cfg.seed
    zero = (0,) * lat.dimension
    pairs = range(lat.n_sites * lat.two_s // 2 + 1)
    p = cfg.p_values[0]
    weights = build_f(WavepacketSpec(p, cfg.resolve_kappa([4 * p / 3])), lat)
    keys = filter_keys(lat, weights, cfg.checks)
    qs = list(dict.fromkeys(n if axis == 2 else lat.shift_q(n)
                            for n, axis in keys))
    print(f"lattice {args.extents}, spin {lat.spin}, B = {B}: "
          f"{len(pairs)} pairs, {len(keys)} pass vectors in {len(qs)} "
          "blocks (1, q)")

    empty_caches()
    for i in range(args.fields):
        t0 = time.perf_counter()
        ctx = SystemContext(lat, B / 2 ** i, dense_cap=cfg.dense_cap,
                            tolerances=cfg.tolerances, seed=cfg.seed)
        print(f"  field {i + 1}, B = {ctx.B:<8g} "
              f"{time.perf_counter() - t0:8.3f} s   peak RSS "
              f"{peak_mb():7.0f} MB   E0 = {ctx.gs.energy!r}")
        del ctx

    def stage(name, fn):
        t0 = time.perf_counter()
        note = fn()
        print(f"  {name:14s} {time.perf_counter() - t0:8.3f} s   peak RSS "
              f"{peak_mb():7.0f} MB   {note}")

    def enumeration():
        dims = [sector_basis(lat, (M, -M) if M else (0,)).dim
                for M in pairs]
        return f"{sum(dims)} states"

    def orbits():
        reps = [operators._orbit_pass(lat, M)[0].reps.dim for M in pairs]
        return f"{sum(reps)} reps"

    def rows():
        empty_caches()
        zero_rows, pair_rows, ladders = shared_rows(lat)
        return (f"{len(zero_rows.src) + len(pair_rows.src)} hops, "
                f"{len(ladders[0])} ladder terms")

    def ground_block():
        H = build_hamiltonian(lat, B, (0, zero))
        e0.append(ground_state(H, tol, seed).energy)
        return f"dim {H.dim}, nnz {H.nnz}, E0 = {e0[0]!r}"

    def ground_sector():
        floors = []
        for M in pairs[1:]:
            H = build_hamiltonian(lat, B, (M, zero))
            floors.append(spectral_interval(H, ground_state(H, tol,
                                                            seed).vector))
        return (f"floor of M = 1: {floors[0]!r}, least gap "
                f"{min(floors) - e0[0]:.6g}")

    def pass_blocks():
        upper = pair_ceiling(lat, B)
        nnz = [build_hamiltonian(lat, B, (1, q)).nnz
               for q in qs if q != zero]
        return f"{len(nnz)} blocks, {sum(nnz)} nonzeros, upper {upper!r}"

    def expansions():
        den, num = ctx.filter_expansions(g)
        return (f"epsilon {g.epsilon:.6g}: degrees {den.degree}/"
                f"{num.degree}, sup errors {den.sup_error:.4g}/"
                f"{num.sup_error:.4g}")

    e0 = []
    stage("enumeration", enumeration)
    stage("orbits", orbits)
    stage("shared rows", rows)
    stage("block (0, 0)", ground_block)
    stage("ground sector", ground_sector)
    stage("blocks (1, q)", pass_blocks)
    ctx = SystemContext(lat, B, dense_cap=0, tolerances=cfg.tolerances,
                        seed=seed)
    g = _auto_filter(ctx, weights, cfg)[0]
    stage("expansions", expansions)


if __name__ == "__main__":
    main()
