#!/usr/bin/env python3
"""Benchmark the locality suite on the dense oracle.

Times the three profiles and the partial-trace checks of the scan's
locality group, at the locality settings of `configs/desk.ini` (window,
times, spin and field ladder), with S^(2) at site 0, as the scan takes them,
on each lattice of `--extents`:

    python benchmarks/bench_locality.py [--extents 2x2,2x4] [--reps 5]

- `lr_commutator_profile`: Lieb-Robinson commutator norms at the ladder's
  middle field, as the scan takes them;
- `delta_decomposition`: the telescoping ball decomposition of the smeared
  evolution tau*g(a) at that field;
- `b_continuity`: r(B) over the whole ladder, including the B = 0 solve;
- `partial_trace_checks`: the norms of the scan's idempotence, contraction
  and reconstruction checks, on operators formed beforehand (the ball-1
  local approximation of tau*g(a), applied once and twice, and the
  telescoping shells).

The dense spectra are set up once per lattice and are not timed.  Each row
gives the median and the spread (min-max) of the per-call wall times.
"""

import argparse
import time
from pathlib import Path

# goldstone before numpy, so the timings run on the scan's one BLAS thread
from goldstone.config import parse_config
from goldstone.eigensolver import dense_spectrum
from goldstone.filters import GFilter
from goldstone.lattice import Lattice
from goldstone.locality import (b_continuity, delta_decomposition,
                                local_approximation, lr_commutator_profile,
                                operator_norm, support_norm, tau_g_star)
from goldstone.operators import build_hamiltonian, site_spin_operator

import numpy as np

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.ini"


def timed(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--extents", default="2x2,2x4",
                        help="comma-separated lattices, e.g. 2x4 or 2x2,2x4")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()

    cfg = parse_config(DESK)
    g = GFilter(cfg.locality_epsilon, cfg.locality_gamma,
                cfg.locality_delta_gamma)
    ladder = cfg.b_ladder
    print(f"{DESK.name}: times {list(cfg.locality_times)}, "
          "S^(2) at site 0, "
          f"ladder {list(ladder)}, {args.reps} reps")
    for token in args.extents.split(","):
        extents = tuple(int(t) for t in token.split("x"))
        lat = Lattice(extents, spin=cfg.spin)
        spectra = [(b, dense_spectrum(build_hamiltonian(lat, b)))
                   for b in ladder]
        dec = spectra[len(spectra) // 2][1]
        a = site_spin_operator(lat, 0, 2).to_dense()
        smeared = tau_g_star(dec, g, a)
        ball = lat.ball(0, 1)
        once = local_approximation(smeared, ball, lat)
        twice = local_approximation(once, ball, lat)
        deltas, _, _ = delta_decomposition(smeared, lat)
        print(f"lattice {token}: dim {dec.dim}")
        calls = {
            "lr_commutator_profile": lambda: lr_commutator_profile(
                dec, lat, cfg.locality_times, a),
            "delta_decomposition": lambda: delta_decomposition(smeared, lat),
            "b_continuity": lambda: b_continuity(lat, g, spectra, a),
            "partial_trace_checks": lambda: (
                support_norm(once - twice, ball, lat),
                support_norm(once, ball, lat) - operator_norm(smeared),
                operator_norm(sum(deltas) - smeared)),
        }
        for name, fn in calls.items():
            times = timed(fn, args.reps)
            print(f"  {name:22s}: median {np.median(times) * 1e3:9.2f} ms "
                  f"(min {min(times) * 1e3:.2f}, max "
                  f"{max(times) * 1e3:.2f})")


if __name__ == "__main__":
    main()
