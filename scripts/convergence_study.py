#!/usr/bin/env python3
"""Grid-convergence study of the ground-state energy and mass coefficient.

Sweeps (n, rmax) ladders at fixed resolution ratio and prints a CSV table
of eP, the virial defect and the quartic mass prefactor, so the
discretization error model C·h⁴ can be read off directly.

Usage:
    python scripts/convergence_study.py [--out convergence.csv]
"""

import argparse
import sys
import time

import polaron as pl

LADDER = [
    (750, 30.0),
    (1500, 30.0),
    (3000, 30.0),
    (6000, 30.0),
    (6000, 40.0),
    (9000, 45.0),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args()

    lines = ["n,rmax,h,eP,virial_defect,mass_coeff,iterations,seconds"]
    for n, rmax in LADDER:
        t0 = time.perf_counter()
        st = pl.solve_pekar(pl.SolverOptions(grid=(n, rmax)))
        dt = time.perf_counter() - t0
        virial = abs(st.D - 2 * st.T) / (2 * st.T)
        coeff = pl.mass_coefficient(st)
        lines.append(f"{n},{rmax},{rmax / n:.6g},{st.eP:.12g},{virial:.3e},"
                     f"{coeff:.10g},{st.iterations},{dt:.2f}")
        print(lines[-1])

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
