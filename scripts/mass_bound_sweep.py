#!/usr/bin/env python3
"""Dense sweep of the inverse-mass bound f(ε) with both cutoff shapes.

Solves the ground state once, then tabulates R, Q1, Q2, f and the induced
lower-mass diagnostic on a logarithmic ε ladder, for the compactly
supported bump and the Gaussian sensitivity alternative.  The χ≡1 endpoint
(where f must vanish up to quadrature error) is appended last.

Usage:
    python scripts/mass_bound_sweep.py [--points 12] [--out sweep.csv]
"""

import argparse
import sys

import numpy as np

import polaron as pl


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=12, help="ε ladder size")
    ap.add_argument("--eps-max", type=float, default=1.0)
    ap.add_argument("--eps-min", type=float, default=0.05)
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args()

    print("solving ground state ...", file=sys.stderr)
    state = pl.solve_pekar(pl.SolverOptions())
    mp = pl.momentum_profile(state, pl.build_grid(4000, 10.0))
    print(f"eP = {state.eP:.8f}, mu = {state.mu:.8f}", file=sys.stderr)

    ladder = np.geomspace(args.eps_max, args.eps_min, args.points)
    lines = ["shape,eps,R,Q1,Q2,f,m_lower"]
    for shape in ("bump", "gaussian"):
        for eps in ladder:
            rep = pl.bound_rhs(mp, pl.CutoffSpec(eps=float(eps), shape=shape))
            lines.append(f"{shape},{eps:.6g},{rep.R:.10g},{rep.Q1:.10g},{rep.Q2:.10g},"
                         f"{rep.f:.6g},{rep.m_lower:.6g}")
            print(lines[-1])

    endpoint = pl.bound_rhs(mp, pl.CutoffSpec(eps=1.0, shape="one"))
    lines.append(f"one,0,{endpoint.R:.10g},{endpoint.Q1:.10g},"
                 f"{endpoint.Q2:.10g},{endpoint.f:.6g},{endpoint.m_lower:.6g}")
    print(lines[-1])
    print(f"identities at the endpoint: R = {endpoint.R:.6f} (-> -3/2), "
          f"Q1-Q2 = {endpoint.Q1 - endpoint.Q2:.6f} (-> 3)", file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
