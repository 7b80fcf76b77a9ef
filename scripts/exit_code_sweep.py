#!/usr/bin/env python3
"""Exit codes of `polaron` on seeded random valid configurations.

`run` draws `--count` config documents (config `seed + i` for the i-th),
passes each through `polaron.cli.main` with a random command, and prints one
JSON record per config: the document, the command, the exit code, the
stderr line and the SCF iteration count (the history length when the solve
fails to converge; null when no solve ran).  `diff` lists the records of two
such runs whose exit codes or iteration counts differ, and counts the
iteration counts that rose and fell, so two versions of the package can be
compared on the same documents.

Usage:
    PYTHONPATH=src python scripts/exit_code_sweep.py run --count 600 > new.jsonl
    python scripts/exit_code_sweep.py diff old.jsonl new.jsonl
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("POLARON_THREADS", "1")

import numpy as np  # noqa: E402

COMMANDS = ("solve", "verify", "massbound")


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_doc(seed: int) -> tuple[dict, str]:
    """A config document inside the validated ranges, each key present with
    probability 1/2, and a command; grids span 2 nodes to the default sizes."""
    rng = np.random.default_rng(seed)
    doc = {}
    draws = {
        "grid.n": lambda: int(round(_log_uniform(rng, 2, 4000))),
        # the radial step rmax / n validates up to 300; 3000 is grid.n's default
        "grid.rmax": lambda: _log_uniform(rng, 1e-2, min(1e3, 300 * doc.get("grid.n", 3000))),
        "momentum.n": lambda: int(round(_log_uniform(rng, 2, 4000))),
        "momentum.pmax": lambda: _log_uniform(rng, 1e-1, 1e2),
        "solver.tol_psi": lambda: _log_uniform(rng, 1e-12, 1e-2),
        "cutoff.shape": lambda: str(rng.choice(["bump", "gaussian"])),
        "cutoff.eps_list": lambda: sorted({_log_uniform(rng, 1e-3, 1e1)
                                           for _ in range(int(rng.integers(1, 5)))},
                                          reverse=True),
    }
    for key, draw in draws.items():
        if rng.random() < 0.5:
            doc[key] = draw()
    # solver.tol_psi is no longer a config key; it is still drawn, so that seed i
    # gives the same document as before, less that key
    doc.pop("solver.tol_psi", None)
    return doc, str(rng.choice(COMMANDS))


def run_one(doc: dict, command: str) -> dict:
    import polaron.cli as cli

    iterations = []
    solve = cli.solve_pekar

    def counted(opts):
        try:
            state = solve(opts)
        except cli.ConvergenceError as exc:
            iterations.append(len(exc.history))
            raise
        iterations.append(state.iterations)
        return state

    cli.solve_pekar = counted
    err = io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    finally:
        cli.solve_pekar = solve
    return {"doc": doc, "command": command, "code": code,
            "stderr": err.getvalue().strip(), "iterations": iterations[0] if iterations else None}


def cmd_run(args) -> int:
    for i in range(args.count):
        doc, command = random_doc(args.seed + i)
        print(json.dumps({"index": i, **run_one(doc, command)}), flush=True)
    return 0


def cmd_diff(args) -> int:
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {rec["index"]: rec for rec in map(json.loads, fh)}

    old, new = load(args.old), load(args.new)
    common = sorted(old.keys() & new.keys())
    changed, rose, fell = 0, 0, 0
    for i in common:
        a, b = old[i], new[i]
        if a["doc"] != b["doc"] or a["command"] != b["command"]:
            raise SystemExit(f"record {i}: the two runs drew different configs")
        if a["code"] == b["code"] and a["iterations"] == b["iterations"]:
            continue
        changed += a["code"] != b["code"]
        if None not in (a["iterations"], b["iterations"]):
            rose += b["iterations"] > a["iterations"]
            fell += b["iterations"] < a["iterations"]
        print(f"{i} {a['command']} {json.dumps(a['doc'], sort_keys=True)}: "
              f"exit {a['code']} -> {b['code']}, "
              f"iterations {a['iterations']} -> {b['iterations']}; "
              f"stderr {a['stderr']!r} -> {b['stderr']!r}")
    print(f"{changed} of {len(common)} exit codes changed", file=sys.stderr)
    print(f"iteration counts: {rose} rose, {fell} fell", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="print one JSON record per random config")
    run.add_argument("--count", type=int, default=600)
    run.add_argument("--seed", type=int, default=0)
    diff = sub.add_parser("diff", help="list records whose exit codes or iteration counts differ")
    diff.add_argument("old")
    diff.add_argument("new")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_diff(args)


if __name__ == "__main__":
    raise SystemExit(main())
