"""The benchmark's workloads: inputs generated from a seed, the timed call,
and the checks on every run's output.

Import this module only after POLARON_THREADS is set: it imports polaron,
which caps the BLAS thread pools when numpy loads.

Only verify_default and solve_fine ignore the seed.  massbound_default draws
its cutoff scales from it and cross_functional the decay rate of ξ; seed 0
gives the README values.  The program receives only the generated config
document (CLI workloads) or the generated arguments (cross_functional).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import polaron as pl  # before numpy: polaron sets the BLAS thread caps
import polaron.cli
import numpy as np

DEFAULT_EPS = [0.5, 0.2, 0.1, 0.05]
DEFAULT_GRID = (3000, 30.0)
MOMENTUM_GRID = (4000, 10.0)
FINE_GRID = (6000, 40.0)
EP_ROUNDED = -0.1085  # eP of the minimizer to four decimals, on both grids
ONE = pl.RadialTestFunction(lambda p: np.ones_like(p), bounded=True, name="1")


def massbound_eps(seed: int) -> list[float]:
    """Four cutoff scales, log-uniform in [0.05, 0.5], strictly decreasing."""
    if seed == 0:
        return list(DEFAULT_EPS)
    rng = random.Random(seed)
    while True:
        eps = sorted((math.exp(rng.uniform(math.log(0.05), math.log(0.5))) for _ in range(4)),
                     reverse=True)
        if all(a > b for a, b in zip(eps, eps[1:])):
            return eps


def xi_decay(seed: int) -> float:
    """Decay rate a of ξ(k) = exp(−a k), log-uniform in [0.5, 2]."""
    return 1.0 if seed == 0 else 2.0 ** random.Random(seed).uniform(-1.0, 1.0)


def generate(workload: str, seed: int) -> dict:
    """The inputs the program receives for one workload and seed."""
    if workload == "verify_default":
        return {"command": "verify", "config": {}}
    if workload == "massbound_default":
        return {"command": "massbound",
                "config": {"cutoff.shape": "bump", "cutoff.eps_list": massbound_eps(seed)}}
    if workload == "solve_fine":
        return {"command": "solve",
                "config": {"grid.n": FINE_GRID[0], "grid.rmax": FINE_GRID[1]}}
    if workload == "cross_functional":
        return {"grid": list(DEFAULT_GRID), "momentum": list(MOMENTUM_GRID),
                "xi_decay": xi_decay(seed)}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """What one timed call produced: CLI exit code and artifact bytes, or the
    values returned by the library sequence."""

    exit_code: int = 0
    artifacts: dict[str, bytes] | None = None
    values: dict | None = None


def prepare(inputs: dict, workdir: Path) -> Callable[[], Outcome]:
    """Write the inputs to workdir and return the call to time."""
    if "command" not in inputs:
        return lambda: cross_sequence(inputs)
    config = workdir / "config.json"
    config.write_text(json.dumps(inputs["config"]), encoding="utf-8")
    out = workdir / "out"
    argv = [inputs["command"], "--config", str(config), "--out", str(out)]
    return lambda: Outcome(exit_code=polaron.cli.main(argv))


def collect(outcome: Outcome, inputs: dict, workdir: Path) -> Outcome:
    """Complete an outcome after the timed region: read the artifacts a CLI call
    left in workdir, or add the criterion-9 oracle gaps to the values of the
    library sequence."""
    if outcome.values is None:
        out = workdir / "out"
        if out.is_dir():
            outcome.artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return outcome
    v = outcome.values
    mp, state, a = v["mp"], v["state"], inputs["xi_decay"]
    pg = mp.pgrid
    oracle = 4.0 * np.pi * pg.integrate(
        pg.nodes**2 * mp.phi.values * np.exp(-a * pg.nodes) * mp.rho_hat().values)
    v["cross_relgap"] = abs(v["cross"] - oracle) / abs(oracle)
    v["number_relgap"] = abs(v["number"] - state.D) / state.D
    return outcome


def cross_sequence(inputs: dict) -> Outcome:
    """solve_pekar → momentum_profile → cross_expectation and number_expectation."""
    a = inputs["xi_decay"]
    state = pl.solve_pekar(pl.SolverOptions(grid=tuple(inputs["grid"])))
    mp = pl.momentum_profile(state, pl.build_grid(*inputs["momentum"]))
    xi = pl.RadialTestFunction(lambda k: np.exp(-a * k), bounded=True, name=f"exp(-{a}k)")
    cross = pl.cross_expectation(mp, xi, ONE)
    number = pl.number_expectation(mp, ONE)
    return Outcome(values={"state": state, "mp": mp, "cross": cross, "number": number})


def reference(inputs: dict, outcome: Outcome):
    """(state, momentum profile) the workload computed.

    The library sequence returns them; for a CLI command they are recomputed
    with the library from the same grids, and the artifact checks compare
    the two.
    """
    if outcome.values is not None:
        return outcome.values["state"], outcome.values["mp"]
    cfg = inputs["config"]
    grid = (cfg.get("grid.n", DEFAULT_GRID[0]), cfg.get("grid.rmax", DEFAULT_GRID[1]))
    pgrid = (cfg.get("momentum.n", MOMENTUM_GRID[0]), cfg.get("momentum.pmax", MOMENTUM_GRID[1]))
    state = pl.solve_pekar(pl.SolverOptions(grid=grid))
    return state, pl.momentum_profile(state, pl.build_grid(*pgrid))


def accuracy(state, mp) -> dict[str, float]:
    """Oracle gaps of the χ≡1 endpoint and of the momentum transforms."""
    one = pl.CutoffSpec(eps=1.0, shape="one")
    R0 = pl.pairing_term(mp, one)
    Q20 = pl.potential_term(mp, one)
    f0 = 1.0 + (pl.kinetic_term(mp, one) - Q20) / 3.0 + 4.0 * R0 / 3.0
    oracle = pl.potential_term_position_oracle(state)
    return {
        "R0": R0,
        "Q20": Q20,
        "f0": f0,
        "eP": state.eP,
        "q2_oracle_relgap": abs(Q20 - oracle) / abs(oracle),
        "f_endpoint_abs": abs(f0),
        "plancherel_err": abs(pl.density_expectation(mp, ONE) - 1.0),
        "field_energy_relgap": abs(pl.field_energy(mp) - state.D) / state.D,
    }


def _table(text: str) -> list[dict[str, str]]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_accuracy(acc: dict[str, float]) -> list[str]:
    """Checks every workload's state must pass."""
    bad = []
    if round(acc["eP"], 4) != EP_ROUNDED:
        bad.append(f"eP {acc['eP']:.6f} does not round to {EP_ROUNDED}")
    if abs(acc["R0"] + 1.5) > 1e-3:
        bad.append(f"R(χ≡1) = {acc['R0']:.6f} is not within 1e-3 of -3/2")
    if acc["f_endpoint_abs"] > 2e-2:
        bad.append(f"|f(χ≡1)| = {acc['f_endpoint_abs']:.3e} exceeds 2e-2")
    return bad


def check_verify(outcome: Outcome, acc: dict[str, float]) -> list[str]:
    rows = {r["check_name"]: r for r in _table(outcome.artifacts["verify.csv"].decode())}
    bad = [f"verify.csv row {name} fails" for name, r in rows.items() if r["pass"] != "true"]
    for name, key in (("f=0", "f0"), ("eP=-T", "eP")):
        if not _same(float(rows[name]["computed"]), acc[key]):
            bad.append(f"verify.csv {name} disagrees with the library on the same state")
    return bad


def check_massbound(outcome: Outcome, acc: dict[str, float]) -> list[str]:
    rows = _table(outcome.artifacts["massbound.csv"].decode())
    f = [abs(float(r["f"])) for r in rows]
    bad = []
    if any(b > a for a, b in zip(f, f[1:])):
        bad.append(f"|f| increases as eps decreases: {f}")
    endpoint = rows[-1]
    if float(endpoint["eps"]) != 0.0:
        bad.append("massbound.csv has no chi=1 endpoint row")
    if not (_same(float(endpoint["Q2"]), acc["Q20"]) and _same(float(endpoint["f"]), acc["f0"])):
        bad.append("massbound.csv endpoint disagrees with the library on the same state")
    return bad


def check_solve(outcome: Outcome, acc: dict[str, float]) -> list[str]:
    state = json.loads(outcome.artifacts["pekar_state.json"])["state"]
    bad = []
    if not _same(state["eP"], acc["eP"]):
        bad.append("pekar_state.json eP disagrees with the library on the same grid")
    if "profiles.csv" not in outcome.artifacts:
        bad.append("profiles.csv missing")
    return bad


def check_cross(outcome: Outcome, acc: dict[str, float]) -> list[str]:
    v = outcome.values
    bad = []
    if v["cross_relgap"] > 1e-3:
        bad.append(f"cross functional off its 1-d reduction by {v['cross_relgap']:.2e}")
    if v["number_relgap"] > 1e-4:
        bad.append(f"number expectation off D by {v['number_relgap']:.2e}")
    if acc["plancherel_err"] > 1e-5:
        bad.append(f"g=1 norm off 1 by {acc['plancherel_err']:.2e}")
    return bad


CHECKS = {
    "verify": check_verify,
    "massbound": check_massbound,
    "solve": check_solve,
}


def check(inputs: dict, outcome: Outcome, acc: dict[str, float]) -> list[str]:
    """Every failed check of one call, as messages; empty when the output is correct."""
    if "command" not in inputs:
        return check_cross(outcome, acc)
    if outcome.exit_code != 0:
        return [f"polaron {inputs['command']} exited with {outcome.exit_code}"]
    return CHECKS[inputs["command"]](outcome, acc)


def layer_accuracy(inputs: dict, outcome: Outcome) -> dict[str, float]:
    """Accuracy of the two angular quadratures only some workloads run."""
    out = {"momentum.el_residual_momentum.residual": 0.0,
           "momentum.cross_expectation.relgap": 0.0}
    if outcome.values is not None:
        out["momentum.cross_expectation.relgap"] = outcome.values["cross_relgap"]
    elif inputs["command"] == "verify" and "verify.csv" in (outcome.artifacts or {}):
        rows = {r["check_name"]: r for r in _table(outcome.artifacts["verify.csv"].decode())}
        if "el_residual_momentum" in rows:
            out["momentum.el_residual_momentum.residual"] = float(
                rows["el_residual_momentum"]["computed"])
    return out
