"""Batch front end: solve / verify / massbound subcommands.

All artifacts are deterministic for a fixed configuration: no timestamps,
fixed key order, 17-significant-digit numeric fields, and every file embeds
the resolved configuration plus its SHA-256 content hash.

Exit codes: 0 success, 1 verification failure (a failed verify.csv row, or
a massbound χ≡1 endpoint with |f| above the f=0 tolerance), 2 config or
output-directory error, 3 numerical/convergence failure.  `main` is the only
place that maps exceptions to exit codes; each failure prints one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .errors import ConvergenceError, DomainError, NumericalError, StepSizeError
from .grid import build_grid
from .massbound import _CHI_ONE, CutoffSpec, bound_rhs
from .momentum import el_residual_momentum, field_energy, density_expectation
from .momentum import MomentumProfile, RadialTestFunction, momentum_profile, _noisy_sign_change
from .solver import PekarState, SolverOptions, el_residual_position, solve_pekar

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# |f| allowed at the χ≡1 endpoint, by verify's f=0 row and by massbound's exit code
F_ENDPOINT_TOL = 1e-3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _artifact_header(cfg: RunConfig) -> str:
    flat = json.dumps(cfg.to_flat_dict(), sort_keys=True)
    return f"# config_hash={cfg.content_hash()}\n# config={flat}\n"


def run_solver(cfg: RunConfig) -> PekarState:
    opts = SolverOptions(
        grid=(cfg.grid_n, cfg.grid_rmax),
        mixing=cfg.solver_mixing,
        tol_energy=cfg.solver_tol_energy,
        tol_psi=cfg.solver_tol_psi,
        max_iter=cfg.solver_max_iter,
    )
    return solve_pekar(opts)


def run_pipeline(cfg: RunConfig) -> tuple[PekarState, MomentumProfile]:
    state = run_solver(cfg)
    pgrid = build_grid(cfg.momentum_n, cfg.momentum_pmax)
    return state, momentum_profile(state, pgrid)


def _write_state_json(cfg: RunConfig, state: PekarState, out: Path) -> None:
    doc = {
        "config": cfg.to_flat_dict(),
        "config_hash": cfg.content_hash(),
        "state": {
            "T": state.T,
            "D": state.D,
            "eP": state.eP,
            "mu": state.mu,
            "iterations": state.iterations,
            "residual": state.residual,
            "grid": {"n": state.psi.grid.n, "rmax": state.psi.grid.rmax, "h": state.psi.grid.h},
        },
    }
    (out / "pekar_state.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _csv_rows(*columns: np.ndarray) -> list[str]:
    """One line per node, each column's float as `_fmt` writes it ("%.17g")."""
    row = ",".join(["%.17g"] * len(columns))
    return [row % values for values in zip(*(c.tolist() for c in columns))]


def _write_profiles_csv(cfg: RunConfig, state: PekarState, mp: MomentumProfile, out: Path) -> None:
    from .coulomb import coulomb_potential

    phi_pos = coulomb_potential(state.rho)
    g, pg = state.psi.grid, mp.pgrid
    lines = [_artifact_header(cfg).rstrip("\n"), "r,psi,rho,Phi"]
    lines += _csv_rows(g.nodes, state.psi.values, state.rho.values, phi_pos.values)
    lines += ["", "p,psi_hat,dpsi_hat,phi"]
    lines += _csv_rows(pg.nodes, mp.psi_hat.values, mp.dpsi_hat.values, mp.phi.values)
    (out / "profiles.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    state, mp = run_pipeline(cfg)
    _write_state_json(cfg, state, out)
    _write_profiles_csv(cfg, state, mp, out)
    return EXIT_OK


def verification_rows(state: PekarState, mp: MomentumProfile,
                      psi_hat_ok: bool = True) -> list[tuple]:
    """(check_name, computed, expected, tolerance, pass) for the identity suite."""
    endpoint = bound_rhs(mp, _CHI_ONE)
    one = RadialTestFunction(lambda p: np.ones_like(p), bounded=True, name="1")

    rows = [
        ("D=2T", state.D, 2.0 * state.T, 1e-4 * abs(2.0 * state.T)),
        ("eP=-T", state.eP, -state.T, 1e-4 * abs(state.T)),
        ("mu=3T", state.mu, 3.0 * state.T, 1e-4 * abs(3.0 * state.T)),
        ("psi_hat_positive", 1.0 if psi_hat_ok else 0.0, 1.0, 0.0),
        ("plancherel", density_expectation(mp, one), 1.0, 1e-5),
        ("field_energy=D", field_energy(mp), state.D, 1e-4 * abs(state.D)),
        ("el_residual_position", el_residual_position(state), 0.0, 1e-6),
        ("el_residual_momentum", el_residual_momentum(mp), 0.0, 1e-3),
        ("R=-3/2", endpoint.R, -1.5, 1e-3),
        ("Q1-Q2=3", endpoint.Q1 - endpoint.Q2, 3.0, 1e-3),
        ("f=0", endpoint.f, 0.0, F_ENDPOINT_TOL),
    ]
    return [(name, comp, exp, tol, abs(comp - exp) <= tol) for name, comp, exp, tol in rows]


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    state = run_solver(cfg)
    # a sign fault of ψ̂ is tabulated as a failed row, not raised
    mp = momentum_profile(state, build_grid(cfg.momentum_n, cfg.momentum_pmax),
                          tail_floor=float("inf"))
    rows = verification_rows(state, mp, _noisy_sign_change(mp.psi_hat) is None)
    lines = [_artifact_header(cfg).rstrip("\n"), "check_name,computed,expected,tolerance,pass"]
    for name, comp, exp, tol, ok in rows:
        lines.append(f"{name},{_fmt(comp)},{_fmt(exp)},{_fmt(tol)},{_fmt(ok)}")
    (out / "verify.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK if all(ok for *_, ok in rows) else EXIT_VERIFY_FAILED


def cmd_massbound(cfg: RunConfig, out: Path) -> int:
    state, mp = run_pipeline(cfg)
    lines = [_artifact_header(cfg).rstrip("\n"), "eps,R,Q1,Q2,f,m_lower"]
    reports = [(eps, bound_rhs(mp, CutoffSpec(eps=eps, shape=cfg.cutoff_shape)))
               for eps in cfg.cutoff_eps_list]
    endpoint = bound_rhs(mp, _CHI_ONE)
    reports.append((0.0, endpoint))
    for label, rep in reports:
        lines.append(",".join(_fmt(v) for v in (label, rep.R, rep.Q1, rep.Q2, rep.f, rep.m_lower)))
    (out / "massbound.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not abs(endpoint.f) <= F_ENDPOINT_TOL:
        print(f"massbound: chi=1 endpoint f = {endpoint.f:.3g} misses 0 by more than "
              f"{F_ENDPOINT_TOL:g}; the grids do not resolve the bound", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _write_history(exc: ConvergenceError, out: Path) -> None:
    history = [{"energy": e, "dpsi": d, "scf": s} for e, d, s in exc.history]
    (out / "residual_history.json").write_text(
        json.dumps({"error": str(exc), "history": history}, indent=2) + "\n",
        encoding="utf-8",
    )


def _fail(code: int, prefix: str, exc: BaseException) -> int:
    print(f"{prefix}: {' '.join(str(exc).split())}", file=sys.stderr)  # one line
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polaron",
        description="Pekar ground state, momentum observables and the "
                    "inverse-mass bound diagnostic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the ground state and write state/profile artifacts"),
        ("verify", "run the identity suite and write verify.csv"),
        ("massbound", "sweep the cutoff scale and write massbound.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (ConfigError, UnicodeDecodeError, OSError) as exc:
        return _fail(EXIT_CONFIG, "config error", exc)

    out = Path(args.out) if args.out else Path(cfg.output_dir)
    handler = {"solve": cmd_solve, "verify": cmd_verify, "massbound": cmd_massbound}[args.command]
    try:
        out.mkdir(parents=True, exist_ok=True)
        # floating-point faults raise instead of warning on stderr
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                return handler(cfg, out)
            except ConvergenceError as exc:
                _write_history(exc, out)
                raise
    except (ConvergenceError, NumericalError, DomainError, StepSizeError,
            ValueError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERICAL, "error", exc)
    except OSError as exc:
        return _fail(EXIT_CONFIG, "output error", exc)


if __name__ == "__main__":
    raise SystemExit(main())
