"""Ground state of the Pekar (Choquard) energy by self-consistent iteration.

The energy of a normalized wave function ψ is

    E[ψ] = ∫ |∇ψ|² dx − ∬ |ψ(x)|² |ψ(y)|² / |x−y| dx dy = T − D,

and the minimizer solves the nonlinear eigenvalue problem

    −Δψ − 2 Φ_ρ ψ = λ ψ,    Φ_ρ = ρ * 1/|x|,  ρ = ψ²,  λ = T − 2D = −μ.

Note the factor 2 in the effective potential: the interaction term carries no
1/2, so differentiating the double integral doubles it.

On the radial reduction u(r) = r ψ(r) with Dirichlet walls u(0) = u(rmax) = 0
the linearized operator is the symmetric tridiagonal −d²/dr² + W, W = −2Φ.
Each SCF step solves its lowest eigenpair and mixes densities:

    ρ_{k+1} = (1 − β) ρ_k + β |ψ_new|².

An explicit imaginary-time gradient flow on the same reduced problem serves
as an algorithmically independent cross-check (`imaginary_time_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .coulomb import coulomb_bilinear, coulomb_potential
from .errors import ConvergenceError, NumericalError, StepSizeError
from .grid import RadialFunction, RadialGrid, build_grid


@dataclass
class SolverOptions:
    """Configuration of the ground-state search.

    grid is (n, rmax); init selects the starting profile ('hydrogenic' for
    e^{-r}, 'gaussian' for e^{-r²/2}); mixing is the density-mixing weight β.
    """

    grid: tuple[int, float] = (3000, 30.0)
    init: str = "hydrogenic"
    mixing: float = 0.5
    tol_energy: float = 1e-10
    tol_psi: float = 1e-8
    max_iter: int = 300

    def __post_init__(self):
        if not (0.0 < self.mixing <= 1.0):
            raise ValueError(f"mixing must lie in (0, 1], got {self.mixing}")
        if self.tol_energy <= 0 or self.tol_psi <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if self.init not in ("hydrogenic", "gaussian"):
            raise ValueError(f"unknown init profile {self.init!r}")


@dataclass
class PekarState:
    """Converged minimizer with its energy decomposition.

    T = ∫|∇ψ|², D = ∬ρρ/|x−y|, eP = T − D, μ = D − eP = 2D − T.
    """

    psi: RadialFunction
    rho: RadialFunction
    T: float
    D: float
    eP: float
    mu: float
    iterations: int
    residual: float


def _initial_u(grid: RadialGrid, tag: str) -> np.ndarray:
    r = grid.nodes
    if tag == "gaussian":
        psi0 = np.exp(-0.5 * r**2)
    else:
        psi0 = np.exp(-r)
    return r * psi0


def _normalize_u(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    # ∫|ψ|² d³x = 4π ∫ u² dr for ψ = u/r
    nrm2 = 4.0 * np.pi * grid.integrate(u**2)
    u = u / np.sqrt(nrm2)
    if grid.integrate(u) < 0.0:
        u = -u
    return u


def _apply_kinetic(u: np.ndarray, h: float) -> np.ndarray:
    """−u'' by central differences with u = 0 at both walls."""
    out = np.empty_like(u)
    out[1:-1] = (2.0 * u[1:-1] - u[:-2] - u[2:]) / h**2
    out[0] = (2.0 * u[0] - u[1]) / h**2
    out[-1] = (2.0 * u[-1] - u[-2]) / h**2
    return out


def _kinetic_energy(grid: RadialGrid, u: np.ndarray) -> float:
    return 4.0 * np.pi * grid.integrate(u * _apply_kinetic(u, grid.h))


def _ground_pair(grid: RadialGrid, w_pot: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of −d²/dr² + W on interior nodes r_1..r_{n−1}."""
    h = grid.h
    diag = 2.0 / h**2 + w_pot[:-1]
    off = np.full(grid.n - 2, -1.0 / h**2)
    try:
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    u = np.append(vecs[:, 0], 0.0)
    return float(vals[0]), u


def _energies(grid: RadialGrid, u: np.ndarray) -> tuple[float, float, RadialFunction]:
    psi = u / grid.nodes
    rho = RadialFunction(grid, psi**2)
    T = _kinetic_energy(grid, u)
    D = coulomb_bilinear(rho, rho)
    return T, D, rho


def _state_from_u(grid: RadialGrid, u: np.ndarray, iterations: int, residual: float) -> PekarState:
    T, D, rho = _energies(grid, u)
    psi = RadialFunction(grid, u / grid.nodes)
    return PekarState(
        psi=psi,
        rho=rho,
        T=T,
        D=D,
        eP=T - D,
        mu=2.0 * D - T,
        iterations=iterations,
        residual=residual,
    )


def solve_pekar(opts: SolverOptions) -> PekarState:
    """Self-consistent minimization of the Pekar energy.

    Converges when both the energy change and the L² change of ψ drop below
    their tolerances.  Raises ConvergenceError (carrying the iteration
    history) if max_iter is exhausted first.
    """
    grid = build_grid(*opts.grid)
    u = _normalize_u(grid, _initial_u(grid, opts.init))
    psi_prev = u / grid.nodes
    rho_mix = psi_prev**2
    e_prev = np.inf
    history: list[tuple[float, float]] = []

    for k in range(1, opts.max_iter + 1):
        phi = coulomb_potential(RadialFunction(grid, rho_mix))
        _, u = _ground_pair(grid, -2.0 * phi.values)
        u = _normalize_u(grid, u)
        psi = u / grid.nodes

        T, D, _ = _energies(grid, u)
        e_new = T - D
        dpsi = np.sqrt(4.0 * np.pi * grid.integrate((u - grid.nodes * psi_prev) ** 2))
        history.append((e_new, dpsi))

        if abs(e_new - e_prev) <= opts.tol_energy and dpsi <= opts.tol_psi:
            return _state_from_u(grid, u, iterations=k, residual=dpsi)

        rho_mix = (1.0 - opts.mixing) * rho_mix + opts.mixing * psi**2
        psi_prev = psi
        e_prev = e_new

    raise ConvergenceError(
        f"SCF did not converge in {opts.max_iter} iterations "
        f"(last dE={abs(history[-1][0] - history[-2][0]) if len(history) > 1 else np.inf:.3e}, "
        f"last |dpsi|={history[-1][1]:.3e})",
        last_state=_state_from_u(grid, u, iterations=opts.max_iter, residual=history[-1][1]),
        history=history,
    )


def imaginary_time_oracle(opts: SolverOptions, step: float = 1e-3) -> PekarState:
    """Independent minimizer: explicit gradient flow u ← u − step·(−u'' − 2Φu).

    The profile is renormalized each step and the energy must be
    non-increasing (up to 1e-12 per step); a violation means the step exceeds
    the explicit-Euler stability limit ~h²/2 and raises StepSizeError.
    Stops when the per-step energy change stays below tol_energy.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grid = build_grid(*opts.grid)
    u = _normalize_u(grid, _initial_u(grid, opts.init))
    r = grid.nodes

    T, D, rho = _energies(grid, u)
    e_prev = T - D
    for k in range(1, opts.max_iter + 1):
        phi = coulomb_potential(rho)
        grad = _apply_kinetic(u, grid.h) - 2.0 * phi.values * u
        u = u - step * grad
        u[-1] = 0.0  # Dirichlet wall
        u = _normalize_u(grid, u)

        T, D, rho = _energies(grid, u)
        e_new = T - D
        if e_new > e_prev + 1e-12:
            raise StepSizeError(
                f"energy increased by {e_new - e_prev:.3e} at step {k}; "
                f"step={step:g} exceeds the stability limit for h={grid.h:g}"
            )
        if abs(e_new - e_prev) <= opts.tol_energy:
            return _state_from_u(grid, u, iterations=k, residual=abs(e_new - e_prev))
        e_prev = e_new

    raise ConvergenceError(
        f"imaginary-time flow did not stagnate below {opts.tol_energy:g} "
        f"in {opts.max_iter} steps",
        last_state=_state_from_u(grid, u, iterations=opts.max_iter, residual=abs(e_new - e_prev)),
    )


def el_residual_position(state: PekarState) -> float:
    """L² norm of (−Δψ − 2Φ_ρ ψ) − λψ with λ = T − 2D, on the reduced problem.

    Zero (to solver tolerance) exactly when ψ is the self-consistent ground
    state; O(1) for generic normalized profiles.
    """
    grid = state.psi.grid
    u = grid.nodes * state.psi.values
    phi = coulomb_potential(state.rho)
    lam = state.T - 2.0 * state.D
    res = _apply_kinetic(u, grid.h) - 2.0 * phi.values * u - lam * u
    # the last node is pinned by the Dirichlet wall, not an equation
    res[-1] = 0.0
    return float(np.sqrt(4.0 * np.pi * grid.integrate(res**2)))
