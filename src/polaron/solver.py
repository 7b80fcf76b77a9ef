"""Ground state of the Pekar (Choquard) energy by self-consistent iteration.

The energy of a normalized wave function ψ is

    E[ψ] = ∫ |∇ψ|² dx − ∬ |ψ(x)|² |ψ(y)|² / |x−y| dx dy = T − D,

and the minimizer solves the nonlinear eigenvalue problem

    −Δψ − 2 Φ_ρ ψ = λ ψ,    Φ_ρ = ρ * 1/|x|,  ρ = ψ²,  λ = T − 2D = −μ.

Note the factor 2 in the effective potential: the interaction term carries no
1/2, so differentiating the double integral doubles it.

On the radial reduction u(r) = r ψ(r) with Dirichlet walls u(0) = u(rmax) = 0
the linearized operator is the symmetric tridiagonal H = −d²/dr² + W, W = −2Φ.
Each SCF step finds its lowest eigenpair by inverse iteration warm-started
from the current iterate, with shifts certified to lie below the spectrum
(an O(n) LDLᵀ factorization with positive pivots, see `_ground_pair`).  The
input density is then updated by Anderson (Pulay, "DIIS") mixing of the
residual f_k = ρ_out,k − ρ_in,k with ρ_out,k = |ψ_new|²:

    ρ_in,k+1 = ρ_in,k + β f_k − Σ_j γ_j (Δρ_in,j + β Δf_j),

where Δ are the differences between successive steps over the last
`_DEPTH` steps, and γ minimizes ‖f_k − Σ_j γ_j Δf_j‖ in the 3d L² norm.
With no history this is the linear step (1 − β) ρ_in,k + β ρ_out,k.  Φ is
linear in ρ, so the input potential is carried along as the same
combination of potentials already computed: one Coulomb solve per step.

An explicit imaginary-time gradient flow on the same reduced problem serves
as an algorithmically independent cross-check (`imaginary_time_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .coulomb import coulomb_potential
from .errors import ConvergenceError, NumericalError, StepSizeError
from .grid import RadialFunction, RadialGrid, build_grid, integrate_3d


@dataclass
class SolverOptions:
    """Configuration of the ground-state search.

    grid is (n, rmax); init selects the starting profile ('hydrogenic' for
    e^{-r}, 'gaussian' for e^{-r²/2}); mixing is the damping β of the
    Anderson density mixing, the weight of the linear step it starts from.
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


# inverse iteration in `_ground_pair`
_STEP_TOL = 1e-12
_SHIFT_FLOOR = 1e-10
_SOLVES_PER_SHIFT = 3
_MAX_SHIFTS = 100


def _factor_below(diag: np.ndarray, off: np.ndarray, lam: float, delta: float,
                  w_min: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """LDLᵀ factors of H − σI at the first σ = λ − 4ᵏδ (k = 0, 1, ...) with
    positive pivots, plus whether k = 0 passed.

    Positive pivots put σ below the lowest eigenvalue λ₀ by Sylvester's law of
    inertia.  σ = min W is always below λ₀ (−d²/dr² is positive definite);
    δ grows fourfold per try, so the search reaches it after at most
    log₄((λ − min W)/δ) + 1 tries.
    """
    first = True
    while lam - delta > w_min:
        d, e, info = dpttrf(diag - (lam - delta), off)
        if info == 0:
            return d, e, first
        delta *= 4.0
        first = False
    d, e, info = dpttrf(diag - w_min, off)
    if info != 0:
        raise NumericalError("no shift below the spectrum: H − min(W) is not positive definite")
    return d, e, first


def _ground_pair(grid: RadialGrid, w_pot: np.ndarray,
                 u: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H = −d²/dr² + W on interior nodes r_1..r_{n−1},
    by inverse iteration from the guess u (the wall value u[-1] is ignored).

    Each shift lies δ below the Rayleigh quotient λ of the unit iterate x,
    δ = max(‖Hx − λx‖, _SHIFT_FLOOR, 4 eps ‖H‖) grown fourfold until
    `_factor_below` certifies it below λ₀, so the iteration converges to the
    lowest pair from any guess; it is re-centred after _SOLVES_PER_SHIFT
    solves.  (Pivot rounding moves the inertia of H − σI by up to about
    eps ‖H‖/4, measured for rmax from 1e-6 to 1e3; a smaller δ may never
    pass.)  The iterate settles once a solve moves it by at most _STEP_TOL,
    and is returned when the next shift passes at its first δ, which proves
    λ₀ ∈ (λ − δ, λ]: a settled excited pair fails that test and iterates on.

    Every call makes at least one solve, so the SCF iterate follows each
    change of W.  A certified x that a solve no longer moves is kept rather
    than replaced by the solve's rounding, so the SCF can reach an exact
    fixed point where its energy change is below rounding.

    Limit: when the lowest state is localized away from the guess (a
    component of ~1e-50 along it) or nearly degenerate (a gap of ~1e-11),
    as in random or symmetric multi-well potentials, inverse iteration can
    exhaust _MAX_SHIFTS and raise NumericalError where a dense solver
    returns the pair.  The SCF's W = −2Φ is monotone in r, and no CLI run
    has been seen to reach this.
    """
    h = grid.h
    w_in = w_pot[:-1]
    diag = 2.0 / h**2 + w_in
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(u))):
        raise NumericalError("eigenstep got a non-finite potential, grid step or guess")
    if diag.size == 1:  # one interior node: H is a number
        return float(diag[0]), np.array([1.0, 0.0])
    off = np.full(diag.size - 1, -1.0 / h**2)
    w_min = float(w_in.min())
    floor = max(_SHIFT_FLOOR, 4.0 * np.finfo(float).eps * (np.abs(diag).max() + 2.0 / h**2))
    x = u[:-1] / np.linalg.norm(u[:-1])
    settled = False
    for _ in range(_MAX_SHIFTS):
        hx = _apply_kinetic(np.append(x, 0.0), h)[:-1] + w_in * x
        lam = float(x @ hx)
        delta = max(float(np.linalg.norm(hx - lam * x)), floor)
        d, e, first = _factor_below(diag, off, lam, delta, w_min)
        if settled and first:
            return lam, np.append(x, 0.0)
        for _ in range(_SOLVES_PER_SHIFT):
            # (H − σI)⁻¹ is positive definite, so y·x > 0: no sign flip
            y = dpttrs(d, e, x)[0]
            y /= np.linalg.norm(y)
            step = np.linalg.norm(y - x)
            if step <= _STEP_TOL and first:  # certified and still: keep x
                break
            x = y
        settled = step <= _STEP_TOL
    raise NumericalError(f"inverse iteration did not settle in {_MAX_SHIFTS} shifts")


def _energies(grid: RadialGrid,
              u: np.ndarray) -> tuple[float, float, RadialFunction, RadialFunction]:
    """T, D, ρ and Φ_ρ of the normalized profile u; D = ∫ρΦ as in `coulomb_bilinear`."""
    psi = u / grid.nodes
    rho = RadialFunction(grid, psi**2)
    T = _kinetic_energy(grid, u)
    phi = coulomb_potential(rho)
    D = integrate_3d(rho.with_values(rho.values * phi.values))
    return T, D, rho, phi


def _state_from_u(grid: RadialGrid, u: np.ndarray, T: float, D: float, rho: RadialFunction,
                  iterations: int, residual: float) -> PekarState:
    """Package u with the energies T, D and density ρ that `_energies` gave for it."""
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


# Anderson mixing in `solve_pekar`: history depth, and the share of its norm a
# residual difference must keep outside the span of the newer ones to be used
_DEPTH = 5
_RCOND = 1e-10


def _anderson_gamma(dfw: np.ndarray, order: list[int], fw: np.ndarray,
                    q: np.ndarray) -> np.ndarray:
    """γ minimizing ‖fw − Σ_j γ_j dfw[j]‖₂ over the rows j in `order` (newest
    first), indexed like the rows of dfw; q is scratch space of dfw's shape.

    Modified Gram–Schmidt: a row whose part orthogonal to the rows before it
    in `order` is at most _RCOND of its norm is dropped (γ_j = 0).
    """
    m = len(order)
    r = np.zeros((m, m))
    kept = []
    for a, j in enumerate(order):
        v = q[a]
        v[:] = dfw[j]
        norm = np.linalg.norm(v)
        for b in kept:
            r[b, a] = q[b] @ v
            v -= r[b, a] * q[b]
        r[a, a] = np.linalg.norm(v)
        if r[a, a] > _RCOND * norm:
            v /= r[a, a]
            kept.append(a)
    rest = fw.copy()
    c = np.zeros(m)
    for b in kept:
        c[b] = q[b] @ rest
        rest -= c[b] * q[b]
    g = np.zeros(m)
    for a in reversed(kept):
        g[a] = (c[a] - r[a, a + 1:] @ g[a + 1:]) / r[a, a]
    gamma = np.zeros(len(dfw))
    gamma[order] = g
    return gamma


def solve_pekar(opts: SolverOptions) -> PekarState:
    """Self-consistent minimization of the Pekar energy.

    Converges when the energy change, the L² change of ψ and the relative
    self-consistency residual ‖ρ_out − ρ_in‖/‖ρ_out‖ (3d L² norms) all drop
    below their tolerances (the last two below tol_psi).  Raises
    ConvergenceError (carrying the iteration history) if max_iter is
    exhausted first.
    """
    grid = build_grid(*opts.grid)
    n, beta = grid.n, opts.mixing
    u = _normalize_u(grid, _initial_u(grid, opts.init))
    psi_prev = u / grid.nodes
    sw = np.sqrt(grid.weights) * grid.nodes  # ‖sw·v‖₂ ∝ the 3d L² norm of v
    # input (ρ, Φ) and residual (ρ_out − ρ_in, Φ_out − Φ_in), each stacked
    mix, mix_prev = np.empty(2 * n), np.empty(2 * n)
    res, res_prev = np.empty(2 * n), np.empty(2 * n)
    mix[:n] = psi_prev**2
    mix[n:] = coulomb_potential(RadialFunction(grid, mix[:n])).values
    steps = np.empty((_DEPTH, 2 * n))  # Δmix + β Δres of past steps, a ring
    dfw = np.empty((_DEPTH, n))        # sw·Δ(ρ_out − ρ_in), same slots
    scratch = np.empty((_DEPTH, n))
    e_prev = np.inf
    history: list[tuple[float, float, float]] = []   # (energy, dpsi, scf) per step

    x = u  # the eigenstep starts from its own last output, so a settled one recurs exactly
    for k in range(1, opts.max_iter + 1):
        _, x = _ground_pair(grid, -2.0 * mix[n:], x)
        u = _normalize_u(grid, x)
        psi = u / grid.nodes

        T, D, rho, phi = _energies(grid, u)
        e_new = T - D
        dpsi = np.sqrt(4.0 * np.pi * grid.integrate((u - grid.nodes * psi_prev) ** 2))
        res[:n] = rho.values - mix[:n]
        res[n:] = phi.values - mix[n:]
        scf = float(np.linalg.norm(sw * res[:n]) / np.linalg.norm(sw * rho.values))
        history.append((e_new, dpsi, scf))

        if abs(e_new - e_prev) <= opts.tol_energy and max(dpsi, scf) <= opts.tol_psi:
            return _state_from_u(grid, u, T, D, rho, iterations=k, residual=dpsi)

        if k > 1:
            slot = (k - 2) % _DEPTH
            steps[slot] = (mix - mix_prev) + beta * (res - res_prev)
            dfw[slot] = sw * (res[:n] - res_prev[:n])
        mix_prev[:] = mix
        res_prev[:] = res
        count = min(k - 1, _DEPTH)
        gamma = _anderson_gamma(dfw, [(k - 2 - i) % _DEPTH for i in range(count)],
                                sw * res[:n], scratch)
        mix += beta * res - gamma[:count] @ steps[:count]
        psi_prev = psi
        e_prev = e_new

    raise ConvergenceError(
        f"SCF did not converge in {opts.max_iter} iterations "
        f"(last dE={abs(history[-1][0] - history[-2][0]) if len(history) > 1 else np.inf:.3e}, "
        f"last |dpsi|={history[-1][1]:.3e}, "
        f"last |rho_out-rho_in|/|rho_out|={scf:.3e})",
        last_state=_state_from_u(grid, u, T, D, rho, iterations=opts.max_iter,
                                 residual=history[-1][1]),
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

    T, D, rho, phi = _energies(grid, u)
    e_prev = T - D
    for k in range(1, opts.max_iter + 1):
        grad = _apply_kinetic(u, grid.h) - 2.0 * phi.values * u
        u = u - step * grad
        u[-1] = 0.0  # Dirichlet wall
        u = _normalize_u(grid, u)

        T, D, rho, phi = _energies(grid, u)
        e_new = T - D
        if e_new > e_prev + 1e-12:
            raise StepSizeError(
                f"energy increased by {e_new - e_prev:.3e} at step {k}; "
                f"step={step:g} exceeds the stability limit for h={grid.h:g}"
            )
        if abs(e_new - e_prev) <= opts.tol_energy:
            return _state_from_u(grid, u, T, D, rho, iterations=k, residual=abs(e_new - e_prev))
        e_prev = e_new

    raise ConvergenceError(
        f"imaginary-time flow did not stagnate below {opts.tol_energy:g} "
        f"in {opts.max_iter} steps",
        last_state=_state_from_u(grid, u, T, D, rho, iterations=opts.max_iter,
                                 residual=abs(e_new - e_prev)),
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
