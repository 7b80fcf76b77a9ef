"""Ground state of the Pekar (Choquard) energy by self-consistent iteration.

The energy of a normalized wave function ψ is

    E[ψ] = ∫ |∇ψ|² dx − ∬ |ψ(x)|² |ψ(y)|² / |x−y| dx dy = T − D,

and the minimizer solves the nonlinear eigenvalue problem

    −Δψ − 2 Φ_ρ ψ = λ ψ,    Φ_ρ = ρ * 1/|x|,  ρ = ψ²,  λ = T − 2D = −μ.

Note the factor 2 in the effective potential: the interaction term carries no
1/2, so differentiating the double integral doubles it.

On the radial reduction u(r) = r ψ(r) with Dirichlet walls u(0) = u(rmax) = 0
the linearized operator is the symmetric pentadiagonal H = K + W, W = −2Φ, K
the five-point −d²/dr² with odd reflection at the origin and the wall, which
errs by O(h⁴) (`_apply_kinetic`; the Coulomb solve of coulomb.py inverts the
same K).  Every integral is the trapezoid rule from the origin (grid.py), on
which u's odd extension makes the rule spectral, so the discrete T − D is
stationary at the SCF's fixed point.  The SCF starts at the continuum
minimizer less the wall's boundary layer (`_initial_u`, within 8.4e-9 in L²
of the fixed point on the default grid, the box's error, and 3.6e-10 on
6000/40, the fit's), and takes 1 step there.  Each step finds its lowest
eigenpair by inverse iteration warm-started from the current iterate, with
solves whose shift is certified to lie below the spectrum (an O(n) band
Cholesky factorization that exists, see `_ground_pair`).  The input density
is then updated by Anderson (Pulay, "DIIS") mixing of the residual
f_k = ρ_out,k − ρ_in,k with ρ_out,k = |ψ_new|²:

    ρ_in,k+1 = ρ_in,k + β f_k − Σ_j γ_j (Δρ_in,j + β Δf_j),

where Δ are the differences between successive steps over the last
`_DEPTH` steps, and γ minimizes ‖f_k − Σ_j γ_j Δf_j‖ in the 3d L² norm, from
Pulay's DIIS equations on the unit-scaled rows Δf_j/‖Δf_j‖.  With no history
this is the linear step (1 − β) ρ_in,k + β ρ_out,k.  Only ρ is mixed: each
step solves for the input potential Φ of ρ_in,k, and a second Coulomb solve
gives the energy of ρ_out,k; the returned state keeps that Φ.

A Sobolev-gradient flow on the same reduced problem, from its own start and
with neither eigenstep nor mixing, serves as an algorithmically independent
cross-check on the SCF's own grids (`imaginary_time_oracle`).

LAPACK's band and tridiagonal routines come from the LAPACK numpy itself links
(`_lapack`), so a run maps one BLAS and imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpbtrf, dpbtrs, dpttrf, dpttrs
from .coulomb import _potential
from .errors import ConvergenceError, NumericalError
from .grid import RadialFunction, RadialGrid, build_grid


# the steps `solve_pekar` and `imaginary_time_oracle` take at most: the flow needs 236
# on 3000/30 and 6000/40, the SCF at most 12 even at tol_psi 1e-15 on grids from
# 300/20 to 40000/40, so only a broken solve reaches it
_MAX_ITER = 300


@dataclass
class SolverOptions:
    """Configuration of the ground-state search.

    grid is (n, rmax); the SCF stops once both the L² change of ψ and the
    relative self-consistency residual are at most tol_psi, or fails after
    _MAX_ITER steps.  Every solve starts from the stored fit of the continuum
    minimizer (`_initial_u`); on the default grid it takes 1 step.
    """

    grid: tuple[int, float] = (3000, 30.0)
    tol_psi: float = 1e-8

    def __post_init__(self):
        if not self.tol_psi > 0:
            raise ValueError(f"tol_psi must be positive, got {self.tol_psi!r}")


@dataclass
class PekarState:
    """Converged minimizer with its energy decomposition.

    T = ∫|∇ψ|², D = ∬ρρ/|x−y| = ∫ρΦ, eP = T − D, μ = D − eP = 2D − T.
    """

    psi: RadialFunction
    rho: RadialFunction
    phi: RadialFunction   # Φ_ρ, the Coulomb potential of ρ (coulomb.py) that D is from
    T: float
    D: float
    eP: float
    mu: float
    iterations: int
    residual: float


# The SCF starts at the continuum minimizer U (the grid's fixed point is within
# O(h⁴) of it) less the wall's boundary layer.  U is a sum Σ_k c_k e^{−α_k r²}
# over the 14 exponents α_k = geomspace(0.004, 0.3, 14).  Recipe: solve_pekar at
# tol_psi 1e-12 on 9600 nodes over rmax 48 gives ψ_h = U + O(h⁴); c is least
# squares in the 3d L² weights √w·r to it, scaled so that Σc = 1
# (`_normalize_u` rescales anyway).  The stored c, fitted to the Richardson limit
# of three-point solves, match that refit to 1.8e-11 (relative 3d L²).
_START_ALPHA = np.geomspace(0.004, 0.3, 14)
_START_C = np.array((6.013926246e-08, 1.361912231e-05, 0.0005433489273, 0.00673012994,
                     0.03567964018, 0.101968218, 0.1841559928, 0.2328283937, 0.2159660505,
                     0.1437776107, 0.06208889392, 0.01469839389, 0.001500440075,
                     4.920812662e-05))
# μ_P = −3e_P, the decay rate² of ψ_P outside the density, where W = −2/r
_MU_P = 0.32554
# the wall layer applies up to h = 2, chosen from step counts against r U alone on
# 11 boxes 13 to 600 wide at tol_psi 1e-6 to 1e-11: of the 44 solves at each h it
# took fewer steps in 6 to 13 and more in at most 1 for h from 0.01 to 1, fewer in
# 3 and more in 1 at h = 2, and fewer in 0 and more in 2 at h = 2.5
_START_H_MAX = 2.0


def _wall_layer(r: np.ndarray) -> np.ndarray:
    """WKB solution √(κ(R)/κ(r))·exp(−∫_r^R κ), κ(s) = √(μ_P − 2/s), of
    v'' = (W + μ_P) v with W = −2/r, equal to 1 at the last node R.

    The integral is in closed form: ∫ κ = sκ − ln(√μ sκ + μs − 1)/√μ, for
    nodes past the turning point 2/μ_P.
    """
    kappa = np.sqrt(_MU_P - 2.0 / r)
    sq = math.sqrt(_MU_P)
    prim = r * kappa - np.log(sq * r * kappa + _MU_P * r - 1.0) / sq
    return np.sqrt(kappa[-1] / kappa) * np.exp(prim - prim[-1])


def _initial_u(grid: RadialGrid) -> np.ndarray:
    """r U(r) from the stored fit above, minus its wall value times the wall
    layer on r ≥ R/2, so that u = 0 at the wall.  That needs R/2 past the
    layer's turning point 2/μ_P; on smaller boxes, and on grids with h above
    _START_H_MAX, the start is r U(r) with u[-1] = 0.

    Each exponent is offset by α_0 h², a constant factor `_normalize_u`
    removes, so the first node does not underflow on coarse grids; the sum is
    taken term by term, in one n-array.
    """
    r = grid.nodes
    r2 = r * r
    u = np.zeros_like(r)
    for alpha, c in zip(_START_ALPHA, _START_C):
        u += c * np.exp(_START_ALPHA[0] * r2[0] - alpha * r2)
    u *= r
    if grid.h <= _START_H_MAX and grid.rmax > 4.0 / _MU_P:
        tail = r.size // 2
        u[tail:] -= u[-1] * _wall_layer(r[tail:])
    u[-1] = 0.0
    return u


def _normalize_u(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    # ∫|ψ|² d³x = 4π ∫ u² dr for ψ = u/r
    nrm2 = 4.0 * np.pi * grid.integrate(u**2)
    u = u / np.sqrt(nrm2)
    if grid.integrate(u) < 0.0:
        u = -u
    return u


def _kinetic(x: np.ndarray, h: float) -> np.ndarray:
    """−u″ on the interior nodes, x = u there, by the five-point stencil
    (u_{i−2} − 16u_{i−1} + 30u_i − 16u_{i+1} + u_{i+2})/(12h²) with u odd about
    the origin and about the wall (u_0 = u_n = 0, u_{−1} = −u_1,
    u_{n+1} = −u_{n−1}), which is K = K₃ + (h²/12)K₃², K₃ the three-point
    −d²/dr² with zero ends.  Formed as K₃ twice, each from the differences of
    its input: on a smooth x they cancel exactly (Sterbenz), where the
    five-point sum errs by about eps·30/(12h²)·|x|."""
    d = _differences(x)
    k3 = d[:-1] - d[1:]   # h²K₃x
    d = _differences(k3)
    kx = d[:-1] - d[1:]
    kx /= 12.0
    kx += k3
    kx /= h * h
    return kx


def _differences(x: np.ndarray) -> np.ndarray:
    """x_{i+1} − x_i for i = 0..m, x on nodes 1..m and zero at 0 and m + 1."""
    d = np.empty(x.size + 1)
    d[0] = x[0]
    np.subtract(x[1:], x[:-1], out=d[1:-1])
    d[-1] = -x[-1]
    return d


def _apply_kinetic(u: np.ndarray, h: float) -> np.ndarray:
    """−u″ by `_kinetic` on the interior nodes of u, 0 at the wall node."""
    return np.append(_kinetic(u[:-1], h), 0.0)


def _kinetic_energy(grid: RadialGrid, u: np.ndarray) -> float:
    """4π ∫ u(−u″) dr on the grid: weight h at every interior node, and u = 0 at the wall."""
    return 4.0 * np.pi * grid.h * float(u[:-1] @ _kinetic(u[:-1], grid.h))


# inverse iteration in `_ground_pair`
_STEP_TOL = 1e-12
_SHIFT_FLOOR = 1e-10
_MAX_SHIFTS = 100


def _factor_below(diag: np.ndarray, c: float, lam: float, delta: float,
                  w_min: float) -> tuple[np.ndarray, bool]:
    """Cholesky factor of H − σI, H the symmetric pentadiagonal matrix with
    diagonal `diag` and off-diagonals −16c and c, at the first σ = λ − 4ᵏδ
    (k = 0, 1, ...) where it exists, plus whether k = 0 passed.

    The factor exists if and only if σ lies below the lowest eigenvalue λ₀.
    σ = min W is always below λ₀ (K is positive definite); δ grows fourfold per
    try, so the search reaches it after at most log₄((λ − min W)/δ) + 1 tries.
    """
    first = True
    while True:
        sigma = max(lam - delta, w_min)
        band = np.empty((3, diag.size), order="F")   # LAPACK's lower band storage
        np.subtract(diag, sigma, out=band[0])
        band[1], band[2] = -16.0 * c, c
        factor, info = dpbtrf(band)
        if info == 0:
            return factor, first
        if sigma == w_min:
            raise NumericalError(
                "no shift below the spectrum: H − min(W) is not positive definite")
        delta *= 4.0
        first = False


def _ground_pair(grid: RadialGrid, w_pot: np.ndarray,
                 u: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H = K + W on interior nodes r_1..r_{n−1}, K the
    five-point −d²/dr² of `_apply_kinetic`, by inverse iteration from the guess
    u (the wall value u[-1] is ignored).

    Each pass solves (H − σI)z = Hx − λx and takes y = x − z, normalized,
    which is (H − σI)⁻¹x up to its norm.  Hx comes from differences
    (`_kinetic`), and the solve meets only the residual, so its rounding
    shrinks with it: the settled iterate then follows a change of W as the
    linear response predicts (on 16000/30 a 1e-12 change of W moves it by
    6.8e-13, where a solve with x itself moved it by 5e-12 and left the SCF
    cycling at a residual of 5e-12).  H − σI is pentadiagonal, solved by its
    band Cholesky factor (`dpbtrf`), which exists if and only if σ < λ₀, the
    lowest eigenvalue.  A factor is made at σ = λ − δ, δ below the Rayleigh
    quotient λ of the unit iterate x, δ = max(‖Hx − λx‖, _SHIFT_FLOOR,
    4 eps ‖H‖), grown fourfold until the factor exists, so the iteration
    converges to the lowest pair from any guess.  (Pivot rounding moves the
    inertia of H − σI by up to about eps ‖H‖/4; a smaller δ may never pass.)
    A factor that existed at its first δ serves the next pass too when its
    solve moved x by at most √_STEP_TOL, which that pass then moves by about
    √_STEP_TOL times as much; otherwise each pass factors anew.

    How the returned pair is proven lowest: it is returned once a factor that
    existed at its first δ gives a solve that moves x by at most _STEP_TOL, or
    meets a residual at its own rounding, ‖Hx − λx‖ ≤ 4 eps (max|W| + |λ|),
    which no further pass can reduce.  The factor proves σ < λ₀, and λ₀ ≤ λ,
    the Rayleigh quotient, so λ₀ lies in (σ, λ], an interval of residual size
    δ (plus the drift of λ since that factor was made); a settled excited
    pair, whose first δ cannot pass, iterates on with a factor further down.
    The three-point H₃ − σ would certify too, since K ≥ K₃ mode by mode, but
    only as a preconditioner of H: its 1/3-per-pass contraction of rough
    components took 6 passes on the default grid, against 2 solves here.

    Every call makes at least one solve, so the SCF iterate follows each
    change of W.  A certified x that a solve no longer moves is kept rather
    than replaced by the solve's rounding, so the SCF can reach an exact
    fixed point where its energy change is below rounding.

    On the SCF's W, of the size of its gap, that residual stop is never
    reached (its bound is about 3e-15); on a W far deeper than its gap the
    residual's rounding over the gap moves x by more than _STEP_TOL on every
    pass (2e-12 to 1e-11 at max|W|/gap = 2e5), and there it ends the search.

    Limit: when the lowest state is localized away from the guess (a
    component of ~1e-50 along it) or nearly degenerate (a gap of ~1e-11, yet
    above the residual's rounding), inverse iteration can exhaust _MAX_SHIFTS
    and raise NumericalError where a dense solver returns the pair.  Measured
    from cold guesses with A log-uniform in [1, 1e6] on 10 to 3000 nodes, it
    raised on 0 of 200 Coulomb-like W = −AΦ_ρ (ρ a sum of 1–5 random
    Gaussians) and on 2 of 100 symmetric wells W = −A cos²(6πr/rmax), where
    the three-point eigenstep raised on 0 and 38.  Where the wells' lowest two
    eigenvalues lie within a few eps (max|W| + |λ|) of each other, the
    returned λ matched LAPACK's banded λ₀ to 10 eps (max|W| + |λ|).
    """
    w_in = w_pot[:-1]
    c = 1.0 / (12.0 * grid.h**2)
    diag = 30.0 * c + w_in
    diag[0] -= c    # odd reflection at the origin
    diag[-1] -= c   # and at the wall
    if not (np.isfinite(diag).all() and np.isfinite(u).all()):
        raise NumericalError("eigenstep got a non-finite potential, grid step or guess")
    w_min, w_max = float(w_in.min()), float(np.abs(w_in).max())
    eps = np.finfo(float).eps
    floor = max(_SHIFT_FLOOR, 4.0 * eps * (np.abs(diag).max() + 34.0 * c))
    x = u[:-1] / math.sqrt(u[:-1] @ u[:-1])
    factor = None
    for _ in range(_MAX_SHIFTS):
        r = _kinetic(x, grid.h)   # Hx, then Hx − λx, then the solve's step y − x
        r += w_in * x
        lam = float(x @ r)
        r -= lam * x
        res = math.sqrt(r @ r)
        if factor is None:
            factor, first = _factor_below(diag, c, lam, max(res, floor), w_min)
        # (H − σI)⁻¹x = (x − (H − σI)⁻¹(Hx − λx))/(λ − σ), positive definite, so y·x > 0
        y = x - dpbtrs(factor, r)[0]
        y /= math.sqrt(y @ y)
        r = y - x
        step = math.sqrt(r @ r)
        # certified and still, or certified with a residual at the rounding of W x − λx
        if first and (step <= _STEP_TOL or res <= 4.0 * eps * (w_max + abs(lam))):
            return lam, np.append(x, 0.0)
        if not (first and step <= math.sqrt(_STEP_TOL)):
            factor = None
        x = y
    raise NumericalError(f"inverse iteration did not settle in {_MAX_SHIFTS} shifts")


def _energies(grid: RadialGrid, u: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """T, D, ρ and Φ_ρ of the normalized profile u; D = ∫ρΦ as in `coulomb_bilinear`.
    Raises ValueError where ρ, Φ or ρΦ is not finite."""
    rho = (u / grid.nodes) ** 2
    T = _kinetic_energy(grid, u)
    phi = _potential(grid, rho)
    rho_phi = rho * phi
    if not np.isfinite(rho_phi).all():   # a non-finite ρ or Φ makes ρΦ non-finite
        raise ValueError("values must be finite (no NaN/Inf)")
    return T, 4.0 * np.pi * float((grid.weights * grid.nodes**2) @ rho_phi), rho, phi


def _state_from_u(grid: RadialGrid, u: np.ndarray, T: float, D: float, rho: np.ndarray,
                  phi: np.ndarray, iterations: int, residual: float) -> PekarState:
    """Package u with the T, D, ρ and Φ that `_energies` gave for it."""
    psi = RadialFunction(grid, u / grid.nodes)
    return PekarState(
        psi=psi,
        rho=RadialFunction(grid, rho),
        phi=RadialFunction(grid, phi),
        T=T,
        D=D,
        eP=T - D,
        mu=2.0 * D - T,
        iterations=iterations,
        residual=residual,
    )


# Anderson mixing in `solve_pekar`: the damping β, which sets the path to the
# fixed point but not the point, and the history depth.  γ solves Pulay's DIIS
# equations on the unit-scaled rows
_BETA = 0.5
_DEPTH = 5


def _anderson_gamma(dfw: list[np.ndarray], fw: np.ndarray) -> np.ndarray:
    """γ minimizing ‖fw − Σ_j γ_j dfw[j]‖₂ (rows newest first) by Pulay's DIIS
    equations B γ = b, B_ij = dfw[i]·dfw[j], b_i = dfw[i]·fw, scaled to a unit
    diagonal and solved by least squares; a zero row gets γ_j = 0."""
    B = np.array([[p @ q for q in dfw] for p in dfw]).reshape(len(dfw), len(dfw))
    s = np.sqrt(B.diagonal())
    s[s == 0.0] = 1.0
    b = np.array([p @ fw for p in dfw]) / s
    return np.linalg.lstsq(B / np.outer(s, s), b, rcond=None)[0] / s


def solve_pekar(opts: SolverOptions) -> PekarState:
    """Self-consistent minimization of the Pekar energy.

    Converges when the L² change of ψ and the relative self-consistency
    residual ‖ρ_out − ρ_in‖/‖ρ_out‖ (3d L² norms) are both at most tol_psi.
    Raises ConvergenceError (carrying the iteration history) if _MAX_ITER
    steps are exhausted first.
    """
    grid = build_grid(*opts.grid)
    u = _normalize_u(grid, _initial_u(grid))
    psi_prev = u / grid.nodes
    sw = np.sqrt(grid.weights) * grid.nodes  # ‖sw·v‖₂ ∝ the 3d L² norm of v
    rho_in = psi_prev**2
    steps: list[np.ndarray] = []  # Δρ_in + β Δres of past steps, newest first
    dfw: list[np.ndarray] = []    # sw·Δres, res = ρ_out − ρ_in, same order
    history: list[tuple[float, float, float]] = []   # (energy, dpsi, scf) per step

    x = u  # the eigenstep starts from its own last output, so a settled one recurs exactly
    for k in range(1, _MAX_ITER + 1):
        _, x = _ground_pair(grid, -2.0 * _potential(grid, rho_in), x)
        u = _normalize_u(grid, x)
        psi = u / grid.nodes

        T, D, rho, phi = _energies(grid, u)
        e_new = T - D
        dpsi = np.sqrt(4.0 * np.pi * grid.integrate((u - grid.nodes * psi_prev) ** 2))
        res = rho - rho_in
        scf = float(np.linalg.norm(sw * res) / np.linalg.norm(sw * rho))
        history.append((e_new, dpsi, scf))

        if max(dpsi, scf) <= opts.tol_psi:
            return _state_from_u(grid, u, T, D, rho, phi, iterations=k, residual=dpsi)

        if k > 1:
            steps = [rho_in - rho_prev + _BETA * (res - res_prev), *steps[:_DEPTH - 1]]
            dfw = [sw * (res - res_prev), *dfw[:_DEPTH - 1]]
        rho_prev, res_prev = rho_in, res
        rho_in = rho_in + _BETA * res
        for g, step in zip(_anderson_gamma(dfw, sw * res), steps):
            rho_in -= g * step
        psi_prev = psi

    raise ConvergenceError(
        f"SCF did not converge in {_MAX_ITER} iterations "
        f"(last |dpsi|={history[-1][1]:.3e}, "
        f"last |rho_out-rho_in|/|rho_out|={scf:.3e})",
        history=history,
    )


# the flow stops once the 3d L² norm of its gradient g is at most this
_FLOW_TOL = 1e-10


def imaginary_time_oracle(opts: SolverOptions) -> PekarState:
    """Independent minimizer: the Sobolev-gradient flow (Garcia-Ripoll and
    Pérez-García, SIAM J. Sci. Comput. 23 (2001) 1316)

        u ← normalize(u − (1 + K₃)⁻¹ g),  g = Hu − λu,  H = K − 2Φ_u,

    λ = ⟨u, Hu⟩/⟨u, u⟩, K the SCF's five-point −d²/dr² and K₃ the three-point
    one, which K exceeds by at most a third mode by mode.  Its preconditioner is
    constant, so no step is left to tune.  With the trapezoid weights from the
    origin g is the gradient of the discrete T − D, and the energy must be
    non-increasing (up to 1e-12 per step), else NumericalError.  Stops at the
    first of at most _MAX_ITER gradients with 3d L² norm ≤ _FLOW_TOL and returns
    how many it evaluated as `iterations`; reads only opts.grid.
    """
    grid = build_grid(*opts.grid)
    h = grid.h
    # r e^{−5r/16}, the least-energy ψ = e^{−βr} (E(β) = β² − 5β/8, −25/256 at
    # β = 5/16), not the SCF's stored start, so the flow owes that start nothing
    u = grid.nodes * np.exp(-5.0 * grid.nodes / 16.0)
    u[-1] = 0.0  # Dirichlet wall
    u = _normalize_u(grid, u)
    # I + K₃ on the interior nodes, positive definite (e[0] even for one node)
    d, e, _ = dpttrf(np.full(grid.n - 1, 1.0 + 2.0 / h**2), np.full(max(grid.n - 2, 1), -1.0 / h**2))

    T, D, rho, phi = _energies(grid, u)
    for k in range(1, _MAX_ITER + 1):
        # λ = ⟨u, Hu⟩ = T − 2D for the normalized u
        g = _apply_kinetic(u, h) - (2.0 * phi + (T - 2.0 * D)) * u
        g[-1] = 0.0  # the wall is pinned, not an equation
        g_norm = math.sqrt(4.0 * np.pi * grid.integrate(g**2))
        if g_norm <= _FLOW_TOL:
            return _state_from_u(grid, u, T, D, rho, phi, iterations=k, residual=g_norm)
        u[:-1] -= dpttrs(d, e, g[:-1])[0]
        u = _normalize_u(grid, u)

        e_prev = T - D
        T, D, rho, phi = _energies(grid, u)
        if T - D > e_prev + 1e-12:
            raise NumericalError(f"flow energy increased by {T - D - e_prev:.3e} at step {k} "
                                 f"on the {grid.n}-node grid")

    raise ConvergenceError(
        f"flow did not reach |g| <= {_FLOW_TOL:g} in {_MAX_ITER} steps (last {g_norm:.3e})")


def el_residual_position(state: PekarState) -> float:
    """L² norm of (−Δψ − 2Φ_ρ ψ) − λψ with λ = T − 2D, on the reduced problem.

    Zero (to solver tolerance) exactly when ψ is the self-consistent ground
    state; O(1) for generic normalized profiles.
    """
    grid = state.psi.grid
    u = grid.nodes * state.psi.values
    lam = state.T - 2.0 * state.D
    res = _apply_kinetic(u, grid.h) - 2.0 * state.phi.values * u - lam * u
    # the last node is pinned by the Dirichlet wall, not an equation
    res[-1] = 0.0
    return float(np.sqrt(4.0 * np.pi * grid.integrate(res**2)))
