"""Ground state of the Pekar (Choquard) energy by self-consistent iteration.

The energy of a normalized wave function ψ is

    E[ψ] = ∫ |∇ψ|² dx − ∬ |ψ(x)|² |ψ(y)|² / |x−y| dx dy = T − D,

and the minimizer solves the nonlinear eigenvalue problem

    −Δψ − 2 Φ_ρ ψ = λ ψ,    Φ_ρ = ρ * 1/|x|,  ρ = ψ²,  λ = T − 2D = −μ.

Note the factor 2 in the effective potential: the interaction term carries no
1/2, so differentiating the double integral doubles it.

On the radial reduction u(r) = r ψ(r) with Dirichlet walls u(0) = u(rmax) = 0
the linearized operator is the symmetric tridiagonal H = −d²/dr² + W, W = −2Φ.
The SCF starts at the grid's own fixed point as far as stored fits give it:
the continuum minimizer, its h² and h³ offsets on the grid and the wall's
boundary layer (`_initial_u`, within 1e-8 in L² of the fixed point on the
default grid and on 6000/40), and takes 1 step there.  Each step finds its
lowest eigenpair by inverse iteration warm-started from the current iterate,
with one solve per shift certified to lie below the spectrum (an O(n) LDLᵀ
factorization with positive pivots, see `_ground_pair`).  The input density
is then updated by Anderson (Pulay, "DIIS") mixing of the residual
f_k = ρ_out,k − ρ_in,k with ρ_out,k = |ψ_new|²:

    ρ_in,k+1 = ρ_in,k + β f_k − Σ_j γ_j (Δρ_in,j + β Δf_j),

where Δ are the differences between successive steps over the last
`_DEPTH` steps, and γ minimizes ‖f_k − Σ_j γ_j Δf_j‖ in the 3d L² norm, from
Pulay's DIIS equations on the unit-scaled rows Δf_j/‖Δf_j‖.  With no history
this is the linear step (1 − β) ρ_in,k + β ρ_out,k.  Only ρ is mixed: each
step solves for the input potential Φ of ρ_in,k, and a second Coulomb solve
gives the energy of ρ_out,k.

A Sobolev-gradient flow on the same reduced problem, from its own start and
with neither eigenstep nor mixing, serves as an algorithmically independent
cross-check on the SCF's own grids (`imaginary_time_oracle`).

LAPACK's `dpttrf`/`dpttrs` come from the LAPACK numpy itself links, bound with
ctypes on the handle of `numpy.linalg._umath_linalg`, so a run maps one BLAS
and imports no scipy.  Two ILP64 symbol spellings are tried: `scipy_dpttrf_64_`
(scipy-openblas64, numpy's wheels on Linux and Intel macOS) and
`dpttrf$NEWLAPACK$ILP64` (Accelerate, numpy's macOS 14 arm64 wheels).  A numpy
with neither, such as a conda or distro LP64 build or Windows (unsupported, not
verified), fails at `import polaron` with an ImportError naming its LAPACK.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .coulomb import _newton_potential, coulomb_potential
from .errors import ConvergenceError, NumericalError
from .grid import RadialFunction, RadialGrid, build_grid


# spellings of a LAPACK routine in numpy's own builds, both ILP64 (64-bit integers)
_LAPACK_SPELLINGS = ("scipy_{}_64_", "{}$NEWLAPACK$ILP64")
_INT = ctypes.POINTER(ctypes.c_int64)
_F64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")


def _lapack_routine(lib: ctypes.CDLL, name: str, *argtypes):
    """`name` in the first spelling `lib` exports.  No fallback: a numpy
    whose LAPACK has neither fails, naming that LAPACK and both spellings."""
    symbols = [spelling.format(name) for spelling in _LAPACK_SPELLINGS]
    for symbol in symbols:
        try:
            routine = lib[symbol]
        except AttributeError:
            continue
        routine.argtypes, routine.restype = argtypes, None
        return routine
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    raise ImportError(f"numpy's LAPACK ({lapack}) exports neither {' nor '.join(symbols)}")


# numpy has loaded this module already, and it links numpy's LAPACK
_numpy_lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
_dpttrf = _lapack_routine(_numpy_lapack, "dpttrf", _INT, _F64, _F64, _INT)
_dpttrs = _lapack_routine(_numpy_lapack, "dpttrs", _INT, _INT, _F64, _F64, _F64, _INT, _INT)


def _order(d: np.ndarray, e: np.ndarray, b: np.ndarray | None = None) -> ctypes.c_int64:
    """n = len(d) ≥ 1, once e has at least n − 1 entries and b, if given, n.
    The argtypes then check that each array is 1-d contiguous float64."""
    n = d.size
    if not (n >= 1 and e.size >= n - 1 and (b is None or b.size == n)):
        raise ValueError(f"LAPACK wants n ≥ 1 diagonal, n − 1 off-diagonal and n right-hand "
                         f"entries, got {n}, {e.size} and {'-' if b is None else b.size}")
    return ctypes.c_int64(n)


def dpttrf(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """LDLᵀ of the symmetric tridiagonal matrix with diagonal d and off-diagonal
    e[:n−1], in f2py's call shape `d, e, info = dpttrf(d, e)`: new arrays, and
    info = k > 0 where the k-th pivot is not positive."""
    n = _order(d, e)
    d, e, info = d.copy(), e.copy(), ctypes.c_int64()
    _dpttrf(n, d, e, info)
    return d, e, info.value


def dpttrs(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solution of L D Lᵀ x = b from `dpttrf`'s factors, in f2py's call shape
    `x, info = dpttrs(d, e, b)`; b is not overwritten."""
    n = _order(d, e, b)
    x, info = b.copy(), ctypes.c_int64()
    _dpttrs(n, ctypes.c_int64(1), d, e, x, n, info)
    return x, info.value


# the steps `solve_pekar` and `imaginary_time_oracle` take at most: the flow needs 236
# on 3000/30 and 6000/40, the SCF at most 18 even at tol_psi 1e-15 on grids from
# 300/20 to 40000/40, so only a broken solve reaches it
_MAX_ITER = 300


@dataclass
class SolverOptions:
    """Configuration of the ground-state search.

    grid is (n, rmax); the SCF stops once both the L² change of ψ and the
    relative self-consistency residual are at most tol_psi, or fails after
    _MAX_ITER steps.  Every solve starts from the stored fits of the grid's
    fixed point (`_initial_u`); on the default grid it takes 1 step.
    """

    grid: tuple[int, float] = (3000, 30.0)
    tol_psi: float = 1e-8

    def __post_init__(self):
        if not self.tol_psi > 0:
            raise ValueError(f"tol_psi must be positive, got {self.tol_psi!r}")


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


# The SCF starts at the grid's own fixed point, to the order of three terms of
# Richardson's expansion ψ_h = U + h²E + h³F (one universal set: the functional
# has no parameter) and the wall's boundary layer.  U, E and F are each a sum
# Σ_k x_k e^{−α_k r²} over the 14 exponents α_k = geomspace(0.004, 0.3, 14).
# Recipe: solve_pekar at tol_psi 1e-12 on 9600, 19200 and 38400 nodes over
# rmax 48 gives ψ_h on the common nodes (every 1st, 2nd and 4th) for three h,
# from which U, E and F follow by solving the 3×3 system at each node; c, d and
# e are least squares in the 3d L² weights √w·r to U, E and F, all scaled by
# the factor that makes Σc = 1 (`_normalize_u` rescales anyway).  Relative 3d
# L² fit errors: U 6.7e-10, E 2.0e-6, F 5.8e-3.  A change of the quadrature
# weights or the kinetic stencil changes E and F, and they must be refitted.
_START_ALPHA = np.geomspace(0.004, 0.3, 14)
_START_C = (6.013926246e-08, 1.361912231e-05, 0.0005433489273, 0.00673012994,
            0.03567964018, 0.101968218, 0.1841559928, 0.2328283937, 0.2159660505,
            0.1437776107, 0.06208889392, 0.01469839389, 0.001500440075, 4.920812662e-05)
_START_D = (3.28353e-07, -1.15405e-05, -0.000238817, -0.00241201, -0.00896815,
            -0.0172435, -0.0148371, 0.00173278, 0.0280494, 0.0450281, 0.0406022,
            0.0183839, 0.00359346, 0.000226052)
_START_E = (-0.0007921, 0.006837, -0.03064, 0.09005, -0.2317, 0.4272, -0.7814,
            1.161, -1.525, 1.836, -1.741, 1.408, -0.7621, 0.2406)
# μ_P = −3e_P, the decay rate² of ψ_P outside the density, where W = −2/r
_MU_P = 0.32554
# the h terms and the wall layer apply up to h = 2.5, chosen from step counts
# against r U alone on 11 boxes 13 to 600 wide at tol_psi 1e-6 to 1e-11: of
# the 44 solves at each h they took fewer steps in 21 to 44 and more in at
# most 4 for h from 1 to 2.5, fewer in 19 and more in 7 at h = 3, and more in
# 16 of 16 at h = 4 (8 boxes, tol_psi 1e-8 and 1e-11)
_START_H_MAX = 2.5


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
    """r (U + h²E + h³F)(r) from the stored fits above, minus its wall value
    times the wall layer on r ≥ R/2, so that u = 0 at the wall.  That needs
    R/2 past the layer's turning point 2/μ_P; on smaller boxes, and on grids
    with h above _START_H_MAX, the start is r U(r) with u[-1] = 0.

    Each exponent is offset by α_0 h², a constant factor `_normalize_u`
    removes, so the first node does not underflow on coarse grids; the sum is
    taken term by term, in one n-array.
    """
    r = grid.nodes
    h = grid.h
    r2 = r * r
    expand = h <= _START_H_MAX and grid.rmax > 4.0 / _MU_P
    u = np.zeros_like(r)
    for alpha, c, d, e in zip(_START_ALPHA, _START_C, _START_D, _START_E):
        if expand:
            c += h * h * (d + h * e)
        u += c * np.exp(_START_ALPHA[0] * r2[0] - alpha * r2)
    u *= r
    if expand:
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

    Each pass makes one solve with H − σI at a new shift σ, which lies δ
    below the Rayleigh quotient λ of the unit iterate x, δ = max(‖Hx − λx‖,
    _SHIFT_FLOOR, 4 eps ‖H‖) grown fourfold until `_factor_below` certifies it
    below λ₀, so the iteration converges to the lowest pair from any guess.
    (Pivot rounding moves the inertia of H − σI by up to about eps ‖H‖/4,
    measured for rmax from 1e-6 to 1e3; a smaller δ may never pass.)  The
    pair (λ, x) is returned once σ passed at its first δ, which proves
    λ₀ ∈ (λ − δ, λ], and the solve moved x by at most _STEP_TOL: a settled
    excited pair fails the certificate and iterates on.

    Every call makes at least one solve, so the SCF iterate follows each
    change of W.  A certified x that a solve no longer moves is kept rather
    than replaced by the solve's rounding, so the SCF can reach an exact
    fixed point where its energy change is below rounding.

    Limit: when the lowest state is localized away from the guess (a
    component of ~1e-50 along it) or nearly degenerate (a gap of ~1e-11),
    inverse iteration can exhaust _MAX_SHIFTS and raise NumericalError where
    a dense solver returns the pair.  The SCF's W = −2Φ is monotone in r,
    and no CLI run has been seen to reach this.  Measured from cold guesses
    with A log-uniform in [1, 1e6] on 10 to 3000 nodes, it raised on none of
    400 Coulomb-like W = −AΦ_ρ (ρ a sum of 1–5 random Gaussians) and on 71
    of 200 symmetric wells W = −A cos²(6πr/rmax).
    """
    h = grid.h
    w_in = w_pot[:-1]
    diag = 2.0 / h**2 + w_in
    if not (np.isfinite(diag).all() and np.isfinite(u).all()):
        raise NumericalError("eigenstep got a non-finite potential, grid step or guess")
    c = -1.0 / h**2
    off = np.full(max(diag.size - 1, 1), c)  # e[0] even for one node, f2py's shape
    w_min = float(w_in.min())
    floor = max(_SHIFT_FLOOR, 4.0 * np.finfo(float).eps * (np.abs(diag).max() + 2.0 / h**2))
    x = u[:-1] / math.sqrt(u[:-1] @ u[:-1])
    r = np.empty_like(x)  # Hx, then Hx − λx, then the solve's step y − x
    for _ in range(_MAX_SHIFTS):
        np.multiply(diag, x, out=r)
        r[1:] += c * x[:-1]
        r[:-1] += c * x[1:]
        lam = float(x @ r)
        r -= lam * x
        d, e, first = _factor_below(diag, off, lam, max(math.sqrt(r @ r), floor), w_min)
        # (H − σI)⁻¹ is positive definite, so y·x > 0: no sign flip
        y = dpttrs(d, e, x)[0]
        y /= math.sqrt(y @ y)
        np.subtract(y, x, out=r)
        if first and math.sqrt(r @ r) <= _STEP_TOL:  # certified and still: keep x
            return lam, np.append(x, 0.0)
        x = y
    raise NumericalError(f"inverse iteration did not settle in {_MAX_SHIFTS} shifts")


def _energies(grid: RadialGrid, u: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """T, D, ρ and Φ_ρ of the normalized profile u; D = ∫ρΦ as in `coulomb_bilinear`.
    Raises ValueError where ρ, Φ or ρΦ is not finite."""
    rho = (u / grid.nodes) ** 2
    T = _kinetic_energy(grid, u)
    phi = _newton_potential(grid, rho)
    rho_phi = rho * phi
    if not np.isfinite(rho_phi).all():   # a non-finite ρ or Φ makes ρΦ non-finite
        raise ValueError("values must be finite (no NaN/Inf)")
    return T, 4.0 * np.pi * float((grid.weights * grid.nodes**2) @ rho_phi), rho, phi


def _state_from_u(grid: RadialGrid, u: np.ndarray, T: float, D: float, rho: np.ndarray,
                  iterations: int, residual: float) -> PekarState:
    """Package u with the energies T, D and density ρ that `_energies` gave for it."""
    psi = RadialFunction(grid, u / grid.nodes)
    return PekarState(
        psi=psi,
        rho=RadialFunction(grid, rho),
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
        _, x = _ground_pair(grid, -2.0 * _newton_potential(grid, rho_in), x)
        u = _normalize_u(grid, x)
        psi = u / grid.nodes

        T, D, rho, _ = _energies(grid, u)
        e_new = T - D
        dpsi = np.sqrt(4.0 * np.pi * grid.integrate((u - grid.nodes * psi_prev) ** 2))
        res = rho - rho_in
        scf = float(np.linalg.norm(sw * res) / np.linalg.norm(sw * rho))
        history.append((e_new, dpsi, scf))

        if max(dpsi, scf) <= opts.tol_psi:
            return _state_from_u(grid, u, T, D, rho, iterations=k, residual=dpsi)

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

        u ← normalize(u − (1 − δ²/h²)⁻¹ g),  g = Hu − λu,  H = −δ²/h² − 2Φ_u,

    λ = ⟨u, Hu⟩/⟨u, u⟩.  Its preconditioner is constant, so no step is left to
    tune.  The energy must be non-increasing (up to 1e-12 per step), else
    NumericalError: with the first node's weight 1.5h, g is not the gradient of
    the discrete T − D, and on coarse grids the energy rises.  Stops at the
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
    # 1 − δ²/h² on the interior nodes, positive definite (e[0] even for one node)
    d, e, _ = dpttrf(np.full(grid.n - 1, 1.0 + 2.0 / h**2), np.full(max(grid.n - 2, 1), -1.0 / h**2))

    T, D, rho, phi = _energies(grid, u)
    for k in range(1, _MAX_ITER + 1):
        # λ = ⟨u, Hu⟩ = T − 2D for the normalized u
        g = _apply_kinetic(u, h) - (2.0 * phi + (T - 2.0 * D)) * u
        g[-1] = 0.0  # the wall is pinned, not an equation
        g_norm = math.sqrt(4.0 * np.pi * grid.integrate(g**2))
        if g_norm <= _FLOW_TOL:
            return _state_from_u(grid, u, T, D, rho, iterations=k, residual=g_norm)
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
    phi = coulomb_potential(state.rho)
    lam = state.T - 2.0 * state.D
    res = _apply_kinetic(u, grid.h) - 2.0 * phi.values * u - lam * u
    # the last node is pinned by the Dirichlet wall, not an equation
    res[-1] = 0.0
    return float(np.sqrt(4.0 * np.pi * grid.integrate(res**2)))
