"""Coulomb potentials and pair energies of radial charge densities.

For a radial density ρ in the box r ≤ R = rmax, the reduced potential rΦ
solves −(rΦ)″ = 4πrρ with rΦ(0) = 0 and rΦ(R) = Q = ∫ ρ d³x (Newton's
theorem: past the charge Φ = Q/r).  So rΦ = v + rQ/R, where v(0) = v(R) = 0
and

    K v = 4πrρ   on the interior nodes r_1..r_{n−1},

K the five-point −d²/dr² of the kinetic energy (`solver._apply_kinetic`),
with odd reflection at 0 and at R.  With K₃ the three-point −d²/dr², K =
K₃ + (h²/12)K₃² = K₃(I + h²K₃/12), so v is K₃⁻¹, two running sums of its
Green's function, then a tridiagonal solve with I + h²K₃/12, whose factors
are one constant on every grid but their first few entries.  Q is the grid's
trapezoid sum.

K is symmetric, so the pair energy ∬ a(x) b(y) / |x−y| dx dy = ∫ a Φ_b =
(h/4π) (4πra)ᵀ K⁻¹ (4πrb) + Q_a Q_b / R is symmetric in (a, b) at the
discrete level (up to floating-point roundoff).
"""

from __future__ import annotations

import numpy as np

from ._lapack import dpttrf, dpttrs
from .grid import RadialFunction, RadialGrid, integrate_3d


def coulomb_potential(rho: RadialFunction) -> RadialFunction:
    """Potential Φ(r) of the radial density ρ (see the module docstring)."""
    return RadialFunction(rho.grid, _potential(rho.grid, rho.values))


# dpttrf's LDLᵀ factors of I + h²K₃/12 = tridiag(−1, 14, −1)/12 on 16 nodes.  The
# pivots d_{k+1} = 14/12 − (1/12)²/d_k contract about 200-fold per step to (7 + √48)/12
# and reach it to the last bit at d₇, so these and their limit are the factors on any
# number of nodes.
_PIVOTS, _MULTIPLIERS, _ = dpttrf(np.full(16, 14.0 / 12.0), np.full(15, -1.0 / 12.0))


def _smoothing_factor(m: int) -> tuple[np.ndarray, np.ndarray]:
    """dpttrf's LDLᵀ factors of the m × m matrix I + h²K₃/12 (e has m entries)."""
    d, e = np.full(m, _PIVOTS[-1]), np.full(m, _MULTIPLIERS[-1])
    d[:_PIVOTS.size], e[:_MULTIPLIERS.size] = _PIVOTS[:m], _MULTIPLIERS[:m]
    return d, e


def _potential(g: RadialGrid, rho: np.ndarray) -> np.ndarray:
    """Samples of Φ for the samples ρ on g, unchecked: the SCF's per-step solve.

    h²K₃ = tridiag(−1, 2, −1) is inverted by its Green's function
    min(i, j)(n − max(i, j))/n as two running sums, which err by about 1e-14
    (relative) on 20000 nodes where LAPACK's LDLᵀ solve errs by 2.6e-11; the
    well-conditioned I + h²K₃/12 by its LDLᵀ factors."""
    r, n, h = g.nodes, g.n, g.h
    t = r[:-1] * rho[:-1]
    t *= 4.0 * np.pi * h * h   # T v = t, T = h²K₃
    i = np.arange(1.0, n)
    a = np.cumsum(i * t)       # a[-1] = 4πh Σ r²ρ over the interior: Q but its wall term
    v = np.cumsum(t, out=t)
    np.subtract(v[-1] - a[-1] / n, v, out=v)
    v *= i
    v += a
    v = dpttrs(*_smoothing_factor(n - 1), v)[0]
    phi = np.empty(n)
    np.divide(v, r[:-1], out=phi[:-1])
    phi[-1] = 0.0
    phi += (a[-1] + 2.0 * np.pi * h * r[-1] ** 2 * rho[-1]) / g.rmax   # Q/R
    return phi


def coulomb_bilinear(a: RadialFunction, b: RadialFunction) -> float:
    """Pair energy ∬ a(x) b(y) / |x-y| dx dy = ∫ a Φ_b.

    Symmetric in (a, b); the two grids must coincide.
    """
    if not a.grid.same_as(b.grid):
        raise ValueError("coulomb_bilinear requires both functions on the same grid")
    phi_b = coulomb_potential(b)
    return integrate_3d(a.with_values(a.values * phi_b.values))
