"""Uniform radial grids and quadrature for rotation-invariant functions on R^3.

A radial function f(|x|) is sampled on nodes r_i = i*h, i = 1..n, h = rmax/n.
The origin is never a node: every 3d integral carries an r^2 Jacobian, so the
integrand extends by zero to r = 0 and no 1/r expression is ever evaluated
there.

Quadrature is the trapezoid rule from the origin, whose sample is zero there
or is added by the caller as a limit:

    w = (h, ..., h, h/2),   sum(w) = rmax − h/2 (exact).

On an integrand that is even and smooth through 0 (r²ψ², u² and u·(−u″) for
the odd u = rψ, r sin(pr)ψ) its only error is the far end's, so the rule is
spectral there (Trefethen and Weideman, SIAM Review 2014).  The radial grid
(the SCF, the Coulomb solve, the transforms) and the momentum grid
(momentum.py, massbound.py) integrate with these same weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on (0, rmax] with quadrature weights for ∫_0^rmax dr."""

    n: int
    rmax: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    h: float = 0.0

    def same_as(self, other: "RadialGrid") -> bool:
        return self.n == other.n and self.rmax == other.rmax

    def integrate(self, samples: np.ndarray) -> float:
        """1d quadrature ∫_0^rmax g(r) dr of samples g(r_i)."""
        return float(self.weights @ samples)


@dataclass
class RadialFunction:
    """Samples of a radial profile on a RadialGrid (finite, read-only)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # private copy, frozen below
        if vals.shape != self.grid.nodes.shape:
            raise ValueError(
                f"values length {vals.shape} does not match grid ({self.grid.nodes.shape})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite (no NaN/Inf)")
        vals.setflags(write=False)
        self.values = vals

    def with_values(self, values: np.ndarray) -> "RadialFunction":
        return RadialFunction(self.grid, values)


def build_grid(n: int, rmax: float) -> RadialGrid:
    """Uniform radial grid r_i = i*rmax/n with the trapezoid weights from the
    origin: h at nodes 1..n−1 and h/2 at the last.

    Raises ValueError for n < 2 or rmax <= 0.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"grid needs an integer n >= 2, got {n!r}")
    if not rmax > 0:
        raise ValueError(f"grid needs rmax > 0, got {rmax!r}")
    h = rmax / n
    nodes = h * np.arange(1, n + 1, dtype=float)
    weights = np.full(n, h)
    weights[-1] = 0.5 * h
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return RadialGrid(n=int(n), rmax=float(rmax), nodes=nodes, weights=weights, h=h)


def integrate_3d(f: RadialFunction) -> float:
    """∫_{R^3} f(|x|) dx = 4π Σ w_i r_i² f(r_i)."""
    g = f.grid
    return float(4.0 * np.pi * ((g.weights * g.nodes**2) @ f.values))


# one-sided five-point first derivatives at the first node and at the second, in
# units of 1/(12h) on the first five samples; the last two nodes take them mirrored
_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])


def radial_derivative(f: RadialFunction) -> RadialFunction:
    """Fourth-order finite-difference df/dr: the five-point central stencil,
    one-sided five-point stencils at the two first and the two last nodes.

    Exact on quartics at every node.  Requires at least 5 nodes.
    """
    g = f.grid
    if g.n < 5:
        raise ValueError(f"radial_derivative needs >= 5 nodes, got {g.n}")
    v = f.values
    out = np.empty_like(v)
    out[2:-2] = v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]
    out[:2] = _EDGE @ v[:5]
    out[:-3:-1] = -(_EDGE @ v[:-6:-1])
    return RadialFunction(g, out / (12.0 * g.h))
