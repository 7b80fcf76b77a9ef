"""Uniform radial grids and quadrature for rotation-invariant functions on R^3.

A radial function f(|x|) is sampled on nodes r_i = i*h, i = 1..n, h = rmax/n.
The origin is never a node: every 3d integral carries an r^2 Jacobian, so the
integrand extends by zero to r = 0 and no 1/r expression is ever evaluated
there.

Quadrature is composite trapezoid on the cells [r_1, r_2], ..., [r_{n-1}, r_n]
plus a right-endpoint rectangle for the origin cell [0, r_1].  The resulting
weights are

    w = (3h/2, h, ..., h, h/2),   sum(w) = rmax  (exact),

and the induced bilinear Coulomb form is exactly symmetric (see coulomb.py).
These weights are the radial grid's rule.  A momentum grid is built here too,
for its nodes; momentum.py and massbound.py integrate on it by the trapezoid
rule from p = 0, with the integrand's limit at the origin.
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
    """Uniform radial grid r_i = i*rmax/n with trapezoid-type weights.

    The first node absorbs the origin cell [0, h] as a right-endpoint
    rectangle (integrands vanish there), the last node carries the usual
    half weight; the weights sum to rmax exactly.  The radial rule only: the
    momentum layer takes the nodes and h, not these weights.

    Raises ValueError for n < 2 or rmax <= 0.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"grid needs an integer n >= 2, got {n!r}")
    if not rmax > 0:
        raise ValueError(f"grid needs rmax > 0, got {rmax!r}")
    h = rmax / n
    nodes = h * np.arange(1, n + 1, dtype=float)
    weights = np.full(n, h)
    weights[0] = 1.5 * h
    weights[-1] = 0.5 * h
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return RadialGrid(n=int(n), rmax=float(rmax), nodes=nodes, weights=weights, h=h)


def integrate_3d(f: RadialFunction) -> float:
    """∫_{R^3} f(|x|) dx = 4π Σ w_i r_i² f(r_i)."""
    g = f.grid
    return float(4.0 * np.pi * ((g.weights * g.nodes**2) @ f.values))


def cumulative_primitive(grid: RadialGrid, samples: np.ndarray) -> np.ndarray:
    """Running integrals C_i = ∫_0^{r_i} g(s) ds, consistent with the grid
    weights: C_n equals grid.integrate(samples) exactly.

    First cell is the rectangle h*g_1, the rest is cumulative trapezoid.
    """
    h = grid.h
    return h * np.cumsum(samples) + 0.5 * h * (samples[0] - samples)


def radial_derivative(f: RadialFunction) -> RadialFunction:
    """Second-order finite-difference df/dr (central interior, one-sided ends).

    Exact on quadratics at every node.  Requires at least 4 nodes.
    """
    g = f.grid
    if g.n < 4:
        raise ValueError(f"radial_derivative needs >= 4 nodes, got {g.n}")
    v = f.values
    h = g.h
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return RadialFunction(g, out)
