"""Coulomb potentials and pair energies of radial charge densities.

For a radial density ρ the potential Φ = ρ * 1/|x| reduces, by Newton's
theorem, to one-dimensional running integrals:

    Φ(r) = 4π [ (1/r) ∫_0^r s² ρ(s) ds + ∫_r^rmax s ρ(s) ds ].

Both cumulative integrals use the grid's own quadrature, which makes the
induced bilinear form ∬ a(x) b(y) / |x-y| exactly symmetric in (a, b) at the
discrete level (up to floating-point roundoff).
"""

from __future__ import annotations

import numpy as np

from .grid import RadialFunction, cumulative_primitive, integrate_3d


def coulomb_potential(rho: RadialFunction) -> RadialFunction:
    """Potential Φ(r) of the radial density ρ via Newton's theorem."""
    g = rho.grid
    r = g.nodes
    inner = cumulative_primitive(g, r**2 * rho.values)   # ∫_0^r s² ρ
    outer = cumulative_primitive(g, r * rho.values)      # ∫_0^r s ρ
    phi = 4.0 * np.pi * (inner / r + (outer[-1] - outer))
    return RadialFunction(g, phi)


def coulomb_bilinear(a: RadialFunction, b: RadialFunction) -> float:
    """Pair energy ∬ a(x) b(y) / |x-y| dx dy = ∫ a Φ_b.

    Symmetric in (a, b); the two grids must coincide.
    """
    if not a.grid.same_as(b.grid):
        raise ValueError("coulomb_bilinear requires both functions on the same grid")
    phi_b = coulomb_potential(b)
    return integrate_3d(a.with_values(a.values * phi_b.values))
