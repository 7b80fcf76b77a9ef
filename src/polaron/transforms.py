"""Radial Fourier transforms by direct sine/cosine quadrature.

Two conventions coexist and are named everywhere they are used:

* unitary  — for wave functions, so Plancherel holds with no extra factor:
      ψ̂(p) = (2π)^{-3/2} ∫ ψ(x) e^{-ip·x} dx
            = sqrt(2/π) p^{-1} ∫_0^∞ r sin(pr) ψ(r) dr
* raw      — for densities / field profiles:
      ρ̂(p) = ∫ ρ(x) e^{-ip·x} dx = (4π/p) ∫_0^∞ r sin(pr) ρ(r) dr

Both map real even radial profiles to real even radial profiles, and the
unitary kernel is its own inverse, so applying `fourier_radial` twice with
matched grids reproduces the input up to quadrature error.

Every transform is a direct sum over the radial nodes, evaluated at the
nodes of the target grid; momentum profiles are only ever needed there
(see momentum.py for how the double integrals over |p+k| stay on the grid).
"""

from __future__ import annotations

import numpy as np

from .grid import RadialFunction, RadialGrid


_KERNEL_CHUNK = 8_000_000  # max elements of one sin/cos kernel slab


def _moment(f: RadialFunction, p: np.ndarray, oscillator, radial_weight: np.ndarray) -> np.ndarray:
    """∫_0^rmax w(r) osc(pr) f(r) dr for each p, chunked to bound memory."""
    g = f.grid
    coeff = g.weights * radial_weight * f.values
    out = np.empty_like(p)
    rows = max(1, _KERNEL_CHUNK // g.n)
    for lo in range(0, p.size, rows):
        hi = min(lo + rows, p.size)
        out[lo:hi] = oscillator(np.outer(p[lo:hi], g.nodes)) @ coeff
    return out


def _sine_moment(f: RadialFunction, p: np.ndarray) -> np.ndarray:
    """∫_0^rmax r sin(pr) f(r) dr for each p, by grid quadrature."""
    return _moment(f, p, np.sin, f.grid.nodes)


def fourier_radial(f: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Unitary radial Fourier transform of a real radial profile."""
    p = pgrid.nodes
    vals = np.sqrt(2.0 / np.pi) * _sine_moment(f, p) / p
    return RadialFunction(pgrid, vals, "even")


def fourier_density(rho: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Raw-convention transform ρ̂(p); ρ̂(p→0) → ∫ρ d³x."""
    p = pgrid.nodes
    vals = 4.0 * np.pi * _sine_moment(rho, p) / p
    return RadialFunction(pgrid, vals, "even")


def fourier_radial_gradient(f: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Radial derivative ψ̂'(p) of the unitary transform, computed analytically:

        ψ̂'(p) = sqrt(2/π) [ p^{-1} ∫ r² cos(pr) f dr − p^{-2} ∫ r sin(pr) f dr ].

    More accurate than finite-differencing the transform, and exact about the
    cancellation structure at small p (ψ̂' vanishes linearly).
    """
    g = f.grid
    p = pgrid.nodes
    cos_moment = _moment(f, p, np.cos, g.nodes**2)
    sin_moment = _sine_moment(f, p)
    vals = np.sqrt(2.0 / np.pi) * (cos_moment / p - sin_moment / p**2)
    return RadialFunction(pgrid, vals, "odd")

