"""Radial Fourier transforms as chirp-z sums on the momentum grid.

Two conventions coexist and are named everywhere they are used:

* unitary  — for wave functions, so Plancherel holds with no extra factor:
      ψ̂(p) = (2π)^{-3/2} ∫ ψ(x) e^{-ip·x} dx
            = sqrt(2/π) p^{-1} ∫_0^∞ r sin(pr) ψ(r) dr
* raw      — for densities / field profiles:
      ρ̂(p) = ∫ ρ(x) e^{-ip·x} dx = (4π/p) ∫_0^∞ r sin(pr) ρ(r) dr

Both map real even radial profiles to real even radial profiles, and the
unitary kernel is its own inverse, so applying `fourier_radial` twice with
matched grids reproduces the input up to quadrature error.

Every transform is the grid quadrature of a sine or cosine moment, evaluated
at the nodes of the target grid; momentum profiles are only ever needed there
(see momentum.py for how the double integrals over |p+k| stay on the grid).
With r_i = i h_r and p_j = j h_p both moments are parts of one sum,

    X_j = Σ_i c_i e^{−iθij},   θ = h_r h_p,   c_i = w_i r_i^k f(r_i),

(sine moment −Im X, cosine moment Re X), and ij = (i² + j² − (j−i)²)/2 makes
it a chirp-z transform (Bluestein 1969): X_j = e^{−iθj²/2} Σ_i
(c_i e^{−iθi²/2}) e^{iθ(j−i)²/2}, one FFT convolution in O((N+M) log(N+M))
time and O(N+M) memory.  Each phase θs²/2 is an exact integer square times θ/2,
so it carries one rounding, as the product p_j r_i of the direct sum does.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialFunction, RadialGrid


def _chirp_moment(f: RadialFunction, pgrid: RadialGrid, k: int) -> np.ndarray:
    """X_j = Σ_i w_i r_i^k f(r_i) e^{−i p_j r_i} at every node p_j, by one
    FFT convolution with the chirp e^{iθm²/2}, m = j − i from 1−N to M−1."""
    g = f.grid
    n, m = g.n, pgrid.n
    squares = np.arange(max(n, m) + 1, dtype=float) ** 2
    chirp = np.exp(0.5j * (g.h * pgrid.h) * squares)                 # e^{iθs²/2}
    a = g.weights * g.nodes**k * f.values * chirp[1:n + 1].conj()    # i = 1..N
    b = chirp[np.abs(np.arange(1 - n, m))]                            # m = 1−N..M−1
    size = 1 << (n + m - 2).bit_length()                              # ≥ N+M−1: no wrap
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))
    return chirp[1:m + 1].conj() * conv[n - 1:n + m - 1]


def fourier_radial(f: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Unitary radial Fourier transform of a real radial profile."""
    sin_moment = -_chirp_moment(f, pgrid, 1).imag
    return RadialFunction(pgrid, np.sqrt(2.0 / np.pi) * sin_moment / pgrid.nodes)


def fourier_density(rho: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Raw-convention transform ρ̂(p); ρ̂(p→0) → ∫ρ d³x."""
    sin_moment = -_chirp_moment(rho, pgrid, 1).imag
    return RadialFunction(pgrid, 4.0 * np.pi * sin_moment / pgrid.nodes)


def fourier_radial_gradient(f: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Radial derivative ψ̂'(p) of the unitary transform, computed analytically:

        ψ̂'(p) = sqrt(2/π) [ p^{-1} ∫ r² cos(pr) f dr − p^{-2} ∫ r sin(pr) f dr ].

    More accurate than finite-differencing the transform, and exact about the
    cancellation structure at small p (ψ̂' vanishes linearly).
    """
    p = pgrid.nodes
    cos_moment = _chirp_moment(f, pgrid, 2).real
    sin_moment = -_chirp_moment(f, pgrid, 1).imag
    vals = np.sqrt(2.0 / np.pi) * (cos_moment / p - sin_moment / p**2)
    return RadialFunction(pgrid, vals)
