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
time and O(N+M) memory, at the smallest 5-smooth length ≥ N+M−1 (`_fft_length`:
7200 for 3000/4000 nodes, 10000 for 6000/4000).  Each phase θs²/2 is an exact
integer square times θ/2, so it carries one rounding, as the product p_j r_i of
the direct sum does.
The chirp depends on the grids only, so `fourier_profile` sums the rows
(r ψ, r² ψ, r ρ) with one chirp and one spectrum of it, ψ̂ and ψ̂' sharing ψ's
sine moment.  The rows pass one at a time through one zero-padded L-long complex
buffer, which the forward FFT, the product with the chirp's spectrum and the
inverse FFT each overwrite (numpy.fft's `out=`), so a transform holds that
buffer, the spectrum, the chirp and the (rows, M) moments: a traced peak of
57 MB on 10⁶/4000 nodes.  A batched FFT of all rows in one (rows, L) buffer
would take about 4·L complex more work memory, which tracemalloc does not see.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialFunction, RadialGrid

_UNITARY = np.sqrt(2.0 / np.pi)   # ψ̂ = √(2/π) S/p and ρ̂ = 4π S/p, S = ∫ r sin(pr) f dr


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c ≥ m, at most the power of two ≥ m (7200 for
    6999, 12150 for 12001).  numpy's FFT runs such lengths in radix-2, 3 and 5
    passes, but the least of them is not always the fastest length ≥ m:
    rfft/irfft take 43/42 µs at 12288 = 2^12·3 and 50/48 µs at 12150 (medians
    of 3000 interleaved calls, numpy 2.4.6, one AMD EPYC core)."""
    best = 1 << max(m - 1, 0).bit_length()
    odd = 1
    while odd < best:                    # odd = 3^b 5^c
        part = odd
        while part < best:
            best = min(best, part << (-(-m // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _chirp_moment(grid: RadialGrid, pgrid: RadialGrid, *rows: tuple[int, np.ndarray]) -> np.ndarray:
    """X[l]_j = Σ_i w_i r_i^k f(r_i) e^{−i p_j r_i} at each node p_j for each row l = (k, f)
    on `grid`, by FFT convolutions with one chirp e^{iθm²/2}, m = j − i = 1−N..M−1, each
    row in turn in one zero-padded L-long buffer that every step overwrites."""
    n, m = grid.n, pgrid.n
    chirp = 0.5j * (grid.h * pgrid.h) * np.arange(max(n, m) + 1, dtype=float) ** 2
    np.exp(chirp, out=chirp)                                          # e^{iθs²/2}
    np.conjugate(chirp, out=chirp)                                    # e^{−iθs²/2} from here
    size = _fft_length(n + m - 1)                                     # ≥ N+M−1: no wrap
    kernel = np.zeros(size, complex)                                  # m = 1−N..M−1
    np.conjugate(chirp[n - 1::-1], out=kernel[:n])
    np.conjugate(chirp[:m], out=kernel[n - 1:n + m - 1])
    np.fft.fft(kernel, out=kernel)
    buf = np.empty(size, complex)
    X = np.empty((len(rows), m), complex)
    for x, (k, f) in zip(X, rows):
        buf[n:] = 0
        np.multiply(grid.weights * grid.nodes**k * f, chirp[1:n + 1], out=buf[:n])
        np.fft.fft(buf, out=buf)
        buf *= kernel
        np.fft.ifft(buf, out=buf)
        # the chirp first: numpy's complex product rounds differently with the operands swapped
        np.multiply(chirp[1:m + 1], buf[n - 1:n + m - 1], out=x)
    return X


def fourier_radial(f: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Unitary radial Fourier transform of a real radial profile: `fourier_profile`'s ψ̂."""
    return fourier_profile(f, pgrid)[0]


def fourier_density(rho: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Raw-convention transform ρ̂(p), → ∫ρ d³x as p → 0: `fourier_profile`'s ρ̂."""
    return fourier_profile(rho, pgrid, rho)[2]


def fourier_radial_gradient(f: RadialFunction, pgrid: RadialGrid) -> RadialFunction:
    """Radial derivative ψ̂'(p) of the unitary transform, computed analytically:

        ψ̂'(p) = sqrt(2/π) [ p^{-1} ∫ r² cos(pr) f dr − p^{-2} ∫ r sin(pr) f dr ].

    More accurate than finite-differencing the transform, and exact about the
    cancellation structure at small p (ψ̂' vanishes linearly).
    """
    return fourier_profile(f, pgrid)[1]


def fourier_profile(psi: RadialFunction, pgrid: RadialGrid,
                    rho: RadialFunction | None = None) -> tuple:
    """(ψ̂, ψ̂', ρ̂) from one chirp-z sum of their moments; rho on ψ's grid, or None."""
    p = pgrid.nodes
    rows = ((1, psi.values), (2, psi.values)) + (() if rho is None else ((1, rho.values),))
    X = _chirp_moment(psi.grid, pgrid, *rows)
    sin_psi = -X[0].imag
    return (RadialFunction(pgrid, _UNITARY * sin_psi / p),
            RadialFunction(pgrid, _UNITARY * (X[1].real / p - sin_psi / p**2)),
            None if rho is None else RadialFunction(pgrid, 4.0 * np.pi * -X[2].imag / p))
