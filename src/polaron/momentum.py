"""Momentum-space profile of the minimizer and its classical functionals.

From a converged ground state this module builds ψ̂ (unitary transform), its
radial derivative ψ̂', and the polarization-field profile

    φ(p) = ρ̂(p) / (√2 π p)     (ρ̂ in the raw convention),

whose squared L² norm equals the Coulomb pair energy D.  On top of these it
evaluates the three strong-coupling limit functionals of the ground-state
perturbation argument:

    ∫ |ψ̂|² g,      ∫ φ² · ∫ |ψ̂|² g,
    ∬ dk dp φ(k) ξ(k) ψ̂(p+k) g(p+k) ψ̂(p) g(p),

and the momentum-space Euler–Lagrange residual

    (p² + μ) ψ̂(p) − (√2/π) ∫ dk (φ(k)/|k|) ψ̂(p+k).

Double integrals of rotation-invariant integrands collapse by the angular
reduction ∬ d³k d³p F = 8π² ∫ k² dk ∫ p² dp ∫_{−1}^{1} dc F with
|p+k| = q = sqrt(p² + k² + 2pkc).  Substituting q for c turns the angular
integral into a shell integral,

    ∫_{−1}^{1} F(|p+k|) dc = (1/pk) ∫_{|p−k|}^{p+k} q F(q) dq,

and on the uniform momentum grid (p = jh, k = ih) both limits are nodes,
i + j and |i − j|.  Each double integral is therefore a difference of an
on-grid primitive, summed by `_shell_sum` as one FFT correlation in
O(n log n); no value is ever needed between nodes, and the error is the
grid's own, O((pmax/n)²).  Everywhere a 1/k would meet the field profile,
the finite combination k φ(k) = ρ̂(k)/(√2 π) is used instead.
Only n of its 5n+1 outputs are read, so its circular length need only exceed
3n, and sums that are added (Q2 in massbound.py) are added as spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .grid import RadialFunction, RadialGrid, cumulative_primitive, integrate_3d
from .solver import PekarState
from .transforms import fourier_profile

SQRT2_PI = np.sqrt(2.0) * np.pi
_TAIL_FLOOR = 1e-6   # ψ̂'s noise floor relative to its maximum (see momentum_profile)


@dataclass
class MomentumProfile:
    """ψ̂, ψ̂' and φ on a common momentum grid, plus the multiplier μ."""

    pgrid: RadialGrid
    psi_hat: RadialFunction
    dpsi_hat: RadialFunction
    phi: RadialFunction
    mu: float

    def rho_hat(self) -> RadialFunction:
        """Raw-convention density transform, recovered exactly from φ."""
        vals = SQRT2_PI * self.pgrid.nodes * self.phi.values
        return RadialFunction(self.pgrid, vals)


@dataclass
class RadialTestFunction:
    """Real radial profile g(|p|) used as a test function.

    bounded declares whether sup |g| < ∞; functionals that require
    boundedness refuse unbounded-flagged inputs.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    bounded: bool = True
    name: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x), dtype=float)
        return np.broadcast_to(out, x.shape)


def _noisy_sign_change(psi_hat: RadialFunction, tail_floor: float = _TAIL_FLOOR) -> int | None:
    """Index of the first non-positive sample of ψ̂ if a later sample recovers
    to tail_floor·max(ψ̂) or above, else None (see `momentum_profile`)."""
    v = psi_hat.values
    nonpos = v <= 0.0
    if not nonpos.any():
        return None
    first = int(np.argmax(nonpos))
    return first if np.any(v[first:] >= tail_floor * v.max()) else None


def momentum_profile(state: PekarState, pgrid: RadialGrid,
                     tail_floor: float = _TAIL_FLOOR) -> MomentumProfile:
    """Transform a converged state to momentum space.

    ψ̂ of the minimizer is strictly positive, but it decays so fast
    (roughly e^{-7p}) that beyond p ≈ 4 its true value underflows the
    quadrature noise floor of double precision, where sign flips of size
    ~1e-8 are unavoidable.  The positivity check is therefore a
    sign-structure check: once the computed transform goes non-positive,
    everything after must stay below tail_floor·max(ψ̂).  A recovery above
    that level after a sign change means the noise floor reaches into the
    structured part of the profile, i.e. rmax is too small for the
    requested pmax, and raises DomainError.  The sub-threshold tail is
    kept as computed; its contribution to every functional in this module
    is O(noise²).  Pass tail_floor=inf to skip the check.
    """
    psi_hat, dpsi_hat, rho_hat = fourier_profile(state.psi, pgrid, state.rho)
    first = _noisy_sign_change(psi_hat, tail_floor)
    if first is not None:
        raise DomainError(
            f"transform sign-indefinite above the noise floor (first sign "
            f"change at p={pgrid.nodes[first]:g}); increase rmax or decrease pmax"
        )
    phi = RadialFunction(pgrid, rho_hat.values / (SQRT2_PI * pgrid.nodes))
    return MomentumProfile(pgrid=pgrid, psi_hat=psi_hat, dpsi_hat=dpsi_hat, phi=phi, mu=state.mu)


def field_energy(mp: MomentumProfile) -> float:
    """∫ φ(p)² d³p; equals the position-space pair energy D."""
    return integrate_3d(mp.phi.with_values(mp.phi.values**2))


def density_expectation(mp: MomentumProfile, g: RadialTestFunction) -> float:
    """∫ |ψ̂(p)|² g(|p|) d³p."""
    vals = mp.psi_hat.values**2 * g(mp.pgrid.nodes)
    return integrate_3d(RadialFunction(mp.pgrid, vals))


def number_expectation(mp: MomentumProfile, g: RadialTestFunction) -> float:
    """∫ φ² · ∫ |ψ̂|² g, defined for bounded g only."""
    if not g.bounded:
        raise ValueError("number expectation requires a bounded test function")
    return field_energy(mp) * density_expectation(mp, g)


def _spectra(pgrid: RadialGrid, a: np.ndarray, integrand: np.ndarray) -> tuple:
    """Field- and primitive-side spectra of `_shell_sum`: the odd extension of a,
    reversed (i = n..−n), and the even extension of A (m = −n..2n), both at the
    circular length L, the power of two ≥ 3n+1."""
    n = pgrid.n
    A = np.concatenate(([0.0], cumulative_primitive(pgrid, integrand)))
    size = 1 << (3 * n).bit_length()
    return (np.fft.rfft(np.concatenate((a[::-1], [0.0], -a)), size),
            np.fft.rfft(np.concatenate((A[:0:-1], A, np.full(n, A[-1]))), size))


def _window(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Outputs j = 1..n of the correlation with this product of spectra."""
    return np.fft.irfft(spectrum)[2 * n + 1: 3 * n + 1]


def _shell_sum(pgrid: RadialGrid, a: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """s_j = Σ_i a_i (A[i+j] − A[|i−j|]) for j = 1..n, by one FFT correlation.

    A[m] = ∫_0^{mh} F is the on-grid primitive of the integrand samples F
    (A[0] = 0, held at A[n] beyond the grid, where F is taken as zero), so
    s_j = Σ_i a_i ∫_{|p_j−k_i|}^{p_j+k_i} F(q) dq.  Extending a oddly and A
    evenly to negative indices folds the Toeplitz term into the Hankel one,
    s_j = Σ_{i=−n}^{n} a_i A[j+i], a single linear correlation: output t = j + 2n
    of the 2n+1 reversed a against the 3n+1 A, nonzero for t = 0..5n only.  A
    circular length L folds t ± L onto t; for L ≥ 3n+1 and t in 2n+1..3n both
    lie outside 0..5n, so the window is exact without room for all 5n+1 outputs.
    """
    field, primitive = _spectra(pgrid, a, integrand)
    return _window(field * primitive, pgrid.n)


def _field_weights(mp: MomentumProfile) -> np.ndarray:
    """w_i ρ̂(k_i)/k_i: the k-side factor of the convolutions with φ(k)/k."""
    return mp.pgrid.weights * mp.rho_hat().values / mp.pgrid.nodes


def cross_expectation(mp: MomentumProfile, xi: RadialTestFunction, g: RadialTestFunction) -> float:
    """∬ dk dp φ(k) ξ(k) ψ̂(p+k) g(p+k) ψ̂(p) g(p).

    After the shell reduction,

        8π² Σ_ij w_i w_j k_i φ(k_i) ξ(k_i) p_j (ψ̂g)(p_j) [B(p_j+k_i) − B(|p_j−k_i|)],

    with B the primitive of q (ψ̂g)(q); g and ξ are called on the grid only.
    """
    pg = mp.pgrid
    p = pg.nodes
    psi_g = mp.psi_hat.values * g(p)
    k_factor = pg.weights * mp.rho_hat().values / SQRT2_PI * xi(p)   # w k φ(k) ξ(k)
    shell = _shell_sum(pg, k_factor, p * psi_g)
    return float(8.0 * np.pi**2 * ((pg.weights * p * psi_g) @ shell))


def el_residual_momentum(mp: MomentumProfile) -> float:
    """Weighted L² norm of the momentum-space Euler–Lagrange defect.

    The convolution term is (2/π) ∫ dk ρ̂(k) ∫ dc ψ̂(|p+k|), which the shell
    reduction turns into (2/π) (1/p) Σ_i w_i (ρ̂_i/k_i) [B(p+k_i) − B(|p−k_i|)]
    with B the primitive of q ψ̂(q).  Looser than the position-space residual
    by the extra transform error; ≤ 1e-3 for a converged state at default
    resolution.
    """
    p = mp.pgrid.nodes
    conv = _shell_sum(mp.pgrid, _field_weights(mp), p * mp.psi_hat.values) / p
    defect = (p**2 + mp.mu) * mp.psi_hat.values - (2.0 / np.pi) * conv
    return float(np.sqrt(4.0 * np.pi * mp.pgrid.integrate(p**2 * defect**2)))
