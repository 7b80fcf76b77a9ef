"""Variational inverse-mass diagnostic built from the momentum profile.

The trial direction is the regularized logarithmic derivative of ψ̂,

    t(p) = (∇ψ̂(p)/ψ̂(p)) χ(εp) = p h(p),   h(p) = ψ̂'(p) χ(εp) / (p ψ̂(p)),

with χ a radial cutoff, χ(0) = 1.  Three functionals of the profile enter
the strong-coupling bound on the inverse effective mass:

    R(ε)  = ∫ ψ̂² p·t           = 4π ∫ p³ χ(εp) ψ̂ ψ̂' dp        →  −3/2
    Q1(ε) = ∫ χ² |∇ψ̂|² (p²+μ)  = 4π ∫ p² χ(εp)² ψ̂'² (p²+μ) dp
    Q2(ε) = (√2/π) ∬ (φ(k)/|k|) χ(ε|p+k|) ∇ψ̂(p+k) · χ(εp) ∇ψ̂(p) dk dp

with Q1 − Q2 → 3 as ε → 0 (a consequence of the momentum-space
Euler–Lagrange equation).  Their combination

    f(ε) = 1 + (Q1 − Q2)/3 + 4R/3

is the strong-coupling limit of the upper bound on 1/(2m); it vanishes as
ε → 0, which is exactly the mass-divergence statement.  m_lower = 1/(2f)
is the induced asymptotic lower-mass diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import RadialFunction, integrate_3d
from .momentum import MomentumProfile, _field_weights, _spectra, _window
from .solver import PekarState


@dataclass
class CutoffSpec:
    """Radial cutoff χ(εp) with χ(0) = 1.

    shape 'bump' is the standard compactly supported mollifier
    exp(1 − 1/(1 − s²)) on |s| < 1, s = εp; 'gaussian' (not compactly
    supported, for sensitivity studies) is exp(−s²); 'one' is the formal
    ε = 0 endpoint χ ≡ 1.
    """

    eps: float
    shape: str = "bump"

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.shape not in ("bump", "gaussian", "one"):
            raise ValueError(f"unknown cutoff shape {self.shape!r}")

    def chi(self, p: np.ndarray) -> np.ndarray:
        """χ evaluated at εp (vectorized; exact zeros outside a bump's support)."""
        s = np.asarray(self.eps * p, dtype=float)
        if self.shape == "one":
            return np.ones_like(s)
        if self.shape == "gaussian":
            return np.exp(-(s**2))
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out


@dataclass
class MassBoundReport:
    """One ε-slice of the inverse-mass bound.

    At the χ≡1 endpoint R → −3/2, Q1 − Q2 → 3 and f → 0.
    """

    eps: float
    R: float
    Q1: float
    Q2: float
    f: float
    m_lower: float


_CHI_ONE = CutoffSpec(eps=1.0, shape="one")


def trial_profile(mp: MomentumProfile, cut: CutoffSpec) -> RadialFunction:
    """Radial scalar h(p) of the trial direction t(p) = p h(p).

    h(p) = ψ̂'(p) χ(εp) / (p ψ̂(p)) at the grid nodes (p = 0 is not a node),
    and exactly zero outside the cutoff's support.  ψ̂' vanishes linearly,
    so h stays finite as p → 0 and t itself vanishes at the origin.
    Raises DomainError if ψ̂ is not strictly positive somewhere inside the
    cutoff's support.
    """
    p = mp.pgrid.nodes
    chi = cut.chi(p)
    support = chi != 0.0
    if np.any(mp.psi_hat.values[support] <= 0.0):
        raise DomainError("ψ̂ must be strictly positive on the cutoff support")
    vals = np.zeros_like(p)
    vals[support] = (
        mp.dpsi_hat.values[support] * chi[support] / (p[support] * mp.psi_hat.values[support])
    )
    return RadialFunction(mp.pgrid, vals)


def pairing_term(mp: MomentumProfile, cut: CutoffSpec) -> float:
    """R(ε) = 4π ∫ p³ χ(εp) ψ̂(p) ψ̂'(p) dp; → −3/2 as ε → 0.

    Summed with compensated summation, so restricting the sum to the
    cutoff's support (where the integrand is not an exact zero) is
    bit-identical to the full-grid sum.
    """
    p = mp.pgrid.nodes
    integrand = p**3 * cut.chi(p) * mp.psi_hat.values * mp.dpsi_hat.values
    return 4.0 * np.pi * math.fsum(mp.pgrid.weights * integrand)


def kinetic_term(mp: MomentumProfile, cut: CutoffSpec) -> float:
    """Q1(ε) = 4π ∫ p² χ(εp)² ψ̂'(p)² (p² + μ) dp; positive wherever the
    cutoff's support meets the grid.  Compensated summation, as for R."""
    p = mp.pgrid.nodes
    integrand = p**2 * cut.chi(p) ** 2 * mp.dpsi_hat.values**2 * (p**2 + mp.mu)
    return 4.0 * np.pi * math.fsum(mp.pgrid.weights * integrand)


def potential_term(mp: MomentumProfile, cut: CutoffSpec) -> float:
    """Q2(ε) by the shell reduction of the angular integral.

    With G(q) = χ(εq) ψ̂'(q), the weight p + kc = (q² + p² − k²)/(2p) and
    dc = q dq/(pk), the double integral becomes

        Q2 = 4 Σ_ij w_i w_j (ρ̂(k_i)/k_i) G(p_j) [ΔA₂ + (p_j² − k_i²) ΔA₀],

    ΔA_m = ∫_{|p_j−k_i|}^{p_j+k_i} q^m G(q) dq, where k²·(φ(k)/k) =
    ρ̂(k)/(√2 π) has absorbed the field profile: three shell sums s₁ + p² s₂ − s₃
    with no division by q, added as spectra: s₁ − s₃ is one inverse FFT of
    F(a)F(A[q²G]) − F(ak²)F(A[G]), s₂ one of F(a)F(A[G]), a = wρ̂/k.
    """
    pg = mp.pgrid
    p = pg.nodes
    G = cut.chi(p) * mp.dpsi_hat.values
    a = _field_weights(mp)   # k and p share the grid, so k_i² is p**2 on the k side
    fa, fA = _spectra(pg, a, G)
    fa_k2, fA_q2 = _spectra(pg, a * p**2, p**2 * G)
    shell = _window(fa * fA_q2 - fa_k2 * fA, pg.n) + p**2 * _window(fa * fA, pg.n)
    return float(4.0 * (pg.weights * G) @ shell)


def mass_coefficient(state: PekarState) -> float:
    """Quartic-norm mass prefactor (8π/3) ∫ |ψ|⁴ d³x."""
    quartic = state.psi.with_values(state.psi.values**4)
    return float(8.0 * np.pi / 3.0 * integrate_3d(quartic))


def bound_rhs(mp: MomentumProfile, cut: CutoffSpec) -> MassBoundReport:
    """Assemble f(ε) = 1 + (Q1 − Q2)/3 + 4R/3 for one cutoff.

    m_lower = 1/(2f) when f > 0; if quadrature noise pushes f ≤ 0 near the
    exact zero, m_lower is the +inf sentinel.
    """
    R = pairing_term(mp, cut)
    Q1 = kinetic_term(mp, cut)
    Q2 = potential_term(mp, cut)
    f = 1.0 + (Q1 - Q2) / 3.0 + 4.0 * R / 3.0
    return MassBoundReport(
        eps=cut.eps,
        R=R,
        Q1=Q1,
        Q2=Q2,
        f=f,
        m_lower=math.inf if f <= 0.0 else 1.0 / (2.0 * f),
    )


def kinetic_term_position_oracle(state: PekarState) -> float:
    """Independent check of Q1(χ≡1) from position space:

        ∫ p²|∇ψ̂|² = ∫ r²|∇ψ|²  and  ∫ |∇ψ̂|² = ∫ r² ψ²,

    so Q1(0) = 4π ∫ r⁴ ψ'² dr + μ · 4π ∫ r⁴ ψ² dr.
    """
    from .grid import radial_derivative

    g = state.psi.grid
    r = g.nodes
    dpsi = radial_derivative(state.psi).values
    mu = state.mu
    return float(4.0 * np.pi * g.integrate(r**4 * (dpsi**2 + mu * state.psi.values**2)))


def potential_term_position_oracle(state: PekarState) -> float:
    """Independent check of Q2(χ≡1): ∫ dp ∇ψ̂(p+k)·∇ψ̂(p) is the raw
    transform of r²ρ, and closing the Coulomb kernel gives

        Q2(0) = 2 ∬ ρ(x) |y|² ρ(y) / |x−y| dx dy.
    """
    from .coulomb import coulomb_bilinear

    g = state.rho.grid
    weighted = state.rho.with_values(g.nodes**2 * state.rho.values)
    return 2.0 * coulomb_bilinear(state.rho, weighted)
