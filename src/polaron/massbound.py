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

from .coulomb import coulomb_bilinear
from .grid import integrate_3d, radial_derivative
from .momentum import MomentumProfile, _Shells, _field_weights
from .solver import PekarState


@dataclass
class CutoffSpec:
    """Radial cutoff χ(εp) with χ(0) = 1.

    shape 'bump' is the standard compactly supported mollifier
    exp(1 − 1/(1 − s²)) on |s| < 1, s = εp; 'gaussian' (not compactly
    supported, for sensitivity studies) is exp(−s²); 'one' is the formal
    ε = 0 endpoint χ ≡ 1, for library callers (the χ≡1 rows of `polaron
    verify` and `polaron massbound`); the config key cutoff.shape rejects it.
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
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))  # 1 − s² ≥ 2.2e-16 here
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


def pairing_term(mp: MomentumProfile, cut: CutoffSpec) -> float:
    """R(ε) = 4π ∫ p³ χ(εp) ψ̂(p) ψ̂'(p) dp; → −3/2 as ε → 0 (`bound_rhs`'s R)."""
    return bound_rhs(mp, cut).R


def kinetic_term(mp: MomentumProfile, cut: CutoffSpec) -> float:
    """Q1(ε) = 4π ∫ p² χ(εp)² ψ̂'(p)² (p² + μ) dp; > 0 where χ's support meets the grid."""
    return bound_rhs(mp, cut).Q1


def potential_term(mp: MomentumProfile, cut: CutoffSpec) -> float:
    """Q2(ε) by the shell reduction of the angular integral (`bound_rhs`'s Q2).

    With G(q) = χ(εq) ψ̂'(q), the weight p + kc = (q² + p² − k²)/(2p) and
    dc = q dq/(pk), the double integral becomes

        Q2 = 4 Σ_ij w_i w_j (ρ̂(k_i)/k_i) G(p_j) [ΔA₂ + (p_j² − k_i²) ΔA₀],

    ΔA_m = ∫_{|p_j−k_i|}^{p_j+k_i} q^m G(q) dq, w the trapezoid weights from 0,
    where k²·(φ(k)/k) = ρ̂(k)/(√2 π) has absorbed the field profile.  The p = 0
    shell vanishes with G(0) = 0; in the k = 0 shell ΔA_m → 2k p^m G(p), so its
    limit at weight h/2 adds 8h ρ̂(0) Σ_j w_j p_j² G_j², an O(n) term.  The rest
    is three shell sums s₁ + p² s₂ − s₃
    with no division by q, each shell integral the trapezoid rule on the
    Gregory-corrected samples of q^m G.  Each is a scalar Σ_j w_j x_j s_j(b, y) of
    `momentum._Shells.form` on the rows G and p²G: s₁ with b = a and (x, y) =
    (G, p²G), p² s₂ with (p²G, G), −s₃ with b = −ak² and (G, G), a = wρ̂/k.  By
    the exchange identity each is the field's primitive P as a Fourier-diagonal
    kernel contracted with the rows' spectra, plus O(n) end terms:

        Q2/4 = (h/L) Σ_k c_k [2 Re(Ĝ Ĝ₂ conj P̂_a) − 2 Ê_a Re(Ĝ conj Ĝ₂)
                             + Re(Ĝ² conj P̂_{−ak²}) − Ê_{−ak²} |Ĝ|²] + end terms,

    P̂ the spectrum of P taken through the Gregory stencil (`_Shells`' SP), Ê
    that of its even extension, c_k Parseval's weights over the half spectrum,
    at the smallest 5-smooth length L ≥ 2n+1: 4 forward real FFTs (the two
    kernels and one 2-row transform of G and p²G), no inverse one.  On the
    default grids Q2(χ≡1) lies 1.8e-10 (relative) from its position oracle, the
    momentum grid's h_p⁴ error: the same on 6000/40, and 2.85e-9 on half the
    momentum nodes.
    """
    return bound_rhs(mp, cut).Q2


def mass_coefficient(state: PekarState) -> float:
    """Quartic-norm mass prefactor (8π/3) ∫ |ψ|⁴ d³x."""
    quartic = state.psi.with_values(state.psi.values**4)
    return float(8.0 * np.pi / 3.0 * integrate_3d(quartic))


def bound_sweep(mp: MomentumProfile, cuts: list[CutoffSpec]) -> list[MassBoundReport]:
    """f(ε) = 1 + (Q1 − Q2)/3 + 4R/3 for each cutoff, in order.

    R and Q1 are the trapezoid sums from p = 0, 4π Σ w p³ ψ̂ ψ̂' χ(εp) and
    4π Σ w p² ψ̂'² (p² + μ) χ(εp)², whose integrands vanish at the origin, Q2 the
    shell sums and the k = 0 shell of `potential_term`'s docstring.  The weights
    of R, Q1 and Q2's k = 0 shell and Q2's two kernels (of a and −ak²) are made
    once for the whole sweep, χ(εp) once per cutoff for R, Q1 and Q2; then each
    cutoff costs a dot product for R, for Q1 and for the k = 0 shell, and one 2-row
    forward real FFT of G and p²G for Q2, with no inverse FFT: 2 + 2·(cutoffs)
    real FFT rows, 12 for the default table's 4 bumps and χ≡1.
    m_lower = 1/(2f) when f > 0; if quadrature noise pushes f ≤ 0 near the
    exact zero, m_lower is the +inf sentinel.
    """
    pg, psi, dpsi = mp.pgrid, mp.psi_hat.values, mp.dpsi_hat.values
    p, w, p2 = pg.nodes, pg.weights, pg.nodes**2
    pairing = 4.0 * np.pi * w * p**3 * psi * dpsi
    kinetic = 4.0 * np.pi * w * p2 * dpsi**2 * (p2 + mp.mu)
    origin = 8.0 * pg.h * mp.rho_hat0 * w * p2   # Q2's k = 0 shell, weighed by G²
    shells, a = _Shells(pg), _field_weights(mp)   # k and p share the grid: k_i² is p**2
    ka, minus_ka_k2 = shells.kernel(a), shells.kernel(-a * p2)
    reports = []
    for cut in cuts:
        chi = cut.chi(p)
        G = chi * dpsi   # rows G and p²G: s₁, p² s₂ and −s₃ as forms
        Q2 = (4.0 * shells.form(np.stack((G, p2 * G)), (ka, 0, 1), (ka, 1, 0), (minus_ka_k2, 0, 0))
              + origin @ G**2)
        R, Q1 = float(pairing @ chi), float(kinetic @ chi**2)
        f = 1.0 + (Q1 - Q2) / 3.0 + 4.0 * R / 3.0
        reports.append(MassBoundReport(eps=cut.eps, R=R, Q1=Q1, Q2=Q2, f=f,
                                       m_lower=math.inf if f <= 0.0 else 1.0 / (2.0 * f)))
    return reports


def bound_rhs(mp: MomentumProfile, cut: CutoffSpec) -> MassBoundReport:
    """f(ε) for one cutoff: `bound_sweep` of a one-element list."""
    return bound_sweep(mp, [cut])[0]


def kinetic_term_position_oracle(state: PekarState) -> float:
    """Independent check of Q1(χ≡1) from position space:

        ∫ p²|∇ψ̂|² = ∫ r²|∇ψ|²  and  ∫ |∇ψ̂|² = ∫ r² ψ²,

    so Q1(0) = 4π ∫ r⁴ ψ'² dr + μ · 4π ∫ r⁴ ψ² dr, with ψ' by the five-point
    `radial_derivative`, which errs by O(h⁴) like the state.
    """
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
    g = state.rho.grid
    weighted = state.rho.with_values(g.nodes**2 * state.rho.values)
    return 2.0 * coulomb_bilinear(state.rho, weighted)
