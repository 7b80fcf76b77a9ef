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
on-grid primitive, summed by `_Shells` with FFTs in O(n log n); no value
is ever needed between nodes.  Each shell integral is the trapezoid rule on
Gregory-corrected samples (see `_Shells`), so it errs by O((pmax/n)³).
Everywhere a 1/k would meet the field profile, the finite combination
k φ(k) = ρ̂(k)/(√2 π) is used instead.
With the primitive shifted by its last value, each sum splits into a Hankel
and a Toeplitz correlation of length-n arrays, so one circular length ≥ 2n+1
holds both without wrap-around (the smallest 5-smooth one, 8100 at n = 4000).
Only the EL residual needs every sum, and reads them from an inverse FFT.  A
scalar that weighs the sums with grid samples (the cross functional here, Q2
in massbound.py) needs none: by the exchange identity of `_Shells`, field and
integrand trade places up to O(n) end terms, the field's primitive becomes a
Fourier-diagonal kernel, and the scalar is that kernel contracted by Parseval
with the spectra of the rows it weighs.  Forward real FFTs only: 2 for the
cross functional, 4 for one Q2, and 2 per cutoff plus 2 kernels made once for
a cutoff sweep.

Every integral over p or k is the trapezoid rule from the origin (`_weights`):
h at the nodes 1..n−1, h/2 at the last, and h/2 at p = 0, which is not a node.
On integrands even and smooth through 0 it converges spectrally (Trefethen and
Weideman, SIAM Review 2014).  Most vanish at 0, so the origin adds nothing; three
do not and add their limit, with ρ̂(0) = ∫ ρ d³x taken from the state: the field
energy's p² φ² → ρ̂(0)²/(2π²), Q2's k = 0 shell (massbound.py) and the EL
convolution's.  On the default grids f(χ≡1) of massbound.py is 1.5e-7, and
1.4e-7 on half the momentum nodes, so what is left is the radial grid's.  With
`build_grid`'s radial weights (1.5h at the first node) it read 8.9e-7, of which
an h_p³ term made 7.4e-7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .grid import RadialFunction, RadialGrid, integrate_3d
from .solver import PekarState
from .transforms import _fft_length, fourier_profile

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
    rho_hat0: float   # ρ̂(0) = ∫ ρ d³x, the p = 0 limit the momentum grid has no node for

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


def momentum_profile(state: PekarState, pgrid: RadialGrid) -> MomentumProfile:
    """Transform a converged state to momentum space.

    ψ̂ of the minimizer is strictly positive, but it decays so fast
    (roughly e^{-7p}) that beyond p ≈ 4 its true value underflows the
    quadrature noise floor of double precision, where sign flips of size
    ~1e-8 are unavoidable.  The positivity check is therefore a
    sign-structure check: once the computed transform goes non-positive,
    everything after must stay below _TAIL_FLOOR·max(ψ̂).  A recovery above
    that level after a sign change means the noise floor reaches into the
    structured part of the profile, i.e. rmax is too small for the
    requested pmax, and raises DomainError; so does a ψ̂ with no positive
    sample, whose grid starts beyond the floor.  Either DomainError carries
    the profile as `profile`.  The sub-threshold tail is kept as computed;
    its contribution to every functional in this module is O(noise²).
    """
    psi_hat, dpsi_hat, rho_hat = fourier_profile(state.psi, pgrid, state.rho)
    phi = RadialFunction(pgrid, rho_hat.values / (SQRT2_PI * pgrid.nodes))
    mp = MomentumProfile(pgrid=pgrid, psi_hat=psi_hat, dpsi_hat=dpsi_hat, phi=phi, mu=state.mu,
                         rho_hat0=integrate_3d(state.rho))
    v = psi_hat.values
    if v.max() <= 0.0:
        raise DomainError(
            f"transform has no positive sample: the first momentum node, p={pgrid.nodes[0]:g}, "
            f"already lies in the noise floor; use a finer momentum grid (smaller pmax/n)",
            profile=mp)
    first = int(np.argmax(v <= 0.0))   # 0 if there is no sign change
    if v[first] <= 0.0 and np.any(v[first:] >= _TAIL_FLOOR * v.max()):
        raise DomainError(
            f"transform sign-indefinite above the noise floor (first sign "
            f"change at p={pgrid.nodes[first]:g}); increase rmax or decrease pmax", profile=mp)
    return mp


def _weights(pgrid: RadialGrid) -> np.ndarray:
    """The trapezoid rule from p = 0 at the nodes 1..n: h, ..., h, h/2.  The origin's
    weight h/2 multiplies the integrand's p = 0 limit, which the callers whose
    integrand does not vanish there add themselves."""
    w = np.full(pgrid.n, pgrid.h)
    w[-1] = 0.5 * pgrid.h
    return w


def field_energy(mp: MomentumProfile) -> float:
    """∫ φ(p)² d³p = 4π ∫ p² φ² dp, p² φ² → ρ̂(0)²/(2π²) at the origin; equals the
    position-space pair energy D."""
    p, phi = mp.pgrid.nodes, mp.phi.values
    origin = 0.5 * mp.pgrid.h * mp.rho_hat0**2 / (2.0 * np.pi**2)
    return float(4.0 * np.pi * (_weights(mp.pgrid) @ (p**2 * phi**2) + origin))


def density_expectation(mp: MomentumProfile, g: RadialTestFunction) -> float:
    """∫ |ψ̂(p)|² g(|p|) d³p."""
    p = mp.pgrid.nodes
    return float(4.0 * np.pi * (_weights(mp.pgrid) @ (p**2 * mp.psi_hat.values**2 * g(p))))


def number_expectation(mp: MomentumProfile, g: RadialTestFunction) -> float:
    """∫ φ² · ∫ |ψ̂|² g, defined for bounded g only."""
    if not g.bounded:
        raise ValueError("number expectation requires a bounded test function")
    return field_energy(mp) * density_expectation(mp, g)


class _Shells:
    """The FFT shell sums s_j = Σ_i b_i (A[i+j] − A[|i−j|]), j = 1..n, on pgrid.

    A[m] ≈ ∫_0^{mh} F is the on-grid primitive of the integrand samples y
    (A[0] = 0, held at A[n] beyond the grid, where F is taken as zero), so
    s_j ≈ Σ_i b_i ∫_{|p_j−k_i|}^{p_j+k_i} F(q) dq.  A is the trapezoid primitive
    from F(0) = 0 of the Gregory-corrected samples

        ỹ_l = (−y_{l−1} + 14 y_l − y_{l+1})/12,   l = 1..n,   y_0 = y_{n+1} = 0:

    between two nodes, the second differences that ỹ takes off y telescope to
    (h²/12)[F′] at both ends, the trapezoid rule's leading Euler–Maclaurin
    error (Gregory's end correction), so the sums err by O(h³), not O(h²).
    The constant A[n] cancels in each difference, so s = H − T with
    Ã = A − A[n], which vanishes from n on: the Hankel part
    H_j = Σ_i b_i Ã[i+j] and the Toeplitz part T_j = Σ_i b_i Ã[|i−j|].  With b
    at indices 1..n, H is a circular correlation whose indices i + j ≤ 2n stay
    below a length L ≥ 2n+1 (`size`, the smallest 5-smooth one), and T a
    circular convolution with Ã's even extension, which fills 0..n−1 and
    L−n+1..L−1 without overlap; both are read at j = 1..n.  `field` gives the
    spectra of rows placed at 1..n, and `sums` reads s from one inverse FFT.

    A scalar Σ_j w_j x_j s_j(b, y), w the trapezoid weights (`_weights`), needs
    no inverse FFT.  Written out, s_j is h Σ_il b_i ỹ_l K(i, j, l) less the hold's
    end term, and K, 1 for |i−j| < l < i+j, ½ for l = i+j or l = |i−j| and 0
    otherwise, is symmetric in (i, j, l); so field and integrand trade places
    (the exchange identity):

        Σ_j w_j x_j s_j(b, y) = h Σ_jl x_j ỹ_l (P[j+l] − P[|j−l|])
            + (h/2) [x_n Σ_l ỹ_l P[n−l] − ỹ_n Σ_j w_j x_j Σ_{l>n−j} b_l],

    with P the trapezoid primitive of b shifted by its total, P[m] =
    −h (Σ_{i>m} b_i + b_m/2) on 0..n and zero beyond.  The end terms are the
    last node's half weight (x_n) and the primitive's hold at A[n] (ỹ_n); the
    first node has the bulk's weight h, and the first cell is the bulk's
    trapezoid.  The stencil S: y ↦ ỹ is symmetric, so in the first line it
    moves onto P by parts: with D_j[l] = P[j+l] − P[|j−l|] (D_j[0] = 0,
    D_j[n+1] = −P[n+1−j]), Σ_l ỹ_l D_j[l] = Σ_l y_l (S D_j)[l] − y_n P[n+1−j]/12,
    and (S D_j)[l] = SP[j+l] − SP[|j−l|], SP the stencil of P (zero beyond n) on
    0..n+1, at 0 taken on P's even extension: the bulk is the first line's with
    SP for P, less (h y_n/12) Σ_j x_j P[n+1−j].  In the second line S moves
    onto the vector P[n−l] that ỹ meets.  `kernel(b)` makes SP's spectrum (one
    forward FFT); `form` contracts it with the spectra of x and y by Parseval,
    the Hankel part as Re(F x · F y · conj F SP), the Toeplitz part with SP's
    even extension.
    """

    def __init__(self, pgrid: RadialGrid):
        self.pgrid = pgrid
        self.size = _fft_length(2 * pgrid.n + 1)

    def field(self, rows: np.ndarray) -> np.ndarray:
        """Spectra of the rows of `rows`, each placed at indices 1..n (zero at 0
        and beyond n)."""
        padded = np.zeros(rows.shape[:-1] + (self.pgrid.n + 1,))
        padded[..., 1:] = rows
        return np.fft.rfft(padded, self.size)

    def sums(self, b: np.ndarray, integrand: np.ndarray) -> np.ndarray:
        """s_j, j = 1..n: the Hankel correlation conj(F b)·F Ã less the Toeplitz
        convolution F b·Ê, Ê = 2 Re F Ã − Ã[0] the spectrum of Ã's even
        extension, under one inverse FFT."""
        y = _gregory(integrand)
        A = self.pgrid.h * (np.cumsum(y) - 0.5 * y)   # the trapezoid rule from A[0] = 0
        shifted = np.concatenate(([0.0], A[:-1])) - A[-1]
        spectrum, field = np.fft.rfft(shifted, self.size), self.field(b)
        even = 2.0 * spectrum.real - shifted[0]
        # the length is passed on because a 5-smooth length may be odd
        return np.fft.irfft(field.conj() * spectrum - field * even, self.size)[1:self.pgrid.n + 1]

    def kernel(self, b: np.ndarray) -> tuple:
        """The field b's primitive P as `form` contracts it: the spectra of SP and
        of its even extension, weighed for Parseval's sum over the half spectrum
        (h c_k / L, c_k = 1 at the frequencies that are their own conjugates and
        2 elsewhere), and the vectors of the end terms, the stencil's on those
        that ỹ meets."""
        pg, L = self.pgrid, self.size
        running = np.cumsum(b)
        total = running[-1]
        P = pg.h * (np.concatenate(([0.0], running - 0.5 * b)) - total)
        SP = _gregory(np.append(P, 0.0))   # the stencil on 0..n+1, P zero beyond n
        SP[0] -= P[1] / 12.0   # P's even extension at 0, which the Hankel part never reads
        scaled = SP * (2.0 * pg.h / L)
        hankel = np.fft.rfft(scaled, L)
        toeplitz = 2.0 * hankel.real - scaled[0]
        own = [0, L // 2][:2 - L % 2]   # 0, and L/2 for an even L
        hankel[own] /= 2.0
        toeplitz[own] /= 2.0
        tail = total - np.concatenate((running[-2::-1], [0.0]))   # Σ_{l>n−j} b_l
        return (hankel.view(float), toeplitz, _gregory(P[-2::-1]), _weights(pg) * tail,
                P[:0:-1] / 6.0)

    def form(self, rows: np.ndarray, *terms: tuple[tuple, int, int]) -> float:
        """Σ over terms (kernel of b, i, k) of Σ_j w_j x_j s_j(b, y), x = rows[i]
        and y = rows[k], by the exchange identity: one forward FFT of the rows."""
        spectra = self.field(rows)
        halves = spectra.view(float)   # real and imaginary parts, interleaved
        total = 0.0
        for (hankel, toeplitz, last, wtail, spill), i, k in terms:
            x, y = rows[i], rows[k]
            bulk = ((spectra[i] * spectra[k]).view(float) @ hankel
                    - (toeplitz @ (halves[i] * halves[k]).reshape(-1, 2)).sum())
            yn = (14.0 * y[-1] - y[-2]) / 12.0   # ỹ_n
            # the last term takes off (h y_n/12) Σ_j x_j P[n+1−j], which SP's bulk adds
            ends = x[-1] * (y @ last) - yn * (x @ wtail) - y[-1] * (x @ spill)
            total += bulk + 0.5 * self.pgrid.h * ends
        return float(total)


def _gregory(y: np.ndarray) -> np.ndarray:
    """ỹ_l = (−y_{l−1} + 14 y_l − y_{l+1})/12 on nodes 1..n, y_0 = y_{n+1} = 0."""
    out = 14.0 * y
    out[1:] -= y[:-1]
    out[:-1] -= y[1:]
    return out / 12.0


def _field_weights(mp: MomentumProfile) -> np.ndarray:
    """w_i ρ̂(k_i)/k_i: the k-side factor of the convolutions with φ(k)/k."""
    return _weights(mp.pgrid) * mp.rho_hat().values / mp.pgrid.nodes


def cross_expectation(mp: MomentumProfile, xi: RadialTestFunction, g: RadialTestFunction) -> float:
    """∬ dk dp φ(k) ξ(k) ψ̂(p+k) g(p+k) ψ̂(p) g(p).

    After the shell reduction,

        8π² Σ_ij w_i w_j k_i φ(k_i) ξ(k_i) p_j (ψ̂g)(p_j) [B(p_j+k_i) − B(|p_j−k_i|)],

    with B the primitive of q (ψ̂g)(q) and w the trapezoid weights from 0; g and ξ
    are called on the grid only.  Both origin shells vanish: at k = 0 the width
    B(p+k) − B(p−k) multiplies k φ(k) → ρ̂(0)/(√2 π), and at p = 0 the factor p
    does.  That is `_Shells.form` with x = y = p ψ̂g: two forward real FFTs.
    """
    pg = mp.pgrid
    p = pg.nodes
    x = p * mp.psi_hat.values * g(p)
    k_factor = _weights(pg) * mp.rho_hat().values / SQRT2_PI * xi(p)   # w k φ(k) ξ(k)
    shells = _Shells(pg)
    return 8.0 * np.pi**2 * shells.form(x[np.newaxis], (shells.kernel(k_factor), 0, 0))


def el_residual_momentum(mp: MomentumProfile) -> float:
    """Weighted L² norm of the momentum-space Euler–Lagrange defect.

    The convolution term is (2/π) ∫ dk ρ̂(k) ∫ dc ψ̂(|p+k|), which the shell
    reduction turns into (2/π) (1/p) Σ_i w_i (ρ̂_i/k_i) [B(p+k_i) − B(|p−k_i|)]
    with B the primitive of q ψ̂(q), plus the k = 0 shell's limit 2ρ̂(0)ψ̂(p) at
    the origin's weight h/2.  Looser than the position-space residual by the
    extra transform error; ≤ 1e-3 for a converged state at default resolution.
    """
    pg, psi = mp.pgrid, mp.psi_hat.values
    p = pg.nodes
    conv = _Shells(pg).sums(_field_weights(mp), p * psi) / p + pg.h * mp.rho_hat0 * psi
    defect = (p**2 + mp.mu) * psi - (2.0 / np.pi) * conv
    return float(np.sqrt(4.0 * np.pi * (_weights(pg) @ (p**2 * defect**2))))
