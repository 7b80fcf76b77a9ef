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
By the exchange identity of `_Shells`, field and integrand trade places up to
O(n) end terms, and the field's primitive becomes the one kernel of every sum,
Fourier-diagonal (one forward FFT per field).  A scalar that weighs the sums
with grid samples (the cross functional here, Q2 in massbound.py) is that
kernel contracted by Parseval with the spectra of the rows it weighs; the EL
residual needs every sum and reads them from one inverse FFT.  The kernel's
Hankel and Toeplitz parts share one circular length ≥ 2n+1 without wrap-around
(the smallest 5-smooth one, 8100 at n = 4000).  Real FFTs: 2 forward for the
cross functional, 4 for one Q2, 2 per cutoff plus 2 kernels made once for a
cutoff sweep, and 2 forward and 1 inverse for the EL residual.

Every integral over p or k is the trapezoid rule from the origin, the grid's own
weights (grid.py): h at the nodes 1..n−1, h/2 at the last, and h/2 at p = 0, which
is not a node.
On integrands even and smooth through 0 it converges spectrally (Trefethen and
Weideman, SIAM Review 2014).  Most vanish at 0, so the origin adds nothing; three
do not and add their limit, with ρ̂(0) = ∫ ρ d³x taken from the state: the field
energy's p² φ² → ρ̂(0)²/(2π²), Q2's k = 0 shell (massbound.py) and the EL
convolution's.  On the fourth-order radial grid's 6000/40 state, exact to 1e-13,
f(χ≡1) of massbound.py is −4.5e-10 on the default 4000 momentum nodes and
−7.0e-9 on 2000: what is left is Q2's h_p⁴ term, the next Euler–Maclaurin term
after Gregory's.  On the default grids f(χ≡1) is 4.9e-10, that term plus the
radial state's 9.4e-10 (its SCF stop and the wall at rmax 30).
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
_TAIL_FLOOR = 1e-6   # ψ̂'s noise floor relative to its maximum ψ̂(0) (see momentum_profile)


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
    everything after must stay below _TAIL_FLOOR·ψ̂(0), ψ̂'s maximum for
    ψ ≥ 0, which the grid has no node for: ψ̂(0) = ∫ ψ d³x / (2π)^{3/2} from
    the state (or the largest sample, if larger).  On a coarse grid the
    largest sample can lie far down the profile, where a floor scaled by it
    would be noise.  A recovery above that level after a sign change means
    the noise floor reaches into the structured part of the profile, i.e.
    rmax is too small for the requested pmax, and raises DomainError; so
    does a ψ̂ with no positive sample, whose grid starts beyond the floor.
    Either DomainError carries the profile as `profile`.  The sub-threshold tail is kept as computed;
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
    peak = max(integrate_3d(state.psi) / (2.0 * np.pi) ** 1.5, v.max())
    if v[first] <= 0.0 and np.any(v[first:] >= _TAIL_FLOOR * peak):
        raise DomainError(
            f"transform sign-indefinite above the noise floor (first sign "
            f"change at p={pgrid.nodes[first]:g}); increase rmax or decrease pmax", profile=mp)
    return mp


def field_energy(mp: MomentumProfile) -> float:
    """∫ φ(p)² d³p = 4π ∫ p² φ² dp, p² φ² → ρ̂(0)²/(2π²) at the origin; equals the
    position-space pair energy D."""
    p, phi = mp.pgrid.nodes, mp.phi.values
    origin = 0.5 * mp.pgrid.h * mp.rho_hat0**2 / (2.0 * np.pi**2)
    return float(4.0 * np.pi * (mp.pgrid.weights @ (p**2 * phi**2) + origin))


def density_expectation(mp: MomentumProfile, g: RadialTestFunction) -> float:
    """∫ |ψ̂(p)|² g(|p|) d³p."""
    p = mp.pgrid.nodes
    return float(4.0 * np.pi * (mp.pgrid.weights @ (p**2 * mp.psi_hat.values**2 * g(p))))


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

    Written out, s_j is h Σ_il b_i ỹ_l K(i, j, l) less the hold's end term, and
    K, 1 for |i−j| < l < i+j, ½ for l = i+j or l = |i−j| and 0 otherwise, is
    symmetric in (i, j, l); so field and integrand trade places (the exchange
    identity), and s_j = Σ_l ỹ_l D_j[l] − (h/2) ỹ_n Σ_{l>n−j} b_l with D_j[l] =
    P[j+l] − P[|j−l|], P the trapezoid primitive of b shifted by its total, P[m] =
    −h (Σ_{i>m} b_i + b_m/2) on 0..n and zero beyond.  The stencil S: y ↦ ỹ is
    symmetric, so it moves onto D_j by parts (D_j[0] = 0, D_j[n+1] = −P[n+1−j]),
    and (S D_j)[l] = SP[j+l] − SP[|j−l|], SP the stencil of P (zero beyond n) on
    0..n+1, at 0 taken on P's even extension:

        s_j = Σ_l y_l (SP[j+l] − SP[|j−l|]) − y_n P[n+1−j]/12 − (h/2) ỹ_n Σ_{l>n−j} b_l.

    With y at indices 1..n, the Hankel part Σ_l y_l SP[j+l] is a circular
    correlation whose indices j + l ≤ 2n stay below a length L ≥ 2n+1 (`size`,
    the smallest 5-smooth one), and the Toeplitz part Σ_l y_l SP[|j−l|] a
    circular convolution with SP's even extension, whose halves overlap only
    where the window j = 1..n never reads.  `kernel(b)` makes SP's spectrum (one
    forward FFT) and the end vectors, `field` the spectra of rows placed at
    1..n, and `vector` reads every s_j from one inverse FFT.  A scalar
    Σ_j w_j x_j s_j(b, y), w the trapezoid weights (`pgrid.weights`), needs none:
    `form` contracts SP's spectrum with the spectra of x and y by Parseval, the
    Hankel part as Re(F x · F y · conj F SP), the Toeplitz part with SP's even
    extension, and adds what x_n's half weight and the end vectors leave,

        (h/2) [x_n Σ_l ỹ_l P[n−l] − ỹ_n Σ_j w_j x_j Σ_{l>n−j} b_l − (y_n/6) Σ_j x_j P[n+1−j]],

    the first with the stencil moved onto the vector P[n−l] that ỹ meets.
    """

    def __init__(self, pgrid: RadialGrid):
        self.pgrid = pgrid
        self.size = _fft_length(2 * pgrid.n + 1)
        self.own = [0, self.size // 2][:2 - self.size % 2]   # 0, and L/2 for an even L

    def field(self, rows: np.ndarray) -> np.ndarray:
        """Spectra of the rows of `rows`, each placed at indices 1..n (zero at 0
        and beyond n)."""
        padded = np.zeros(rows.shape[:-1] + (self.pgrid.n + 1,))
        padded[..., 1:] = rows
        return np.fft.rfft(padded, self.size)

    def kernel(self, b: np.ndarray) -> tuple:
        """The field b's primitive P as `form` and `vector` contract it: the spectra of
        SP and of its even extension, weighed for Parseval's sum over the half spectrum
        (h c_k / L, c_k = 1 at the frequencies that are their own conjugates and 2
        elsewhere), the stencil on P[n−l], Σ_{l>n−j} b_l and P[n+1−j]/6."""
        pg, L = self.pgrid, self.size
        running = np.cumsum(b)
        total = running[-1]
        P = pg.h * (np.concatenate(([0.0], running - 0.5 * b)) - total)
        SP = _gregory(np.append(P, 0.0))   # the stencil on 0..n+1, P zero beyond n
        SP[0] -= P[1] / 12.0   # P's even extension at 0, which the Hankel part never reads
        scaled = SP * (2.0 * pg.h / L)
        hankel = np.fft.rfft(scaled, L)
        toeplitz = 2.0 * hankel.real - scaled[0]
        hankel[self.own] /= 2.0
        toeplitz[self.own] /= 2.0
        tail = total - np.concatenate((running[-2::-1], [0.0]))   # Σ_{l>n−j} b_l
        return hankel.view(float), toeplitz, _gregory(P[-2::-1]), tail, P[:0:-1] / 6.0

    def vector(self, kernel: tuple, y: np.ndarray) -> np.ndarray:
        """s_j(b, y), j = 1..n, for `kernel(b)`: the Hankel correlation conj(F y)·F SP
        less the Toeplitz convolution F y·(F SP's even extension) under one inverse
        FFT, with F y scaled by L/(h c_k) to undo the kernel's Parseval weights, then
        the two end vectors."""
        hankel, toeplitz, _, tail, spill = kernel
        pg, L = self.pgrid, self.size
        spectrum = self.field(y) * (0.5 * L / pg.h)
        spectrum[self.own] *= 2.0
        # the length is passed on because a 5-smooth length may be odd
        s = np.fft.irfft(spectrum.conj() * hankel.view(complex) - spectrum * toeplitz, L)
        yn = (14.0 * y[-1] - y[-2]) / 12.0   # ỹ_n
        return s[1:pg.n + 1] - 0.5 * (y[-1] * spill + pg.h * yn * tail)

    def form(self, rows: np.ndarray, *terms: tuple[tuple, int, int]) -> float:
        """Σ over terms (kernel of b, i, k) of Σ_j w_j x_j s_j(b, y), x = rows[i]
        and y = rows[k], by the exchange identity: one forward FFT of the rows."""
        spectra = self.field(rows)
        halves = spectra.view(float)   # real and imaginary parts, interleaved
        total = 0.0
        for (hankel, toeplitz, last, tail, spill), i, k in terms:
            x, y = rows[i], rows[k]
            bulk = ((spectra[i] * spectra[k]).view(float) @ hankel
                    - (toeplitz @ (halves[i] * halves[k]).reshape(-1, 2)).sum())
            yn = (14.0 * y[-1] - y[-2]) / 12.0   # ỹ_n
            # the last term takes off (h y_n/12) Σ_j x_j P[n+1−j], which SP's bulk adds
            ends = (x[-1] * (y @ last) - yn * (x @ (self.pgrid.weights * tail))
                    - y[-1] * (x @ spill))
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
    return mp.pgrid.weights * mp.rho_hat().values / mp.pgrid.nodes


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
    k_factor = pg.weights * mp.rho_hat().values / SQRT2_PI * xi(p)   # w k φ(k) ξ(k)
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
    shells = _Shells(pg)
    conv = shells.vector(shells.kernel(_field_weights(mp)), p * psi) / p + pg.h * mp.rho_hat0 * psi
    defect = (p**2 + mp.mu) * psi - (2.0 / np.pi) * conv
    return float(np.sqrt(4.0 * np.pi * (pg.weights @ (p**2 * defect**2))))
