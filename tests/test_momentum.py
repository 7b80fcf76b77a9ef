import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polaron as pl
from conftest import gregory, trapezoid_primitive, trapezoid_weights
from polaron.momentum import SQRT2_PI, _Shells

ONE = pl.RadialTestFunction(lambda p: np.ones_like(p), name="1")
ZERO = pl.RadialTestFunction(lambda p: np.zeros_like(p), name="0")


@pytest.fixture(scope="module")
def synthetic_gaussian_profile():
    """Analytic profile (not a minimizer): ψ̂ = e^{-p²/2}, ρ̂ = e^{-k²}."""
    pg = pl.build_grid(1000, 10.0)
    k = pg.nodes
    return pl.MomentumProfile(
        pgrid=pg,
        psi_hat=pl.RadialFunction(pg, np.exp(-(k**2) / 2)),
        dpsi_hat=pl.RadialFunction(pg, -k * np.exp(-(k**2) / 2)),
        phi=pl.RadialFunction(pg, np.exp(-(k**2)) / (SQRT2_PI * k)),
        mu=0.0,
        rho_hat0=1.0,
    )


class TestMomentumProfile:
    def test_plancherel(self, mp_default):
        # 5.3e-15 with the trapezoid rule from the origin on both grids; 2.8e-8 with
        # the radial grid's first node at weight 1.5h, and 1.2e-6 with the momentum
        # grid's too
        assert abs(pl.density_expectation(mp_default, ONE) - 1.0) <= 1e-13

    def test_sign_structure(self, mp_default):
        # strictly positive until the quadrature noise floor; once a sign
        # change occurs, everything after stays below the tail threshold
        v = mp_default.psi_hat.values
        nonpos = v <= 0.0
        if nonpos.any():
            first = int(np.argmax(nonpos))
            assert np.all(v[first:] < 1e-6 * v.max())
            assert np.all(v[:first] > 0.0)

    def test_fine_state_positive_above_its_noise_floor(self, mp_fine):
        # with the trapezoid rule from the origin the transform is spectral, and on
        # 6000/40 ψ̂ is positive up to p ≈ 3.65 and below 8.2e-11 of its maximum past
        # it; the first node's old 1.5h weight added an O(h) term that kept it
        # positive on the whole grid
        v, p = mp_fine.psi_hat.values, mp_fine.pgrid.nodes
        assert np.all(v[p < 3.5] > 0.0)
        assert np.abs(v[p >= 3.5]).max() <= 2e-10 * v.max()

    def test_field_energy_equals_pair_energy(self, mp_default, state_default):
        # 2.2e-12 (6.5e-7 on the three-point radial grid)
        rel = abs(pl.field_energy(mp_default) - state_default.D) / state_default.D
        assert rel < 1e-11

    def test_phi_definition(self, mp_default, state_default):
        # √2·π·p·φ(p) reproduces the raw density transform pointwise
        rho_hat = pl.fourier_density(state_default.rho, mp_default.pgrid)
        lhs = SQRT2_PI * mp_default.pgrid.nodes * mp_default.phi.values
        assert np.abs(lhs - rho_hat.values).max() < 1e-12

    def test_gradient_dual_path(self, state_default):
        # analytic differentiated transform vs finite differences of ψ̂,
        # on a grid fine enough that the FD truncation is subdominant
        pg = pl.build_grid(20000, 10.0)
        psi_hat = pl.fourier_radial(state_default.psi, pg)
        analytic = pl.fourier_radial_gradient(state_default.psi, pg)
        fd = pl.radial_derivative(psi_hat)
        mask = pg.nodes <= 5.0
        assert np.abs(analytic.values - fd.values)[mask].max() < 1e-4

    def test_gradient_vanishes_linearly(self, mp_default):
        dv = mp_default.dpsi_hat.values
        p = mp_default.pgrid.nodes
        ratio = dv / p   # tends to ψ̂''(0): ψ̂' vanishes linearly
        assert np.all(np.isfinite(ratio))
        assert abs(dv[0]) < 10 * abs(ratio[1]) * p[0]

    def test_nowhere_positive_transform_raises(self, state_default):
        # p = 627.5 and 1255 lie past the radial grid's Nyquist π/h ≈ 314, where the
        # transform is ψ̂ at 200π − p and 400π − p, negated and scaled: −8.2e-5 and
        # −2.9e-7.  With no positive sample, no tail threshold can pass it; the
        # error carries the profile
        pg = pl.build_grid(2, 1255.0)
        with pytest.raises(pl.DomainError) as exc_info:
            pl.momentum_profile(state_default, pg)
        assert np.all(exc_info.value.profile.psi_hat.values < 0.0)

    def test_insufficient_rmax_raises(self):
        # a cramped box leaves a noise floor that flips sign at moderate p
        st_small = pl.solve_pekar(pl.SolverOptions(grid=(800, 8.0)))
        with pytest.raises(pl.DomainError):
            pl.momentum_profile(st_small, pl.build_grid(4000, 10.0))


class TestMomentumResidual:
    def test_converged_state(self, mp_default):
        assert pl.el_residual_momentum(mp_default) <= 1e-3

    def test_joint_with_position(self, state_default, mp_default):
        assert pl.el_residual_position(state_default) <= 1e-6
        assert pl.el_residual_momentum(mp_default) <= 1e-3

    def test_impostor_large(self, synthetic_gaussian_profile):
        assert pl.el_residual_momentum(synthetic_gaussian_profile) > 1e-1


class TestDensityExpectation:
    def test_normalization(self, mp_default):
        assert abs(pl.density_expectation(mp_default, ONE) - 1.0) < 1e-5

    def test_kinetic_energy(self, mp_default, state_default):
        p_sq = pl.RadialTestFunction(lambda p: p**2, bounded=False)
        val = pl.density_expectation(mp_default, p_sq)
        assert abs(val - state_default.T) <= 1e-4 * state_default.T

    @given(m=st.floats(0.1, 10.0), width=st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_bounded_g_bounds_result(self, mp_default, m, width):
        g = pl.RadialTestFunction(lambda p: m * np.exp(-((p / width) ** 2)))
        val = pl.density_expectation(mp_default, g)
        assert -1e-12 <= val <= m * (1 + 1e-4)


class TestNumberExpectation:
    def test_unit_g_gives_pair_energy(self, mp_default, state_default):
        val = pl.number_expectation(mp_default, ONE)
        assert abs(val - state_default.D) <= 1e-4 * state_default.D

    def test_zero_g(self, mp_default):
        assert pl.number_expectation(mp_default, ZERO) == 0.0

    def test_factorization(self, mp_default):
        g = pl.RadialTestFunction(lambda p: np.exp(-p))
        lhs = pl.number_expectation(mp_default, g) * \
            pl.density_expectation(mp_default, ONE)
        rhs = pl.number_expectation(mp_default, ONE) * \
            pl.density_expectation(mp_default, g)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_unbounded_g_rejected(self, mp_default):
        p_sq = pl.RadialTestFunction(lambda p: p**2, bounded=False)
        with pytest.raises(ValueError):
            pl.number_expectation(mp_default, p_sq)


class TestCrossExpectation:
    def test_zero_xi(self, mp_default):
        g = pl.RadialTestFunction(lambda p: np.exp(-p))
        assert pl.cross_expectation(mp_default, ZERO, g) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_unit_g_reduces_to_radial_integral(self, mp_default, a):
        # ∫dp ψ̂(p+k)ψ̂(p) = ρ̂(k) collapses the double integral; under one rule, the
        # trapezoid rule from k = 0 (the integrand vanishes there), the two agree to
        # 2.1e-10, 2.3e-10 and 2.6e-10 at ξ = e^{−ak}, a = 0.5, 1, 2, on the defaults
        # (5.45e-8, 5.07e-8 and 4.50e-8 on the three-point radial grid)
        xi = pl.RadialTestFunction(lambda k: np.exp(-a * k), name=f"exp(-{a}k)")
        pg = mp_default.pgrid
        rho_hat = mp_default.rho_hat()
        oracle = 4 * np.pi * trapezoid_weights(pg) @ (
            pg.nodes**2 * mp_default.phi.values * np.exp(-a * pg.nodes) * rho_hat.values)
        val = pl.cross_expectation(mp_default, xi, ONE)
        assert abs(val - oracle) <= 1e-9 * abs(oracle)

    def test_sign_symmetry_of_g(self, mp_default):
        xi = pl.RadialTestFunction(lambda k: np.exp(-k))
        g_pos = pl.RadialTestFunction(lambda p: np.exp(-(p**2) / 4))
        g_neg = pl.RadialTestFunction(lambda p: -np.exp(-(p**2) / 4))
        a = pl.cross_expectation(mp_default, xi, g_pos)
        b = pl.cross_expectation(mp_default, xi, g_neg)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_angular_reduction_closed_form(self, synthetic_gaussian_profile):
        # ∬ φ(k) ψ̂(p+k) ψ̂(p) with Gaussians has the closed form
        # π^{3/2} ∫ e^{-k²} e^{-k²/4} / (√2 π k) d³k = (4√2/5) π^{3/2}
        val = pl.cross_expectation(synthetic_gaussian_profile, ONE, ONE)
        exact = 4 * np.sqrt(2) / 5 * np.pi**1.5
        assert abs(val - exact) <= 5e-4 * exact


def _direct_shell_sum(grid, a, integrand):
    """s_j = Σ_i a_i (A[i+j] − A[|i−j|]) with A the trapezoid primitive from 0 of the
    integrand's `gregory` ỹ, held at A[n] beyond the grid, summed term by term."""
    n = grid.n
    A = trapezoid_primitive(grid, gregory(integrand))
    return np.array([sum(a[i - 1] * (A[min(i + j, n)] - A[abs(i - j)]) for i in range(1, n + 1))
                     for j in range(1, n + 1)])


def test_shell_sum_matches_direct_loop():
    # every s_j from the field's kernel against the direct loop: the two end vectors
    # show at every n (random rows: y_n ≠ 0), an off-by-one in the read window, the
    # circular length or the undone Parseval weights (an even or odd length, 5 and 8
    # at n = 2, 3) first at tiny n, and a wrap in the Hankel or the Toeplitz part
    # where the length is exactly 2n+1 (9, 25, 125 at n = 4, 12, 62)
    for n in (2, 3, 4, 5, 12, 62, 200):
        grid = pl.build_grid(n, 3.0)
        rng = np.random.default_rng(7)
        a = rng.standard_normal(n)
        integrand = rng.standard_normal(n)
        direct = _direct_shell_sum(grid, a, integrand)
        shells = _Shells(grid)
        fast = shells.vector(shells.kernel(a), integrand)
        assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max(), n


def test_el_residual_momentum_matches_direct_sums():
    # the residual against its O(n²) definition on a random profile, end to end: the
    # 1/p, the read window of the sums and the k = 0 shell's limit 2ρ̂(0)ψ̂(p) at the
    # origin's weight h/2
    for n in (12, 62):
        pg = pl.build_grid(n, 4.0)
        p, w = pg.nodes, trapezoid_weights(pg)
        psi, phi = np.random.default_rng(n).standard_normal((2, n))
        mu, rho_hat0 = 0.7, 1.3
        mp = pl.MomentumProfile(pgrid=pg, psi_hat=pl.RadialFunction(pg, psi),
                                dpsi_hat=pl.RadialFunction(pg, np.zeros(n)),
                                phi=pl.RadialFunction(pg, phi), mu=mu, rho_hat0=rho_hat0)
        rho_hat = SQRT2_PI * p * phi
        conv = _direct_shell_sum(pg, w * rho_hat / p, p * psi) / p + 0.5 * pg.h * 2 * rho_hat0 * psi
        defect = (p**2 + mu) * psi - (2 / np.pi) * conv
        direct = np.sqrt(4 * np.pi * w @ (p**2 * defect**2))
        assert abs(pl.el_residual_momentum(mp) - direct) <= 1e-12 * direct, n


def test_form_matches_direct_pair_sum():
    # Σ_j u_j s_j(b, F) by the exchange identity against the direct pair sum: the
    # end terms (the primitive's hold at A[n] and the last node's half weight, both
    # taken in the Gregory-corrected F̃, and the F_n term that moving the stencil onto
    # the field's primitive leaves) show at every n (random rows:
    # F_n ≠ 0), an even or odd length (5, 8 at n = 2, 3) at tiny n, a wrap where the
    # length is exactly 2n+1 (9, 25, 125 at n = 4, 12, 62), and an odd length at 405
    # (n = 200)
    for n in (2, 3, 4, 5, 12, 62, 200):
        grid = pl.build_grid(n, 3.0)
        u, b, F, c = np.random.default_rng(n).standard_normal((4, n))
        shells, w = _Shells(grid), trapezoid_weights(grid)
        assert shells.size == {2: 5, 3: 8, 4: 9, 5: 12, 12: 25, 62: 125, 200: 405}[n]
        rows = np.stack((u / w, F))
        direct = u @ _direct_shell_sum(grid, b, F)
        fast = shells.form(rows, (shells.kernel(b), 0, 1))
        assert abs(fast - direct) <= 1e-12 * abs(direct), n

        # several terms over two rows, each row on either side, as Q2 sums them
        direct += (w * F) @ (_direct_shell_sum(grid, c, u / w)
                                        + _direct_shell_sum(grid, b, F))
        fast = shells.form(rows, (shells.kernel(b), 0, 1), (shells.kernel(c), 1, 0),
                           (shells.kernel(b), 1, 1))
        assert abs(fast - direct) <= 1e-12 * abs(direct), n


def test_test_function_broadcasts_scalars():
    g = pl.RadialTestFunction(lambda p: 1.0)
    out = g(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 1.0)
