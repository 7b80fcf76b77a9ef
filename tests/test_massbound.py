import math
import tracemalloc

import numpy as np
import pytest

import polaron as pl
from conftest import MOMENTUM_GRID, gregory, trapezoid_primitive, trapezoid_weights
from polaron.massbound import _CHI_ONE
from polaron.momentum import SQRT2_PI, _Shells

EPS_LADDER = [0.5, 0.2, 0.1, 0.05]
# f of the default bump table at each ε, for the Pekar minimizer in an
# even-tempered Gaussian basis, where every integral has a closed form (ROADMAP item 13)
_CONTINUUM_F = {0.5: 5.379214e-3, 0.2: 1.223602e-4, 0.1: 7.522650e-6, 0.05: 4.682471e-7}

# Lipschitz bound for f(ε) on [0.05, 1], bump shape; calibrated from a
# measured max slope of 0.314 over an 11-point ladder, rounded up
F_LIPSCHITZ = 0.5


@pytest.fixture(scope="module")
def sentinel_profile():
    """Gaussian profile with μ = 0 and a negligible field: f < 0 there."""
    pg = pl.build_grid(600, 10.0)
    k = pg.nodes
    return pl.MomentumProfile(
        pgrid=pg,
        psi_hat=pl.RadialFunction(pg, np.exp(-(k**2) / 2)),
        dpsi_hat=pl.RadialFunction(pg, -k * np.exp(-(k**2) / 2)),
        phi=pl.RadialFunction(pg, 1e-12 / (SQRT2_PI * k)),
        mu=0.0,
        rho_hat0=1e-12,
    )


class TestCutoffSpec:
    @pytest.mark.parametrize("shape", ["bump", "gaussian", "one"])
    def test_chi_is_one_at_origin(self, shape):
        cut = pl.CutoffSpec(eps=0.3, shape=shape)
        assert cut.chi(np.array([0.0]))[0] == 1.0

    def test_bump_compact_support(self):
        cut = pl.CutoffSpec(eps=2.0, shape="bump")
        p = np.linspace(0, 10, 101)
        chi = cut.chi(p)
        assert np.all(chi[p * 2.0 >= 1.0] == 0.0)
        assert np.all(chi[p * 2.0 < 1.0] > 0.0)

    def test_bump_raises_nothing_up_to_its_edge(self):
        # inside |s| < 1, 1 − s² ≥ 2.2e-16, so the bump neither divides by zero
        # nor overflows: its exp only underflows to 0, which `main` lets pass
        s = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            chi = pl.CutoffSpec(eps=1.0, shape="bump").chi(s)
        assert chi[0] == 1.0 and 0.0 < chi[1] < 1.0
        assert np.all(chi[2:] == 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0}, {"eps": -1.0}, {"eps": 0.1, "shape": "box"},
        {"eps": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            pl.CutoffSpec(**kwargs)


class TestPairingTerm:
    def test_endpoint_identity(self, mp_default):
        assert abs(pl.pairing_term(mp_default, _CHI_ONE) + 1.5) < 1e-3

    def test_small_eps_bump(self, mp_default):
        cut = pl.CutoffSpec(eps=1e-3, shape="bump")
        assert abs(pl.pairing_term(mp_default, cut) + 1.5) < 1e-2

    def test_huge_eps_support_vanishes(self, mp_default):
        cut = pl.CutoffSpec(eps=1e3, shape="bump")
        assert abs(pl.pairing_term(mp_default, cut)) <= 1e-3

    def test_support_zeros_and_compensated_sum(self, mp_default):
        # R and Q1 are the grid's dot product; the integrand is an exact 0 off a
        # bump's support, and the sum agrees with the exactly rounded one of the
        # same products to within a few ulps (measured at most 8.1e-16)
        mp = mp_default
        pg, p = mp.pgrid, mp.pgrid.nodes
        for cut in [pl.CutoffSpec(eps=2.0), pl.CutoffSpec(eps=0.05),
                    pl.CutoffSpec(eps=0.2, shape="gaussian"), _CHI_ONE]:
            chi = cut.chi(p)
            pairing = p**3 * chi * mp.psi_hat.values * mp.dpsi_hat.values
            kinetic = p**2 * chi**2 * mp.dpsi_hat.values**2 * (p**2 + mp.mu)
            if cut.shape == "bump":
                assert np.all(pairing[chi == 0.0] == 0.0)
                assert np.all(kinetic[chi == 0.0] == 0.0)
            for term, integrand in [(pl.pairing_term, pairing), (pl.kinetic_term, kinetic)]:
                exact = 4 * np.pi * math.fsum((trapezoid_weights(pg) * integrand).tolist())
                assert abs(term(mp, cut) - exact) <= 2e-15 * abs(exact)


def _direct_q2(mp, cut):
    """Q2 = 4 Σ_ij w_i w_j (ρ̂_i/k_i) G_j [ΔA₂ + (p_j² − k_i²) ΔA₀], ΔA_m the
    difference A_m[i+j] − A_m[|i−j|] of the trapezoid primitive from 0 of the
    Gregory-corrected samples ỹ of y = q^m G (held at its last value beyond the
    grid), summed directly over all pairs (i, j), w the trapezoid weights from 0.
    The k = 0 shell, of weight h/2, enters as its limit: ΔA_m → 2k p^m G(p), so
    (ρ̂/k)[ΔA₂ + (p² − k²) ΔA₀] → 4ρ̂(0) p² G(p); the p = 0 shell has G(0) = 0."""
    pg = mp.pgrid
    n, p, w = pg.n, pg.nodes, trapezoid_weights(pg)
    G = cut.chi(p) * mp.dpsi_hat.values
    a = w * mp.rho_hat().values / p
    i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")

    def delta(integrand):
        A = trapezoid_primitive(pg, gregory(integrand))
        return A[np.minimum(i + j, n)] - A[np.abs(i - j)]

    pairs = delta(p**2 * G) + (p[j - 1] ** 2 - p[i - 1] ** 2) * delta(G)
    origin = pg.h / 2 * np.sum(w * G * 4.0 * mp.rho_hat0 * p**2 * G)
    return 4.0 * (np.sum(a[i - 1] * (w * G)[j - 1] * pairs) + origin)


@pytest.fixture(scope="module")
def mp_2000(state_default):
    return pl.momentum_profile(state_default, pl.build_grid(2000, MOMENTUM_GRID[1]))


@pytest.fixture(scope="module")
def mp_200(state_default):
    # the shell sums' circular length is 405 here, 3^4·5: an odd real FFT length
    mp = pl.momentum_profile(state_default, pl.build_grid(200, 10.0))
    assert _Shells(mp.pgrid).size == 405
    return mp


@pytest.mark.parametrize("cut", [_CHI_ONE, pl.CutoffSpec(eps=0.2, shape="bump"),
                                 pl.CutoffSpec(eps=0.2, shape="gaussian")],
                         ids=["one", "bump", "gaussian"])
def test_potential_term_matches_its_shell_sum_definition(mp_200, cut):
    direct = _direct_q2(mp_200, cut)
    assert abs(pl.potential_term(mp_200, cut) - direct) <= 1e-12 * abs(direct)


def test_bound_sweep_matches_its_definitions_at_any_length():
    # random rows, so every end term weighs in, on the lengths of
    # test_form_matches_direct_pair_sum: Q2 against its pair sum with the k = 0 shell's
    # limit, R and Q1 against the trapezoid sums from p = 0
    for n in (2, 3, 4, 5, 12, 62, 200):
        pg = pl.build_grid(n, 3.0)
        psi, dpsi, phi = np.random.default_rng(n).standard_normal((3, n))
        mp = pl.MomentumProfile(pgrid=pg, psi_hat=pl.RadialFunction(pg, psi),
                                dpsi_hat=pl.RadialFunction(pg, dpsi),
                                phi=pl.RadialFunction(pg, phi), mu=0.3, rho_hat0=0.7)
        p, w = pg.nodes, trapezoid_weights(pg)
        cuts = [_CHI_ONE, pl.CutoffSpec(eps=0.5, shape="gaussian")]
        for cut, rep in zip(cuts, pl.bound_sweep(mp, cuts)):
            chi = cut.chi(p)
            direct = _direct_q2(mp, cut)
            assert abs(rep.Q2 - direct) <= 1e-12 * abs(direct), n
            R = 4 * np.pi * w @ (p**3 * chi * psi * dpsi)
            Q1 = 4 * np.pi * w @ (p**2 * chi**2 * dpsi**2 * (p**2 + mp.mu))
            assert abs(rep.R - R) <= 1e-12 * abs(R) and abs(rep.Q1 - Q1) <= 1e-12 * abs(Q1), n


def test_potential_term_at_the_exact_2n_plus_1_length(state_default):
    # 62 nodes: the circular length is 125 = 2n+1, where a wrap in either part shows;
    # at pmax = 1 ψ̂ is still 5e-3 of its peak, so the pair i = j = n, which a length
    # of 2n would fold onto Ã[0], weighs in (Q2 then misses its pair sum by 1e-7), and
    # so does the G_n term that moving the Gregory stencil onto the field's primitive
    # leaves
    mp = pl.momentum_profile(state_default, pl.build_grid(62, 1.0))
    assert _Shells(mp.pgrid).size == 2 * 62 + 1
    for cut in (_CHI_ONE, pl.CutoffSpec(eps=0.2, shape="bump")):
        direct = _direct_q2(mp, cut)
        assert abs(pl.potential_term(mp, cut) - direct) <= 1e-12 * abs(direct)


def test_bound_sweep_matches_the_term_definitions(mp_200, mp_default):
    # one sweep over mixed shapes, including a bump whose support holds no node:
    # Q2 against its pair sum (R and Q1 against their exactly rounded sums in
    # test_support_zeros_and_compensated_sum)
    cuts = [pl.CutoffSpec(eps=0.2, shape="bump"), pl.CutoffSpec(eps=0.3, shape="gaussian"),
            _CHI_ONE, pl.CutoffSpec(eps=100.0, shape="bump")]
    reports = pl.bound_sweep(mp_200, cuts)
    assert [rep.eps for rep in reports] == [cut.eps for cut in cuts]
    for cut, rep in zip(cuts, reports):
        direct = _direct_q2(mp_200, cut)
        assert abs(rep.Q2 - direct) <= 1e-12 * abs(direct)
        assert rep.f == 1.0 + (rep.Q1 - rep.Q2) / 3.0 + 4.0 * rep.R / 3.0
    assert reports[-1].R == reports[-1].Q1 == reports[-1].Q2 == 0.0

    # on the default grids, the default bump list, a gaussian and χ≡1: each row of a
    # sweep is the one-cutoff sweep of its cutoff
    cuts = ([pl.CutoffSpec(eps=eps) for eps in pl.config_from_dict({})["cutoff.eps_list"]]
            + [pl.CutoffSpec(eps=0.1, shape="gaussian"), _CHI_ONE])
    for cut, rep in zip(cuts, pl.bound_sweep(mp_default, cuts)):
        assert rep == pl.bound_sweep(mp_default, [cut])[0]

    # one cutoff in flight: the sweep's peak allocation does not grow with its length
    def peak(cuts):
        tracemalloc.start()
        try:
            pl.bound_sweep(mp_default, cuts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many = [pl.CutoffSpec(eps=eps) for eps in np.geomspace(0.5, 0.05, 20)]
    assert peak(many) <= 1.1 * peak(many[:1])


class TestKineticTerm:
    def test_position_space_oracle(self, mp_default, state_default, mp_fine, state_fine):
        # the oracle's five-point ψ′ errs by O(h⁴), so the gap is 1.6e-10 on the
        # default grid and 1.1e-12 on 6000/40
        for mp, st in ((mp_default, state_default), (mp_fine, state_fine)):
            q1 = pl.kinetic_term(mp, _CHI_ONE)
            oracle = pl.kinetic_term_position_oracle(st)
            assert abs(q1 - oracle) <= 1e-9 * abs(oracle)

    def test_positive_on_ladder(self, mp_default):
        for eps in [1.0] + EPS_LADDER:
            assert pl.kinetic_term(mp_default, pl.CutoffSpec(eps=eps, shape="bump")) > 0.0

    def test_monotone_in_eps(self, mp_default):
        values = [pl.kinetic_term(mp_default, pl.CutoffSpec(eps=e, shape="bump"))
                  for e in (1.0, 0.5, 0.2, 0.1, 0.05)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestPotentialTerm:
    def test_position_space_oracle(self, mp_default, state_default):
        q2 = pl.potential_term(mp_default, _CHI_ONE)
        oracle = pl.potential_term_position_oracle(state_default)
        assert abs(q2 - oracle) <= 1e-4 * abs(oracle)

    def test_oracle_gap_fourth_order_in_h_p(self, mp_default, mp_2000, state_default,
                                            mp_fine, state_fine):
        # the gap is the momentum grid's, of fourth order in h_p: it falls 15.8-fold
        # from 2000 to 4000 momentum nodes (2.85e-9 to 1.80e-10 relative), while the
        # fourth-order radial grid leaves it the same on 3000/30 and 6000/40 to 0.1%
        # (with the three-point grid it was the radial grid's h_r² term, 3.44e-7 and
        # 1.53e-7)
        oracle = pl.potential_term_position_oracle(state_default)
        gap_coarse = abs(pl.potential_term(mp_2000, _CHI_ONE) - oracle)
        gap_default = abs(pl.potential_term(mp_default, _CHI_ONE) - oracle)
        assert gap_coarse >= 12.0 * gap_default
        oracle_fine = pl.potential_term_position_oracle(state_fine)
        gap_fine = abs(pl.potential_term(mp_fine, _CHI_ONE) - oracle_fine)
        rel_default, rel_fine = gap_default / abs(oracle), gap_fine / abs(oracle_fine)
        assert abs(rel_default - rel_fine) <= 0.01 * rel_fine

    def test_oracle_gap_below_the_trapezoid_floor(self, mp_default, state_default):
        # the relative gap on the defaults: 4.1e-6 under the plain trapezoid shell sums,
        # 6.5e-7 with Gregory's end correction, 3.4e-7 with the trapezoid rule from p = 0,
        # 1.8e-10 on the fourth-order radial grid
        oracle = pl.potential_term_position_oracle(state_default)
        assert abs(pl.potential_term(mp_default, _CHI_ONE) - oracle) <= 3e-10 * abs(oracle)

    def test_three_identity(self, mp_default):
        q1 = pl.kinetic_term(mp_default, _CHI_ONE)
        q2 = pl.potential_term(mp_default, _CHI_ONE)
        assert abs(q1 - q2 - 3.0) < 1e-3

    def test_huge_eps_support_vanishes(self, mp_default):
        cut = pl.CutoffSpec(eps=1e3, shape="bump")
        assert abs(pl.potential_term(mp_default, cut)) <= 1e-3


class TestBoundRhs:
    def test_endpoint_vanishes(self, mp_default):
        rep = pl.bound_rhs(mp_default, _CHI_ONE)
        assert abs(rep.f) < 1e-4
        assert rep.f == 1.0 + (rep.Q1 - rep.Q2) / 3.0 + 4.0 * rep.R / 3.0
        assert abs(rep.R + 1.5) < 1e-3
        assert abs(rep.Q1 - rep.Q2 - 3.0) < 1e-3
        assert rep.m_lower == 1.0 / (2.0 * rep.f)

    def test_endpoint_floor(self, mp_default, mp_fine):
        # f(χ≡1) is 4.9e-10 on the defaults and −4.5e-10 on 6000/40, with the
        # fourth-order radial grid; it was 1.45e-7 on the three-point grid, 8.9e-7 with
        # the first momentum node's 1.5h weight and 9.4e-6 under plain trapezoid
        # shell sums
        for mp in (mp_default, mp_fine):
            assert abs(pl.bound_rhs(mp, _CHI_ONE).f) <= 1e-9

    def test_endpoint_floor_is_the_radial_grids(self, mp_default, mp_2000, state_fine, mp_fine):
        # f(χ≡1) is the radial state's part plus the momentum grid's h_p⁴ term.  On
        # 6000/40 the state is exact to 1e-13 and f is the h_p⁴ term alone: −7.03e-9 on
        # 2000 momentum nodes, −4.50e-10 on 4000 (15.6-fold).  The defaults lie
        # 9.47e-10 and 9.43e-10 above it on the same momentum grids: that part is the
        # radial state's (its SCF stop at tol_psi 1e-8 and the wall at rmax 30), and
        # does not move with the momentum grid
        fine_2000 = pl.momentum_profile(state_fine, mp_2000.pgrid)
        f_default = [pl.bound_rhs(mp, _CHI_ONE).f for mp in (mp_2000, mp_default)]
        f_fine = [pl.bound_rhs(mp, _CHI_ONE).f for mp in (fine_2000, mp_fine)]
        assert abs(f_fine[0]) >= 12.0 * abs(f_fine[1])
        radial = [a - b for a, b in zip(f_default, f_fine)]
        assert abs(radial[0] - radial[1]) <= 2e-11

    def test_default_sweep_near_the_continuum(self, mp_default):
        # the default bump table against its continuum values: f over them is
        # 0.999999, 0.999985, 0.999944 and 1.000505 at ε = 0.5, 0.2, 0.1 and 0.05.
        # At 0.05 (f = 4.7e-7) the defaults miss 1e-4: three errors, each larger,
        # partly cancel.  The momentum grid's h_p⁴ term is −9.5e-4 of f (the 6000/40
        # state on 4000 against 8000 nodes), the rmax-30 box −1.6e-3 (its fixed point
        # against rmax 40's, both on 3000 nodes) and the SCF's stop at tol_psi 1e-8
        # +3.1e-3 (one step against nine).  The next test resolves the first two.
        # f(0.05) was 1.31× its continuum value on the three-point grid, 2.9× with the
        # first momentum node's 1.5h weight and 21× under plain trapezoid shell sums
        cuts = [pl.CutoffSpec(eps=eps) for eps in pl.config_from_dict({})["cutoff.eps_list"]]
        assert [cut.eps for cut in cuts] == list(_CONTINUUM_F)
        bound = {0.5: 1e-4, 0.2: 1e-4, 0.1: 1e-4, 0.05: 6e-4}
        for cut, rep in zip(cuts, pl.bound_sweep(mp_default, cuts)):
            assert abs(rep.f / _CONTINUUM_F[cut.eps] - 1.0) <= bound[cut.eps], cut.eps

    def test_fine_sweep_within_a_ten_thousandth_of_the_continuum(self, state_fine):
        # the 6000/40 state, whose box is wide enough, on 8000 momentum nodes, whose
        # h_p⁴ term is 15× below 4000's: f over the continuum values is 1 − 6.9e-8,
        # 5.1e-7, 4.4e-6 and 7.0e-5 at ε = 0.5, 0.2, 0.1 and 0.05
        mp = pl.momentum_profile(state_fine, pl.build_grid(8000, MOMENTUM_GRID[1]))
        cuts = [pl.CutoffSpec(eps=eps) for eps in _CONTINUUM_F]
        for cut, rep in zip(cuts, pl.bound_sweep(mp, cuts)):
            assert abs(rep.f / _CONTINUUM_F[cut.eps] - 1.0) <= 1e-4, cut.eps

    def test_eps_sequence_monotone(self, mp_default):
        reports = [pl.bound_rhs(mp_default, pl.CutoffSpec(eps=e, shape="bump"))
                   for e in EPS_LADDER]
        f_mags = [abs(rep.f) for rep in reports]
        assert all(a >= b for a, b in zip(f_mags, f_mags[1:]))
        assert f_mags[-1] <= 5e-2
        m_lowers = [rep.m_lower for rep in reports]
        assert all(a <= b for a, b in zip(m_lowers, m_lowers[1:]))

    def test_eps_continuity(self, mp_default):
        ladder = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.075, 0.05]
        fs = [pl.bound_rhs(mp_default, pl.CutoffSpec(eps=e, shape="bump")).f for e in ladder]
        for (e1, f1), (e2, f2) in zip(zip(ladder, fs), zip(ladder[1:], fs[1:])):
            assert abs(f2 - f1) <= F_LIPSCHITZ * abs(e2 - e1)

    def test_gaussian_shape_also_vanishes(self, mp_default):
        rep = pl.bound_rhs(mp_default, pl.CutoffSpec(eps=0.05, shape="gaussian"))
        assert abs(rep.f) < 5e-2

    def test_nonpositive_f_sentinel(self, sentinel_profile):
        rep = pl.bound_rhs(sentinel_profile, _CHI_ONE)
        assert rep.f < 0.0
        assert rep.m_lower == math.inf

    def test_is_a_one_cutoff_sweep(self, mp_default, sentinel_profile):
        for mp, cut in [(mp_default, _CHI_ONE), (mp_default, pl.CutoffSpec(eps=0.2)),
                        (mp_default, pl.CutoffSpec(eps=0.05, shape="gaussian")),
                        (sentinel_profile, _CHI_ONE)]:
            assert pl.bound_rhs(mp, cut) == pl.bound_sweep(mp, [cut])[0]

    def test_all_entries_finite(self, mp_default):
        rep = pl.bound_rhs(mp_default, pl.CutoffSpec(eps=0.2, shape="bump"))
        for field in ("eps", "R", "Q1", "Q2", "f", "m_lower"):
            assert np.isfinite(getattr(rep, field))


class TestMassCoefficient:
    def test_gaussian_closed_form(self):
        g = pl.build_grid(3000, 12.0)
        psi = pl.RadialFunction(g, np.pi**-0.75 * np.exp(-g.nodes**2 / 2))
        rho = psi.with_values(psi.values**2)
        state = pl.PekarState(psi=psi, rho=rho, phi=pl.coulomb_potential(rho),
                              T=1.5, D=0.0, eP=1.5, mu=-1.5,
                              iterations=0, residual=0.0)
        exact = (8 * np.pi / 3) * (2 * np.pi) ** -1.5
        assert abs(pl.mass_coefficient(state) - exact) < 1e-6

    def test_minimizer_value_locked(self, state_default, state_fine):
        a = pl.mass_coefficient(state_default)
        b = pl.mass_coefficient(state_fine)
        assert abs(a - b) <= 5e-4 * a          # 3 significant digits stable
        # against the continuum value of ROADMAP item 13: +9.3e-11 on the default grid
        # (its wall at rmax 30) and +8e-13 on 6000/40
        assert abs(a - 0.011350965246) <= 2e-10 and abs(b - 0.011350965246) <= 5e-12

    def test_momentum_route_agrees(self, mp_default, state_default):
        # Plancherel route: ∫ ρ² d³x = ∫_0^∞ k⁴ φ(k)² dk
        a = pl.mass_coefficient(state_default)
        k = mp_default.pgrid.nodes
        w = trapezoid_weights(mp_default.pgrid)
        b = 8.0 * np.pi / 3.0 * w @ (k**4 * mp_default.phi.values**2)
        assert abs(a - b) <= 1e-4 * a

    def test_dilation_scaling(self):
        # ψ_λ(x) = λ^{3/2} ψ(λx) multiplies the quartic integral by λ³
        lam = 2.0
        g = pl.build_grid(3000, 12.0)
        psi1 = np.pi**-0.75 * np.exp(-g.nodes**2 / 2)
        psi2 = lam**1.5 * np.pi**-0.75 * np.exp(-((lam * g.nodes) ** 2) / 2)

        def coeff(vals):
            psi = pl.RadialFunction(g, vals)
            rho = psi.with_values(vals**2)
            return pl.mass_coefficient(pl.PekarState(
                psi=psi, rho=rho, phi=pl.coulomb_potential(rho), T=0, D=0, eP=0, mu=0,
                iterations=0, residual=0.0))

        assert abs(coeff(psi2) - lam**3 * coeff(psi1)) < 1e-5 * coeff(psi2)

