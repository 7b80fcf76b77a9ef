import math

import numpy as np
import pytest

import polaron as pl
from polaron.massbound import _CHI_ONE
from polaron.momentum import SQRT2_PI

EPS_LADDER = [0.5, 0.2, 0.1, 0.05]

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
        dpsi_hat=pl.RadialFunction(pg, -k * np.exp(-(k**2) / 2), "odd"),
        phi=pl.RadialFunction(pg, 1e-12 / (SQRT2_PI * k), "odd"),
        mu=0.0,
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

    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0}, {"eps": -1.0}, {"eps": 0.1, "shape": "box"},
        {"eps": 0.1, "support_radius": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            pl.CutoffSpec(**kwargs)


class TestTrialProfile:
    def test_matches_pointwise_ratio(self, mp_fine):
        cut = pl.CutoffSpec(eps=0.5, shape="bump")
        h = pl.trial_profile(mp_fine, cut)
        pg = mp_fine.pgrid
        i = int(np.argmin(np.abs(pg.nodes - 1.0)))
        expected = (mp_fine.dpsi_hat.values[i] * cut.chi(pg.nodes[i: i + 1])[0]
                    / (pg.nodes[i] * mp_fine.psi_hat.values[i]))
        assert abs(h.values[i] - expected) <= 1e-10 * abs(expected)

    def test_trial_direction_vanishes_at_origin(self, mp_fine):
        # t(p) = p·h(p) vanishes linearly: |t(p1)| ≈ |h(0)|·p1 at the first node
        h = pl.trial_profile(mp_fine, pl.CutoffSpec(eps=0.5, shape="bump"))
        p = mp_fine.pgrid.nodes
        t = p * h.values
        slope = abs(pl.value_at_zero(h))
        assert abs(t[0]) < 2 * slope * p[0]
        assert abs(t[0]) < abs(t[9]) < abs(t[99])

    def test_bump_support_exact_zero(self, mp_fine):
        cut = pl.CutoffSpec(eps=2.0, shape="bump")
        h = pl.trial_profile(mp_fine, cut)
        outside = mp_fine.pgrid.nodes > 0.5
        assert np.all(h.values[outside] == 0.0)

    def test_noisy_tail_in_support_raises(self, mp_default):
        # χ≡1 puts the sub-noise tail inside the support at default
        # resolution, where positivity of ψ̂ cannot be certified
        with pytest.raises(pl.DomainError):
            pl.trial_profile(mp_default, _CHI_ONE)

    def test_full_support_works_on_fine_state(self, mp_fine):
        h = pl.trial_profile(mp_fine, _CHI_ONE)
        assert np.all(np.isfinite(h.values))


class TestPairingTerm:
    def test_endpoint_identity(self, mp_default):
        assert abs(pl.pairing_term(mp_default, _CHI_ONE) + 1.5) < 1e-3

    def test_small_eps_bump(self, mp_default):
        cut = pl.CutoffSpec(eps=1e-3, shape="bump")
        assert abs(pl.pairing_term(mp_default, cut) + 1.5) < 1e-2

    def test_huge_eps_support_vanishes(self, mp_default):
        cut = pl.CutoffSpec(eps=1e3, shape="bump")
        assert abs(pl.pairing_term(mp_default, cut)) <= 1e-3

    def test_support_restriction_bit_identical(self, mp_default):
        cut = pl.CutoffSpec(eps=2.0, shape="bump")
        pg = mp_default.pgrid
        chi = cut.chi(pg.nodes)
        integrand = pg.nodes**3 * chi * mp_default.psi_hat.values * mp_default.dpsi_hat.values
        assert np.all(integrand[chi == 0.0] == 0.0)
        mask = chi != 0.0
        restricted = 4 * np.pi * math.fsum((pg.weights * integrand)[mask])
        assert pl.pairing_term(mp_default, cut) == restricted


class TestKineticTerm:
    def test_position_space_oracle(self, mp_default, state_default):
        q1 = pl.kinetic_term(mp_default, _CHI_ONE)
        oracle = pl.kinetic_term_position_oracle(state_default)
        assert abs(q1 - oracle) <= 1e-3 * abs(oracle)

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

    def test_oracle_gap_second_order(self, mp_default, state_default):
        # halving the momentum step cuts the shell-sum error about fourfold
        oracle = pl.potential_term_position_oracle(state_default)
        mp_coarse = pl.momentum_profile(state_default, pl.build_grid(2000, 10.0))
        gap_coarse = abs(pl.potential_term(mp_coarse, _CHI_ONE) - oracle)
        gap_default = abs(pl.potential_term(mp_default, _CHI_ONE) - oracle)
        assert gap_coarse >= 3.0 * gap_default

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
        assert not rep.f_nonpositive

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
        assert rep.f_nonpositive
        assert rep.m_lower == math.inf

    def test_all_entries_finite(self, mp_default):
        rep = pl.bound_rhs(mp_default, pl.CutoffSpec(eps=0.2, shape="bump"))
        for field in ("eps", "R", "Q1", "Q2", "f", "m_lower", "mass_coeff"):
            assert np.isfinite(getattr(rep, field))


class TestMassCoefficient:
    def test_gaussian_closed_form(self):
        g = pl.build_grid(3000, 12.0)
        psi = pl.RadialFunction(g, np.pi**-0.75 * np.exp(-g.nodes**2 / 2))
        state = pl.PekarState(psi=psi, rho=psi.with_values(psi.values**2),
                              T=1.5, D=0.0, eP=1.5, mu=-1.5,
                              iterations=0, residual=0.0)
        exact = (8 * np.pi / 3) * (2 * np.pi) ** -1.5
        assert abs(pl.mass_coefficient(state) - exact) < 1e-6

    def test_minimizer_value_locked(self, state_default, state_fine):
        a = pl.mass_coefficient(state_default)
        b = pl.mass_coefficient(state_fine)
        assert abs(a - b) <= 5e-4 * a          # 3 significant digits stable
        assert abs(a - 0.011351) < 1e-5        # frozen two-resolution value

    def test_momentum_route_agrees(self, mp_default, state_default):
        from polaron.massbound import _mass_coefficient_momentum
        a = pl.mass_coefficient(state_default)
        b = _mass_coefficient_momentum(mp_default)
        assert abs(a - b) <= 1e-4 * a

    def test_dilation_scaling(self):
        # ψ_λ(x) = λ^{3/2} ψ(λx) multiplies the quartic integral by λ³
        lam = 2.0
        g = pl.build_grid(3000, 12.0)
        psi1 = np.pi**-0.75 * np.exp(-g.nodes**2 / 2)
        psi2 = lam**1.5 * np.pi**-0.75 * np.exp(-((lam * g.nodes) ** 2) / 2)

        def coeff(vals):
            psi = pl.RadialFunction(g, vals)
            return pl.mass_coefficient(pl.PekarState(
                psi=psi, rho=psi.with_values(vals**2), T=0, D=0, eP=0, mu=0,
                iterations=0, residual=0.0))

        assert abs(coeff(psi2) - lam**3 * coeff(psi1)) < 1e-5 * coeff(psi2)


class TestAlphaScaling:
    def test_identity_at_unit_coupling(self, state_default):
        e, m = pl.alpha_scaling(state_default, 0.0113, 1.0)
        assert e == state_default.eP
        assert m == 0.0113

    def test_quadratic_and_quartic(self, state_default):
        e, m = pl.alpha_scaling(state_default, 0.0113, 10.0)
        assert abs(e - 100.0 * state_default.eP) < 1e-12
        assert abs(m - 1e4 * 0.0113) < 1e-12

    def test_nonpositive_alpha_rejected(self, state_default):
        with pytest.raises(ValueError):
            pl.alpha_scaling(state_default, 0.0113, 0.0)
