from math import erf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polaron as pl
from polaron import coulomb, solver


def _normalized(grid, values):
    f = pl.RadialFunction(grid, values)
    return f.with_values(values / pl.integrate_3d(f))


def _unit_ball(grid):
    # midpoint convention at the jump keeps the quadrature second order
    r = grid.nodes
    vals = np.where(r < 1.0, 3 / (4 * np.pi),
                    np.where(r == 1.0, 3 / (8 * np.pi), 0.0))
    return _normalized(grid, vals)


def test_uniform_ball_newton_theorem():
    g = pl.build_grid(4000, 2.0)
    r = g.nodes
    phi = pl.coulomb_potential(_unit_ball(g)).values
    exact = np.where(r <= 1.0, (3 - r**2) / 2, 1 / r)
    assert np.abs(phi - exact).max() < 1e-4


def test_hydrogenic_potential():
    g = pl.build_grid(40000, 20.0)
    r = g.nodes
    rho = pl.RadialFunction(g, np.exp(-2 * r) / np.pi)
    phi = pl.coulomb_potential(rho).values
    exact = 1 / r - np.exp(-2 * r) * (1 + 1 / r)
    assert np.abs(phi - exact).max() < 1e-6


def test_gaussian_potential_fourth_order():
    # Φ = erf(r)/r for the unit Gaussian: the error falls 16-fold per halving of h
    # (7.9e-7, 5.0e-8, 3.1e-9 and 1.9e-10 on 250 to 2000 nodes over 12)
    errs = []
    for n in (250, 500, 1000, 2000):
        g = pl.build_grid(n, 12.0)
        r = g.nodes
        phi = pl.coulomb_potential(pl.RadialFunction(g, np.exp(-r**2) / np.pi**1.5)).values
        errs.append(np.abs(phi - np.array([erf(x) for x in r]) / r).max())
    assert all(a >= 14.0 * b for a, b in zip(errs, errs[1:]))


def test_potential_inverts_the_kinetic_operator():
    # rΦ = v + rQ/R with K v = 4πrρ on the interior nodes and v = 0 at the wall, K the
    # five-point −d²/dr² of the kinetic energy: the solve's rounding, amplified by
    # ‖K‖, leaves 1.5e-10 of max |4πrρ|
    g = pl.build_grid(3000, 30.0)
    r = g.nodes
    rho = np.exp(-(r / 3) ** 2) * (1.0 + 0.1 * np.sin(5 * r))
    q = pl.integrate_3d(pl.RadialFunction(g, rho))
    v = r * pl.coulomb_potential(pl.RadialFunction(g, rho)).values - r * q / g.rmax
    source = 4 * np.pi * r * rho
    assert abs(v[-1]) <= 1e-15 * q
    residual = solver._apply_kinetic(v, g.h)[:-1] - source[:-1]
    assert np.abs(residual).max() <= 1e-9 * np.abs(source).max()


def test_monopole_tail():
    g = pl.build_grid(3000, 12.0)
    rho = _normalized(g, np.exp(-g.nodes**2))
    phi = pl.coulomb_potential(rho).values
    assert abs(g.nodes[-1] * phi[-1] - 1.0) < 1e-10


def test_unit_ball_self_energy():
    g = pl.build_grid(4000, 2.0)
    rho = _unit_ball(g)
    assert abs(pl.coulomb_bilinear(rho, rho) - 1.2) < 1e-4


def test_gaussian_self_energy():
    g = pl.build_grid(6000, 12.0)
    rho = pl.RadialFunction(g, np.pi**-1.5 * np.exp(-g.nodes**2))
    assert abs(pl.coulomb_bilinear(rho, rho) - np.sqrt(2 / np.pi)) < 1e-6


@given(w1=st.floats(0.5, 3.0), w2=st.floats(0.5, 3.0),
       a1=st.floats(0.1, 2.0), a2=st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_bilinear_symmetry(w1, w2, a1, a2):
    # Newton consistency: potential-of-a route equals potential-of-b route
    g = pl.build_grid(1500, 15.0)
    r = g.nodes
    a = pl.RadialFunction(g, a1 * np.exp(-(r / w1) ** 2))
    b = pl.RadialFunction(g, a2 * np.exp(-r / w2))
    s_ab = pl.coulomb_bilinear(a, b)
    s_ba = pl.coulomb_bilinear(b, a)
    assert abs(s_ab - s_ba) <= 1e-10 * abs(s_ab)


def test_potential_is_linear_in_the_density():
    # Φ is linear in ρ to rounding, a negative tail included, so the pair energy
    # ∫ a Φ_b of `coulomb_bilinear` and Q2's position oracle is bilinear (the SCF
    # solves for each mixed density anew and does not rest on this)
    g = pl.build_grid(3000, 30.0)
    r = g.nodes
    rng = np.random.default_rng(11)
    rho1 = np.exp(-2 * r) / np.pi
    rho2 = np.exp(-(r / 3) ** 2) * (1.0 + 0.1 * rng.standard_normal(g.n))
    a, b = 0.7, -1.9
    phi1 = pl.coulomb_potential(pl.RadialFunction(g, rho1)).values
    phi2 = pl.coulomb_potential(pl.RadialFunction(g, rho2)).values
    mixed = pl.coulomb_potential(pl.RadialFunction(g, a * rho1 + b * rho2)).values
    assert np.max(np.abs(mixed - (a * phi1 + b * phi2))) <= 1e-14 * np.max(np.abs(mixed))


def test_mismatched_grids_rejected():
    a = pl.RadialFunction(pl.build_grid(100, 5.0), np.ones(100))
    b = pl.RadialFunction(pl.build_grid(200, 5.0), np.ones(200))
    with pytest.raises(ValueError):
        pl.coulomb_bilinear(a, b)


@pytest.mark.parametrize("m", [1, 2, 7, 16, 17, 3000, 20000])
def test_smoothing_factor_is_dpttrfs(m):
    # the pivots of tridiag(−1, 14, −1)/12 settle to the last bit after seven
    # entries, so the stored sixteen and their limit are LAPACK's factors of any size
    d, e, _ = solver.dpttrf(np.full(m, 14.0 / 12.0), np.full(max(m - 1, 1), -1.0 / 12.0))
    ours = coulomb._smoothing_factor(m)
    assert np.array_equal(ours[0], d) and np.array_equal(ours[1][:m - 1], e[:m - 1])
