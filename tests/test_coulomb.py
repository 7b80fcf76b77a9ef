import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polaron as pl


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
    # the SCF carries Φ of its mixed density as the mix of the potentials it
    # already has, which rests on this identity (a negative tail included)
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
