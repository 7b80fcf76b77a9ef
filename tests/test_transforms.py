import numpy as np
import pytest

import polaron as pl


@pytest.fixture(scope="module")
def rgrid():
    return pl.build_grid(3000, 12.0)


@pytest.fixture(scope="module")
def pgrid():
    return pl.build_grid(2000, 12.0)


def test_gaussian_fixed_point(rgrid, pgrid):
    psi = pl.RadialFunction(rgrid, np.pi**-0.75 * np.exp(-rgrid.nodes**2 / 2))
    psi_hat = pl.fourier_radial(psi, pgrid)
    exact = np.pi**-0.75 * np.exp(-pgrid.nodes**2 / 2)
    assert np.abs(psi_hat.values - exact).max() < 1e-6


def test_hydrogenic_transform(pgrid):
    g = pl.build_grid(6000, 40.0)
    psi = pl.RadialFunction(g, np.exp(-g.nodes) / np.sqrt(np.pi))
    psi_hat = pl.fourier_radial(psi, pgrid)
    exact = (2 * np.sqrt(2) / np.pi) * (1 + pgrid.nodes**2) ** -2
    assert np.abs(psi_hat.values - exact).max() < 1e-5


def test_plancherel_gaussian(rgrid, pgrid):
    psi = pl.RadialFunction(rgrid, np.pi**-0.75 * np.exp(-rgrid.nodes**2 / 2))
    psi_hat = pl.fourier_radial(psi, pgrid)
    n_pos = pl.integrate_3d(psi.with_values(psi.values**2))
    n_mom = pl.integrate_3d(psi_hat.with_values(psi_hat.values**2))
    assert abs(n_mom - n_pos) < 1e-6


def test_plancherel_hydrogenic():
    # ψ̂ ~ p^-4 needs a long momentum grid before the tail drops below 1e-8
    g = pl.build_grid(8000, 40.0)
    pg = pl.build_grid(10000, 50.0)
    psi = pl.RadialFunction(g, np.exp(-g.nodes) / np.sqrt(np.pi))
    psi_hat = pl.fourier_radial(psi, pg)
    n_pos = pl.integrate_3d(psi.with_values(psi.values**2))
    n_mom = pl.integrate_3d(psi_hat.with_values(psi_hat.values**2))
    assert abs(n_mom - n_pos) < 1e-6


def test_round_trip(rgrid, pgrid):
    psi = pl.RadialFunction(rgrid, np.pi**-0.75 * np.exp(-rgrid.nodes**2 / 2))
    back = pl.fourier_radial(pl.fourier_radial(psi, pgrid), rgrid)
    assert np.abs(back.values - psi.values).max() < 1e-4


def test_density_transform_gaussian(rgrid, pgrid):
    rho = pl.RadialFunction(rgrid, np.pi**-1.5 * np.exp(-rgrid.nodes**2))
    rho_hat = pl.fourier_density(rho, pgrid)
    assert np.abs(rho_hat.values - np.exp(-pgrid.nodes**2 / 4)).max() < 1e-6
    assert rho_hat.values.dtype == np.float64  # real, no imaginary bookkeeping


def test_density_transform_total_mass(rgrid, pgrid):
    rho = pl.RadialFunction(rgrid, np.pi**-1.5 * np.exp(-rgrid.nodes**2))
    rho_hat = pl.fourier_density(rho, pgrid)
    # ρ̂(p₁) = e^{−p₁²/4} lies within p₁²/4 = 9e-6 of ∫ρ = 1
    assert abs(rho_hat.values[0] - 1.0) < 1e-4


def test_gradient_transform_gaussian(rgrid, pgrid):
    psi = pl.RadialFunction(rgrid, np.pi**-0.75 * np.exp(-rgrid.nodes**2 / 2))
    dpsi_hat = pl.fourier_radial_gradient(psi, pgrid)
    exact = -pgrid.nodes * np.pi**-0.75 * np.exp(-pgrid.nodes**2 / 2)
    assert np.abs(dpsi_hat.values - exact).max() < 1e-6

