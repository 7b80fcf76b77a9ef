import tracemalloc

import numpy as np
import pytest

import polaron as pl
from conftest import MOMENTUM_GRID
from polaron.momentum import SQRT2_PI
from polaron.transforms import _chirp_moment, fourier_profile


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


def _direct_moment(f, pgrid, k, oscillator):
    """Σ_i w_i r_i^k f(r_i) osc(p_j r_i) for every p_j: the O(N_p·N_r) direct
    quadrature, the oracle of the chirp-z sum, in 256-row slabs."""
    g = f.grid
    c = g.weights * g.nodes**k * f.values
    return np.concatenate([oscillator(np.outer(p, g.nodes)) @ c
                           for p in np.array_split(pgrid.nodes, -(-pgrid.n // 256))])


def _random_profile(n, rmax):
    return pl.RadialFunction(pl.build_grid(n, rmax), np.random.default_rng(n).standard_normal(n))


@pytest.mark.parametrize("source, pgrid_shape", [
    ("state_default", MOMENTUM_GRID),   # 3000/30 → 4000/10
    ("state_fine", MOMENTUM_GRID),      # 6000/40 → 4000/10
    # small and lopsided sizes, where an index slip in the convolution shows
    ((2, 1.0), (2, 1.5)),
    ((3, 2.0), (5, 3.0)),
    ((7, 3.0), (3, 2.0)),
    ((300, 12.0), (200, 8.0)),
])
def test_chirp_moments_match_direct_sum(request, source, pgrid_shape):
    f = request.getfixturevalue(source).psi if isinstance(source, str) else _random_profile(*source)
    pgrid = pl.build_grid(*pgrid_shape)
    sin_direct = _direct_moment(f, pgrid, 1, np.sin)
    cos_direct = _direct_moment(f, pgrid, 2, np.cos)
    X = _chirp_moment(f.grid, pgrid, (1, f.values), (2, f.values))
    sin_fast, cos_fast = -X[0].imag, X[1].real
    assert np.abs(sin_fast - sin_direct).max() <= 1e-12 * np.abs(sin_direct).max()
    assert np.abs(cos_fast - cos_direct).max() <= 1e-12 * np.abs(cos_direct).max()


def test_momentum_profile_memory_stays_linear(state_fine):
    # a dense N_p×N_r kernel at 6000/40 → 4000/10 holds 192 MB (128 MB even in
    # 8M-element slabs); the chirp-z transforms hold O(N_r + N_p) arrays, ~1 MB
    pgrid = pl.build_grid(*MOMENTUM_GRID)
    tracemalloc.start()
    try:
        pl.momentum_profile(state_fine, pgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("source, pgrid_shape", [
    ("state_default", MOMENTUM_GRID),
    ("state_fine", MOMENTUM_GRID),
    ((2, 1.0), (2, 1.5)),
    ((3, 2.0), (5, 3.0)),
    ((7, 3.0), (3, 2.0)),
    ((300, 12.0), (200, 8.0)),
])
def test_stacked_profile_matches_one_row_transforms(request, source, pgrid_shape):
    # the rows of one chirp-z call give what the one-row functions give: ψ̂, ψ̂'
    # and ρ̂ of `fourier_profile`, and ψ̂, ψ̂' and φ of `momentum_profile`
    pgrid = pl.build_grid(*pgrid_shape)
    if isinstance(source, str):
        state = request.getfixturevalue(source)
        psi, rho = state.psi, state.rho
        mp = pl.momentum_profile(state, pgrid)
        stacked = (mp.psi_hat, mp.dpsi_hat, mp.phi)
    else:
        psi = _random_profile(*source)
        rho = psi.with_values(np.random.default_rng(1).standard_normal(psi.grid.n))
        stacked = fourier_profile(psi, pgrid, rho)
    rho_hat = pl.fourier_density(rho, pgrid).values
    phi = rho_hat / (SQRT2_PI * pgrid.nodes) if isinstance(source, str) else rho_hat
    one_row = (pl.fourier_radial(psi, pgrid).values,
               pl.fourier_radial_gradient(psi, pgrid).values, phi)
    for fast, ref in zip(stacked, one_row):
        assert np.abs(fast.values - ref).max() <= 1e-13 * np.abs(ref).max()
