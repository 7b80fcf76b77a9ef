import tracemalloc

import numpy as np
import pytest

import polaron as pl
from conftest import MOMENTUM_GRID
from polaron.transforms import _chirp_moment, _fft_length, fourier_profile


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


def _direct_moment(f, nodes, k, oscillator):
    """Σ_i w_i r_i^k f(r_i) osc(p_j r_i) for every p_j of nodes: the O(N_p·N_r) direct
    quadrature, the oracle of the chirp-z sum, in 256-row slabs."""
    g = f.grid
    c = g.weights * g.nodes**k * f.values
    return np.concatenate([oscillator(np.outer(p, g.nodes)) @ c
                           for p in np.array_split(nodes, -(-nodes.size // 256))])


def _random_profile(n, rmax):
    return pl.RadialFunction(pl.build_grid(n, rmax), np.random.default_rng(n).standard_normal(n))


def _stacked_chirp_moment(grid, pgrid, *rows):
    """The chirp-z sum of `_chirp_moment` with all rows in one zero-padded (rows, L)
    buffer, transformed by batched FFTs: the reference that the row-by-row
    pipeline must reproduce bit for bit, as the artifacts' byte identity needs."""
    n, m = grid.n, pgrid.n
    squares = np.arange(max(n, m) + 1, dtype=float) ** 2
    chirp = np.exp(0.5j * (grid.h * pgrid.h) * squares)
    np.conjugate(chirp, out=chirp)
    size = _fft_length(n + m - 1)
    buf = np.zeros((len(rows), size), complex)
    for row, (k, f) in zip(buf, rows):
        np.multiply(grid.weights * grid.nodes**k * f, chirp[1:n + 1], out=row[:n])
    np.fft.fft(buf, out=buf)
    kernel = np.zeros(size, complex)
    np.conjugate(chirp[n - 1::-1], out=kernel[:n])
    np.conjugate(chirp[:m], out=kernel[n - 1:n + m - 1])
    buf *= np.fft.fft(kernel, out=kernel)
    np.fft.ifft(buf, out=buf)
    X = buf[:, n - 1:n + m - 1]
    return np.multiply(chirp[1:m + 1], X, out=X)


# (ψ's state or (n, rmax) of a random profile, momentum grid) of the chirp-z tests
CHIRP_CASES = [
    ("state_default", MOMENTUM_GRID),   # 3000/30 → 4000/10
    ("state_fine", MOMENTUM_GRID),      # 6000/40 → 4000/10
    # small and lopsided sizes, where an index slip in the convolution shows
    ((2, 1.0), (2, 1.5)),
    ((3, 2.0), (5, 3.0)),
    ((7, 3.0), (3, 2.0)),
    ((300, 12.0), (200, 8.0)),
]


def _profiles(request, source):
    """(ψ, ρ) of a solved state, or two random profiles on one (n, rmax) grid."""
    if isinstance(source, str):
        state = request.getfixturevalue(source)
        return state.psi, state.rho
    psi = _random_profile(*source)
    return psi, psi.with_values(np.random.default_rng(1).standard_normal(psi.grid.n))


@pytest.mark.parametrize("source, pgrid_shape", CHIRP_CASES)
def test_chirp_moments_match_direct_sum(request, source, pgrid_shape):
    f = request.getfixturevalue(source).psi if isinstance(source, str) else _random_profile(*source)
    pgrid = pl.build_grid(*pgrid_shape)
    sin_direct = _direct_moment(f, pgrid.nodes, 1, np.sin)
    cos_direct = _direct_moment(f, pgrid.nodes, 2, np.cos)
    X = _chirp_moment(f.grid, pgrid, (1, f.values), (2, f.values))
    sin_fast, cos_fast = -X[0].imag, X[1].real
    assert np.abs(sin_fast - sin_direct).max() <= 1e-12 * np.abs(sin_direct).max()
    assert np.abs(cos_fast - cos_direct).max() <= 1e-12 * np.abs(cos_direct).max()


@pytest.mark.parametrize("source, pgrid_shape", CHIRP_CASES)
def test_chirp_moments_equal_the_stacked_buffer_bit_for_bit(request, source, pgrid_shape):
    # the ψ rows that momentum_profile's moments come from, alone and with ρ's row;
    # compared as bits, so that a signed zero or a last-digit rounding shows
    psi, rho = _profiles(request, source)
    pgrid = pl.build_grid(*pgrid_shape)
    for rows in [((1, psi.values), (2, psi.values)),
                 ((1, psi.values), (2, psi.values), (1, rho.values))]:
        X = _chirp_moment(psi.grid, pgrid, *rows)
        reference = _stacked_chirp_moment(psi.grid, pgrid, *rows)
        assert np.array_equal(X.view(np.uint64), reference.view(np.uint64))


def test_momentum_profile_memory_stays_linear(state_fine):
    # a dense N_p×N_r kernel at 6000/40 → 4000/10 holds 192 MB (128 MB even in
    # 8M-element slabs); the chirp-z transforms hold O(N_r + N_p) arrays, 0.75–0.88 MB
    pgrid = pl.build_grid(*MOMENTUM_GRID)
    tracemalloc.start()
    try:
        pl.momentum_profile(state_fine, pgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("source, pgrid_shape", [
    ("state_default", MOMENTUM_GRID), ("state_fine", MOMENTUM_GRID),
    # N ≫ M, where L ≈ N and the buffers outweigh the O(N + M) arrays: the row-by-row
    # pipeline peaks at 3.54–3.66 MB, the batched (3, L) one at 5.33–5.46 MB, over the
    # bound's 4.86 MB
    ((60000, 30.0), (400, 10.0)),
], ids=["state_default", "state_fine", "random_60000"])
def test_fourier_profile_holds_one_buffer(request, source, pgrid_shape):
    # the rows pass one at a time through one zero-padded L-long complex buffer that
    # the FFTs overwrite; besides it, the kernel's spectrum (L complex) and the
    # (3, M) complex moments only O(N + M) arrays live: the chirp, a row's real product
    # and its temporary (16 + 16 bytes per node), and numpy's 128 kB of first-call FFT
    # state: measured 20–38 bytes per node beyond the buffers
    psi, rho = _profiles(request, source)
    pgrid = pl.build_grid(*pgrid_shape)
    n, m = psi.grid.n, pgrid.n
    tracemalloc.start()
    try:
        fourier_profile(psi, pgrid, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * _fft_length(n + m - 1) + 3 * m) + 48 * (n + m)


@pytest.mark.parametrize("source, pgrid_shape", CHIRP_CASES)
def test_stacked_profile_matches_one_row_transforms(request, source, pgrid_shape):
    # the rows of one chirp-z call, scaled to ψ̂, ψ̂' and ρ̂ by `fourier_profile` (and ρ̂
    # to φ and back by `momentum_profile`), give each row's own direct sum:
    # p ψ̂ = √(2/π) S, p² ψ̂' = √(2/π) (p C − S) and p ρ̂ = 4π S_ρ, S and C ψ's sine and
    # cosine moments and S_ρ ρ's; compared times p and p², so that ψ̂'s difference of
    # two O(1/p) terms at small p does not enter, at every node of the small grids and
    # every 8th of the 4000-node one
    pgrid = pl.build_grid(*pgrid_shape)
    every = slice(None, None, 8 if pgrid.n > 500 else 1)
    p = pgrid.nodes[every]
    psi, rho = _profiles(request, source)
    if isinstance(source, str):
        mp = pl.momentum_profile(request.getfixturevalue(source), pgrid)
        stacked = (mp.psi_hat, mp.dpsi_hat, mp.rho_hat())
    else:
        stacked = fourier_profile(psi, pgrid, rho)
    unitary = np.sqrt(2.0 / np.pi)
    sin_psi = _direct_moment(psi, p, 1, np.sin)
    one_row = (unitary * sin_psi, unitary * (p * _direct_moment(psi, p, 2, np.cos) - sin_psi),
               4.0 * np.pi * _direct_moment(rho, p, 1, np.sin))
    for fast, ref, power in zip(stacked, one_row, (1, 2, 1)):
        assert np.abs(p**power * fast.values[every] - ref).max() <= 1e-13 * np.abs(ref).max()
